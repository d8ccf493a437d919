"""Left Hopf modules against their mirrored right modules.

A left H-module-and-comodule M is a right one over H^{op,cop}: h·m is read
as m·h, m₍₋₁₎⊗m₍₀₎ as m₍₀₎⊗m₍₋₁₎, and M's own multiplication and
comultiplication are taken opposite and coopposite too.  Every left
identity then becomes the right identity of the same name, on inputs and
outputs permuted by the mirror, and P_L(m) = S(m₍₋₁₎)·m₍₀₎ becomes
P_R(m) = m₍₀₎·S(m₍₋₁₎), the same matrix.  This is an oracle for the left
side that shares nothing with it but the right side's rewrite chains: the
mirror is built here from structure constants alone.

For every checker, the left verdict and the right verdict of the mirror
must agree on `passed`, on the identity (after renaming `left-` to
`right-`) and on the number of residual entries; the coinvariant
projections must be equal matrices.
"""

import random

import pytest

from rbhopf import (GF, QQ, HopfModule, Mat, ShapeError, Tensor3, builtin,
                    check_comodule, check_hopf_module,
                    check_hopf_module_algebra, check_hopf_module_coalgebra,
                    check_module, coinvariant_projection,
                    hopf_module_from_projection, pi_operator,
                    regular_hopf_module, tensor_square_projection)
from rbhopf.fileformat import Comodule


def opposite(mul: Tensor3) -> Tensor3:
    return Tensor3.from_terms(mul.field, mul.dims, {
        (j, i, k): v for (i, j, k), v in mul.terms.items()})


def coopposite(comul: Tensor3) -> Tensor3:
    return Tensor3.from_terms(comul.field, comul.dims, {
        (i, k, j): v for (i, j, k), v in comul.terms.items()})


def swap_flat(m: Mat, axis: int, a: int, b: int) -> Mat:
    """`m` with the flat index x·b + y of shape (a, b) on `axis` (0: rows,
    1: columns) moved to y·a + x, its index in shape (b, a)."""
    def swap(k):
        x, y = divmod(k, b)
        return y * a + x

    return Mat.from_terms(m.field, m.dims, {
        ((swap(r), c) if axis == 0 else (r, swap(c))): v
        for (r, c), v in m.terms.items()})


def mirrored(hm: HopfModule) -> HopfModule:
    """The right H^{op,cop}-module of a left H-module `hm`."""
    h, n = hm.hopf, hm.m_dim
    hopf = h.replace(mul=opposite(h.mul), comul=coopposite(h.comul))
    return HopfModule(
        hopf, n,
        swap_flat(hm.action, 1, h.dim, n), swap_flat(hm.coaction, 0, h.dim, n),
        "right",
        mul=None if hm.mul is None else opposite(hm.mul),
        comul=None if hm.comul is None else coopposite(hm.comul))


CHECKS = {
    "module": lambda hm: check_module(hm.hopf, hm.m_dim, hm.action, hm.side),
    "comodule": lambda hm: check_comodule(hm.hopf, hm.m_dim, hm.coaction, hm.side),
    "hopf-module": check_hopf_module,
    "hopf-module-algebra": check_hopf_module_algebra,
    "hopf-module-coalgebra": check_hopf_module_coalgebra,
}


def outcome(v, rename=False):
    d = v.defect
    if d is None:
        return v.passed, None, 0
    identity = d.identity
    if rename and identity.startswith("left-"):
        identity = "right-" + identity[len("left-"):]
    return v.passed, identity, len(d.residual)


def mismatches(hm: HopfModule, tally: dict) -> list:
    """Checks where the left module `hm` and its mirror disagree."""
    assert hm.side == "left"
    mirror = mirrored(hm)
    bad = []
    for name, check in CHECKS.items():
        left = outcome(check(hm), rename=True)
        right = outcome(check(mirror))
        tally[left[0]] += 1
        if left != right:
            bad.append((name, left, right))
    if coinvariant_projection(hm) != coinvariant_projection(mirror):
        bad.append(("projection",))
    return bad


def moved(rng, m):
    """A `Mat` or `Tensor3` with one seeded entry added onto a seeded position."""
    out = dict(m.terms)
    src = rng.choice(sorted(out))
    dst = tuple(rng.randrange(d) for d in m.dims)
    val = out.pop(src)
    out[dst] = out.get(dst, m.field.zero) + val
    return type(m).from_terms(m.field, m.dims, out)


@pytest.mark.parametrize("p", [2, 3])
def test_left_modules_with_one_moved_entry_match_their_mirrors(p):
    field, rng = GF(p), random.Random(f"mirror/{p}")
    names = ("group:C2", "group:C3", "group:S3") + (("sweedler4",) if p == 3 else ())
    tally = {True: 0, False: 0}
    for _ in range(35):
        h = builtin(rng.choice(names), field)
        hm = regular_hopf_module(h, "left")
        target = rng.choice(("action", "coaction", "mul", "comul"))
        hm = hm.replace(**{target: moved(rng, getattr(hm, target))})
        assert mismatches(hm, tally) == []
    assert tally[True] and tally[False]


@pytest.mark.parametrize("name", ["group:S3", "sweedler4"])
def test_regular_left_modules_match_their_mirrors(name):
    tally = {True: 0, False: 0}
    assert mismatches(regular_hopf_module(builtin(name), "left"), tally) == []
    assert tally == {True: len(CHECKS), False: 0}


def test_s3_tensor_square_left_module_matches_its_mirror():
    pb = tensor_square_projection(builtin("group:S3"))
    hm = hopf_module_from_projection(pb, "left")
    rng = random.Random("mirror/s3-square")
    tally = {True: 0, False: 0}
    for module in (hm, hm.replace(action=moved(rng, hm.action)),
                   hm.replace(coaction=moved(rng, hm.coaction))):
        assert mismatches(module, tally) == []
    assert tally == {True: len(CHECKS) + 2, False: 2 * len(CHECKS) - 2}


@pytest.mark.parametrize("call", [
    lambda h: check_module(h, h.dim, regular_hopf_module(h).action, "up"),
    lambda h: check_comodule(h, h.dim, regular_hopf_module(h).coaction, "up"),
    lambda h: regular_hopf_module(h, "up"),
    lambda h: hopf_module_from_projection(tensor_square_projection(h), "up"),
    lambda h: pi_operator(tensor_square_projection(h), "up"),
    lambda h: Comodule(h, h.dim, regular_hopf_module(h).coaction, "up"),
], ids=["module", "comodule", "hopf-module", "from-projection", "pi-operator",
        "bare-comodule"])
def test_every_side_is_validated_by_one_rule(call):
    with pytest.raises(ShapeError, match="side must be 'left' or 'right'"):
        call(builtin("group:C2", QQ))
