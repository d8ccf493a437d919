"""The module-algebra action certified in two slots: H's and one of M's.

`check_hopf_module_algebra` evaluates (mm')·h = m(m'·h) (h·(mm') =
(h·m)m' on the left) only for h in a generating set G_H of H and for the M
factor at position 1 in a generating set G_M of M's multiplication, when M
is known associative without a Light's test of its own: a cached pass, or
a tensor product of associative factors.  Every verdict here must equal,
by `verdict_key` and by `repr`, the full check's.  `_on_generators` with
several slots is compared with `_batched` on random identities; the S3⊗S3
module algebra is counted fresh and as a copy with no record; seeded
failures, some whose first failure lies outside G_M, are compared with the
full check; and the two certificates this one must not be mistaken for,
both M slots at once and G_M of a non-associative M, are shown to pass
failing inputs.
"""

import random
from math import prod

import pytest

from rbhopf import (GF, QQ, AlgebraicStructure, HopfModule, Mat, Tensor3,
                    builtin, check_associativity, check_hopf_module,
                    check_hopf_module_algebra, hopf_module_from_projection,
                    regular_hopf_module, tensor_product)
from rbhopf import hopfmod
from rbhopf.structures import (_batched, _generators, _h_position,
                               _on_generators, _placed, _recorded, _verdict)
from conftest import verdict_key
from test_generator_certificates import full_check, moved
from test_tensor_provenance import fresh_square, inputs_per_identity  # noqa: F401


def assert_matches_full(hm, one_at_a_time=False):
    """`check_hopf_module_algebra(hm)` certified against the full check."""
    expected = full_check(lambda: check_hopf_module_algebra(hm), one_at_a_time)
    got = check_hopf_module_algebra(hm)
    assert verdict_key(got) == verdict_key(expected)
    assert repr(got) == repr(expected)
    return got


# ---------------------------------------------------------------------------
# Several slots against `_batched`
# ---------------------------------------------------------------------------

def random_mat(rng, field, rows, cols):
    return Mat.from_terms(field, (rows, cols), {
        (r, c): rng.randrange(1, field.p) for r in range(rows)
        for c in range(cols) if rng.random() < 0.3})


def random_residual(rng, field, dims):
    """A random linear map of the input factors to one output factor, run
    on the leading factors so that any tags ride along."""
    maps, width = [], dims[0]
    if len(dims) == 1:
        maps.append(random_mat(rng, field, rng.randrange(1, 3), width))
    for d in dims[1:]:
        out = rng.randrange(1, 4)
        maps.append(random_mat(rng, field, out, width * d))
        width = out

    def residual(t):
        if len(dims) == 1:
            return t.map_at(0, maps[0])
        for m in maps:
            t = t.merge_map_at(0, m)
        return t

    return residual


@pytest.mark.parametrize("p", [2, 3])
def test_several_slots_give_the_batched_verdict(p):
    field, rng = GF(p), random.Random(100 + p)
    seen = {True: 0, False: 0}
    for _ in range(150):
        dims = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 5)))
        slots = rng.sample(range(len(dims)), rng.randrange(1, len(dims) + 1))
        gens = [sorted(rng.sample(range(dims[i]), rng.randrange(1, dims[i] + 1)))
                for i in slots]
        residual = random_residual(rng, field, dims)
        expected = _verdict(*_batched("id", field, dims, residual))
        charges = []
        slot = slots[0] if len(slots) == 1 and rng.random() < 0.5 else tuple(slots)
        got = _verdict(*_on_generators("id", field, dims, slot,
                                       gens[0] if isinstance(slot, int) else gens,
                                       residual, charges.append))
        on_grid = not expected.passed and any(
            all(k[i] in g for i, g in zip(slots, gens))
            for k in expected.defect.residual)
        # The certificate's contract: it fails exactly when the grid does,
        # and then it is the full check.
        assert got.passed is not on_grid
        if on_grid:
            assert repr(got) == repr(expected)
            others = prod(dims) // prod(dims[i] for i in slots)
            assert charges == [prod(dims) - others * prod(map(len, gens))]
        else:
            assert charges == []
        seen[got.passed] += 1
    assert seen[True] and seen[False]


# ---------------------------------------------------------------------------
# The S3⊗S3 module algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side", ["right", "left"])
def test_fresh_square_certifies_the_action_in_h_and_m(side, inputs_per_identity):
    hm = hopf_module_from_projection(fresh_square(), side)
    assert check_hopf_module_algebra(hm).passed
    assert inputs_per_identity[f"{side}-module-algebra-action"] == 0
    # A copied action has no record, and M keeps its factors.
    copy = hm.replace(action=Mat.from_terms(hm.field, hm.action.dims,
                                            dict(hm.action.terms)))
    assert check_hopf_module_algebra(copy).passed
    # |G_H|·|G_M|·36 with G_H = (0, 1, 2) of S3 and G_M = (0, 1, 2, 6, 12).
    assert inputs_per_identity[f"{side}-module-algebra-action"] == 3 * 5 * 36
    assert _recorded("light", hm.mul) == (0, 1, 2, 6, 12)
    assert _recorded("light", hm.hopf.mul) == (0, 1, 2)


@pytest.mark.parametrize("side", ["right", "left"])
def test_copy_without_record_is_certified_in_h_only(side, inputs_per_identity):
    pb = fresh_square()
    hm = hopf_module_from_projection(pb, side)
    copy = hm.replace(mul=Tensor3.from_terms(hm.field, hm.mul.dims,
                                             dict(hm.mul.terms)))
    assert _recorded("factors", copy.mul) is None
    got = check_hopf_module_algebra(copy)
    assert inputs_per_identity[f"{side}-module-algebra-action"] == 3 * 36 * 36
    assert repr(got) == repr(check_hopf_module_algebra(hm))
    assert _recorded("light", copy.mul) is None


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("target", ["mul", "action"])
def test_square_with_moved_entries(side, target):
    """Moved entries of M's multiplication or of the action.  A moved
    action fails the module axioms first; a moved multiplication, which
    has no record, fails the action identity, for some seeds first at an
    M index outside G_M."""
    hm = hopf_module_from_projection(fresh_square(), side)
    gm = (0, 1, 2, 6, 12)
    outside = 0
    for seed in range(4):
        rng = random.Random(f"{side}/{target}/{seed}")
        bad = hm.replace(**{target: moved(rng, getattr(hm, target))})
        got = assert_matches_full(bad)
        assert not got.passed
        outside += got.defect.witness[1] not in gm
    assert outside or target == "action"


# ---------------------------------------------------------------------------
# Two copies of the regular C2 module, with the M slot used on a failure
# ---------------------------------------------------------------------------

def doubled(hm: HopfModule) -> HopfModule:
    """M⊕M of a right Hopf module: copy v of e_i is e_{v·dim M + i}, with
    the same action and coaction on each copy."""
    n, h = hm.m_dim, hm.hopf.dim
    action, coaction = {}, {}
    for v in range(2):
        for (r, c), val in hm.action.terms.items():
            action[v * n + r, v * n * h + c] = val
        for (r, c), val in hm.coaction.terms.items():
            coaction[v * n * h + r, v * n + c] = val
    f = hm.field
    return HopfModule(hm.hopf, 2 * n,
                      Mat.from_terms(f, (2 * n, 2 * n * h), action),
                      Mat.from_terms(f, (2 * n * h, 2 * n), coaction), hm.side)


def semigroup_algebra(field, table) -> Tensor3:
    n = len(table)
    return Tensor3(field, (n,) * 3, {
        (a, b, table[a][b]): 1 for a in range(n) for b in range(n)})


# C3 = {0, 1, 2} with an identity 3 adjoined: associative, G_M = (0, 1, 3).
C3_WITH_ONE = ((0, 1, 2, 0), (1, 2, 0, 1), (2, 0, 1, 2), (0, 1, 2, 3))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_first_failure_outside_g_m(field):
    """Right side only: on the left the witness is (h, m, m'), and with M
    associative the first failing m for the first failing h lies in G_M,
    since every e_i below it passes and G_M's greedy choice puts each
    index outside G_M in the subalgebra its smaller indices generate."""
    hm = doubled(regular_hopf_module(builtin("group:C2", field), "right"))
    assert check_hopf_module(hm).passed
    mul = semigroup_algebra(field, C3_WITH_ONE)
    assert check_associativity(AlgebraicStructure(4, field, mul=mul)).passed
    gm = _recorded("light", mul)
    assert gm == (0, 1, 3)
    got = assert_matches_full(hm.replace(mul=mul), one_at_a_time=True)
    assert not got.passed
    assert got.defect.identity == "right-module-algebra-action"
    assert got.defect.witness[1] not in gm


# ---------------------------------------------------------------------------
# Certificates that would be wrong
# ---------------------------------------------------------------------------

def action_residual(hm: HopfModule):
    """The module-algebra action residual, as `check_hopf_module_algebra`
    writes it."""
    h_pos = _h_position(hm.side)
    return lambda t: (t.merge_at(1 - h_pos, hm.mul).merge_map_at(0, hm.action)
                      - t.merge_map_at(h_pos, hm.action).merge_at(0, hm.mul))


def passes_on(hm: HopfModule, slots, gens) -> bool:
    n, h = hm.m_dim, hm.hopf.dim
    dims = _placed(_h_position(hm.side), (n, n), (h,))
    return _verdict(*_on_generators("action", hm.field, dims, slots, gens,
                                    action_residual(hm))).passed


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_both_m_slots_are_not_certified(side, field):
    """M = k[S] for S = {0, 1, 2} with 0·0 = 1 and every other product 2:
    associative, G_M = (0,).  On the regular C3 module the action identity
    holds on G_M × G_M × G_H and fails elsewhere; one M slot catches it."""
    c3 = builtin("group:C3", field)
    mul = semigroup_algebra(field, ((1, 2, 2), (2, 2, 2), (2, 2, 2)))
    assert check_associativity(AlgebraicStructure(3, field, mul=mul)).passed
    hm = regular_hopf_module(c3, side).replace(mul=mul)
    gm, gh = _recorded("light", mul), _recorded("light", c3.mul)
    assert (gm, gh) == ((0,), (0, 1))
    assert passes_on(hm, (0, 1, 2), _placed(_h_position(side), (gm, gm), (gh,)))
    got = assert_matches_full(hm, one_at_a_time=True)
    assert not got.passed
    assert got.defect.identity == f"{side}-module-algebra-action"


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_non_associative_m_gets_no_m_slot(side, field):
    """m·e_j = e_{f(j)} on the right (e_j·m on the left), f = (1, 2, 1):
    not associative, and e_0 generates it, so G_M = [0].  On the regular C3
    module the action identity holds on G_M in M's slot and G_H in H's,
    and fails elsewhere."""
    c3 = builtin("group:C3", field)
    f = (1, 2, 1)
    mul = Tensor3(field, (3,) * 3, {
        ((i, j, f[j]) if side == "right" else (j, i, f[j])): 1
        for i in range(3) for j in range(3)})
    m = AlgebraicStructure(3, field, mul=mul)
    hm = regular_hopf_module(c3, side).replace(mul=mul)
    gh = _recorded("light", c3.mul)
    assert _generators(m) == [0] and gh == (0, 1)
    h_pos = _h_position(side)
    assert passes_on(hm, (2 * h_pos, 1), (gh, (0,)))
    got = assert_matches_full(hm, one_at_a_time=True)
    assert not got.passed
    assert got.defect.identity == f"{side}-module-algebra-action"
    assert not check_associativity(m).passed


# ---------------------------------------------------------------------------
# A factor proof over the M slot's budget
# ---------------------------------------------------------------------------

def test_over_budget_factor_proof_leaves_the_m_slot_unread(monkeypatch):
    """M = A⊗k over the trivial Hopf algebra, with A the non-unital
    k[x]/(x⁷) on x, ..., x⁶ (e_i·e_j = e_{i+j+1}).  The M-slot read may
    spend m²·h = 36 inputs; Light's test on A needs more, so the read
    answers None, the verdict is the full check's, and neither
    multiplication gains a G."""
    a = Tensor3(QQ, (6,) * 3, {(i, j, i + j + 1): 1
                               for i in range(6) for j in range(6) if i + j < 5})
    m = tensor_product(AlgebraicStructure(6, QQ, mul=a), builtin("trivial"))
    eye = Mat.identity(QQ, 6)
    hm = HopfModule(builtin("trivial"), 6, eye, eye, "right", mul=m.mul)
    inherited_generators, reads = hopfmod._inherited_generators, []

    def spied(mul, budget):
        reads.append((budget, inherited_generators(mul, budget)))
        return reads[-1][1]

    monkeypatch.setattr(hopfmod, "_inherited_generators", spied)
    got = assert_matches_full(hm)
    assert got.passed
    assert reads == [(36, None)]
    assert _recorded("light", a) is None and _recorded("light", m.mul) is None
