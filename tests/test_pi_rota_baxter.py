"""The convolution projection Π carries its Rota-Baxter identity.

`pi_operator` records on Π that it is id ⋆ (i∘S∘π) (or (i∘S∘π) ⋆ id on
the left) for a bialgebra C with a projection onto H.  When the weight is
-1, the structure's multiplication is C's, and i, π, H and C pass the
checks of the proof in `rb.check_rb_algebra`, the identity evaluates no
basis pair.  Every verdict must equal, by `repr`, the full check's on a
copy with no record.  Each precondition is broken once on its own below,
where the full check either fails (the certificate would have passed a
false identity) or passes on all n² pairs (the certificate must not be
used).
"""

import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from rbhopf import (GF, QQ, Mat, ProjectionBialgebra, Tensor3, builtin,
                    check_bialgebra_map, check_rb_algebra,
                    check_rb_bialgebra, pi_operator, projection_bialgebra,
                    tensor_product, tensor_square_projection)
from rbhopf import rb
from rbhopf.fileformat import load, save
from rbhopf.structures import _recorded
from rbhopf.tensorops import _matrix_of
from test_generator_certificates import moved

SIDES = ("right", "left")


@pytest.fixture
def rb_inputs(monkeypatch):
    """Basis inputs evaluated per Rota-Baxter identity."""
    counts = Counter()
    batched = rb._batched

    def counting(identity, field, dims, residual):
        def counted(t):
            counts[identity] += len(t.terms)
            return residual(t)

        return batched(identity, field, dims, counted)

    monkeypatch.setattr(rb, "_batched", counting)
    return counts


def copied(m):
    """A copy of a `Mat` or `Tensor3` with no record."""
    return type(m).from_terms(m.field, m.dims, dict(m.terms))


def stripped_verdict(check, s, *args):
    """`check` on a pickled copy of `s` and of every operator: no record."""
    return check(*pickle.loads(pickle.dumps((s, *args))))


def pi_of(pb, side):
    """Π of `pb` after validating i and π, which records nothing."""
    for f, src, dst in ((pb.embed, pb.hopf, pb.big),
                        (pb.project, pb.big, pb.hopf)):
        check_bialgebra_map(f, src, dst)
    return pi_operator(pb, side)


def assert_full(s, pi, weight=-1):
    """The verdict on the recorded Π, which must be the full check's."""
    got = check_rb_algebra(s, pi, weight)
    assert repr(got) == repr(stripped_verdict(check_rb_algebra, s, pi, weight))
    return got


# ---------------------------------------------------------------------------
# Fresh squares and copies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", ["sweedler4", "group:S3"])
def test_fresh_square_evaluates_no_pair(name, side, rb_inputs):
    pb = tensor_square_projection(builtin(name))
    pi = pi_operator(pb, side)
    assert _recorded("pi-operator", pi, pb.big.mul) is True
    assert check_rb_algebra(pb.big, pi, -1).passed
    assert rb_inputs["rb-algebra"] == 0
    v = check_rb_bialgebra(pb.big, pi, pi, -1, -1)
    assert v.passed and rb_inputs["rb-algebra"] == 0
    assert rb_inputs["rb-coalgebra"] == pb.big.dim
    got = check_rb_algebra(pb.big, copied(pi), -1)
    assert rb_inputs["rb-algebra"] == pb.big.dim ** 2
    assert repr(got) == repr(check_rb_algebra(pb.big, pi, -1))


@pytest.mark.parametrize("how", ["from_terms", "pickle", "fileformat"])
@pytest.mark.parametrize("side", SIDES)
def test_copies_evaluate_every_pair(side, how, tmp_path, rb_inputs):
    pb = tensor_square_projection(builtin("sweedler4"))
    s, pi = pb.big, pi_operator(pb, side)
    expected = [repr(check_rb_algebra(s, pi, weight)) for weight in (-1, 0)]
    rb_inputs.clear()
    if how == "from_terms":
        pi = copied(pi)
    elif how == "pickle":
        s, pi = pickle.loads(pickle.dumps((s, pi)))
    else:
        save(s, str(tmp_path / "big.rbh"))
        save(pi, str(tmp_path / "pi.rbh"))
        s = load(str(tmp_path / "big.rbh")).payload
        pi = load(str(tmp_path / "pi.rbh")).payload
    assert _recorded("pi-operator", pi, s.mul) is None
    assert [repr(check_rb_algebra(s, pi, weight))
            for weight in (-1, 0)] == expected
    assert rb_inputs["rb-algebra"] == 2 * 16 ** 2


# ---------------------------------------------------------------------------
# Each precondition broken on its own
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, weight",
                         [(QQ, 0), (QQ, 1), (QQ, 2), (GF(3), 0), (GF(3), 1)])
def test_other_weights_are_evaluated(field, weight, rb_inputs):
    pb = tensor_square_projection(builtin("group:S3", field))
    for side in SIDES:
        got = assert_full(pb.big, pi_operator(pb, side), weight)
        assert not got.passed
    assert rb_inputs["rb-algebra"] == 4 * 36 ** 2


@pytest.mark.parametrize("p, weight", [(2, 1), (3, 2)])
def test_minus_one_written_otherwise(p, weight, rb_inputs):
    pb = tensor_square_projection(builtin("group:S3", GF(p)))
    for side in SIDES:
        assert check_rb_algebra(pb.big, pi_operator(pb, side), weight).passed
    assert rb_inputs["rb-algebra"] == 0


def test_another_multiplication_is_evaluated(rb_inputs):
    pb = tensor_square_projection(builtin("group:S3"))
    s = pb.big.replace(mul=moved(random.Random(3), pb.big.mul))
    for side in SIDES:
        assert not assert_full(s, pi_operator(pb, side)).passed
    # The same values, built again: a product proved associative, but not
    # the multiplication Π was built with.
    s = tensor_product(pb.hopf, pb.hopf)
    rb_inputs.clear()
    assert assert_full(s, pi_operator(pb)).passed
    assert rb_inputs["rb-algebra"] == 2 * 36 ** 2


def moved_embed(pb):
    """i with i(e_1) = e_1⊗e_0 moved to e_1⊗e_1: still comultiplicative,
    unital and counital with π∘i = id, but not multiplicative."""
    n = pb.hopf.dim
    terms = dict(pb.embed.terms)
    terms[n + 1, 1] = terms.pop((n, 1))
    return Mat.from_terms(pb.embed.field, pb.embed.dims, terms)


def moved_project(pb):
    """π with π(e_0⊗e_1) = e_0 moved to e_1: still comultiplicative,
    unital and counital with π∘i = id, but not multiplicative."""
    terms = dict(pb.project.terms)
    terms[1, 1] = terms.pop((0, 1))
    return Mat.from_terms(pb.project.field, pb.project.dims, terms)


@pytest.mark.parametrize("side", SIDES)
def test_maps_that_are_not_multiplicative(side):
    pb = tensor_square_projection(builtin("group:S3"))
    for raw in (pb.replace(embed=moved_embed(pb)),
                pb.replace(project=moved_project(pb))):
        assert raw.project * raw.embed == Mat.identity(QQ, 6)
        assert not assert_full(raw.big, pi_of(raw, side)).passed


@pytest.mark.parametrize("side", SIDES)
def test_pi_after_i_not_the_identity(side):
    """i(h) = 1⊗h and π(h⊗h') = h·ε(h') are bialgebra maps, but π∘i = ε."""
    pb = tensor_square_projection(builtin("group:S3"))
    h = pb.hopf
    embed = _matrix_of(h.field, (h.dim,), lambda t: t.insert_at(0, h.unit))
    assert check_bialgebra_map(embed, h, pb.big).passed
    raw = pb.replace(embed=embed)
    assert not assert_full(raw.big, pi_of(raw, side)).passed


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", ["group:S3", "sweedler4"])
def test_h_with_a_wrong_antipode(name, side):
    """H shares every map i and π were checked with but its antipode, so
    only H's own axioms tell; Π is then not idempotent."""
    pb = tensor_square_projection(builtin(name))
    s = pb.hopf.antipode
    terms = dict(s.terms)
    i, j = max(terms)
    terms[i, (j + 1) % s.cols] = terms.pop((i, j))
    raw = pb.replace(hopf=pb.hopf.replace(
        antipode=Mat.from_terms(s.field, s.dims, terms)))
    pi = pi_of(raw, side)
    assert pi * pi != pi
    assert not assert_full(raw.big, pi).passed


def character_comul(table):
    """A comultiplication on k[C2]⊗k[C2⊗C2] = k[C2³] over QQ, the dual of
    a binary operation on its eight characters χ_x(e_c) = (-1)^|x∧c|, x
    and c read as bit triples with H's factor the high bit:
    Δ(e_c) = Σ_{x,y} χ_{x∘y}(e_c) f_x⊗f_y for the idempotents
    f_x = Σ_c χ_x(e_c) e_c / 8.  XOR gives the usual one."""
    chi = lambda x, c: (-1) ** bin(x & c).count("1")
    entries = {}
    for c, a, b in product(range(8), repeat=3):
        v = sum(chi(table[x][y], c) * chi(x, a) * chi(y, b)
                for x in range(8) for y in range(8))
        if v:
            entries[c, a, b] = QQ.coerce(Fraction(v, 64))
    return Tensor3(QQ, (8, 8, 8), entries)


def c4_times_c2(powers):
    """C4×C2 on the characters: g^k·h^m is `powers[k]` XOR 2·m."""
    at = {powers[k] ^ 2 * m: (k, m) for k in range(4) for m in range(2)}
    return [[powers[(at[x][0] + at[y][0]) % 4] ^ 2 * ((at[x][1] + at[y][1]) % 2)
             for y in range(8)] for x in range(8)]


XOR = [[x ^ y for y in range(8)] for x in range(8)]
# Δ(i(h)) = (i⊗i)Δ(h) needs x ↦ (-1)^(high bit of x) multiplicative, and
# (π⊗π)Δ = Δ_H∘π needs {0, 4}, the characters trivial on C2⊗C2, closed
# with 4∘4 = 0.  1∘1 = 4 breaks the first, 4∘4 = 1 the second, and
# 1∘1 = 1 keeps both but not associativity.
NOT_ASSOCIATIVE = [[1 if (x, y) == (1, 1) else XOR[x][y] for y in range(8)]
                   for x in range(8)]


def primitive_comul():
    """Δ(e_1) = e_0⊗e_1 + e_1⊗e_0 - e_0⊗e_0, so e_1 - e_0 is primitive:
    coassociative and counital, but (e_1 - e_0)² = -2(e_1 - e_0) breaks
    Δ(ab) = Δ(a)Δ(b) over QQ."""
    one = QQ.one
    entries = dict(character_comul(XOR).terms)
    del entries[1, 1, 1]
    entries.update({(1, 0, 1): one, (1, 1, 0): one, (1, 0, 0): -one})
    return Tensor3(QQ, (8, 8, 8), entries)


def c2_over_klein():
    """C = k[C2]⊗k[C2⊗C2] with i(h) = h⊗1 and π(h⊗k) = h·ε(k): at dim 8
    the preconditions fit in the identity's 64 inputs."""
    h = builtin("group:C2")
    k = tensor_square_projection(h).big
    big = tensor_product(h, k)
    embed = _matrix_of(QQ, (2,), lambda t: t.insert_at(1, k.unit))
    project = _matrix_of(QQ, (2, 4), lambda t: t.map_at(1, k.counit).drop_at(1))
    return projection_bialgebra(big, h, embed, project)


# C's comultiplication or counit replaced, C's multiplication kept, so the
# records of i and π still name it; each breaks exactly one precondition,
# and Π still passes its identity.
REPLACED = {
    "i-not-comultiplicative":
        lambda c: dict(comul=character_comul(c4_times_c2((0, 1, 4, 5)))),
    "pi-not-comultiplicative":
        lambda c: dict(comul=character_comul(c4_times_c2((0, 4, 1, 5)))),
    "not-coassociative": lambda c: dict(comul=character_comul(NOT_ASSOCIATIVE)),
    "not-multiplicative": lambda c: dict(comul=primitive_comul()),
    "no-counit": lambda c: dict(counit=None, antipode=None),
}


def test_the_square_of_c2_over_klein_is_certified(rb_inputs):
    pb = c2_over_klein()
    assert character_comul(XOR) == pb.big.comul
    for side in SIDES:
        assert check_rb_algebra(pb.big, pi_operator(pb, side), -1).passed
    assert rb_inputs["rb-algebra"] == 0


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("how", sorted(REPLACED))
def test_replaced_coalgebra_is_evaluated(how, side, rb_inputs):
    pb = c2_over_klein()
    raw = pb.replace(big=pb.big.replace(**REPLACED[how](pb.big)))
    assert assert_full(raw.big, pi_operator(raw, side)).passed
    assert rb_inputs["rb-algebra"] == 2 * 8 ** 2


# ---------------------------------------------------------------------------
# Moved entries, with the records and with every record stripped
# ---------------------------------------------------------------------------

TARGETS = ("pi", "embed", "project", "antipode", "mul", "comul")


def corpus(pb, side, rng, moves):
    """Π, and the structure it is checked on, after `moves` moved entries,
    each in a seeded one of Π, i, π, H's antipode and C's mul and comul."""
    hopf, big, embed, project = pb.hopf, pb.big, pb.embed, pb.project
    targets = [rng.choice(TARGETS) for _ in range(moves)]
    for target in targets:
        if target == "antipode":
            hopf = hopf.replace(antipode=moved(rng, hopf.antipode))
        elif target in ("mul", "comul"):
            big = big.replace(**{target: moved(rng, getattr(big, target))})
        elif target == "embed":
            embed = moved(rng, embed)
        elif target == "project":
            project = moved(rng, project)
    pi = pi_of(ProjectionBialgebra(big, hopf, embed, project), side)
    if "pi" in targets:
        pi = moved(rng, pi)
    return big, pi


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
@pytest.mark.parametrize("name", ["group:C2", "sweedler4", "group:S3"])
def test_moved_entries_give_the_verdicts_of_the_stripped_operator(name,
                                                                  field):
    pb = tensor_square_projection(builtin(name, field))
    rng = random.Random(f"{name}/{field}")
    seen = Counter()
    for side in SIDES:
        for moves in ((0, 1, 2) if name == "group:S3" else (0, 1, 1, 2, 2)):
            s, pi = corpus(pb, side, rng, moves)
            for weight in (-1, 0, 1, 2):
                for check, args in ((check_rb_algebra, (pi, weight)),
                                    (check_rb_bialgebra,
                                     (pi, pi, weight, weight))):
                    got = check(s, *args)
                    assert repr(got) == repr(stripped_verdict(check, s, *args))
                    seen[got.passed] += 1
    assert seen[True] and seen[False]
