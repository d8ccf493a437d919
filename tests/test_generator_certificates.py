"""Generator certificates against the full checks they replace.

The multiplicative identities (module associativity, the bialgebra axiom,
Hopf-module compatibility, the module-algebra action and coaction, and the
module-coalgebra action of Hopf modules and Yetter-Drinfeld coalgebras)
are evaluated only for one argument in a generating set G once their
preconditions hold (`structures._on_generators`).  Every verdict here must
equal, by `verdict_key` and by `repr`, the one the full check gives: with
`_generators_within` answering None every checker runs its `_batched`
check, and on small inputs also one basis input at a time
(`conftest.per_basis`).  Random algebras, modules and Hopf modules over
F_2 and F_3 are compared, and the 36-dimensional tensor square of S3 with
one action or coaction entry moved; each precondition is broken once, where
the certificate must not be used.
"""

import random
from contextlib import contextmanager
from itertools import product

import pytest

from rbhopf import (GF, QQ, AlgebraicStructure, BudgetExceededError,
                    HopfModule, Mat, Tensor3, adjoint_yd, builtin,
                    check_associativity, check_bialgebra, check_hopf_module,
                    check_hopf_module_algebra, check_hopf_module_coalgebra,
                    check_module, check_yd_coalgebra,
                    hopf_module_from_projection, regular_hopf_module,
                    tensor_square_projection)
from rbhopf import hopfmod, structures, ydsmash
from rbhopf.structures import _generators, _recorded, _verdict
from rbhopf.tensorops import TermSum, _matrix_of
from conftest import patched_batching, per_basis, verdict_key

CERTIFYING = (structures, hopfmod, ydsmash)
GENERATORS_WITHIN = structures._generators_within


@contextmanager
def generators_answer(answer):
    """Every checker asks `answer(mul, budget, comul)` for its generators."""
    saved = [m._generators_within for m in CERTIFYING]
    for m in CERTIFYING:
        m._generators_within = answer
    try:
        yield
    finally:
        for m, orig in zip(CERTIFYING, saved):
            m._generators_within = orig


@contextmanager
def spied():
    """Record what each certificate precondition answered (None: full check)."""
    answers = []

    def spy(*args):
        answers.append(GENERATORS_WITHIN(*args))
        return answers[-1]

    with generators_answer(spy):
        yield answers


def full_check(check, one_at_a_time=False):
    """The verdict of `check` with no certificate: the `_batched` check,
    or with `one_at_a_time` each basis input alone."""
    with generators_answer(lambda *args: None):
        if not one_at_a_time:
            return check()
        with patched_batching(per_basis):
            return check()


def assert_matches_full(check, one_at_a_time=True):
    """Run `check` certified and in full; returns the verdict and what each
    precondition answered on the certified run."""
    expected = full_check(check, one_at_a_time)
    with spied() as answers:
        got = check()
    assert verdict_key(got) == verdict_key(expected)
    assert repr(got) == repr(expected)
    return got, answers


def algebra_mul(field, n, values) -> Tensor3:
    keys = product(range(n), repeat=3)
    return Tensor3(field, (n, n, n), {k: v for k, v in zip(keys, values) if v})


def random_associative(rng, field, n) -> AlgebraicStructure:
    """A seeded associative algebra; the Light verdict is then cached."""
    while True:
        density = rng.choice((0.2, 0.4))
        s = AlgebraicStructure(n, field, mul=algebra_mul(field, n, [
            rng.randrange(1, field.p) if rng.random() < density else 0
            for _ in range(n ** 3)]))
        if check_associativity(s).passed:
            return s


def moved(rng, m):
    """A `Mat` or `Tensor3` with one seeded entry added onto a seeded position."""
    out = dict(m.terms)
    src = rng.choice(sorted(out))
    dst = tuple(rng.randrange(d) for d in m.dims)
    val = out.pop(src)
    out[dst] = out.get(dst, m.field.zero) + val
    return type(m).from_terms(m.field, m.dims, out)


@pytest.mark.parametrize("p", [2, 3])
def test_module_associativity_on_random_algebras(p):
    field, rng = GF(p), random.Random(p)
    seen = {True: 0, False: 0}
    for _ in range(60):
        h = random_associative(rng, field, rng.choice((2, 3)))
        n = h.dim
        side = rng.choice(("right", "left"))
        regular = _matrix_of(field, (n, n), lambda t: t.merge_at(0, h.mul))
        m_dim, action = rng.choice((
            (n, regular), (n, regular), (n, None),
            (1, Mat.from_terms(field, (1, n), {
                (0, j): rng.randrange(p) for j in range(n)}))))
        if action is None:
            action = moved(rng, regular) if regular.terms else regular
        got, answers = assert_matches_full(
            lambda: check_module(h, m_dim, action, side))
        assert answers and None not in answers
        seen[got.passed] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("p", [2, 3])
def test_bialgebra_axiom_on_random_comultiplications(p):
    field, rng = GF(p), random.Random(10 + p)
    seen = {True: 0, False: 0}
    for _ in range(60):
        h = random_associative(rng, field, rng.choice((2, 3)))
        n = h.dim
        grouplike = Tensor3(field, (n, n, n), {(i, i, i): 1 for i in range(n)})
        comul = rng.choice((
            Tensor3(field, (n, n, n), {}), grouplike, moved(rng, grouplike),
            Tensor3(field, (n, n, n), {
                k: rng.randrange(p) for k in product(range(n), repeat=3)
                if rng.random() < 0.3})))
        counit = rng.choice((None, Mat.from_terms(field, (1, n), {
            (0, j): rng.randrange(p) for j in range(n)})))
        s = h.replace(comul=comul, counit=counit)
        got, answers = assert_matches_full(lambda: check_bialgebra(s))
        assert answers == [_recorded("light", h.mul)]
        seen[got.passed] += 1
    for name in ("group:C2", "group:C3", "group:S3", "dual-group:C2"):
        got, answers = assert_matches_full(
            lambda: check_bialgebra(builtin(name, field)))
        assert got.passed and None not in answers
    assert seen[True] and seen[False]


HOPF_CHECKS = (check_hopf_module, check_hopf_module_algebra,
               check_hopf_module_coalgebra)


@pytest.mark.parametrize("p", [2, 3])
def test_hopf_modules_with_one_moved_entry(p):
    field, rng = GF(p), random.Random(20 + p)
    names = ("group:C2", "group:C3", "group:S3") + (("sweedler4",) if p == 3 else ())
    failed = {check.__name__: 0 for check in HOPF_CHECKS}
    for _ in range(50):
        h = builtin(rng.choice(names), field)
        hm = regular_hopf_module(h, rng.choice(("right", "left")))
        target = rng.choice(("action", "coaction", "mul", "comul"))
        hm = hm.replace(**{target: moved(rng, getattr(hm, target))})
        for check in HOPF_CHECKS:
            got, _ = assert_matches_full(lambda: check(hm))
            failed[check.__name__] += not got.passed
    assert all(failed.values())


def c3_module(field, side, **maps) -> HopfModule:
    return regular_hopf_module(builtin("group:C3", field), side).replace(**maps)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_each_certified_identity_fails_as_the_full_check(side, field):
    """Inputs whose first failure lies in a certified identity, so the
    certificate fails on G and the other indices of its slot run."""
    h = builtin("group:C3", field)
    n, right = h.dim, side == "right"
    trivial_coaction = _matrix_of(field, (n,), lambda t: t.insert_at(
        1 if right else 0, h.unit))
    pointwise = Tensor3(field, (n,) * 3, {(i, i, i): 1 for i in range(n)})
    # m·m' = ε(m)m' (or m·m' = m ε(m') on the left): associative, and
    # compatible with the action but not with the coaction.
    eps_mul = Tensor3(field, (n,) * 3, {
        (i, j, j if right else i): 1 for i in range(n) for j in range(n)})
    # Δ(e_i) = e_0⊗e_i (e_i⊗e_0 on the left): coassociative and compatible
    # with the coaction but not with the action.
    lopsided = Tensor3(field, (n,) * 3, {
        ((i, 0, i) if right else (i, i, 0)): 1 for i in range(n)})
    check_associativity(AlgebraicStructure(n, field, mul=eps_mul))
    cases = [
        (check_hopf_module, c3_module(field, side, coaction=trivial_coaction),
         f"{side}-hopf-module-compatibility"),
        (check_hopf_module_algebra, c3_module(field, side, mul=pointwise),
         f"{side}-module-algebra-action"),
        (check_hopf_module_algebra, c3_module(field, side, mul=eps_mul),
         f"{side}-module-algebra-coaction"),
        (check_hopf_module_coalgebra, c3_module(field, side, comul=lopsided),
         f"{side}-module-coalgebra-action"),
    ]
    for check, hm, identity in cases:
        got, answers = assert_matches_full(lambda: check(hm))
        assert answers and None not in answers
        assert not got.passed and got.defect.identity == identity


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_yd_module_coalgebra_fails_as_the_full_check(field):
    # C = k[C3] with Δ(e_i) = e_i⊗e_0: coassociative, but Δ(h·c) differs
    # from h₁·c₁ ⊗ h₂·c₂ for h ≠ 1.
    adj = adjoint_yd(builtin("group:C3", field))
    ydc = adj.replace(coalgebra=adj.coalgebra.replace(comul=Tensor3(
        field, (3,) * 3, {(i, i, 0): 1 for i in range(3)})))
    got, answers = assert_matches_full(lambda: check_yd_coalgebra(ydc))
    assert answers and None not in answers
    assert not got.passed and got.defect.identity == "module-coalgebra"


@pytest.fixture(scope="module")
def s3_square():
    pb = tensor_square_projection(builtin("group:S3"))
    assert check_associativity(pb.big).passed
    return pb


@pytest.mark.parametrize("side", ["right", "left"])
def test_s3_tensor_square_certifies_every_identity(s3_square, side):
    hm = hopf_module_from_projection(s3_square, side)
    # The module's records carry every identity, so it asks no
    # precondition; a copied action has no record, so every identity of
    # the copy is certified.
    copy = hm.replace(action=Mat.from_terms(hm.field, hm.action.dims,
                                            dict(hm.action.terms)))
    for check in HOPF_CHECKS:
        with spied() as answers:
            assert check(hm).passed
        assert answers == []
        with spied() as answers:
            assert check(copy).passed
        assert answers and None not in answers
    with spied() as answers:
        assert check_bialgebra(s3_square.big).passed
    assert answers and None not in answers


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("target", ["action", "coaction"])
def test_s3_tensor_square_with_one_moved_entry(s3_square, side, target):
    rng = random.Random(f"{side}/{target}")
    hm = hopf_module_from_projection(s3_square, side)
    for _ in range(2):
        bad = hm.replace(**{target: moved(rng, getattr(hm, target))})
        for check in HOPF_CHECKS[1:]:
            expected = full_check(lambda: check(bad))
            got = check(bad)
            assert not got.passed
            assert verdict_key(got) == verdict_key(expected)
            assert repr(got) == repr(expected)


# ---------------------------------------------------------------------------
# A broken precondition: the certificate must not be used
# ---------------------------------------------------------------------------

def forced_generators(mul, budget, comul=None):
    """G as if every precondition held: what a certificate would conclude."""
    return _generators(AlgebraicStructure(mul.dims[0], mul.field, mul=mul))


def test_non_associative_hopf_algebra_gets_the_full_module_check():
    f2 = GF(2)
    # e0e0 = e0 + e1, e0e1 = e0, e1e0 = e1, e1e1 = e1: not associative, G = [0].
    h = AlgebraicStructure(2, f2, mul=Tensor3(f2, (2, 2, 2), {
        (0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 1): 1, (1, 1, 1): 1}))
    action = Mat(f2, ((1, 0),))   # m·e0 = m, m·e1 = 0
    check = lambda: check_module(h, 1, action, "right")
    assert not check_associativity(h).passed and _generators(h) == [0]
    assert GENERATORS_WITHIN(h.mul, 10 ** 6) is None
    with generators_answer(forced_generators):
        assert check().passed   # (m·h)·e0 = m·(h e0) holds; (m·e0)·e1 fails
    got, answers = assert_matches_full(check)
    assert answers == [None] and not got.passed


@pytest.mark.parametrize("side", ["right", "left"])
def test_non_associative_module_algebra_gets_the_full_coaction_check(side):
    # M = k[C2] with m·m' = φ(m)m' on the right and m·m' = m φ(m') on the
    # left, φ(e0) = e0 and φ(e1) = e0 + e1: compatible with the regular
    # action, not associative, not compatible with the coaction.
    f3 = GF(3)
    phi = {0: (0,), 1: (0, 1)}
    terms = {}
    for i, j in product(range(2), repeat=2):
        for k in phi[i] if side == "right" else phi[j]:
            terms[i, j, (k + (j if side == "right" else i)) % 2] = 1
    mul = Tensor3(f3, (2, 2, 2), terms)
    assert not check_associativity(AlgebraicStructure(2, f3, mul=mul)).passed
    assert GENERATORS_WITHIN(mul, 10 ** 6) is None
    hm = regular_hopf_module(builtin("group:C2", f3), side).replace(mul=mul)
    got, answers = assert_matches_full(lambda: check_hopf_module_algebra(hm))
    assert not got.passed
    assert got.defect.identity == f"{side}-module-algebra-coaction"
    assert answers[-1] is None and None not in answers[:-1]


@pytest.mark.parametrize("side", ["right", "left"])
def test_non_multiplicative_comultiplication_gets_the_full_check(side):
    # k[C3] with Δ(e0) = e0⊗e0, Δ(e1) = e1⊗e0, Δ(e2) = e0⊗e2 (mirrored on
    # the left): coassociative, not multiplicative.  On M = k with
    # m·h = ε(h)m and ρ(m) = m⊗1, ρ(m·h) = ρ(m)Δ(h) holds for h in G = {e0, e1}
    # and fails for e2.
    c3 = builtin("group:C3")
    right = side == "right"
    pairs = ((0, 0), (1, 0), (0, 2)) if right else ((0, 0), (0, 1), (2, 0))
    comul = Tensor3(QQ, (3, 3, 3), {(i, *pairs[i]): 1 for i in range(3)})
    h = AlgebraicStructure(3, QQ, mul=c3.mul, comul=comul, unit=c3.unit)
    assert not check_bialgebra(h).passed and _generators(h) == [0, 1]
    assert GENERATORS_WITHIN(h.mul, 10 ** 6) == (0, 1)
    assert GENERATORS_WITHIN(h.mul, 10 ** 6, comul) is None
    hm = HopfModule(h, 1, Mat(QQ, ((1, 1, 1),)),
                    Mat.from_terms(QQ, (3, 1), {(0, 0): 1}), side)
    with generators_answer(forced_generators):
        assert check_hopf_module(hm).passed
    got, answers = assert_matches_full(lambda: check_hopf_module(hm))
    assert not got.passed
    assert got.defect.identity == f"{side}-hopf-module-compatibility"
    assert answers[-1] is None and None not in answers[:-1]


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------

def fresh_s3(field=QQ) -> AlgebraicStructure:
    """group:S3 with maps of its own, so that nothing is cached on them."""
    s = builtin("group:S3", field)
    return s.replace(mul=Tensor3(field, s.mul.dims, dict(s.mul.terms)),
                     comul=Tensor3(field, s.comul.dims, dict(s.comul.terms)))


def test_second_associativity_check_does_no_rewrite(monkeypatch):
    s = fresh_s3()
    calls = []
    rewrite = TermSum._rewrite

    def counting(self, *args):
        calls.append(args)
        return rewrite(self, *args)

    monkeypatch.setattr(TermSum, "_rewrite", counting)
    assert check_associativity(s).passed
    assert calls
    del calls[:]
    assert check_associativity(s).passed
    assert check_associativity(s.replace(names=None)).passed   # same mul
    assert calls == []


def test_failures_are_not_cached():
    s = fresh_s3()
    entries = dict(s.mul.terms)
    i, j, k = max(entries)
    entries[i, j, (k + 1) % 6] = entries.pop((i, j, k))
    bad = s.replace(mul=Tensor3(QQ, s.mul.dims, entries))
    first = check_associativity(bad)
    first.defect.residual.clear()
    second = check_associativity(bad)
    assert not second.passed and second.defect.residual
    reference = _verdict(*per_basis("associativity", QQ, (6,) * 3,
                                    structures._associator(bad.mul)))
    assert verdict_key(second) == verdict_key(reference)


def test_budgeted_calls_keep_their_charge_sequences(monkeypatch):
    s = fresh_s3()
    meter = structures._meter
    charges = []

    def recording(budget, message):
        charge = meter(budget, message)

        def record(count):
            charges.append(count)
            charge(count)

        return record

    monkeypatch.setattr(structures, "_meter", recording)
    runs = []
    for _ in range(3):   # cold, then twice with the cache filled
        del charges[:]
        assert check_associativity(s, budget=10 ** 6).passed
        runs.append(list(charges))
    assert runs[0] and runs[0] == runs[1] == runs[2]
    del charges[:]
    assert check_associativity(s).passed and charges == []   # read from the cache
    total = sum(runs[0])
    with pytest.raises(BudgetExceededError):
        check_associativity(s, budget=total - 1)


def test_uncached_precondition_over_budget_runs_the_full_check():
    """The bialgebra axiom has n² inputs; Light's test on a fresh S3 costs
    more, so the first check runs in full, and once associativity is known
    the certificate is used."""
    s = fresh_s3()
    for expect_certified in (False, True):
        with spied() as answers:
            assert check_bialgebra(s).passed
        assert (answers[0] is not None) == expect_certified
        assert check_associativity(s).passed


def test_multiplicative_comultiplications_are_known_by_identity():
    s = fresh_s3()
    twin = Tensor3(QQ, s.comul.dims, dict(s.comul.terms))
    assert twin == s.comul and twin is not s.comul
    assert _recorded("multiplicative", s.mul, s.comul) is None
    assert check_bialgebra(s).passed
    assert _recorded("multiplicative", s.mul, s.comul) is True
    assert _recorded("multiplicative", s.mul, twin) is None


def test_a_pass_forced_by_a_hook_is_not_recorded():
    """group:C3's multiplication with Δ(e0) = e0⊗e0, Δ(e1) = e1⊗e0 and
    Δ(e2) = e0⊗e2 is not multiplicative: Δ(e1e1) = e0⊗e2 but
    Δ(e1)Δ(e1) = e2⊗e0.  It holds on every pair (a, e0), so a hook
    answering G = {e0} forces a pass; that pass is not recorded, so the
    real precondition and the check afterwards still fail."""
    c3 = builtin("group:C3")
    comul = Tensor3(QQ, (3, 3, 3), {(0, 0, 0): 1, (1, 1, 0): 1, (2, 0, 2): 1})
    h = AlgebraicStructure(3, QQ, mul=c3.mul, comul=comul, unit=c3.unit)
    with generators_answer(lambda mul, budget, comul=None: (0,)):
        assert check_bialgebra(h).passed
    assert GENERATORS_WITHIN(h.mul, 10 ** 6, comul) is None
    got = check_bialgebra(h)
    assert not got.passed and got.defect.identity == "comul-multiplicative"
    assert repr(got) == repr(full_check(lambda: check_bialgebra(h)))
