"""Tensor products inherit associativity from their factors.

`tensor_product` records the factor multiplications on the product's, and
an unbudgeted `check_associativity` proves the factors instead of running
Light's triples on the product (`structures._proved`).  Every verdict
here must equal, by `verdict_key` and by `repr`, the one the same
multiplication gets with no record: a `Tensor3.from_terms` copy, which
takes Light's test at product size.  Non-associative factors on either
side and on both, random algebras over F_2 and F_3, nested products,
copies, budgeted and repeated calls are compared.  The generator
certificates of `check_bialgebra` and of the module-algebra coaction use
the same proof, so on a fresh tensor square of group:S3 they evaluate
|G|·36 inputs without a prior `check_associativity`.
"""

import pickle
from collections import Counter
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rbhopf import (GF, QQ, AlgebraicStructure, Mat, Tensor3, builtin,
                    check_associativity, check_bialgebra,
                    check_hopf_module_algebra, hopf_module_from_projection,
                    tensor_product, tensor_square_projection)
from rbhopf import hopfmod, structures
from rbhopf.structures import _recorded
from rbhopf.tensorops import TermSum
from conftest import verdict_key
from test_associativity_light import corrupted_s3


def without_record(s):
    """`s` with a copy of its multiplication that records no factors."""
    return s.replace(mul=Tensor3.from_terms(s.field, s.mul.dims,
                                            dict(s.mul.terms)))


def assert_same_verdict(s):
    """`check_associativity` of `s` against that of its copy; returns it."""
    copy = without_record(s)
    assert _recorded("factors", copy.mul) is None
    got, expected = check_associativity(s), check_associativity(copy)
    assert verdict_key(got) == verdict_key(expected)
    assert repr(got) == repr(expected)
    return got


@pytest.fixture
def triples_at(monkeypatch):
    """The dimension of the multiplication of every associator input."""
    dims = []
    associator = structures._associator

    def counting(mul):
        residual = associator(mul)

        def counted(t):
            dims.extend([mul.dims[0]] * len(t.terms))
            return residual(t)

        return counted

    monkeypatch.setattr(structures, "_associator", counting)
    return dims


def algebra(field, n, values):
    keys = product(range(n), repeat=3)
    return AlgebraicStructure(n, field, mul=Tensor3(
        field, (n, n, n), {k: v for k, v in zip(keys, values) if v}))


def zero_algebra(field, n):
    return AlgebraicStructure(n, field, mul=Tensor3(field, (n, n, n), {}))


# ---------------------------------------------------------------------------
# Verdicts against the copy with no record
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("left_bad, right_bad",
                         [(True, False), (False, True), (True, True)])
def test_non_associative_factors_give_the_copys_verdict(left_bad, right_bad):
    a = corrupted_s3() if left_bad else builtin("group:S3")
    b = corrupted_s3() if right_bad else builtin("group:S3")
    got = assert_same_verdict(tensor_product(a, b))
    assert not got.passed and got.defect.identity == "associativity"


def test_a_failing_factor_against_a_zero_multiplication_still_passes():
    """The product is associative although one factor is not, so a failing
    factor must send the product through Light's test, not fail it."""
    big = tensor_product(corrupted_s3(), zero_algebra(QQ, 2))
    assert not check_associativity(corrupted_s3()).passed
    assert assert_same_verdict(big).passed


def test_associative_factors_evaluate_no_triple_of_the_product(triples_at):
    s3 = structures.symmetric_group_algebra(QQ, 3)   # nothing cached
    big = tensor_product(s3, s3)
    assert assert_same_verdict(big).passed
    # Light's triples on the copy, and on the factor once.
    assert Counter(triples_at) == {36: 5 * 36 * 36, 6: 3 * 6 * 6}
    assert _recorded("light", big.mul) == (0, 1, 2, 6, 12)


fields = st.sampled_from((GF(2), GF(3)))


@st.composite
def small_algebras(draw, field):
    n = draw(st.integers(1, 3))
    density = draw(st.sampled_from((0.15, 0.4, 1.0)))
    values = draw(st.lists(st.integers(0, field.p - 1),
                           min_size=n ** 3, max_size=n ** 3))
    mask = draw(st.lists(st.floats(0, 1), min_size=n ** 3, max_size=n ** 3))
    return algebra(field, n, [v if m < density else 0
                              for v, m in zip(values, mask)])


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_random_small_algebras(data):
    field = data.draw(fields)
    a = data.draw(small_algebras(field))
    b = data.draw(small_algebras(field))
    assert_same_verdict(tensor_product(a, b))


@pytest.mark.parametrize("bad", [None, "inner", "outer"])
def test_nested_products(bad, triples_at):
    s3, c2 = builtin("group:S3"), builtin("group:C2")
    inner = tensor_product(corrupted_s3() if bad == "inner" else s3, c2)
    outer = corrupted_s3() if bad == "outer" else c2.replace(
        mul=Tensor3.from_terms(QQ, c2.mul.dims, dict(c2.mul.terms)))
    big = tensor_product(inner, outer)
    n = big.dim
    del triples_at[:]   # builtin's own checks
    got = assert_same_verdict(big)
    assert got.passed == (bad is None)
    if bad is None:
        # Only the copy and the fresh C2 factor were evaluated.
        assert set(triples_at) == {2, n}
        assert triples_at.count(2) == len(_recorded("light", outer.mul)) * 4


# ---------------------------------------------------------------------------
# Copies, budgets and repeated calls
# ---------------------------------------------------------------------------

COPIES = {
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
    "from_terms": without_record,
    "replace": lambda s: s.replace(mul=Tensor3(s.field, s.mul.dims,
                                               dict(s.mul.terms))),
}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_copies_take_the_full_path(how, triples_at):
    big = tensor_product(builtin("group:S3"), builtin("group:S3"))
    copy = COPIES[how](big)
    del triples_at[:]   # builtin's own checks
    assert copy.mul == big.mul and copy.mul is not big.mul
    assert _recorded("factors", copy.mul) is None
    assert check_associativity(copy).passed
    assert triples_at == [36] * (5 * 36 * 36)


def recorded_charges(monkeypatch):
    charges = []
    meter = structures._meter

    def recording(budget, message):
        charge = meter(budget, message)

        def record(count):
            charges.append(count)
            charge(count)

        return record

    monkeypatch.setattr(structures, "_meter", recording)
    return charges


@pytest.mark.parametrize("bad", [False, True])
def test_budgeted_calls_charge_as_the_copy(bad, monkeypatch):
    a = corrupted_s3() if bad else builtin("group:S3")
    big = tensor_product(a, builtin("group:S3"))
    copy = without_record(big)
    charges = recorded_charges(monkeypatch)
    runs, verdicts = [], []
    for s in (big, copy):
        del charges[:]
        verdicts.append(check_associativity(s, budget=10 ** 6))
        runs.append(list(charges))
    assert runs[0] and runs[0] == runs[1]
    assert verdict_key(verdicts[0]) == verdict_key(verdicts[1])
    assert repr(verdicts[0]) == repr(verdicts[1])
    assert verdicts[0].passed is not bad


def test_second_unbudgeted_call_evaluates_nothing(monkeypatch):
    s3 = structures.symmetric_group_algebra(QQ, 3)
    big = tensor_product(s3, s3)
    calls = []
    rewrite = TermSum._rewrite

    def counting(self, *args):
        calls.append(args)
        return rewrite(self, *args)

    monkeypatch.setattr(TermSum, "_rewrite", counting)
    assert check_associativity(big).passed
    assert calls
    del calls[:]
    assert check_associativity(big).passed
    assert calls == []


# ---------------------------------------------------------------------------
# Certificates on a fresh tensor square, with no prior associativity check
# ---------------------------------------------------------------------------

@pytest.fixture
def inputs_per_identity(monkeypatch):
    """Basis inputs evaluated per identity, counted through the residual
    each checker hands to `_batched` or `_on_generators`."""
    counts = Counter()
    batched, on_generators = structures._batched, structures._on_generators

    def count(identity, residual):
        if getattr(residual, "counted", False):
            return residual

        def counted(t):
            counts[identity] += len(t.terms)
            return residual(t)

        counted.counted = True
        return counted

    def counting_batched(identity, field, dims, residual):
        return batched(identity, field, dims, count(identity, residual))

    def counting_on_generators(identity, field, dims, slot, gens, residual,
                               *rest):
        return on_generators(identity, field, dims, slot, gens,
                             count(identity, residual), *rest)

    for m in (structures, hopfmod):
        monkeypatch.setattr(m, "_batched", counting_batched)
        monkeypatch.setattr(m, "_on_generators", counting_on_generators)
    return counts


def fresh_square():
    pb = tensor_square_projection(builtin("group:S3"))
    assert _recorded("light", pb.big.mul) == (0, 1, 2, 6, 12)
    return pb


def test_bialgebra_axiom_is_certified_without_associativity_first(
        inputs_per_identity):
    pb = fresh_square()
    # A copied Δ_C was not proved multiplicative where C was built.
    big = pb.big.replace(comul=Tensor3.from_terms(
        pb.big.field, pb.big.comul.dims, dict(pb.big.comul.terms)))
    inputs_per_identity.clear()
    assert check_bialgebra(big).passed
    assert inputs_per_identity["comul-multiplicative"] == 5 * 36
    assert _recorded("light", pb.big.mul) == (0, 1, 2, 6, 12)


def test_bialgebra_axiom_reads_the_multiplicative_record(inputs_per_identity):
    """Construction proved Δ_C(ab) = Δ_C(a)Δ_C(b) on C's G and recorded
    it, so `check_bialgebra(C)` evaluates none of it again."""
    pb = fresh_square()
    inputs_per_identity.clear()
    assert check_bialgebra(pb.big).passed
    assert inputs_per_identity["comul-multiplicative"] == 0
    assert inputs_per_identity["counit-multiplicative"] == 5 * 36


@pytest.mark.parametrize("side", ["right", "left"])
def test_module_algebra_coaction_is_certified(side, inputs_per_identity):
    hm = hopf_module_from_projection(fresh_square(), side)
    assert check_hopf_module_algebra(hm).passed
    assert inputs_per_identity[f"{side}-module-algebra-coaction"] == 0
    # A copied action has no record, and M keeps its factors.
    copy = hm.replace(action=Mat.from_terms(hm.field, hm.action.dims,
                                            dict(hm.action.terms)))
    assert check_hopf_module_algebra(copy).passed
    assert inputs_per_identity[f"{side}-module-algebra-coaction"] == 5 * 36
    assert _recorded("light", hm.mul) == (0, 1, 2, 6, 12)


# ---------------------------------------------------------------------------
# G of a product from its factors' G
# ---------------------------------------------------------------------------

@pytest.fixture
def closures_at(monkeypatch):
    """The dimension of every `_generators` closure."""
    dims = []
    generators = structures._generators

    def counting(s, *args, **kwargs):
        dims.append(s.dim)
        return generators(s, *args, **kwargs)

    monkeypatch.setattr(structures, "_generators", counting)
    return dims


def c2_in_idempotent_basis():
    """group:C2 in the basis e0+e1, e0-e1: f0² = 2f0, f1² = 2f1, f0f1 = 0.
    Its unit (f0+f1)/2 is not a basis vector."""
    return AlgebraicStructure(2, QQ, mul=Tensor3(
        QQ, (2, 2, 2), {(0, 0, 0): 2, (1, 1, 1): 2}))


def test_unital_factors_give_g_with_no_closure_at_product_size(closures_at):
    s4 = structures.symmetric_group_algebra(QQ, 4)   # nothing cached
    big = tensor_product(s4, s4)
    assert check_associativity(big).passed
    assert closures_at == [24]
    assert _recorded("light", s4.mul) == (0, 1, 2, 6)
    assert _recorded("light", big.mul) == (0, 1, 2, 6, 24, 48, 144)


@pytest.mark.parametrize("order", ["c2-first", "c2-second"])
def test_a_factor_with_no_basis_unit_takes_the_closure(order, closures_at):
    c2, s3 = c2_in_idempotent_basis(), builtin("group:S3")
    assert structures._unit_index(c2.mul) is None
    assert structures._unit_index(s3.mul) == 0
    big = tensor_product(*((c2, s3) if order == "c2-first" else (s3, c2)))
    copy = without_record(big)
    got = assert_same_verdict(big)
    assert got.passed and 12 in closures_at
    assert _recorded("light", big.mul) == tuple(structures._generators(copy))
