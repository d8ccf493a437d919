"""`check_associativity` (Light's test with a full-check fallback) against
an associativity verdict computed here, one basis triple at a time.

The reference runs its own residual (ab)c - a(bc) through
`conftest.per_basis` on all n³ basis triples.  The checker's verdict must
agree with it in every part (passed, identity, residual, witness), on every
multiplication of dim 2 over F_2, on seeded samples of dim 2 over F_3 and
dim 3 over F_2, and on algebras where the generating set is the whole basis.
"""

import random
from itertools import product

import pytest

from rbhopf import (GF, QQ, AlgebraicStructure, BudgetExceededError, Tensor3,
                    builtin, tensor_product)
from rbhopf import check_associativity, structures
from rbhopf.structures import _generators, _recorded, _verdict
from conftest import per_basis, verdict_key


def reference(s):
    mul = s.mul

    def residual(t):
        return (t.merge_at(0, mul).merge_at(0, mul)
                - t.merge_at(1, mul).merge_at(0, mul))

    return _verdict(*per_basis("associativity", s.field, (s.dim,) * 3, residual))


def algebra(field, n, values):
    """The algebra whose structure constants, in (i, j, k) order, are `values`."""
    keys = product(range(n), repeat=3)
    return AlgebraicStructure(n, field, mul=Tensor3(
        field, (n, n, n), {k: v for k, v in zip(keys, values) if v}))


def assert_matches_reference(s):
    got = check_associativity(s)
    assert verdict_key(got) == verdict_key(reference(s))
    return got.passed


def test_every_multiplication_of_dim_2_over_f2():
    f2 = GF(2)
    passed = sum(assert_matches_reference(algebra(f2, 2, values))
                 for values in product(range(2), repeat=8))
    assert passed == 28


@pytest.mark.parametrize("p, n, seed", [(3, 2, 0), (2, 3, 1)])
def test_seeded_samples(p, n, seed):
    field, rng = GF(p), random.Random(seed)
    passed = 0
    for _ in range(1000):
        # Sparse samples as well as dense ones, so that both verdicts occur.
        density = rng.choice((0.15, 0.3, 0.6))
        values = [rng.randrange(1, p) if rng.random() < density else 0
                  for _ in range(n ** 3)]
        passed += assert_matches_reference(algebra(field, n, values))
    assert 0 < passed < 1000


def test_zero_and_nilpotent_multiplications_need_the_whole_basis():
    f3 = GF(3)
    zero = AlgebraicStructure(3, f3, mul=Tensor3(f3, (3, 3, 3), {}))
    # x k[x]/(x⁴) on e0 = x³, e1 = x², e2 = x: only products land lower.
    nil = AlgebraicStructure(3, f3, mul=Tensor3(f3, (3, 3, 3), {
        (2, 2, 1): 1, (1, 2, 0): 1, (2, 1, 0): 1}))
    for s in (zero, nil):
        assert _generators(s) == [0, 1, 2]
        assert assert_matches_reference(s)
    broken = nil.replace(mul=Tensor3(f3, (3, 3, 3), {
        (2, 2, 1): 1, (1, 2, 0): 1, (2, 1, 0): 2}))
    assert _generators(broken) == [0, 1, 2]
    assert not assert_matches_reference(broken)


def test_generators_span_the_algebra_of_a_tensor_square():
    s3 = builtin("group:S3")
    assert _generators(s3) == [0, 1, 2]
    assert _generators(tensor_product(s3, s3)) == [0, 1, 2, 6, 12]


def test_light_test_work_bound_on_s3_tensor_square(monkeypatch):
    """Light's bound is pinned on the product multiplication copied without
    its record of the factors; the product itself evaluates triples only
    on its factors, here a group:S3 with nothing cached on its maps."""
    product = tensor_product(builtin("group:S3"), builtin("group:S3"))
    big = product.replace(mul=Tensor3.from_terms(
        QQ, product.mul.dims, dict(product.mul.terms)))
    n, gens = big.dim, _generators(big)
    assert len(gens) <= 5
    inputs, at_dim = [], []
    associator = structures._associator

    def counting(mul):
        residual = associator(mul)

        def counted(t):
            inputs.append(len(t.terms))
            at_dim.append(mul.dims[0])
            return residual(t)

        return counted

    monkeypatch.setattr(structures, "_associator", counting)
    assert check_associativity(big).passed
    assert inputs == [n * n] * len(gens)
    assert sum(inputs) <= len(gens) * n * n < n ** 3

    s3 = structures.symmetric_group_algebra(QQ, 3)
    product = tensor_product(s3, s3)
    del inputs[:], at_dim[:]
    assert check_associativity(product).passed
    assert n not in at_dim and set(at_dim) == {6}
    assert sum(inputs) <= 3 * 6 * 6
    assert _recorded("light", product.mul) == tuple(gens)


def corrupted_s3():
    s3 = builtin("group:S3")
    entries = dict(s3.mul.entries)
    i, j, k = max(entries)  # e_5·e_5 = e_k becomes e_5·e_5 = e_(k+1)
    entries[i, j, (k + 1) % 6] = entries.pop((i, j, k))
    return s3.replace(mul=Tensor3(s3.field, s3.mul.dims, entries))


def test_failure_costs_the_full_check(monkeypatch):
    """After a failing generator batch only the other middle indices run:
    n batches of n² triples in all, the full check's n³."""
    s = corrupted_s3()
    n, inputs = s.dim, []
    associator = structures._associator

    def counting(mul):
        residual = associator(mul)

        def counted(t):
            inputs.append(len(t.terms))
            return residual(t)

        return counted

    monkeypatch.setattr(structures, "_associator", counting)
    assert not assert_matches_reference(s)
    assert len(_generators(s)) < n
    assert inputs == [n * n] * n


def test_budget_charges_the_scheduled_inputs():
    good, bad = builtin("group:S3"), corrupted_s3()
    n, certificate, gens = good.dim, {}, {}
    for s in (good, bad):
        charges = []
        gens[s] = _generators(s, charges.append)
        certificate[s] = sum(charges)
        with pytest.raises(BudgetExceededError):
            check_associativity(s, budget=certificate[s] - 1)
    assert check_associativity(good, budget=certificate[good]).passed
    # A failure also charges the n² triples of every other middle index.
    with pytest.raises(BudgetExceededError):
        check_associativity(bad, budget=certificate[bad])
    full = certificate[bad] + (n - len(gens[bad])) * n * n
    assert verdict_key(check_associativity(bad, budget=full)) == verdict_key(
        reference(bad))
