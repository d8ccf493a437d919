"""Batched basis evaluation against the per-basis reference.

Every checker evaluates its identity on tagged batches of basis inputs
(`structures._batched`).  These tests corrupt one structure constant of
a fixture and demand that each checker's verdict (passed, identity,
residual, witness) is the one the per-basis evaluation in
`conftest.per_basis` gives, part by part and as a whole.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rbhopf import (GF, QQ, AlgebraicStructure, CoquasitriangularForm, Mat,
                    TermSum, Tensor3, Vec, YDModuleCoalgebra, adjoint_yd,
                    builtin, check_antipode, check_associativity,
                    check_bialgebra, check_coassociativity, check_comodule,
                    check_coquasitriangular, check_hopf_module,
                    check_hopf_module_algebra, check_hopf_module_coalgebra,
                    check_module, check_pre_lie, check_rb_algebra,
                    check_rb_coalgebra, check_unit_counit, check_yd_coalgebra,
                    check_yd_module, regular_hopf_module, tensor_product)
from rbhopf import structures, tensorops
from rbhopf.structures import _verdict
from conftest import patched_batching, per_basis, verdict_key

FIXTURES = ("group:C2", "sweedler4", "group:S3")
FIELDS = (QQ, GF(5))
TARGETS = ("mul", "comul", "action", "coaction", "operator", "sigma")
BATCHED = structures._batched


def checked_part(identity, field, dims, residual, *certificate):
    """`_batched`, after asserting that this part agrees with `per_basis`."""
    fast = _verdict(*BATCHED(identity, field, dims, residual, *certificate))
    slow = _verdict(*per_basis(identity, field, dims, residual))
    assert verdict_key(fast) == verdict_key(slow), identity
    return BATCHED(identity, field, dims, residual, *certificate)


def mat_entries(m: Mat) -> dict:
    return {(i, j): v for i, row in enumerate(m.entries)
            for j, v in enumerate(row) if v}


def mat_from(field, shape, entries: dict) -> Mat:
    rows, cols = shape
    return Mat(field, [[entries.get((i, j), field.zero) for j in range(cols)]
                       for i in range(rows)], cols=cols)


def checker_battery(h, target, side, weight, corrupt):
    """Checker calls on fixture `h` with one structure constant of `target` moved."""
    field, n = h.field, h.dim
    reg = regular_hopf_module(h, side)
    adj = adjoint_yd(h)
    op = h.antipode
    form = h.counit @ h.counit
    if target in ("mul", "comul"):
        t3 = getattr(h, target)
        moved = Tensor3(field, t3.dims, corrupt(t3.entries, t3.dims))
        s = h.replace(**{target: moved})
        hm = reg.replace(**{target: moved})
        common = [lambda: check_unit_counit(s), lambda: check_bialgebra(s),
                  lambda: check_antipode(s)]
        if target == "mul":
            return common + [
                lambda: check_associativity(s),
                lambda: check_rb_algebra(s, op, weight),
                lambda: check_module(s, n, reg.action, side),
                lambda: check_hopf_module_algebra(hm),
                lambda: check_coquasitriangular(CoquasitriangularForm(s, form))]
        cstr = AlgebraicStructure(n, field, comul=moved)
        return common + [
            lambda: check_coassociativity(s),
            lambda: check_rb_coalgebra(s, op, weight),
            lambda: check_pre_lie(moved),
            lambda: check_comodule(s, n, reg.coaction, side),
            lambda: check_hopf_module_coalgebra(hm),
            lambda: check_yd_coalgebra(
                YDModuleCoalgebra(h, cstr, adj.action, adj.coaction))]
    if target == "action":
        a = mat_from(field, (n, n * n), corrupt(mat_entries(reg.action), (n, n * n)))
        hm = reg.replace(action=a)
        return [lambda: check_module(h, n, a, side),
                lambda: check_hopf_module(hm),
                lambda: check_hopf_module_algebra(hm),
                lambda: check_yd_module(h, n, a, adj.coaction)]
    if target == "coaction":
        c = mat_from(field, (n * n, n), corrupt(mat_entries(reg.coaction), (n * n, n)))
        hm = reg.replace(coaction=c)
        return [lambda: check_comodule(h, n, c, side),
                lambda: check_hopf_module(hm),
                lambda: check_hopf_module_coalgebra(hm),
                lambda: check_yd_module(h, n, adj.action, c)]
    if target == "operator":
        p = mat_from(field, (n, n), corrupt(mat_entries(op), (n, n)))
        return [lambda: check_rb_algebra(h, p, weight),
                lambda: check_rb_coalgebra(h, p, weight)]
    sigma = mat_from(field, (1, n * n), corrupt(mat_entries(form), (1, n * n)))
    return [lambda: check_coquasitriangular(CoquasitriangularForm(h, sigma))]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIXTURES), st.sampled_from(FIELDS),
       st.sampled_from(TARGETS), st.sampled_from(("right", "left")),
       st.sampled_from((0, -1)), st.data())
def test_batched_checkers_match_per_basis_reference(name, field, target, side,
                                                    weight, data):
    h = builtin(name, field)

    def corrupt(entries: dict, shape) -> dict:
        out = dict(entries)
        src = data.draw(st.sampled_from(sorted(out)), label="moved key")
        dst = tuple(data.draw(st.integers(0, d - 1), label="to") for d in shape)
        val = out.pop(src)
        out[dst] = out.get(dst, field.zero) + val
        return out

    checks = checker_battery(h, target, side, weight, corrupt)
    with patched_batching(per_basis):
        expected = [verdict_key(check()) for check in checks]
    with patched_batching(checked_part):
        got = [verdict_key(check()) for check in checks]
    assert got == expected
    for passed, _, residual, witness in got:
        if not passed:
            assert witness == min(residual)
            assert list(residual) == sorted(residual)


def test_batches_tag_every_input_once():
    from rbhopf.tensorops import tagged_basis
    _, batches, tags, key = BATCHED("id", QQ, (2, 3, 2), lambda t: t)
    batches = list(batches)
    assert (tags, key) == (2, None)
    assert [p for p, _ in batches] == [(0,), (1,)]
    for (i,), t in batches:
        assert t.dims == (2, 3, 2, 3, 2)
        assert t.terms == {(i, j, k, j, k): QQ.one
                           for j in range(3) for k in range(2)}
    whole = tagged_basis(GF(5), (2, 3))
    assert whole.dims == (2, 3, 2, 3)
    assert len(whole.terms) == 6
    assert all(k[:2] == k[2:] for k in whole.terms)


def test_associativity_merge_count_on_s3_tensor_square(monkeypatch):
    big = tensor_product(builtin("group:S3"), builtin("group:S3"))
    n = big.dim
    calls = []
    merge_at = TermSum.merge_at

    def counting(self, pos, mul):
        calls.append(pos)
        return merge_at(self, pos, mul)

    monkeypatch.setattr(TermSum, "merge_at", counting)
    assert check_associativity(big).passed
    assert n == 36
    assert len(calls) <= 4 * n


def test_associativity_on_s3_tensor_square_only_relabels(monkeypatch):
    """Every product in kG ⊗ kG is one basis element, and each batch's tags
    keep its keys apart, so no merge leaves the monomial fast path: the
    general loop, the only reader of the fan-out, never runs."""
    big = tensor_product(builtin("group:S3"), builtin("group:S3"))
    reading = tensorops._reading
    assert reading(big.mul, "pair")[1] is not None

    class GeneralLoop:
        def __getitem__(self, n):
            raise AssertionError("merge_at left the monomial fast path")

    def monomial_only(m, role, b=0):
        return GeneralLoop(), reading(m, role, b)[1]

    monkeypatch.setattr(tensorops, "_reading", monomial_only)
    assert check_associativity(big).passed


@pytest.mark.parametrize("name", ["sweedler4", "group:S3"])
def test_single_factor_checker_builds_one_batch(name, monkeypatch):
    h = builtin(name)
    calls = []
    split_at = TermSum.split_at

    def counting(self, pos, comul):
        calls.append(pos)
        return split_at(self, pos, comul)

    monkeypatch.setattr(TermSum, "split_at", counting)
    assert check_coassociativity(h).passed
    assert len(calls) == 3


def test_a_failing_part_stops_the_check(monkeypatch):
    """Parts are lazy: once one fails, no residual of a later part runs."""
    ran = []
    batched = structures._batched

    def recording(identity, field, dims, residual, *certificate):
        def recorded(t):
            ran.append(identity)
            return residual(t)

        return batched(identity, field, dims, recorded, *certificate)

    monkeypatch.setattr(structures, "_batched", recording)
    h = builtin("group:S3")
    bad_unit = h.replace(unit=Vec.basis(h.field, h.dim, 1))
    assert check_unit_counit(bad_unit).defect.identity == "left-unit"
    assert ran == ["left-unit"]
    ran.clear()
    # S = id fails S(a₁)a₂ = ε(a)1 on the 3-cycles, and so a₁S(a₂).
    bad_antipode = h.replace(antipode=Mat.identity(h.field, h.dim))
    assert check_antipode(bad_antipode).defect.identity == "antipode-left"
    assert ran == ["antipode-left"]
