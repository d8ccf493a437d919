"""`check_bialgebra_map` against the dense matrix reference.

The checker evaluates its four identities with sparse rewrites on batched
basis inputs.  `conftest.dense_bialgebra_map_verdict` keeps the matrix
formulas it replaced (`f @ f`, `mul_matrix`, `comul_matrix`); every verdict
(passed, identity, residual, witness) must be the one they give.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rbhopf import (GF, QQ, AlgebraicStructure, Mat, Tensor3, Vec, builtin,
                    check_bialgebra, check_bialgebra_map, check_unit_counit,
                    tensor_square_projection)
from conftest import dense_bialgebra_map_verdict, verdict_key

SQUARES = ("group:C2", "group:C3", "sweedler4", "group:S3")
FIELDS = (QQ, GF(5))


@lru_cache(maxsize=None)
def square(name, field):
    return tensor_square_projection(builtin(name, field))


def nonzero_scalars(field):
    if field == QQ:
        return st.sampled_from((1, -1, 2, Fraction(1, 2))).map(field.coerce)
    return st.integers(1, field.p - 1).map(field.from_int)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SQUARES), st.sampled_from(FIELDS),
       st.sampled_from(("embed", "project")), st.data())
def test_sparse_check_matches_dense_reference(name, field, which, data):
    pb = square(name, field)
    f = getattr(pb, which)
    src, dst = (pb.hopf, pb.big) if which == "embed" else (pb.big, pb.hopf)
    rows = [list(r) for r in f.entries]
    for _ in range(data.draw(st.integers(0, 2), label="changes")):
        i = data.draw(st.integers(0, f.rows - 1), label="row")
        j = data.draw(st.integers(0, f.cols - 1), label="col")
        rows[i][j] = rows[i][j] + data.draw(nonzero_scalars(field), label="by")
    g = Mat(field, rows, cols=f.cols)
    got = check_bialgebra_map(g, src, dst)
    assert verdict_key(got) == verdict_key(dense_bialgebra_map_verdict(g, src, dst))
    if not got.passed:
        residual = got.defect.residual
        assert list(residual) == sorted(residual)
        assert got.defect.witness == min(residual)


def monoid_bialgebra():
    """k[M] for the monoid M = {1, z} with z² = z; both elements grouplike.

    Not a Hopf algebra: its character ε_z (1 ↦ 1, z ↦ 0) is a convolution
    idempotent other than ε, which the unital bialgebra map M → k it
    defines makes visible as a counit defect alone.
    """
    one = QQ.one
    s = AlgebraicStructure(
        2, QQ,
        mul=Tensor3(QQ, (2, 2, 2), {(0, 0, 0): one, (0, 1, 1): one,
                                    (1, 0, 1): one, (1, 1, 1): one}),
        comul=Tensor3(QQ, (2, 2, 2), {(0, 0, 0): one, (1, 1, 1): one}),
        unit=Vec.basis(QQ, 2, 0), counit=Mat(QQ, ((1, 1),)))
    assert check_bialgebra(s).passed and check_unit_counit(s).passed
    return s


def first_failures():
    """(f, src, dst, identity, residual) with `identity` the first to fail."""
    c2, c3 = builtin("group:C2"), builtin("group:C3")
    return [
        # 1 ↦ 1, g ↦ g into C3: grouplikes to grouplikes, but g² = 1 ↦ 1 ≠ g².
        (Mat(QQ, ((1, 0), (0, 1), (0, 0))), c2, c3, "map-multiplicative",
         {(0, 3): 1, (2, 3): -1}),
        # g ↦ g + x in Sweedler's algebra: (g + x)² = 1, but
        # Δ(g + x) - (g + x)⊗(g + x) = x⊗1 - x⊗g - x⊗x.
        (Mat(QQ, ((1, 0), (0, 1), (0, 1), (0, 0))), c2, builtin("sweedler4"),
         "map-comultiplicative", {(8, 1): 1, (9, 1): -1, (10, 1): -1}),
        # The zero map preserves products and coproducts, not the unit.
        (Mat.zeros(QQ, 2, 2), c2, builtin("dual-group:C2"), "map-unit",
         {(0, 0): -1, (1, 0): -1}),
        # The character 1 ↦ 1, z ↦ 0 of the monoid bialgebra, into k.
        (Mat(QQ, ((1, 0),)), monoid_bialgebra(), builtin("trivial"),
         "map-counit", {(0, 1): -1}),
    ]


@pytest.mark.parametrize("case", range(4))
def test_each_identity_fails_first_on_a_hand_built_map(case):
    f, src, dst, identity, residual = first_failures()[case]
    v = check_bialgebra_map(f, src, dst)
    assert not v.passed
    assert v.defect.identity == identity
    assert v.defect.residual == {k: QQ.coerce(x) for k, x in residual.items()}
    assert v.defect.witness == min(residual)
    assert verdict_key(v) == verdict_key(dense_bialgebra_map_verdict(f, src, dst))
