"""`check_bialgebra_map` certifies multiplicativity on generators.

When both multiplications are proved associative, f(ab) = f(a)f(b) is
evaluated only for b in the source's generating set G: the b for which it
holds for every a form a subalgebra.  On a fresh tensor square i is
certified on H's G and π on the G read off C's factors, which is then
recorded on C.  A copy of C's multiplication (no factors) or a target
that is not associative gets the full check, whose verdict the
certificate must not change.
"""

import pytest

from rbhopf import (QQ, AlgebraicStructure, Mat, Tensor3, Vec, builtin,
                    check_bialgebra_map, tensor_square_projection)
from rbhopf.structures import _recorded
from test_projection_module_associativity import copied
from test_tensor_provenance import inputs_per_identity  # noqa: F401


@pytest.mark.parametrize("name", ["sweedler4", "group:S3"])
def test_fresh_square_maps_are_certified(name, inputs_per_identity):
    h = builtin(name)
    pb = tensor_square_projection(h)
    g_h = len(_recorded("light", h.mul))
    g_c = 2 * g_h - 1   # G_H⊗1 ∪ 1⊗G_H, sharing 1⊗1
    assert len(_recorded("light", pb.big.mul)) == g_c
    assert inputs_per_identity["map-multiplicative"] == (
        h.dim * g_h + pb.big.dim * g_c)
    inputs_per_identity.clear()
    big = pb.big.replace(mul=copied(pb.big.mul))
    assert check_bialgebra_map(pb.project, big, h).passed
    assert inputs_per_identity["map-multiplicative"] == big.dim ** 2


def test_a_target_that_is_not_associative_gets_the_full_check(
        inputs_per_identity):
    """k[C3] → the unital magma algebra on 1, x, y with xx = y, yx = 1 and
    xy = x, all grouplike, by 1 ↦ 1, g ↦ x, g² ↦ y.  Light's G of k[C3]
    is {1, g}, and f(ag) = f(a)f(g) for every a, but
    f(g·g²) = 1 ≠ x = f(g)f(g²): a certificate that did not ask for the
    target's associativity would pass it."""
    one = QQ.one
    magma = AlgebraicStructure(3, QQ, mul=Tensor3(QQ, (3, 3, 3), {
        **{(0, i, i): one for i in range(3)},
        **{(i, 0, i): one for i in range(1, 3)},
        (1, 1, 2): one, (2, 1, 0): one, (1, 2, 1): one, (2, 2, 1): one}),
        comul=Tensor3(QQ, (3, 3, 3), {(i, i, i): one for i in range(3)}),
        unit=Vec.basis(QQ, 3, 0), counit=Mat(QQ, ((one,) * 3,)))
    c3 = builtin("group:C3")
    assert _recorded("light", c3.mul) == (0, 1)
    v = check_bialgebra_map(Mat.identity(QQ, 3), c3, magma)
    assert not v.passed and v.defect.identity == "map-multiplicative"
    assert v.defect.witness == (0, 5)
    assert inputs_per_identity["map-multiplicative"] == 9
