"""The projection and smash constructions form no Kronecker product.

The maps of the tensor-square projection (i, π and the tensor product
structure), the right smash Hopf module and its closed-form projection, and
the regular Hopf modules are built by `TermSum` rewrites, and
`check_bialgebra_map` validates i and π with rewrites too.  A guard makes `Mat.__matmul__` and the dense structure
matrices raise while they run; the dense Kronecker formulas they replaced
stay here as the oracle for the maps they build.
"""

import pytest

from rbhopf import (GF, QQ, Mat, Tensor3, adjoint_yd, builtin,
                    projection_bialgebra, projection_right_closed_form,
                    regular_hopf_module, smash_coproduct,
                    smash_hopf_module_right, tensor_square_projection,
                    trivial_yd)


def test_constructions_call_no_kronecker_or_dense_structure_matrix(monkeypatch):
    s3 = builtin("group:S3")

    def forbidden(*args):
        raise AssertionError("dense Kronecker-formed matrix requested")

    monkeypatch.setattr(Mat, "__matmul__", forbidden)
    monkeypatch.setattr(Tensor3, "mul_matrix", forbidden)
    monkeypatch.setattr(Tensor3, "comul_matrix", forbidden)
    pb = tensor_square_projection(s3)
    assert projection_bialgebra(pb.big, pb.hopf, pb.embed, pb.project) == pb
    adj = adjoint_yd(s3)
    _, p, verdict = smash_hopf_module_right(adj)
    assert verdict.passed and verdict.idempotent
    assert p == projection_right_closed_form(adj)
    for side in ("right", "left"):
        assert regular_hopf_module(s3, side).side == side


@pytest.mark.parametrize("name", ["sweedler4", "group:S3", "group:C3"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_constructions_match_kronecker_formulas(name, field):
    h = builtin(name, field)
    eye = Mat.identity(field, h.dim)
    unit_col = h.unit.as_column()
    pb = tensor_square_projection(h)
    assert pb.embed == eye @ unit_col
    assert pb.project == eye @ h.counit
    assert pb.big.counit == h.counit @ h.counit
    assert pb.big.antipode == h.antipode @ h.antipode
    adj = adjoint_yd(h)
    assert adj.action == h.mul.mul_matrix()
    assert smash_coproduct(adj).counit == h.counit @ h.counit
    hm, p, _ = smash_hopf_module_right(adj)
    assert hm.action == eye @ h.mul.mul_matrix()
    assert hm.coaction == eye @ h.comul.comul_matrix()
    assert projection_right_closed_form(adj) == eye @ (unit_col * h.counit)
    triv = trivial_yd(h, adj.coalgebra)
    assert triv.action == h.counit @ eye
    assert triv.coaction == unit_col @ eye
