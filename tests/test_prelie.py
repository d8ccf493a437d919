from itertools import product

import pytest

from rbhopf import (GF, QQ, AlgebraicStructure, Mat, PreconditionError,
                    Tensor3, builtin, check_pre_lie,
                    prelie_from_rb_minus1, prelie_from_rb_zero,
                    search_rb_operators, twisted_comul)
from conftest import flip_matrix


def pre_lie_matrix_oracle(comul: Tensor3) -> bool:
    """Independent pre-Lie check by dense matrix algebra.

    Builds the coassociator (Δ⊗id)Δ - (id⊗Δ)Δ as one matrix and compares it
    with its image under the permutation of the first two tensor slots.
    """
    n = comul.dims[0]
    field = comul.field
    d = comul.comul_matrix()
    eye = Mat.identity(field, n)
    coassociator = (d @ eye) * d - (eye @ d) * d
    phi12 = flip_matrix(field, n, n) @ eye
    return phi12 * coassociator == coassociator


def test_zero_comul_is_pre_lie():
    z = Tensor3(QQ, (2, 2, 2), {})
    assert check_pre_lie(z).passed


def test_coassociative_comuls_are_pre_lie():
    for name in ("group:C2", "sweedler4", "example54", "dual-group:C2"):
        s = builtin(name)
        assert check_pre_lie(s.comul).passed
        assert pre_lie_matrix_oracle(s.comul)


def test_dim2_example_asymmetric_comul():
    # Delta(e0) = e0 (x) e1, Delta(e1) = 0
    t = Tensor3(QQ, (2, 2, 2), {(0, 0, 1): 1})
    v = check_pre_lie(t)
    assert v.passed == pre_lie_matrix_oracle(t)


def test_exhaustive_agreement_with_oracle_dim2_f2():
    f2 = GF(2)
    cells = list(product(range(2), repeat=3))
    agree = disagreements = 0
    for bits in product(range(2), repeat=8):
        t = Tensor3(f2, (2, 2, 2),
                    {cell: b for cell, b in zip(cells, bits) if b})
        if check_pre_lie(t).passed == pre_lie_matrix_oracle(t):
            agree += 1
        else:
            disagreements += 1
    assert disagreements == 0 and agree == 256


def test_exhaustive_agreement_with_oracle_dim1_f2():
    f2 = GF(2)
    for b in range(2):
        t = Tensor3(f2, (1, 1, 1), {(0, 0, 0): b} if b else {})
        assert check_pre_lie(t).passed == pre_lie_matrix_oracle(t)


def test_identity_operator_yields_flipped_comul(h4):
    # weight -1 with Q = id: derived comul is -flip(Delta)
    eye = Mat.identity(QQ, 4)
    plc = prelie_from_rb_minus1(h4, eye)
    expected = {}
    for (i, j, k), v in h4.comul.entries.items():
        expected[(i, k, j)] = -v
    assert plc.comul == Tensor3(QQ, (4, 4, 4), expected)
    assert check_pre_lie(plc.comul).passed


def test_gate_refuses_wrong_weight(e54):
    from rbhopf import example54_q
    q = example54_q(3)  # weight 3, not -1 and not 0
    with pytest.raises(PreconditionError):
        prelie_from_rb_minus1(e54, q)
    with pytest.raises(PreconditionError):
        prelie_from_rb_zero(e54, q)
    # Q = 0 has weight 0 (and any other), but the -1 gate accepts it too:
    # weight -1 also holds for the zero operator
    z = Mat.zeros(QQ, 3, 3)
    assert prelie_from_rb_zero(e54, z).comul.is_zero()
    assert prelie_from_rb_minus1(e54, z).comul == Tensor3(
        QQ, (3, 3, 3), {(i, i, i): -1 for i in range(3)})


def test_degenerate_weight_zero_q(e54):
    from rbhopf import example54_q
    q0 = example54_q(0)
    assert q0.is_zero()
    plc = prelie_from_rb_zero(e54, q0)
    assert plc.comul.is_zero()


def test_search_found_weight_zero_operators_give_pre_lie():
    for p in (2, 3):
        field = GF(p)
        for name in ("grouplike:1", "grouplike:2", "dual-group:C2"):
            s = builtin(name, field)
            c = AlgebraicStructure(s.dim, field, comul=s.comul)
            found = search_rb_operators(s, "coalgebra", 0).operators
            for q in found:
                plc = prelie_from_rb_zero(c, q)
                v = check_pre_lie(plc.comul)
                assert v.passed and pre_lie_matrix_oracle(plc.comul)


def test_twisted_comul_raw_is_ungated(e54):
    from rbhopf import example54_q
    raw = twisted_comul(e54, example54_q(3), include_comul_term=True)
    assert isinstance(raw, Tensor3)


def test_shape_guard():
    with pytest.raises(ValueError):
        check_pre_lie(Tensor3(QQ, (2, 2, 1), {}))
