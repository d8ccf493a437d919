import pytest
from hypothesis import given, settings, strategies as st

from rbhopf import (GF, QQ, FieldMismatchError, Mat, ShapeError, TermSum, Vec,
                    builtin)
from conftest import random_sparse_mat


def test_basis_and_flatten():
    t = TermSum.basis(QQ, (2, 3), (1, 2))
    assert t.to_vec() == Vec.basis(QQ, 6, 5)


def test_map_at_matches_matrix_action():
    m = Mat(QQ, ((1, 2), (3, 4)))
    t = TermSum.basis(QQ, (2, 2), (0, 1)).map_at(0, m)
    assert t.terms == {(0, 1): QQ.coerce(1), (1, 1): QQ.coerce(3)}


def test_split_then_merge_squares_grouplikes():
    c2 = builtin("group:C2")
    # mul after comul sends a grouplike g to g^2: e0 -> e0, g -> 1
    t0 = TermSum.basis(QQ, (2,), (0,)).split_at(0, c2.comul).merge_at(0, c2.mul)
    assert t0 == TermSum.basis(QQ, (2,), (0,))
    t1 = TermSum.basis(QQ, (2,), (1,)).split_at(0, c2.comul).merge_at(0, c2.mul)
    assert t1 == TermSum.basis(QQ, (2,), (0,))


def test_split_map_at_equals_split_at_for_comul_matrix():
    h4 = builtin("sweedler4")
    for i in range(4):
        t = TermSum.basis(QQ, (4,), (i,))
        via_tensor = t.split_at(0, h4.comul)
        via_matrix = t.split_map_at(0, h4.comul.comul_matrix(), (4, 4))
        assert via_tensor == via_matrix


def test_merge_map_at_equals_merge_at_for_mul_matrix():
    h4 = builtin("sweedler4")
    mm = h4.mul.mul_matrix()
    for i in range(4):
        for j in range(4):
            t = TermSum.basis(QQ, (4, 4), (i, j))
            assert t.merge_at(0, h4.mul) == t.merge_map_at(0, mm)


def test_pair_at_contracts_to_scalar_shape():
    form = Mat(QQ, ((1, 0, 0, 2),))
    t = TermSum.basis(QQ, (2, 2), (1, 1)).pair_at(0, form)
    assert t.dims == () and t.terms == {(): QQ.coerce(2)}
    t0 = TermSum.basis(QQ, (2, 2), (0, 1)).pair_at(0, form)
    assert t0.is_zero()


def test_permute_and_swap():
    t = TermSum.basis(QQ, (2, 3, 4), (1, 2, 3))
    assert t.permute((2, 0, 1)).dims == (4, 2, 3)
    assert t.permute((2, 0, 1)).terms == {(3, 1, 2): QQ.one}
    assert t.swap_at(1).terms == {(1, 3, 2): QQ.one}
    with pytest.raises(ShapeError):
        t.permute((0, 0, 1))


def test_insert_and_drop():
    v = Vec(QQ, (1, 2))
    t = TermSum.basis(QQ, (3,), (0,)).insert_at(0, v)
    assert t.dims == (2, 3)
    assert t.terms == {(0, 0): QQ.coerce(1), (1, 0): QQ.coerce(2)}
    one = TermSum.basis(QQ, (1, 3), (0, 2))
    assert one.drop_at(0).dims == (3,)
    with pytest.raises(ShapeError):
        t.drop_at(0)


def test_linear_ops_and_zero():
    a = TermSum.basis(QQ, (2,), (0,))
    b = TermSum.basis(QQ, (2,), (1,))
    assert (a + b - a - b).is_zero()
    assert a.scale(0).is_zero()
    assert (-a).terms == {(0,): QQ.coerce(-1)}


def test_shape_mismatch_rejected():
    a = TermSum.basis(QQ, (2,), (0,))
    b = TermSum.basis(QQ, (3,), (0,))
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a.map_at(0, Mat.identity(QQ, 3))


def _random_termsum(data, field, dims):
    keys = st.tuples(*(st.integers(0, d - 1) for d in dims))
    if field == QQ:
        vals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        vals = st.integers(0, field.p - 1)
    return TermSum(field, dims, data.draw(st.dictionaries(keys, vals, max_size=6)))


def _around(field, dims, pos, width, m):
    """Dense I ⊗ m ⊗ I acting on factors pos..pos+width-1 of `dims`."""
    left = right = 1
    for d in dims[:pos]:
        left *= d
    for d in dims[pos + width:]:
        right *= d
    return Mat.identity(field, left) @ m @ Mat.identity(field, right)


_fields = st.sampled_from([QQ, GF(5)])
_dims3 = st.tuples(*(st.integers(1, 3) for _ in range(3)))


@settings(max_examples=40, deadline=None)
@given(_fields, _dims3, st.data())
def test_map_at_matches_dense_apply(field, dims, data):
    t = _random_termsum(data, field, dims)
    pos = data.draw(st.integers(0, 2))
    m = data.draw(random_sparse_mat(field, data.draw(st.integers(1, 3)), dims[pos]))
    out = t.map_at(pos, m)
    assert out.to_vec() == _around(field, dims, pos, 1, m).apply(t.to_vec())
    assert all(out.terms.values())


@settings(max_examples=40, deadline=None)
@given(_fields, _dims3, st.data())
def test_split_map_at_matches_dense_apply(field, dims, data):
    t = _random_termsum(data, field, dims)
    pos = data.draw(st.integers(0, 2))
    a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    m = data.draw(random_sparse_mat(field, a * b, dims[pos]))
    out = t.split_map_at(pos, m, (a, b))
    assert out.dims == dims[:pos] + (a, b) + dims[pos + 1:]
    assert out.to_vec() == _around(field, dims, pos, 1, m).apply(t.to_vec())
    assert all(out.terms.values())


@settings(max_examples=40, deadline=None)
@given(_fields, _dims3, st.data())
def test_merge_map_at_matches_dense_apply(field, dims, data):
    t = _random_termsum(data, field, dims)
    pos = data.draw(st.integers(0, 1))
    m = data.draw(random_sparse_mat(field, data.draw(st.integers(1, 3)),
                                    dims[pos] * dims[pos + 1]))
    out = t.merge_map_at(pos, m)
    assert out.to_vec() == _around(field, dims, pos, 2, m).apply(t.to_vec())
    assert all(out.terms.values())


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_cancelling_rewrite_leaves_no_zero_terms(field):
    t = TermSum(field, (2, 2), {(0, 1): 1, (1, 1): 1})
    minus_one = field.coerce(-1)
    m = Mat(field, ((1, minus_one), (1, 1)))
    for out in (t.map_at(0, m), t.merge_map_at(0, Mat(field, ((0, 1, 0, minus_one),))),
                t.split_map_at(0, Mat(field, ((1, minus_one),)), (1, 1))):
        assert 0 not in out.terms.values()
        assert all(out.terms.values())
    cancelled = t.map_at(0, Mat(field, ((1, minus_one),)))
    assert cancelled.terms == {} and cancelled.is_zero()
    assert (t - t).is_zero() and (t - t).dims == t.dims
    assert (t + (-t)).terms == {}
    assert t.scale(0).terms == {}


def test_sub_checks_shape_and_field_even_when_equal():
    a = TermSum.basis(QQ, (2,), (0,))
    with pytest.raises(ShapeError):
        a - TermSum(QQ, (3,), {})
    with pytest.raises(FieldMismatchError):
        a - TermSum.basis(GF(5), (2,), (0,))


def test_public_constructor_still_validates():
    with pytest.raises(ShapeError):
        TermSum(QQ, (2,), {(2,): 1})
    with pytest.raises(ShapeError):
        TermSum(QQ, (2, 2), {(0,): 1})
    with pytest.raises(FieldMismatchError):
        TermSum(QQ, (2,), {(0,): GF(5).one})
    assert TermSum(GF(5), (2,), {(0,): 5, (1,): 6}).terms == {(1,): GF(5).one}
