from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbhopf import (GF, QQ, FieldMismatchError, Mat, ShapeError, Tensor3,
                    TermSum, Vec, builtin)
from rbhopf.fields import Fp
from rbhopf.tensorops import _reading
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


def test_permute_prefix_keeps_trailing_factors():
    t = TermSum(QQ, (2, 3, 4, 5), {(1, 2, 3, 4): 1, (0, 1, 2, 3): 2})
    p = t.permute((1, 0))
    assert p.dims == (3, 2, 4, 5)
    assert p.terms == {(2, 1, 3, 4): QQ.one, (1, 0, 2, 3): QQ.coerce(2)}
    q = t.permute((2, 0, 1))
    assert q.dims == (4, 2, 3, 5)
    assert q.terms == {(3, 1, 2, 4): QQ.one, (2, 0, 1, 3): QQ.coerce(2)}
    assert t.permute((0, 1)) == t and t.permute(()) == t
    assert t.permute((1, 0, 2, 3)) == p
    for bad in ((0, 0), (1, 2), (0, 2, 1, 3, 4), (4, 0, 1, 2, 3), (-1, 0)):
        with pytest.raises(ShapeError):
            t.permute(bad)


# The rewrites skip the product when a factor is the field's `one`; these
# reference rewrites multiply every pair, straight from the dense entries.

def _plain_map_at(t, pos, m):
    out = {}
    for key, val in t.terms.items():
        for i in range(m.rows):
            a = m.entries[i][key[pos]]
            if a:
                nk = key[:pos] + (i,) + key[pos + 1:]
                out[nk] = out.get(nk, t.field.zero) + a * val
    return {k: v for k, v in out.items() if v}


def _plain_merge_map_at(t, pos, m):
    b = t.dims[pos + 1]
    out = {}
    for key, val in t.terms.items():
        for i in range(m.rows):
            a = m.entries[i][key[pos] * b + key[pos + 1]]
            if a:
                nk = key[:pos] + (i,) + key[pos + 2:]
                out[nk] = out.get(nk, t.field.zero) + a * val
    return {k: v for k, v in out.items() if v}


def _plain_split_at(t, pos, comul):
    out = {}
    for key, val in t.terms.items():
        for (i, j, k), a in comul.entries.items():
            if i == key[pos]:
                nk = key[:pos] + (j, k) + key[pos + 1:]
                out[nk] = out.get(nk, t.field.zero) + a * val
    return {k: v for k, v in out.items() if v}


def _plain_merge_at(t, pos, mul):
    out = {}
    for key, val in t.terms.items():
        for (i, j, k), a in mul.entries.items():
            if (i, j) == key[pos:pos + 2]:
                nk = key[:pos] + (k,) + key[pos + 2:]
                out[nk] = out.get(nk, t.field.zero) + a * val
    return {k: v for k, v in out.items() if v}


def _unit_heavy(field):
    """Scalars that stress the unit skip: the singleton `one`, a 1 that is
    another object, -1, zero and a plain value."""
    other_one = Fraction(1) if field == QQ else Fp(1, field.p)
    return st.sampled_from([field.one, other_one, field.coerce(-1), field.zero,
                            field.coerce(2)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["QQ", 7]), st.booleans(), _dims3, st.data())
def test_unit_skip_rewrites_match_plain_products(which, twin, dims, data):
    field = QQ if which == "QQ" else GF(which)
    # The maps live over an equal field that is, for GF(7), another object.
    mfield = GF(which) if twin and which != "QQ" else field
    assert mfield == field
    scal, mscal = _unit_heavy(field), _unit_heavy(mfield)
    keys = st.tuples(*(st.integers(0, d - 1) for d in dims))
    t = TermSum(field, dims, data.draw(st.dictionaries(keys, scal, max_size=8)))
    pos = data.draw(st.integers(0, 1))

    def mat(rows, cols):
        return Mat(mfield, data.draw(st.lists(
            st.lists(mscal, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)), cols=cols)

    def t3(shape):
        idx = st.tuples(*(st.integers(0, d - 1) for d in shape))
        return Tensor3(mfield, shape,
                       data.draw(st.dictionaries(idx, mscal, max_size=10)))

    m = mat(data.draw(st.integers(1, 3)), dims[pos])
    assert t.map_at(pos, m).terms == _plain_map_at(t, pos, m)
    mm = mat(data.draw(st.integers(1, 3)), dims[pos] * dims[pos + 1])
    assert t.merge_map_at(pos, mm).terms == _plain_merge_map_at(t, pos, mm)
    comul = t3((dims[pos], 2, 3))
    assert t.split_at(pos, comul).terms == _plain_split_at(t, pos, comul)
    flat = comul.comul_matrix()
    assert t.split_map_at(pos, flat, (2, 3)).terms == _plain_split_at(t, pos, comul)
    mul = t3((dims[pos], dims[pos + 1], 2))
    assert t.merge_at(pos, mul).terms == _plain_merge_at(t, pos, mul)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_fan_outs_store_the_field_one(field):
    other_one = Fraction(1) if field == QQ else Fp(1, field.p)
    assert other_one is not field.one
    m = Mat(field, ((other_one, field.coerce(-1)), (field.zero, field.coerce(3))))
    cols, _ = _reading(m, "map")
    assert cols[0][0][1] is field.one
    assert cols[1][0][1] == field.coerce(-1)
    t3 = Tensor3(field, (2, 2, 2), {(0, 1, 1): other_one, (1, 0, 0): -1})
    assert _reading(t3, "first")[0][0][0][1] is field.one
    pairs, _ = _reading(t3, "pair")
    assert pairs[0 * 2 + 1][0][1] is field.one
    assert pairs[1 * 2 + 0][0][1] == field.coerce(-1)


# Differential battery for the two accumulation paths: monomial maps take the
# relabelling fast path, monomial maps that send two input keys to one output
# key fall back to the general loop, and general maps run it directly.  Input
# twins carry the negated value of a term at another index of the rewritten
# factor, so a collapsing map cancels them exactly.

def _map_kinds(field, rows, cols):
    """Strategy for a rows x cols map: monomial, collapsing monomial or general."""
    def monomial(targets):
        return Mat(field, [[field.one if targets[j] == i else field.zero
                            for j in range(cols)] for i in range(rows)], cols=cols)

    return st.one_of(
        st.lists(st.integers(0, rows - 1), min_size=cols, max_size=cols).map(monomial),
        st.just(monomial([0] * cols)),
        random_sparse_mat(field, rows, cols))


def _tensor3_of(m, dims, flat_in):
    """The Tensor3 of a map: flat_in=True reads m as (a·b) -> c (a product),
    otherwise as a -> (b·c) (a coproduct)."""
    a, b, c = dims
    if flat_in:
        return Tensor3(m.field, dims, {(i, j, k): m.entries[k][i * b + j]
                                       for i in range(a) for j in range(b)
                                       for k in range(c)})
    return Tensor3(m.field, dims, {(i, j, k): m.entries[j * c + k][i]
                                   for i in range(a) for j in range(b)
                                   for k in range(c)})


def _cancelling_termsum(data, field, dims, pos):
    """Small random terms, some with a twin of negated value at another index
    of factor `pos`."""
    keys = st.tuples(*(st.integers(0, d - 1) for d in dims))
    vals = _unit_heavy(field).filter(bool)
    terms = data.draw(st.dictionaries(keys, vals, max_size=6))
    for key, val in list(terms.items()):
        if dims[pos] > 1 and data.draw(st.booleans()):
            twin = key[:pos] + ((key[pos] + 1) % dims[pos],) + key[pos + 1:]
            terms.setdefault(twin, -val)
    return TermSum(field, dims, terms)


def _assert_matches(out, dense, t, dims):
    assert out.dims == dims
    assert out.to_vec() == dense.apply(t.to_vec())
    assert all(out.terms.values())


@settings(max_examples=150, deadline=None)
@given(_fields, _dims3, st.data())
def test_rewrites_match_dense_apply_on_both_paths(field, dims, data):
    pos = data.draw(st.integers(0, 1))
    t = _cancelling_termsum(data, field, dims, pos)
    d, e = dims[pos], dims[pos + 1]
    r = data.draw(st.integers(1, 3))
    m = data.draw(_map_kinds(field, r, d))
    _assert_matches(t.map_at(pos, m), _around(field, dims, pos, 1, m), t,
                    dims[:pos] + (r,) + dims[pos + 1:])

    a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    sm = data.draw(_map_kinds(field, a * b, d))
    split_dims = dims[:pos] + (a, b) + dims[pos + 1:]
    dense = _around(field, dims, pos, 1, sm)
    _assert_matches(t.split_map_at(pos, sm, (a, b)), dense, t, split_dims)
    _assert_matches(t.split_at(pos, _tensor3_of(sm, (d, a, b), False)),
                    dense, t, split_dims)

    mm = data.draw(_map_kinds(field, r, d * e))
    merge_dims = dims[:pos] + (r,) + dims[pos + 2:]
    dense = _around(field, dims, pos, 2, mm)
    _assert_matches(t.merge_map_at(pos, mm), dense, t, merge_dims)
    _assert_matches(t.merge_at(pos, _tensor3_of(mm, (d, e, r), True)),
                    dense, t, merge_dims)

    form = data.draw(_map_kinds(field, 1, d * e))
    _assert_matches(t.pair_at(pos, form), _around(field, dims, pos, 2, form), t,
                    dims[:pos] + dims[pos + 2:])

    u = _cancelling_termsum(data, field, dims, pos)
    for out, expected in ((t + u, t.to_vec() + u.to_vec()),
                          (t - u, t.to_vec() - u.to_vec()),
                          (-t, -t.to_vec()),
                          (t.scale(data.draw(_unit_heavy(field))), None)):
        if expected is not None:
            assert out.to_vec() == expected
        assert all(out.terms.values())


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_monomial_tables_and_collapsing_fallback(field):
    swap = Mat(field, ((0, 1), (1, 0)))
    collapse = Mat(field, ((1, 1), (0, 0)))
    def table(m, role):
        return _reading(m, role)[1]

    assert table(swap, "map") == ((1,), (0,))
    assert table(collapse, "map") == ((0,), (0,))
    assert table(Mat(field, ((1, 2), (0, 0))), "map") is None
    assert table(Mat(field, ((1, 0), (0, 0))), "map") is None
    assert table(Mat(field, ((1, 1), (1, 0))), "map") is None
    minus_one = field.coerce(-1)
    t = TermSum(field, (2, 3), {(0, 2): 1, (1, 2): minus_one, (1, 0): 2})
    assert t.map_at(0, swap).terms == {(1, 2): field.one, (0, 2): minus_one,
                                       (0, 0): field.coerce(2)}
    # (0, 2) and (1, 2) land on one key and cancel: the general loop runs.
    assert t.map_at(0, collapse).terms == {(0, 0): field.coerce(2)}
    same = TermSum(field, (2, 1), {(0, 0): 1, (1, 0): 1})
    assert same.map_at(0, collapse).terms == {(0, 0): field.coerce(2)}

    c2 = builtin("group:C2", field)
    assert table(c2.mul, "pair") == ((0,), (1,), (1,), (0,))
    assert table(c2.comul, "first") == ((0, 0), (1, 1))
    h4 = builtin("sweedler4", field)
    assert table(h4.mul, "pair") is None and table(h4.comul, "first") is None
    # A product with a zero pair has no table: e_1 e_1 = 0 here.
    partial = Tensor3(field, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    assert table(partial, "pair") is None
