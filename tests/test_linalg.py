import copy
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbhopf import (GF, QQ, FieldMismatchError, Mat, ShapeError, Tensor3,
                    TermSum, Vec, builtin, builtin_names, kron_index,
                    regular_hopf_module)
from rbhopf.linalg import _Echelon
from rbhopf.tensorops import _reading
from conftest import (apply_comul, apply_mul, column_space_basis, flip_matrix,
                      nullspace, random_mat, random_sparse_mat, rref,
                      solve_linear)


def test_kron_index_values():
    assert kron_index(0, 0, 7) == 0
    assert kron_index(1, 2, 3) == 5
    assert kron_index(2, 0, 4) == 8
    with pytest.raises(ShapeError):
        kron_index(0, 3, 3)


def test_kron_identity_and_zero():
    i2, i3 = Mat.identity(QQ, 2), Mat.identity(QQ, 3)
    assert i2 @ i3 == Mat.identity(QQ, 6)
    z = Mat.zeros(QQ, 2, 2)
    f = Mat(QQ, ((1, 2), (3, 4)))
    assert (z @ f).is_zero()
    d2 = Mat(QQ, ((2,),))
    d3 = Mat(QQ, ((3,),))
    assert d2 @ d3 == Mat(QQ, ((6,),))


@settings(max_examples=25)
@given(st.data())
def test_kron_respects_composition_over_q(data):
    f = data.draw(random_mat(QQ, 2, 2))
    g = data.draw(random_mat(QQ, 2, 3))
    h = data.draw(random_mat(QQ, 2, 2))
    k = data.draw(random_mat(QQ, 3, 2))
    assert (f @ g) * (h @ k) == (f * h) @ (g * k)


@settings(max_examples=25)
@given(st.data())
def test_kron_respects_composition_over_f5(data):
    f5 = GF(5)
    f = data.draw(random_mat(f5, 2, 2))
    g = data.draw(random_mat(f5, 2, 2))
    h = data.draw(random_mat(f5, 2, 2))
    k = data.draw(random_mat(f5, 2, 2))
    assert (f @ h) * (g @ k) == (f * g) @ (h * k)


@settings(max_examples=30)
@given(st.sampled_from([QQ, GF(5)]), st.data())
def test_by_col_matches_columns(field, data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    m = data.draw(random_sparse_mat(field, rows, cols))
    fan, _ = _reading(m, "map")
    assert len(fan) == m.cols
    for j in range(m.cols):
        assert fan[j] == tuple(((i,), m.entries[i][j]) for i in range(m.rows)
                               if m.entries[i][j])
    assert _reading(m, "map")[0] is fan


@settings(max_examples=30)
@given(st.sampled_from([QQ, GF(5)]), st.data())
def test_product_matches_entrywise_sum(field, data):
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = data.draw(random_sparse_mat(field, n, k))
    b = data.draw(random_sparse_mat(field, k, m))
    expected = Mat(field, [[sum((a.entries[i][t] * b.entries[t][j]
                                 for t in range(k)), field.zero)
                            for j in range(m)] for i in range(n)], cols=m)
    assert a * b == expected
    assert (a * b).cols == m


def test_public_constructor_still_validates():
    with pytest.raises(ShapeError):
        Mat(QQ, ((1, 2), (3,)))
    with pytest.raises(FieldMismatchError):
        Mat(QQ, ((GF(5).one,),))
    with pytest.raises(FieldMismatchError):
        Mat(GF(5), ((Fraction(1, 2),),))


def test_matrix_vector_apply_and_tensor():
    m = Mat(QQ, ((1, 2), (0, 1)))
    v = Vec(QQ, (1, 1))
    assert m * v == Vec(QQ, (3, 1))
    w = Vec(QQ, (2, 0))
    assert v.tensor(w) == Vec(QQ, (2, 0, 2, 0))
    assert w[-1] == 0 and w[-2] == 2 and w.terms == {(0,): 2}
    assert Vec.zero(QQ, 5).terms == {} and len(Vec.zero(QQ, 5)) == 5
    with pytest.raises(IndexError):
        w[2]


def test_field_mixing_rejected():
    with pytest.raises(FieldMismatchError):
        Mat.identity(QQ, 2) * Mat.identity(GF(3), 2)
    with pytest.raises(FieldMismatchError):
        Vec(QQ, (1,)) + Vec(GF(3), (1,))


def test_shape_errors():
    with pytest.raises(ShapeError):
        Mat(QQ, ((1, 2), (3,)))
    with pytest.raises(ShapeError):
        Mat.identity(QQ, 2) * Mat.identity(QQ, 3)


@pytest.mark.parametrize("build", [
    lambda: Mat.from_terms(QQ, (-1, 2), {}),
    lambda: Mat(QQ, (), cols=-1),
    lambda: Mat(QQ, ((1, 2),), cols=3),
    lambda: Mat(QQ, ((1, 2),), cols=1),
    lambda: Vec.from_terms(QQ, (-3,), {}),
    lambda: Tensor3(QQ, (2, -1, 2), {}),
    lambda: TermSum(QQ, (2, -2), {}),
    lambda: Mat.zeros(QQ, -1, 2),
    lambda: Mat.identity(QQ, -2),
    lambda: Vec.zero(QQ, -3),
], ids=["from_terms-negative", "Mat-negative-cols", "Mat-short-rows",
        "Mat-long-rows", "Vec-negative", "Tensor3-negative",
        "TermSum-negative", "Mat.zeros-negative", "Mat.identity-negative",
        "Vec.zero-negative"])
def test_public_constructors_reject_impossible_shapes(build):
    with pytest.raises(ShapeError):
        build()


def test_flip_matrix_is_self_inverse():
    s = flip_matrix(QQ, 2, 3)
    t = flip_matrix(QQ, 3, 2)
    assert t * s == Mat.identity(QQ, 6)
    v = Vec(QQ, (1, 2))
    w = Vec(QQ, (3, 4, 5))
    assert s * v.tensor(w) == w.tensor(v)


def test_tensor3_mul_apply_example54():
    e54 = builtin("example54")
    x, y, z = (Vec.basis(QQ, 3, i) for i in range(3))
    assert apply_mul(e54.mul, y, z) == z
    assert apply_mul(e54.mul, z, y).is_zero()
    assert apply_mul(e54.mul, y, y) == y


def test_tensor3_comul_apply_grouplike():
    g = builtin("grouplike:2")
    e0 = Vec.basis(QQ, 2, 0)
    assert apply_comul(g.comul, e0) == e0.tensor(e0)


@settings(max_examples=20)
@given(st.data())
def test_tensor3_bilinearity_probes(data):
    e54 = builtin("example54")
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    u = Vec(QQ, data.draw(st.lists(entries, min_size=3, max_size=3)))
    v = Vec(QQ, data.draw(st.lists(entries, min_size=3, max_size=3)))
    w = Vec(QQ, data.draw(st.lists(entries, min_size=3, max_size=3)))
    a = data.draw(entries)
    lhs = apply_mul(e54.mul, u + w.scale(a), v)
    rhs = apply_mul(e54.mul, u, v) + apply_mul(e54.mul, w, v).scale(a)
    assert lhs == rhs
    lhs = apply_mul(e54.mul, v, u + w.scale(a))
    rhs = apply_mul(e54.mul, v, u) + apply_mul(e54.mul, v, w).scale(a)
    assert lhs == rhs


def test_tensor3_matrices_agree_with_apply():
    h4 = builtin("sweedler4")
    for i in range(4):
        for j in range(4):
            ei, ej = Vec.basis(QQ, 4, i), Vec.basis(QQ, 4, j)
            assert h4.mul.mul_matrix() * ei.tensor(ej) == apply_mul(h4.mul, ei, ej)
    for i in range(4):
        ei = Vec.basis(QQ, 4, i)
        assert h4.comul.comul_matrix() * ei == apply_comul(h4.comul, ei)


def test_tensor3_rejects_bad_indices():
    with pytest.raises(ShapeError):
        Tensor3(QQ, (2, 2, 2), {(0, 0, 2): 1})


def test_rref_solve_nullspace():
    a = Mat(QQ, ((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    red, pivots = rref(a)
    assert pivots == (0, 1)
    x = solve_linear(a, Vec(QQ, (6, 12, 2)))
    assert x is not None and a * x == Vec(QQ, (6, 12, 2))
    assert solve_linear(a, Vec(QQ, (1, 0, 0))) is None
    ker = nullspace(a)
    assert len(ker) == 1 and (a * ker[0]).is_zero()
    basis = column_space_basis(a)
    assert len(basis) == 2


def test_rref_over_prime_field():
    f5 = GF(5)
    a = Mat(f5, ((2, 1), (3, 3)))
    x = solve_linear(a, Vec(f5, (1, 2)))
    assert x is not None and a * x == Vec(f5, (1, 2))


def _random_system(rng, field):
    """A random system A x = b over `field`, with at most 6 rows and at
    most 5 unknowns.  Rows are drawn sparse, zero, or as combinations of
    earlier rows; b is A x for a random x half the time."""
    nrows, ncols = rng.randrange(7), rng.randrange(6)

    def scalar(zeros):
        if rng.random() < zeros:
            return field.zero
        if field is QQ:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return field.from_int(rng.randrange(field.p))

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.3:
            coeffs = [scalar(0.3) for _ in rows]
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)),
                             field.zero) for j in range(ncols)])
        elif kind < 0.4:
            rows.append([field.zero] * ncols)
        else:
            rows.append([scalar(0.5) for _ in range(ncols)])
    a = Mat(field, rows, cols=ncols)
    if rng.random() < 0.5:
        b = a * Vec(field, [scalar(0.3) for _ in range(ncols)])
    else:
        b = Vec(field, [scalar(0.3) for _ in range(nrows)])
    return a, b


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_echelon_matches_dense_rref(field):
    """`_Echelon` against the dense reference: the same pivots, the same
    reduced rows, particular solution and kernel basis, exactly."""
    rng = random.Random(11)
    counts = Counter()
    for _ in range(400):
        a, b = _random_system(rng, field)
        n = a.cols
        aug = [{} for _ in range(a.rows)]
        for (i, j), x in a.terms.items():
            aug[i][j] = x
        for (i,), x in b.terms.items():
            aug[i][n] = x
        echelon = _Echelon(field)
        for row in aug:
            row = echelon.reduce(dict(row))
            if row is not None:
                echelon.add(row)
        for row in aug:
            assert echelon.reduce(dict(row)) is None
        particular, kernel = echelon.solve(n)

        dense = Mat(field, tuple(r + (b[i],) for i, r in enumerate(a.entries)),
                    cols=n + 1)
        red, pivots = rref(dense)
        assert tuple(sorted(echelon.rows)) == pivots
        assert [echelon.rows[p] for p in pivots] == [
            {j: x for j, x in enumerate(red.entries[r]) if x}
            for r in range(len(pivots))]
        a_pivots = rref(a)[1]
        assert tuple(p for p in pivots if p < n) == a_pivots
        expected = solve_linear(a, b)
        counts["zero rows"] += a.rows == 0
        counts["all zero"] += a.rows > 0 and a.is_zero()
        counts["rank-deficient"] += len(a_pivots) < min(a.rows, n)
        counts["inconsistent"] += expected is None
        if expected is None:
            assert particular is None
        else:
            assert Vec.from_terms(field, (n,), {
                (i,): x for i, x in particular.items()}) == expected
        assert [Vec.from_terms(field, (n,), {(i,): x for i, x in v.items()})
                for v in kernel] == nullspace(a)
    assert min(counts.values()) > 0 and len(counts) == 4, counts


def test_matrix_str_uses_exact_entries():
    m = Mat(QQ, ((Fraction(1, 2), 0), (3, -1)))
    assert "1/2" in str(m)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_tensor3_is_immutable_and_hash_ignores_caches(field):
    t = builtin("group:S3", field).mul
    h = hash(t)
    _reading(t, "first"), _reading(t, "pair")
    assert hash(t) == h
    assert t == Tensor3(field, t.dims, dict(t.entries))
    for name, value in (("entries", {}), ("dims", (1, 1, 1)), ("field", QQ),
                        ("_fans", None)):
        with pytest.raises(AttributeError):
            setattr(t, name, value)
    with pytest.raises(AttributeError):
        t.extra = 1
    fan, mono = _reading(t, "pair")
    assert mono is not None and len(fan) == 36
    assert _reading(t, "pair")[0] is fan


def test_storage_is_read_only_so_fan_outs_stay_valid():
    c2 = builtin("group:C2")
    t = c2.mul
    g = TermSum.basis(QQ, (2, 2), (1, 1))
    assert g.merge_at(0, t).terms == {(0,): QQ.one}
    h = hash(t)
    with pytest.raises(TypeError):
        t.entries[(1, 1, 0)] = 5
    with pytest.raises(TypeError):
        g.terms[(0, 0)] = 5
    assert hash(t) == h
    assert g.merge_at(0, t).terms == {(0,): QQ.one}


def test_copies_are_the_object_itself():
    h4 = builtin("sweedler4")
    for obj in (h4.unit, Vec.zero(QQ, 3), h4.antipode, h4.mul,
                TermSum.basis(QQ, (2,), (1,))):
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj


@pytest.mark.parametrize("name", [n for n in builtin_names() if "<" not in n]
                         + ["grouplike:3"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_deepcopy_of_builtins_and_a_hopf_module(name, field):
    s = builtin(name, field)
    twin = copy.deepcopy(s)
    assert twin == s and twin.field is s.field
    if s.kind == "hopf":
        hm = regular_hopf_module(s)
        assert copy.deepcopy(hm) == hm


def test_termsum_is_hashable_like_the_other_containers():
    t = TermSum(QQ, (2,), {(0,): 1})
    assert hash(t) == hash(TermSum(QQ, (2,), {(0,): Fraction(1)}))
    assert {t: 1}[TermSum.basis(QQ, (2,), (0,))] == 1
    f5 = GF(5)
    v = Vec(f5, (1, 7, 0))
    residues = Vec(f5, (f5.from_int(1), f5.from_int(2), f5.zero))
    assert v == residues and hash(v) == hash(residues)
    assert v.terms == {(0,): f5.one, (1,): f5.from_int(2)}


def test_empty_matrices_keep_their_shape():
    t = Mat.from_terms(QQ, (3, 0), {})
    assert (t.rows, t.cols) == (3, 0) and t.entries == ((), (), ())
    m = Mat(QQ, (), cols=2)
    assert (m.rows, m.cols) == (0, 2) and m == Mat.zeros(QQ, 0, 2)


def test_equality_holds_only_within_one_class():
    terms = {(0, 1, 1): 1, (1, 0, 0): 2}
    t3, ts = Tensor3(QQ, (2, 2, 2), terms), TermSum(QQ, (2, 2, 2), terms)
    assert t3.terms == ts.terms and t3 != ts and ts != t3
    m = Mat(QQ, ((0, 1), (2, 0)))
    flat = TermSum(QQ, (2, 2), dict(m.terms))
    assert m.terms == flat.terms and m != flat and flat != m
    assert len({t3, ts, m, flat}) == 4
    v = Vec(QQ, (0, 3))
    ts1, col = TermSum.from_vec(v), v.as_column()
    assert v.terms == ts1.terms and v != ts1 and ts1 != v
    assert v.dims == ts1.dims and v != col and col != v
    assert len({v, ts1, col}) == 3
