"""Products with the field's interned `one` are skipped, not computed.

`TermSum.insert_at` and the matrix product `Mat.__mul__` take the other
factor as it is when one factor is the field's `one`, as the rewrite
kernel does.  Each result must be what plain field arithmetic on the entry
dicts gives: the same keys, equal values, no stored zero and the same
`repr`, whether the values are the interned objects, equal objects made
afresh, or other scalars.
"""

from hypothesis import given, settings, strategies as st

from rbhopf import GF, QQ, Mat, TermSum, Vec
from test_sign_rule import assert_plain, fresh

FIELDS = (QQ, GF(2), GF(3))


def scalars(field):
    others = ([fresh(field, 2), fresh(field, -1) / 2] if field is QQ
              else [fresh(field, r) for r in range(2, field.p)])
    return st.sampled_from([field.one, field.minus_one, fresh(field, 1),
                            fresh(field, -1), *others])


def entries(field, dims, max_size):
    keys = st.tuples(*(st.integers(0, d - 1) for d in dims))
    return st.dictionaries(keys, scalars(field), max_size=max_size)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_insert_at_matches_field_arithmetic(data):
    field = data.draw(st.sampled_from(FIELDS))
    dims = (3, 2)
    a = TermSum(field, dims, data.draw(entries(field, dims, 6)))
    v = Vec._trusted(field, (3,), data.draw(entries(field, (3,), 3)))
    pos = data.draw(st.integers(0, len(dims)))
    want = {k[:pos] + i + k[pos:]: x * val
            for k, val in a.terms.items() for i, x in v.terms.items()}
    got = a.insert_at(pos, v)
    assert got.dims == dims[:pos] + (3,) + dims[pos:]
    assert_plain(got, want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matrix_product_matches_field_arithmetic(data):
    field = data.draw(st.sampled_from(FIELDS))
    n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = Mat._trusted(field, (n, k), data.draw(entries(field, (n, k), 6)))
    b = Mat._trusted(field, (k, m), data.draw(entries(field, (k, m), 6)))
    want = {}
    for (i, j), x in a.terms.items():
        for (r, c), y in b.terms.items():
            if r == j:
                want[i, c] = want.get((i, c), field.zero) + x * y
    got = a * b
    assert got.dims == (n, m)
    assert_plain(got, want)
    assert got == Mat(field, [[sum((a[i, j] * b[j, c] for j in range(k)),
                                   field.zero) for c in range(m)]
                              for i in range(n)])


def test_a_product_with_one_is_the_other_factor():
    for field in FIELDS:
        one, x = field.one, fresh(field, -1)
        a = Mat._trusted(field, (1, 1), {(0, 0): one})
        b = Mat._trusted(field, (1, 1), {(0, 0): x})
        assert (a * b)[0, 0] is x and (b * a)[0, 0] is x
        t = TermSum(field, (1,), {(0,): x})
        assert t.insert_at(1, Vec._trusted(field, (1,), {(0,): one})
                           ).terms[0, 0] is x
