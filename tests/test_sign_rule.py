"""The sparse storage's sign rule: the interned ±1 are known by identity.

Every field holds a `minus_one` beside `one` (the same object over F_2).
`_Sparse` negates the two into each other, cancels `one + minus_one` and
`x - x` (one object twice) without arithmetic, and scales by -1 as
negation.  Each result must be what plain field arithmetic on the entry
dicts gives: the same keys, equal values, no stored zero and the same
`repr`, whether the values are the interned objects, equal objects made
afresh, or other scalars.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from rbhopf import GF, QQ, TermSum
from rbhopf.fields import Fp

FIELDS = (QQ, GF(2), GF(3), GF(5))
DIMS = (3, 2)


def fresh(field, n):
    """A new object equal to n in `field`, never an interned one."""
    return Fraction(n) if field is QQ else Fp(n, field.p)


def scalars(field):
    others = ([Fraction(2), Fraction(-1, 2), Fraction(3, 4)] if field is QQ
              else [Fp(r, field.p) for r in range(2, field.p - 1)])
    return st.sampled_from([field.one, field.minus_one, fresh(field, 1),
                            fresh(field, -1), *others])


def sums(field):
    keys = st.tuples(*(st.integers(0, d - 1) for d in DIMS))
    return st.dictionaries(keys, scalars(field), max_size=6).map(
        lambda d: TermSum(field, DIMS, d))


def assert_plain(got, want: dict):
    want = {k: v for k, v in want.items() if v}
    assert dict(got.terms) == want
    assert all(got.terms.values())
    assert repr(sorted(got.terms.items())) == repr(sorted(want.items()))


def test_minus_one_is_interned():
    assert QQ.minus_one == Fraction(-1) and type(QQ.minus_one) is Fraction
    assert GF(2).minus_one is GF(2).one
    for p in (3, 5, 7):
        assert repr(GF(p).minus_one) == f"Fp({p - 1}, {p})"
        assert GF(p).minus_one is GF(p).minus_one


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_add_sub_neg_match_field_arithmetic(data):
    field = data.draw(st.sampled_from(FIELDS))
    a, b = data.draw(sums(field)), data.draw(sums(field))
    x, y = dict(a.terms), dict(b.terms)
    zero = field.zero
    keys = x.keys() | y.keys()
    assert_plain(a + b, {k: x.get(k, zero) + y.get(k, zero) for k in keys})
    assert_plain(a - b, {k: x.get(k, zero) - y.get(k, zero) for k in keys})
    assert_plain(-a, {k: -v for k, v in x.items()})
    assert (a - a).is_zero()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scale_matches_field_arithmetic(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(sums(field))
    s = data.draw(st.sampled_from(
        (1, -1, 0, 2, fresh(field, -1), field.minus_one)))
    assert_plain(a.scale(s), {k: field.coerce(s) * v
                              for k, v in a.terms.items()})


def test_interned_values_stay_interned():
    for field in FIELDS:
        one, minus_one = field.one, field.minus_one
        a = TermSum(field, DIMS, {(0, 0): one, (1, 0): minus_one})
        assert (-a).terms == {(0, 0): minus_one, (1, 0): one}
        assert all(v is w for v, w in zip((-a).terms.values(),
                                          (minus_one, one)))
        assert all(v is w for v, w in zip(a.scale(-1).terms.values(),
                                          (minus_one, one)))
        zero = TermSum(field, DIMS, {})
        got = zero - a
        assert got[0, 0] is minus_one and got[1, 0] is one
        assert (a + -a).is_zero() and (a - a).is_zero()
