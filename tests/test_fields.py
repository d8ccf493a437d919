from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rbhopf import GF, QQ, FieldMismatchError, Fp, Mat, builtin, field_from_name
from rbhopf.fields import _is_prime
from rbhopf.fileformat import dumps, loads


def test_rational_coerce_and_format():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.format(Fraction(-7, 2)) == "-7/2"
    assert QQ.parse("-7/2") == Fraction(-7, 2)
    with pytest.raises(FieldMismatchError):
        QQ.coerce(Fp(1, 5))


@given(st.fractions(max_denominator=10 ** 6))
def test_rational_string_round_trip(x):
    assert Fraction(str(x)) == x
    assert QQ.parse(QQ.format(x)) == x


def test_fp_arithmetic():
    f5 = GF(5)
    a, b = f5.from_int(3), f5.from_int(4)
    assert a + b == f5.from_int(2)
    assert a * b == f5.from_int(2)
    assert a - b == f5.from_int(4)
    assert -a == f5.from_int(2)
    assert a / b == f5.from_int(3 * pow(4, -1, 5))
    assert a ** 4 == f5.one
    assert bool(f5.zero) is False and bool(a) is True


def test_fp_int_interop():
    f7 = GF(7)
    a = f7.from_int(3)
    assert 1 + a == f7.from_int(4)
    assert 2 * a == f7.from_int(6)
    assert 10 - a == f7.zero
    assert a == 3 and a != 10 and a != -4


_fp_or_int = st.one_of(
    st.builds(Fp, st.integers(-20, 20), st.just(5)),
    st.integers(-20, 20))


@given(_fp_or_int, _fp_or_int)
def test_fp_equality_implies_equal_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (b == a)


def test_fp_and_its_residue_are_one_set_element():
    assert {Fp(1, 5), 1} == {1}
    assert len({Fp(1, 5), 1}) == 1
    assert len({Fp(1, 5), 6}) == 2
    assert Fp(1, 5) != 6 and Fp(4, 5) != -1
    with pytest.raises(FieldMismatchError):
        {Fp(1, 3), Fp(1, 5)}


def test_fp_modulus_mixing_is_an_error():
    with pytest.raises(FieldMismatchError):
        Fp(1, 3) + Fp(1, 5)
    with pytest.raises(FieldMismatchError):
        GF(3).coerce(Fp(1, 5))


def test_fp_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fp(1, 3) / Fp(0, 3)


def test_prime_validation():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    assert GF(2).p == 2 and GF(101).p == 101


def test_primality_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(_is_prime(n) == by_trial_division(n) for n in range(10 ** 4))


@pytest.mark.parametrize("n", [561, 41041, 3215031751,
                               (2 ** 61 - 1) * (2 ** 31 - 1)])
def test_pseudoprimes_and_huge_moduli_are_rejected(n):
    """Carmichael numbers, the least strong pseudoprime to bases 2, 3, 5 and
    7, and a product of two primes beyond the deterministic bound."""
    with pytest.raises(ValueError):
        GF(n)


def test_large_primes_are_fields():
    p = 2 ** 61 - 1
    assert GF(p).p == p
    assert _is_prime(3317044064679887385961981 - 2) is False
    with pytest.raises(ValueError):
        _is_prime(3317044064679887385961981)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(), st.integers())
def test_fp_field_axioms_sampled(p, x, y):
    f = GF(p)
    a, b = f.from_int(x), f.from_int(y)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + f.one) == a * b + a
    if b:
        assert (a / b) * b == a


def test_field_names_round_trip():
    assert field_from_name("Q") == QQ
    assert field_from_name("Fp:5") == GF(5)
    assert field_from_name(GF(13).name) == GF(13)
    with pytest.raises(ValueError):
        field_from_name("R")


def test_field_elements_enumeration():
    assert [x.residue for x in GF(3).elements()] == [0, 1, 2]


def test_prime_fields_are_interned():
    f5 = GF(5)
    assert GF(5) is f5
    assert field_from_name("Fp:5") is f5
    assert builtin("group:S3", GF(5)).field.one is f5.one
    assert GF(7) is not f5
    # A reloaded operator shares the unit scalar the rewrites test by identity.
    op = Mat.identity(f5, 3)
    assert loads(dumps(op)).payload.field.one is f5.one
