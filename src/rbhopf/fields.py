"""Exact scalars: arbitrary-precision rationals and prime-field residues.

Every identity this package verifies is a polynomial identity in structure
constants, so all arithmetic is exact; no floating point appears anywhere.
Rational scalars are `fractions.Fraction` (always in lowest terms with a
positive denominator); prime-field scalars are `Fp` residues that carry
their modulus.  Python ints interoperate with both, acting as the canonical
image of the integers in either field.
Each field interns `zero`, `one` and `minus_one` (over F_2 `minus_one`
is `one`).  The sparse storage (`linalg`) skips arithmetic on the interned
±1 by identity, the rewrite kernel on `one`; equal values that are other
objects get the arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FieldMismatchError


# Miller-Rabin with the first 13 primes as bases decides primality of every
# n below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality test; ValueError at or above `_MR_BOUND`."""
    if n >= _MR_BOUND:
        raise ValueError(f"modulus {n} is too large (at most {_MR_BOUND - 1})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """An element of F_p, stored as the residue in [0, p).

    Mixing residues with different moduli raises `FieldMismatchError`, in
    comparisons too; ints are lifted mod p in arithmetic.  Equality with an int is exact:
    `Fp(1, 5) == 1` but `Fp(1, 5) != 6`, so equal values hash alike
    (`hash(Fp(r, p)) == hash(r)`).
    """

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        self.residue = residue % p
        self.p = p

    def _residue_of(self, other) -> int | None:
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"mixed moduli: {self.p} and {other.p}")
            return other.residue
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        return Fp(self.residue + r, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        return Fp(self.residue - r, self.p)

    def __rsub__(self, other):
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        return Fp(r - self.residue, self.p)

    def __mul__(self, other):
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        return Fp(self.residue * r, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        if r == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.residue * pow(r, -1, self.p), self.p)

    def __rtruediv__(self, other):
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        if self.residue == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(r * pow(self.residue, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.residue, self.p)

    def __pow__(self, n: int):
        if n < 0:
            if self.residue == 0:
                raise ZeroDivisionError(f"division by zero in F_{self.p}")
            return Fp(pow(pow(self.residue, -1, self.p), -n, self.p), self.p)
        return Fp(pow(self.residue, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return other == self.residue
        r = self._residue_of(other)
        if r is None:
            return NotImplemented
        return self.residue == r

    def __hash__(self):
        return hash(self.residue)

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"Fp({self.residue}, {self.p})"

    def __str__(self):
        return str(self.residue)


class Rationals:
    """Field descriptor for Q; elements are `fractions.Fraction`."""

    name = "Q"
    finite = False
    zero = Fraction(0)
    one = Fraction(1)
    minus_one = Fraction(-1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldMismatchError(f"not a rational scalar: {x!r}")

    def parse(self, text: str) -> Fraction:
        return Fraction(text)

    def format(self, x) -> str:
        return str(self.coerce(x))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"

    def __reduce__(self):
        # Copies and unpickled fields are the module's `QQ` itself.
        return "QQ"


QQ = Rationals()


class PrimeField:
    """Field descriptor for F_p with p prime."""

    finite = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.zero = Fp(0, p)
        self.one = Fp(1, p)
        self.minus_one = self.one if p == 2 else Fp(p - 1, p)

    @property
    def name(self) -> str:
        return f"Fp:{self.p}"

    def from_int(self, n: int) -> Fp:
        return Fp(n, self.p)

    def coerce(self, x) -> Fp:
        if isinstance(x, Fp):
            if x.p != self.p:
                raise FieldMismatchError(
                    f"residue mod {x.p} used in F_{self.p}")
            return x
        if isinstance(x, int):
            return Fp(x, self.p)
        raise FieldMismatchError(f"not an F_{self.p} scalar: {x!r}")

    def elements(self):
        return (Fp(r, self.p) for r in range(self.p))

    def parse(self, text: str) -> Fp:
        return Fp(int(text), self.p)

    def format(self, x) -> str:
        return str(self.coerce(x).residue)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def __reduce__(self):
        # Copies and unpickled fields are the interned `GF(p)` itself.
        return GF, (self.p,)


_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The field F_p: one `PrimeField` per p, so `GF(p).one` is one object.

    Rewrites recognise the scalars ±1 by identity (`v is field.one`,
    `v is field.minus_one`), so structures, operators and files over F_p
    should share this instance.
    """
    field = _prime_fields.get(p)
    if field is None:
        field = _prime_fields[p] = PrimeField(p)
    return field


_DECIMAL = re.compile("-?[0-9]+")


def parse_decimal(text: str) -> int:
    """An ASCII decimal integer, `-?[0-9]+`, else ValueError (`int` also
    takes other scripts' digits, `_`, `+` and surrounding blanks)."""
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def field_from_name(name: str):
    """Inverse of `field.name`: "Q" or "Fp:<p>", p in ASCII decimal."""
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        return GF(parse_decimal(name[3:]))
    raise ValueError(f"unknown field {name!r}")
