"""Exact arithmetic over the field Q(sqrt2).

Splitter-network transfer matrices, stabilizer row combinations and the
teleported-gate constraint solver all live in Z[1/2, sqrt(2)], so identities
that the rest of the package asserts "exactly" are checked with these types
instead of floats.

An element is held as three Python integers (p, q, d) with value
(p + q*sqrt2)/d, in the normal form d > 0 and gcd(p, q, d) = 1.  The normal
form is unique, so equality is three integer compares, and every field
operation is integer arithmetic followed by one gcd.  The denominator is
general, not a power of two: elimination divides by norms p^2 - 2q^2 such
as 3.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .checks import require_int

_SQRT2 = 2 ** 0.5


def _new(p, q, d):
    """ExactCoeff (p + q*sqrt2)/d for integers p, q and d > 0, reduced."""
    g = gcd(p, q, d)
    c = object.__new__(ExactCoeff)
    c.p, c.q, c.d = p // g, q // g, d // g
    return c


class ExactCoeff:
    """Element a + b*sqrt(2) with rational a, b, stored as (p, q, d).

    The constructor takes a and b as ints or Fractions; ``a`` and ``b`` read
    them back as Fractions.  The normal form a / 2^(k/2) (integer a,
    k >= 0) used in printed matrices is a special case: one of the two
    components is zero and the denominator is a power of two.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        a, b = Fraction(a), Fraction(b)
        p, q = a.numerator * b.denominator, b.numerator * a.denominator
        d = a.denominator * b.denominator
        g = gcd(p, q, d)
        self.p, self.q, self.d = p // g, q // g, d // g

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    @classmethod
    def from_half_power(cls, numer: int, k: int):
        """Exact value numer / 2^(k/2) with integer numer and k >= 0."""
        numer = require_int("numer", numer, None)
        k = require_int("k", k, 0)
        if k % 2 == 0:
            return _new(numer, 0, 2 ** (k // 2))
        # 1/2^(k/2) = sqrt(2) / 2^((k+1)/2)
        return _new(0, numer, 2 ** ((k + 1) // 2))

    def as_half_power(self):
        """Inverse of from_half_power; returns (numer, k) or None if the
        value is not of that form."""
        if self.p and self.q:
            return None
        numer, odd = (self.p, 0) if not self.q else (self.q, 1)
        den = self.d  # gcd(numer, den) = 1 in normal form
        if den & (den - 1):  # not a power of two
            return None
        # even case: a = numer/2^(k/2) with k = 2*log2(den)
        # odd case:  b*sqrt2 = numer/2^(k/2) with k = 2*log2(den) - 1
        k = 2 * (den.bit_length() - 1) - odd
        if k < 0:  # integer multiple of sqrt2: n*sqrt2 = 2n/2^(1/2)
            return (2 * numer, 1)
        return (numer, k)

    # -- field operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactCoeff):
            return other
        if type(other) is int:
            return _new(other, 0, 1)
        if isinstance(other, (int, Fraction)):
            return ExactCoeff(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not ExactCoeff:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _new(self.p + other.p, self.q + other.q, d1)
        return _new(self.p * d2 + other.p * d1, self.q * d2 + other.q * d1,
                    d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.p, -self.q, self.d)

    def __sub__(self, other):
        if type(other) is not ExactCoeff:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _new(self.p - other.p, self.q - other.q, d1)
        return _new(self.p * d2 - other.p * d1, self.q * d2 - other.q * d1,
                    d1 * d2)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not ExactCoeff:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        return _new(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2,
                    self.d * other.d)

    __rmul__ = __mul__

    def inverse(self):
        # d/(p + q*sqrt2) = d*(p - q*sqrt2)/(p^2 - 2 q^2)
        p, q, d = self.p, self.q, self.d
        norm = p * p - 2 * q * q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if norm < 0:
            return _new(-d * p, d * q, -norm)
        return _new(d * p, -d * q, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if type(other) is not ExactCoeff:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __bool__(self):
        return bool(self.p) or bool(self.q)

    def __float__(self):
        # int / int rounds correctly, exactly as float(Fraction(p, d)) does
        return self.p / self.d + (self.q / self.d) * _SQRT2

    def is_rational(self):
        return self.q == 0

    def __repr__(self):
        if not self.q:
            return f"ExactCoeff({self.a})"
        if not self.p:
            return f"ExactCoeff({self.b}*sqrt2)"
        return f"ExactCoeff({self.a} + {self.b}*sqrt2)"


SQRT2 = ExactCoeff(0, 1)
HALF_SQRT2 = ExactCoeff(0, Fraction(1, 2))  # 1/sqrt(2)
ZERO = ExactCoeff(0)
ONE = ExactCoeff(1)


class ExactMatrix:
    """Dense matrix over Q(sqrt2)."""

    def __init__(self, rows):
        self.rows = [[e if isinstance(e, ExactCoeff) else ExactCoeff(e)
                      for e in row] for row in rows]
        self.shape = (len(self.rows), len(self.rows[0]) if self.rows else 0)
        if any(len(r) != self.shape[1] for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int):
        n = require_int("n", n, 0)
        return cls([[ONE if i == j else ZERO for j in range(n)]
                    for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __matmul__(self, other):
        if self.shape[1] != other.shape[0]:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return ExactMatrix([[sum((x * y for x, y in zip(ri, cj) if x and y),
                                 ZERO) for cj in cols] for ri in self.rows])

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def to_float(self):
        import numpy as np
        return np.array([[float(e) for e in row] for row in self.rows])

    def __repr__(self):
        return f"ExactMatrix({self.rows!r})"


def gauss_jordan(rows, n_cols):
    """Gauss-Jordan elimination over Q(sqrt2) (rationals are just q = 0) of
    the first ``n_cols`` columns of ``rows``; later columns are carried
    along.  Returns (reduced rows, pivot columns); the rows past
    ``len(pivots)`` are zero on the eliminated columns."""
    aug = [list(r) for r in rows]
    n_rows = len(aug)
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        piv = next((i for i in range(rank, n_rows) if aug[i][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = aug[rank][col].inverse()
        prow = aug[rank] = [e * inv if e else e for e in aug[rank]]
        support = [(j, b) for j, b in enumerate(prow) if b]
        for i in range(n_rows):
            row = aug[i]
            f = row[col]
            if i != rank and f:
                for j, b in support:
                    row[j] = row[j] - f * b
        pivots.append(col)
    return aug, pivots


def solve_exact(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Solve A @ X = B by Gaussian elimination over Q(sqrt2).

    Raises ValueError if A is singular.
    """
    n, n2 = A.shape
    if n != n2 or B.shape[0] != n:
        raise ValueError("bad shapes")
    aug, pivots = gauss_jordan(
        [ra + rb for ra, rb in zip(A.rows, B.rows)], n)
    if len(pivots) < n:
        raise ValueError("singular system")
    return ExactMatrix([row[n:] for row in aug])
