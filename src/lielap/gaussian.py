"""Exact scalar arithmetic over the Gaussian rationals Q(i).

Everything downstream (representation matrices, Laplace operators,
characteristic polynomials) is computed without floating point.  A scalar
is a pair of exact rational components; the class is immutable and
hashable so scalars can live in sparse matrix rows keyed by column index.

Integer components are stored as plain ints, not Fraction, because the
generator matrices and most operators are integer-valued and Fraction
overhead dominates large sweeps otherwise.  Mixed int/Fraction arithmetic
is exact through the numeric tower; division is routed through Fraction
explicitly so int/int can never decay to float.

Rational numbers cross the JSON boundary as strings "p/q" (or "p"), never
as floats.  ``parse_rational`` / ``format_rational`` pin that convention.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _part(x) -> RationalLike:
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(x, y) -> RationalLike:
    q = Fraction(x) / Fraction(y)
    return q.numerator if q.denominator == 1 else q


class GaussianRational:
    """A number a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _part(re))
        object.__setattr__(self, "im", _part(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussianRational(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return GaussianRational(_div(self.re, other), _div(self.im, other))
        if isinstance(other, GaussianRational):
            c, d = other.re, other.im
            n = c * c + d * d
            if not n:
                raise ZeroDivisionError("division by zero Gaussian rational")
            a, b = self.re, self.im
            return GaussianRational(_div(a * c + b * d, n), _div(b * c - a * d, n))
        return NotImplemented

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if not self.im:
            return f"GQ({self.re})"
        return f"GQ({self.re}, {self.im})"

    # -- conversions -----------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def real_fraction(self) -> Fraction:
        """The value as a Fraction; raises if the imaginary part is nonzero."""
        if self.im:
            raise ValueError(f"scalar {self!r} is not real")
        return Fraction(self.re)


GQ = GaussianRational

ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)


def parse_rational(s) -> Fraction:
    """Parse "p/q" or "p" (also plain ints) into an exact Fraction.

    Floats are rejected: the JSON interfaces carry rationals as strings so
    no precision is silently lost.
    """
    if isinstance(s, bool):
        raise ValueError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, Fraction):
        return s
    if isinstance(s, float):
        raise ValueError(f"refusing float {s!r}; pass a string like 'p/q'")
    if isinstance(s, str):
        return Fraction(s.strip())
    raise ValueError(f"not a rational: {s!r}")


def format_rational(x: RationalLike) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
