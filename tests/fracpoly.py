"""Fraction polynomials: the test-side oracle for the integer kernel.

`Poly` is a dense polynomial with Fraction coefficients.  The package
itself computes on integer lists only (`lielap.poly`); the tests rebuild
the rational polynomials a certificate speaks about from an `IntPoly`
(`from_int_poly`) and check the package's integer identities against the
Sylvester determinant (`resultant_sylvester`) or the Fraction route that
clears denominators before the subresultant PRS (`resultant`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from lielap import poly as intpoly


class Poly:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*X")
            else:
                terms.append(f"{c}*X^{k}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k."""
        if self.is_zero:
            return self
        return Poly([Fraction(0)] * k + list(self.coeffs))

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; exact for Fraction input, float for float."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


X = Poly([0, 1])


def divmod_exact(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over Q: p = q*quot + rem, deg rem < deg q."""
    if q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    dq = q.degree
    qlc = q.lc
    quot = [Fraction(0)] * max(0, len(rem) - dq)
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k]
        if not c:
            continue
        f = c / qlc
        quot[k - dq] = f
        for j in range(dq + 1):
            rem[k - dq + j] -= f * q.coeffs[j]
    return Poly(quot), Poly(rem)


def div_exact(p: Poly, q: Poly) -> Poly:
    quot, rem = divmod_exact(p, q)
    if not rem.is_zero:
        raise ValueError("inexact polynomial division")
    return quot


def monic(p: Poly) -> Poly:
    if p.is_zero:
        return p
    return p * (1 / p.lc)


# -- integer-coefficient plumbing ------------------------------------------


def clear_denominators(p: Poly) -> tuple[list[int], int]:
    """Return (d*p as int list, d) for the smallest positive integer d."""
    d = 1
    for c in p.coeffs:
        d = d * c.denominator // math.gcd(d, c.denominator)
    return [int(c * d) for c in p.coeffs], d


def primitive_int(p: Poly) -> list[int]:
    """Primitive integer coefficient list of p (content and sign of the
    rational scaling discarded; leading coefficient made positive)."""
    cs = clear_denominators(p)[0]
    g = math.gcd(*cs)
    if cs and cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def from_int(cs: Sequence[int]) -> Poly:
    return Poly([Fraction(c) for c in cs])


def from_int_poly(P) -> Poly:
    """det(D - X*I) from the IntPoly P = det(X*I - den*D) over den:
    (-1)^n P(den*X) / den^n."""
    n, den = P.degree, P.den
    sign = -1 if n % 2 else 1
    return Poly([Fraction(sign * c * den**k, den**n) for k, c in enumerate(P.coeffs)])


def resultant(p: Poly, q: Poly) -> Fraction:
    """res(p, q) in the Sylvester convention, by clearing denominators and
    the package's integer subresultant PRS."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    P, a = clear_denominators(p)
    Q, b = clear_denominators(q)
    r = intpoly.resultant(P, Q)
    return Fraction(r) / (Fraction(a) ** q.degree * Fraction(b) ** p.degree)


def resultant_sylvester(p: Poly, q: Poly) -> Fraction:
    """Sylvester determinant expansion; independent oracle for resultant."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    dp, dq = p.degree, q.degree
    n = dp + dq
    if n == 0:
        return Fraction(1)
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    rows = []
    for i in range(dq):
        rows.append([Fraction(0)] * i + pc + [Fraction(0)] * (n - i - dp - 1))
    for i in range(dp):
        rows.append([Fraction(0)] * i + qc + [Fraction(0)] * (n - i - dq - 1))
    # fraction-free-ish Gaussian elimination with pivoting
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, n):
            f = rows[r][col] / pv
            if f:
                rr, rc = rows[r], rows[col]
                for c in range(col, n):
                    rr[c] -= f * rc[c]
    return det


def gcd(p: Poly, q: Poly) -> Poly:
    """gcd(p, q) by Euclid's algorithm over Q, made primitive with a
    positive leading coefficient; zero when both are."""
    while q:
        p, q = q, divmod_exact(p, q)[1]
    return from_int(primitive_int(p))


def sturm_chain(p: Poly) -> list[Poly]:
    """The classical Sturm chain of p over Q: p, p', then each member the
    negated remainder of the two before it, down to the last nonzero one.
    Each member is divided by the absolute value of its leading
    coefficient, which keeps its signs and its Fractions small."""
    chain: list[Poly] = []
    q = p
    while q:
        chain.append(q * (1 / abs(q.lc)))
        q = chain[-1].derivative() if len(chain) == 1 else -divmod_exact(chain[-2], chain[-1])[1]
    return chain


def squarefree_decomposition(p: Poly) -> list[tuple[int, Poly]]:
    """The package's Yun decomposition of the primitive form of p."""
    return [(i, from_int(a)) for i, a in intpoly.squarefree_decomposition(primitive_int(p))]


def squarefree_part(p: Poly) -> Poly:
    """Product of the distinct irreducible factors, primitive, positive lc."""
    prod = Poly([1])
    for _, a in squarefree_decomposition(p):
        prod = prod * a
    return from_int(primitive_int(prod))


def divides(d: Poly, p: Poly) -> bool:
    if d.is_zero:
        return p.is_zero
    _, rem = divmod_exact(p, d)
    return rem.is_zero
