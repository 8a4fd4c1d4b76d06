"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are ``Fraction``s stored densely in ascending order.  The
resultant is computed by a subresultant polynomial remainder sequence over
the integers (contents and denominators stripped first), which keeps
intermediate coefficient growth polynomial instead of exponential (the
Sylvester determinant that cross-checks it lives in the tests).  The gcd,
exact division and squarefree decomposition work on primitive integer
coefficient lists (`int_gcd`, `int_div_exact`); `Poly`s are only their
inputs and outputs.

Conventions:
  * deg 0 polynomials are nonzero constants, the zero polynomial has
    degree -1;
  * res(p, c) = c^deg(p) for a constant c, res of two nonzero constants
    is 1, and res involving the zero polynomial is 0;
  * gcd returns the primitive integer gcd of the primitive parts, with
    positive leading coefficient (rational contents are ignored).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


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


def _content(cs: Sequence[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _deg(cs: Sequence[int]) -> int:
    d = len(cs) - 1
    while d >= 0 and not cs[d]:
        d -= 1
    return d


def _strip(cs: list[int]) -> list[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _primitive(cs: Sequence[int]) -> list[int]:
    """Primitive form of an integer coefficient list, leading coefficient
    made positive; [] for the zero polynomial."""
    g = _content(cs)
    if not g:
        return []
    cs = _strip(list(cs))
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def primitive_int(p: Poly) -> list[int]:
    """Primitive integer coefficient list of p (content and sign of the
    rational scaling discarded; leading coefficient made positive)."""
    return _primitive(clear_denominators(p)[0])


def from_int(cs: Sequence[int]) -> Poly:
    return Poly([Fraction(c) for c in cs])


def _prem(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """Pseudo-remainder: lc(B)^(degA-degB+1) * A mod B, all over Z."""
    dA, dB = len(A) - 1, len(B) - 1
    l = B[-1]
    R = list(A)
    for k in range(dA, dB - 1, -1):
        c = R[k]
        for j in range(len(R)):
            R[j] *= l
        if c:
            off = k - dB
            for j in range(dB + 1):
                R[off + j] -= c * B[j]
        R[k] = 0
    del R[dB:]
    return _strip(R)


def _resultant_int(A: list[int], B: list[int]) -> int:
    """Resultant of two nonzero integer polynomials via subresultant PRS
    (Collins / Brown-Traub; content stripped up front, the g*h^d divisors
    keep remainder coefficients at subresultant size)."""
    dA, dB = _deg(A), _deg(B)
    s = 1
    if dA < dB:
        A, B, dA, dB = B, A, dB, dA
        if (dA & 1) and (dB & 1):
            s = -s
    if dB < 0:
        return 0
    if dA == 0:
        return 1
    if dB == 0:
        return s * B[0] ** dA
    a, b = _content(A), _content(B)
    A = [c // a for c in A]
    B = [c // b for c in B]
    t = a ** dB * b ** dA
    g = h = 1
    while True:
        dA, dB = _deg(A), _deg(B)
        delta = dA - dB
        if (dA & 1) and (dB & 1):
            s = -s
        R = _prem(A, B)
        A = B
        divisor = g * h ** delta
        B = [c // divisor for c in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g ** delta // h ** (delta - 1)
        dB = _deg(B)
        if dB <= 0:
            break
    if dB < 0:
        return 0
    dA = _deg(A)
    res = B[0] ** dA // h ** (dA - 1)
    return s * t * res


def resultant(p: Poly, q: Poly) -> Fraction:
    """res(p, q) in the Sylvester convention:
    res(p, q) = lc(p)^deg(q) * prod q(alpha) over the roots alpha of p."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    dp, dq = p.degree, q.degree
    if dp == 0 and dq == 0:
        return Fraction(1)
    if dq == 0:
        return q.lc ** dp
    if dp == 0:
        return p.lc ** dq
    P, a = clear_denominators(p)
    Q, b = clear_denominators(q)
    r = _resultant_int(P, Q)
    return Fraction(r) / (Fraction(a) ** dq * Fraction(b) ** dp)


def int_gcd(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """Primitive positive-lc gcd of two integer polynomials (primitive PRS)."""
    A, B = _primitive(A), _primitive(B)
    if len(A) < len(B):
        A, B = B, A
    while B:
        if len(B) == 1:
            return [1]
        A, B = B, _primitive(_prem(A, B))
    return A


def int_div_exact(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """The quotient A / B in Z[x] for a primitive B.

    By Gauss's lemma B divides A over Q exactly when every leading-
    coefficient step divides exactly and the remainder is zero; anything
    else raises ValueError.
    """
    dB = len(B) - 1
    if dB < 0:
        raise ZeroDivisionError("polynomial division by zero")
    R = _strip(list(A))
    lc = B[-1]
    Q = [0] * max(0, len(R) - dB)
    for k in range(len(R) - 1, dB - 1, -1):
        q, r = divmod(R[k], lc)
        if r:
            raise ValueError("inexact polynomial division")
        if q:
            off = k - dB
            Q[off] = q
            for j in range(dB):
                R[off + j] -= q * B[j]
    if any(R[:dB]):
        raise ValueError("inexact polynomial division")
    return Q


def gcd(p: Poly, q: Poly) -> Poly:
    """Primitive positive-lc integer gcd of the primitive parts of p, q."""
    return from_int(int_gcd(clear_denominators(p)[0], clear_denominators(q)[0]))


def _derivative(cs: Sequence[int]) -> list[int]:
    return [i * cs[i] for i in range(1, len(cs))]


def _sub(A: Sequence[int], B: Sequence[int]) -> list[int]:
    out = list(A) + [0] * (len(B) - len(A))
    for i, b in enumerate(B):
        out[i] -= b
    return _strip(out)


def squarefree_decomposition(p: Poly) -> list[tuple[int, Poly]]:
    """Yun's algorithm: [(i, a_i)] with pp(p) = +/- prod a_i^i, each a_i
    squarefree, primitive, positive leading coefficient."""
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    P = primitive_int(p)
    if len(P) == 1:
        return []
    dP = _derivative(P)
    g = int_gcd(P, dP)
    if len(g) == 1:
        return [(1, from_int(P))]
    c = int_div_exact(P, g)
    d = _sub(int_div_exact(dP, g), _derivative(c))
    out = []
    i = 1
    while len(c) > 1:
        a = int_gcd(c, d)
        if len(a) > 1:
            out.append((i, from_int(a)))
        c = int_div_exact(c, a)
        d = _sub(int_div_exact(d, a), _derivative(c))
        i += 1
    return out


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


# -- Sturm chains and real root isolation -------------------------------------


def _primitive_signed(cs: list[int]) -> list[int]:
    """Divide by the positive integer content; the sign pattern is kept."""
    g = _content(cs)
    if not g:
        return []
    return [c // g for c in cs]


def sturm_chain(p: Poly) -> list[list[int]]:
    """Integer Sturm chain of a squarefree p.

    Members are scaled by positive constants only, so sign variation
    counts at any rational point are those of the classical chain.
    """
    a = _primitive_signed(clear_denominators(p)[0])
    chain = [a]
    if _deg(a) <= 0:
        return chain
    b = _primitive_signed(_strip([i * a[i] for i in range(1, len(a))]))
    chain.append(b)
    while _deg(b) > 0:
        e = _deg(a) - _deg(b) + 1
        r = _prem(a, b)
        if not r:
            raise ValueError("sturm chain needs a squarefree polynomial")
        # _prem scales by lc(b)^e; an odd power of a negative leader would
        # flip the remainder's orientation
        if b[-1] < 0 and e % 2:
            r = [-x for x in r]
        r = _primitive_signed([-x for x in r])
        a, b = b, r
        chain.append(b)
    return chain


def sign_at_dyadic(cs: Sequence[int], m: int, k: int) -> int:
    """Sign of the integer polynomial cs at the point m / 2^k (k >= 0).

    One shift-Horner pass over the integers: the value times 2^(k deg)
    is sum c_i m^i 2^(k (deg - i)), so no division and no Fraction.
    """
    acc = 0
    s = 0
    for c in reversed(cs):
        acc = acc * m + (c << s)
        s += k
    return (acc > 0) - (acc < 0)


def fold_odd(cs: Sequence[int], q: int) -> list[int]:
    """Coefficients c_i q^(deg - i) of q^deg cs(x / q), for q > 0.

    The sign of cs at m / (q 2^k) is the sign of the result at m / 2^k,
    which lets `sign_at_dyadic` decide signs at points whose denominator
    has the odd part q.
    """
    out = list(cs)
    pw = 1
    for i in range(len(out) - 1, -1, -1):
        out[i] *= pw
        pw *= q
    return out


def int_sign_at(cs: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial cs at the rational point x.

    x = m / (q 2^k) with q odd: the odd part q of the denominator is
    folded into the coefficients (`fold_odd`) and the sign is taken at
    the dyadic point m / 2^k by `sign_at_dyadic`.
    """
    den = x.denominator
    k = (den & -den).bit_length() - 1
    q = den >> k
    return sign_at_dyadic(fold_odd(cs, q) if q > 1 else cs, x.numerator, k)


def _variations(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def sturm_variations(chain: list[list[int]], x: Fraction) -> int:
    return _variations(int_sign_at(cs, x) for cs in chain)


def real_root_brackets(p: Poly, hints=None) -> list[tuple[Fraction, Fraction]]:
    """Isolating half-open intervals (a, b], one per distinct real root of
    a squarefree p, in increasing order.  Complex pairs are simply absent:
    the caller compares the count against the degree when all roots must
    be real.

    `hints` may carry approximate root locations (floats); cut points
    between them pre-split the search so most cells are confirmed with a
    single variation count.  Wrong hints cost extra splits, never roots.

    Every cut is a dyadic point m / 2^k carried as the integer pair
    (m, k): the bound, the hint cuts (floats are dyadic) and their exact
    midpoints, which are the same rationals a Fraction bisection takes.
    Signs come from `sign_at_dyadic`; the brackets become Fractions only
    when they are returned.
    """
    if p.degree <= 0:
        return []
    chain = sturm_chain(p)
    cs = chain[0]
    bound = 1 + max(abs(c) for c in cs[:-1]) // abs(cs[-1]) + 1

    def variations(cut: tuple[int, int]) -> int:
        m, k = cut
        return _variations(sign_at_dyadic(f, m, k) for f in chain)

    inner = set()
    if hints:
        finite = sorted(x for x in hints if math.isfinite(x))
        for u, v in zip(finite, finite[1:]):
            if u < v:
                c = (u + v) / 2
                # int-float comparisons are exact
                if -bound < c < bound:
                    inner.add(c)
    cuts = [(-bound, 0)]
    for c in sorted(inner):
        m, d = c.as_integer_ratio()
        cuts.append((m, d.bit_length() - 1))
    cuts.append((bound, 0))
    vs = [variations(c) for c in cuts]
    out = []
    stack = [
        (cuts[i], cuts[i + 1], vs[i], vs[i + 1])
        for i in range(len(cuts) - 1)
    ]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        (ma, ka), (mb, kb) = a, b
        k = max(ka, kb)
        mid = ((ma << (k - ka)) + (mb << (k - kb)), k + 1)
        vm = variations(mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    brackets = [
        (Fraction(ma, 1 << ka), Fraction(mb, 1 << kb))
        for (ma, ka), (mb, kb) in out
    ]
    brackets.sort()
    return brackets
