"""Exact univariate polynomials over the integers.

A polynomial is a sequence of Python ints in ascending order, [] the zero
polynomial.  The resultant is computed by a subresultant polynomial
remainder sequence (contents stripped first), which keeps intermediate
coefficient growth polynomial instead of exponential; the Sylvester
determinant and the Fraction arithmetic that cross-check it live in the
tests.  Asked for a prime, the resultant is taken over GF(p) by Euclid.
The gcd, exact division and squarefree decomposition work on primitive
lists (`int_gcd`, `int_div_exact`).  The gcd and the integer
Sturm chain that isolates real roots, with signs taken at dyadic points,
read one primitive remainder sequence.

`IntPoly` carries a characteristic polynomial without a single Fraction.
An operator D = A / den with A integral has the monic integer charpoly
P = det(X*I - den*D), whose roots are den times the eigenvalues of D;
det(X*I - D) = P(den*X) / den^n is recovered from (P, den) alone, and
`IntPoly.primitive` gives its primitive integer form.

Conventions:
  * res(A, c) = res(c, A) = c^deg(A) for a constant c, res of two nonzero
    constants is 1, and res involving the zero polynomial is 0;
  * gcds and squarefree factors are primitive with a positive leading
    coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


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


@dataclass(frozen=True)
class IntPoly:
    """The monic integer charpoly P = det(X*I - den*D) of an operator D,
    over its denominator den: P's roots are den times D's eigenvalues.  A
    charpoly read at a prime holds P's residues instead
    (`polycert.CharPoly`)."""

    coeffs: tuple[int, ...]
    den: int

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def primitive(self) -> list[int]:
        """The primitive integer list of P(den*X), the charpoly of D up to
        a rational factor, with a positive leading coefficient."""
        out, pw = [], 1
        for c in self.coeffs:
            out.append(c * pw)
            pw *= self.den
        return _primitive(out)


def mul(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """The product of two integer polynomials."""
    if not A or not B:
        return []
    out = [0] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        if a:
            for j, b in enumerate(B):
                out[i + j] += a * b
    return out


def derivative(cs: Sequence[int]) -> list[int]:
    return [i * cs[i] for i in range(1, len(cs))]


def taylor_shift(cs: Sequence[int], t: int) -> list[int]:
    """The coefficients of P(X - t), for the integer polynomial P = cs and
    an integer t: deg P rounds of synthetic division by X + t, O(deg^2)
    integer steps."""
    out = list(cs)
    if t:
        for i in range(len(out) - 1):
            for j in range(len(out) - 2, i - 1, -1):
                out[j] -= t * out[j + 1]
    return out


def shift_primitive(cs: Sequence[int], t: int, d: int) -> list[int]:
    """The primitive form of P(X - t/d), with a positive leading
    coefficient, for the integer polynomial P = cs and d > 0: the roots of
    P moved by t/d.  It is taken as d^n P(Z/d) shifted by t at Z = d X."""
    n = len(cs) - 1
    scaled = taylor_shift([c * d ** (n - i) for i, c in enumerate(cs)], t)
    return _primitive([c * d**i for i, c in enumerate(scaled)])


def _prem(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """Pseudo-remainder: lc(B)^(degA-degB+1) * A mod B, all over Z."""
    dB = len(B) - 1
    l = B[-1]
    R = list(A)
    while len(R) > dB:
        c = R.pop()
        R = [l * x for x in R]
        if c:
            off = len(R) - dB
            for j in range(dB):
                R[off + j] -= c * B[j]
    return _strip(R)


def resultant(A: Sequence[int], B: Sequence[int], prime: int | None = None) -> int:
    """res(A, B) in the Sylvester convention,
    res(A, B) = lc(A)^deg(B) * prod B(alpha) over the roots alpha of A,
    via the subresultant PRS (Collins / Brown-Traub; content stripped up
    front, the g*h^d divisors keep remainder coefficients at subresultant
    size).

    With a prime p, the resultant of A mod p and B mod p in GF(p), in
    [0, p), by `_resultant_mod`.  It is res(A, B) mod p whenever neither
    leading coefficient vanishes mod p.
    """
    if prime is not None:
        return _resultant_mod([c % prime for c in A], [c % prime for c in B], prime)
    A, B = _strip(list(A)), _strip(list(B))
    dA, dB = len(A) - 1, len(B) - 1
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
        B = R if divisor == 1 else [c // divisor for c in R]
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


def _resultant_mod(A: list[int], B: list[int], p: int) -> int:
    """res(A, B) in GF(p) for coefficient lists in [0, p), by Euclid.

    With m = deg A, n = deg B and R = A mod B of degree r,
    res(A, B) = (-1)^(mn) res(B, A) = (-1)^(mn) lc(B)^(m - r) res(B, R),
    and res(A, b) = b^m for a constant b; a zero remainder of a
    nonconstant B, or a zero B, gives 0.  Each step takes one inverse,
    of lc(B); each quotient term takes one in-place pass over a copy of
    A, reduced mod p once at the end.
    """
    A, B = _strip(A), _strip(B)
    res = 1
    while True:
        m, n = len(A) - 1, len(B) - 1
        if n <= 0:
            return 0 if min(m, n) < 0 else res * pow(B[0], m, p) % p
        lc = B[-1]
        inv = pow(lc, -1, p)
        R = A[:]
        for top in range(m, n - 1, -1):
            c = R[top] % p * inv % p
            if c:
                R[top - n:top] = [x - c * b for x, b in zip(R[top - n:top], B)]
        R = [x % p for x in R[:n]]
        _strip(R)
        if not R:
            return 0
        if m & n & 1:
            res = -res
        res = res * pow(lc, m - len(R) + 1, p) % p
        A, B = B, R


def _remainder_sequence(A: Sequence[int], B: Sequence[int]) -> list[list[int]]:
    """A, B, then the negated remainder of each two members before, up to
    the last nonzero one, each divided by its positive content.  Positive
    constants keep every sign that of the classical sequence over Q, so
    for B = A' it is a Sturm chain; the last member is gcd(A, B) up to a
    constant."""
    seq: list[list[int]] = []
    r = _strip(list(A))
    while r:
        g = _content(r)
        seq.append([c // g for c in r])
        if len(seq) == 1:
            r = _strip(list(B))
            continue
        a, b = seq[-2:]
        r = _prem(a, b)
        # _prem scales the remainder by lc(b)^(deg a - deg b + 1)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-c for c in r]
    return seq


def int_gcd(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """Primitive positive-lc gcd of two integer polynomials."""
    # the sequence from A = 0 is empty
    seq = _remainder_sequence(A, B) or _remainder_sequence(B, A)
    return _primitive(seq[-1]) if seq else []


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


def divides(B: Sequence[int], A: Sequence[int]) -> bool:
    """True iff the integer polynomial B divides A over Q."""
    A, B = _strip(list(A)), _strip(list(B))
    return not _prem(A, B) if B else not A


def _sub(A: Sequence[int], B: Sequence[int]) -> list[int]:
    out = list(A) + [0] * (len(B) - len(A))
    for i, b in enumerate(B):
        out[i] -= b
    return _strip(out)


def squarefree_decomposition(cs: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Yun's algorithm: [(i, a_i)] with pp(cs) = +/- prod a_i^i, each a_i
    squarefree, primitive, positive leading coefficient."""
    P = _primitive(cs)
    if not P:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if len(P) == 1:
        return []
    dP = derivative(P)
    g = int_gcd(P, dP)
    if len(g) == 1:
        return [(1, P)]
    c = int_div_exact(P, g)
    d = _sub(int_div_exact(dP, g), derivative(c))
    out = []
    i = 1
    while len(c) > 1:
        a = int_gcd(c, d)
        if len(a) > 1:
            out.append((i, a))
        c = int_div_exact(c, a)
        d = _sub(int_div_exact(d, a), derivative(c))
        i += 1
    return out


# -- Sturm chains and real root isolation -------------------------------------


def sturm_chain(cs: Sequence[int]) -> list[list[int]]:
    """Integer Sturm chain of a squarefree integer polynomial: its
    `_remainder_sequence` with its derivative.

    Members are scaled by positive constants only, so sign variation
    counts at any rational point are those of the classical chain.
    """
    chain = _remainder_sequence(cs, derivative(cs))
    if not chain or _deg(chain[-1]) > 0:
        raise ValueError("sturm chain needs a squarefree polynomial")
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


def int_sign_at(cs: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial cs at the rational point x = p / q.

    One Horner pass over the integers, as in `sign_at_dyadic`: the value
    times q^deg is sum c_i p^i q^(deg - i), and q > 0.
    """
    p, q = x.numerator, x.denominator
    acc = 0
    pw = 1
    for c in reversed(cs):
        acc = acc * p + c * pw
        pw *= q
    return (acc > 0) - (acc < 0)


def _variations(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def root_bound(cs: Sequence[int]) -> int:
    """A power of two above |z| for every complex root z of the integer
    polynomial cs (nonzero leading coefficient, degree >= 1).

    Every root has |z| < 2 max_i |c_i / c_n|^(1 / (n - i)) (Fujiwara), and
    |c_i / c_n| < 2^(bitlen c_i - bitlen c_n + 1), so the bit lengths give
    the power.  It is at most 16 n times the largest root modulus M, where
    Cauchy's bound 1 + max |c_i / c_n| can reach M^n, and a bisection from
    +-bound spends one step per bit of it before the roots part.
    """
    n, ln = len(cs) - 1, abs(cs[-1]).bit_length()
    e = max(
        (-((ln - 1 - abs(c).bit_length()) // (n - i)) for i, c in enumerate(cs[:-1]) if c),
        default=0,
    )
    return 1 << (1 + max(e, 0))


def hint_cuts(hints, bound: int) -> list[tuple[float, float]]:
    """The cuts between approximate roots, in increasing order, each with
    the hint above it: (c, v) for each two consecutive finite hints u < v
    (sorted) whose float midpoint c lies strictly between them and strictly
    between -bound and bound.  Both root isolations cut here: the
    hint-sign proof of `spectrum.hint_cells` and `real_root_brackets`."""
    finite = sorted(x for x in hints if math.isfinite(x))
    # int-float comparisons are exact
    return [
        (c, v)
        for u, v in zip(finite, finite[1:])
        if u < (c := (u + v) / 2) < v and -bound < c < bound
    ]


def real_root_brackets(p: Sequence[int], hints=None) -> list[tuple[Fraction, Fraction]]:
    """Isolating half-open intervals (a, b], one per distinct real root of
    a squarefree integer polynomial p, in increasing order.  Complex pairs are simply absent:
    the caller compares the count against the degree when all roots must
    be real.

    `hints` may carry approximate root locations (floats); the `hint_cuts`
    between them pre-split the search so most cells are confirmed with a
    single variation count.  Wrong hints cost extra splits, never roots.

    Every cut is a dyadic point m / 2^k carried as the integer pair
    (m, k): +-`root_bound`, the hint cuts (floats are dyadic) and their
    exact midpoints, which are the same rationals a Fraction bisection
    takes.  Signs come from `sign_at_dyadic`; the brackets become
    Fractions only when they are returned.
    """
    if _deg(p) <= 0:
        return []
    chain = sturm_chain(p)
    bound = root_bound(chain[0])

    def variations(cut: tuple[int, int]) -> int:
        m, k = cut
        return _variations(sign_at_dyadic(f, m, k) for f in chain)

    cuts = [(-bound, 0)]
    for c, _ in hint_cuts(hints or (), bound):
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
