"""Polynomial kernel: exact division, resultants, squarefree structure.

The resultant mod p is checked against the integer subresultant PRS of
tests/fracpoly.py and a direct Sylvester-matrix determinant on random
inputs, at p = 7, 11 and 2147483629; gcd and Yun decomposition are checked
by their defining properties rather than against fixed strings.  The
Fraction `Poly` of tests/fracpoly.py is the oracle's arithmetic and is
checked here too.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fracpoly import (
    Poly,
    X,
    div_exact,
    divmod_exact,
    from_int,
    gcd,
    int_resultant,
    monic,
    primitive_int,
    resultant_sylvester,
    squarefree_part,
)
from fracpoly import resultant as fraction_resultant
from lielap.poly import (
    IntPoly,
    derivative,
    divides,
    int_div_exact,
    int_gcd,
    int_sign_at,
    mul,
    real_root_brackets,
    resultant,
    root_bound,
    shift_primitive,
    squarefree_decomposition,
    sturm_chain,
    taylor_shift,
)


rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def poly_strategy(max_degree=6):
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(Poly)


def int_poly_strategy(max_degree=6):
    return st.lists(st.integers(min_value=-12, max_value=12), max_size=max_degree + 1)


def _expand_shift(cs, t: int) -> list[int]:
    """sum c_i (X - t)^i expanded through `mul`, padded to len(cs)."""
    out = [0] * len(cs)
    power = [1]
    for c in cs:
        for i, x in enumerate(power):
            out[i] += c * x
        power = mul(power, [-t, 1])
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=9),
    st.one_of(st.just(0), st.integers(-50, 50), st.integers(-10**12, 10**12)),
)
def test_taylor_shift_is_the_expansion_of_p_at_x_minus_t(cs, t):
    # covers t = 0, negative t, the zero polynomial and degree 0
    shifted = taylor_shift(cs, t)
    assert shifted == _expand_shift(cs, t)
    assert taylor_shift(shifted, -t) == list(cs)


@settings(max_examples=100, deadline=None)
@given(
    int_poly_strategy().filter(lambda cs: any(cs)),
    st.integers(-30, 30),
    st.integers(1, 12),
)
def test_shift_primitive_moves_every_root_by_t_over_d(cs, t, d):
    """The primitive form of p(X - t/d), against the Fraction expansion."""
    p = from_int(cs)
    want = Poly([0])
    for i, c in enumerate(p.coeffs):
        want = want + Poly([c]) * Poly([Fraction(-t, d), 1]) ** i
    assert shift_primitive(cs, t, d) == primitive_int(want)


def test_basic_arithmetic():
    p = Poly([1, 2, 1])  # (1 + x)^2
    q = Poly([-1, 1])
    assert p * q == Poly([-1, -1, 1, 1])
    assert (p + q).degree == 2
    assert p(Fraction(3)) == 16
    assert q.derivative() == Poly([1])


def test_zero_polynomial_degree():
    assert Poly([]).degree == -1
    assert Poly([0, 0]).degree == -1


def test_divmod_exact():
    p = Poly([2, 3, 1])
    q, r = divmod_exact(p, Poly([1, 1]))
    assert q == Poly([2, 1]) and r == Poly([])
    q, r = divmod_exact(p, Poly([0, 0, 0, 1]))
    assert q == Poly([]) and r == p


def test_div_exact_raises_on_remainder():
    with pytest.raises(ValueError):
        div_exact(Poly([1, 0, 1]), Poly([1, 1]))


def test_int_div_exact_raises_unless_exact_over_z():
    with pytest.raises(ValueError):  # remainder 2
        int_div_exact([1, 0, 1], [1, 1])
    for A in ([1, 1], [0, 1]):  # leading step 1/2
        with pytest.raises(ValueError):
            int_div_exact(A, [1, 2])
    assert int_div_exact([3, 5, 2], [3, 2]) == [1, 1]
    assert int_div_exact([], [3, 2]) == []


@settings(max_examples=100, deadline=None)
@given(poly_strategy(4), poly_strategy(4))
def test_int_div_exact_inverts_products(p, q):
    A, B = primitive_int(p), primitive_int(q)
    if not B:
        return
    prod = primitive_int(from_int(A) * from_int(B)) if A else []
    assert int_div_exact(prod, B) == A


def test_monic():
    assert monic(Poly([2, 4])) == Poly([Fraction(1, 2), 1])


PRIMES = (7, 11, 2147483629)


def _reduced(cs, p: int) -> list[int]:
    out = [c % p for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def test_resultant_known_values():
    # (A, B, res(A, B)) over Z, and res(A mod p, B mod p) in GF(p)
    cases = [
        # res(x^2 - 1, x^2 - 4) = (1-4)(1-4)... product over roots of p of q
        ([-1, 0, 1], [-4, 0, 1], 9),
        ([-1, 0, 1], [-1, 1], 0),  # shared root
        # discriminant of x^2 - 4x + 3, (-4)^2 - 4 * 3, up to the sign
        ([3, -4, 1], [-4, 2], -4),
        ([1, 1], [5], 5), ([5], [1, 1], 5), ([3], [5], 1),
        ([], [1, 2], 0), ([1, 2], [], 0),
        # trailing zeros are not a leading coefficient
        ((-1, 0, 1, 0), (-4, 0, 1), 9),
    ]
    for A, B, want in cases:
        assert int_resultant(A, B) == want
        for p in PRIMES:
            assert resultant(A, B, p) == want % p
    # 7 is the leading coefficient of A: mod 7, A is the constant 1
    assert int_resultant([1, 0, 7], [2, 1]) == 29
    assert resultant([1, 0, 7], [2, 1], 7) == 1


def _mod_p_coeffs(rng, n, p):
    # coefficients that often vanish mod p, so that remainders mod p skip
    # degrees, mixed with ones far past p
    pool = (0, 0, 0, 1, -1, 2, p, -p, 3 * p + 1, p**3 - 2)
    return [rng.choice(pool) if rng.random() < 0.6 else rng.randint(-10**12, 10**12)
            for _ in range(n)]


@pytest.mark.parametrize("p", [7, 11, 2147483629])
def test_resultant_mod_prime_is_the_exact_resultant_mod_prime(p):
    # reduction commutes with the resultant when neither leading
    # coefficient vanishes mod p: here A is monic and lc(B) is not 0 mod p
    X6 = [1, 0, 0, 0, 0, 0, 1]
    cases = [
        (X6, [2, 0, 0, 1]),  # X^6 + 1 = (X^3 + 2)(X^3 - 2) + 5
        ([1, 0, 0, p, 1], [3, p, 1]),  # mod p, X^4 + 1 over X^2 + 3
        ([p, 3] + [0] * 18 + [1], [1, 0, 2]),  # deg A much larger than deg B
        ([5, 1], [1, 1, 0, 0, 0, 3]),  # deg A < deg B
        ([-1, 1], [-1 - p, 1]),  # a root shared mod p only
        ([1], [5]), ([3], [5]), ([1, 1], [5]), ([5], [1, 1]),
        ([], [1, 2]), ([1, 2], []), ([], []), ([1, 1], [0, 0]),
    ]
    rng = random.Random(p)
    for _ in range(300):
        A = _mod_p_coeffs(rng, rng.randint(0, 12), p) + [1]
        lc = rng.randint(1, min(p - 1, 50)) + p * rng.randint(-3, 3)
        cases.append((A, _mod_p_coeffs(rng, rng.randint(0, 12), p) + [lc]))
    for A, B in cases:
        r = resultant(A, B, p)
        assert 0 <= r < p and r == int_resultant(A, B) % p, (A, B)


def test_resultant_rational_scaling():
    p = Poly([Fraction(1, 2), 0, 1])
    q = Poly([Fraction(-1, 3), 1])
    assert fraction_resultant(p, q) == resultant_sylvester(p, q)


@settings(max_examples=150, deadline=None)
@given(int_poly_strategy(5), int_poly_strategy(5))
def test_resultant_matches_sylvester(A, B):
    want = resultant_sylvester(from_int(A), from_int(B))
    assert int_resultant(A, B) == want
    for p in PRIMES:
        # the resultant of the reductions; that of A and B wherever
        # reduction keeps both degrees
        Ap, Bp = _reduced(A, p), _reduced(B, p)
        r = resultant(A, B, p)
        assert r == resultant_sylvester(from_int(Ap), from_int(Bp)) % p
        if (len(Ap) - 1, len(Bp) - 1) == (from_int(A).degree, from_int(B).degree):
            assert r == want % p


@settings(max_examples=80, deadline=None)
@given(int_poly_strategy(4), int_poly_strategy(4), int_poly_strategy(2))
def test_resultant_multiplicative(A, B, C):
    if min(len(primitive_int(from_int(x))) for x in (A, B, C)) < 2:
        return
    assert int_resultant(A, mul(B, C)) == int_resultant(A, B) * int_resultant(A, C)
    for p in PRIMES:
        assert resultant(A, mul(B, C), p) == resultant(A, B, p) * resultant(A, C, p) % p


@settings(max_examples=100, deadline=None)
@given(int_poly_strategy(5), int_poly_strategy(5))
def test_gcd_divides_both(A, B):
    g = int_gcd(A, B)
    if not g:
        assert not any(A) and not any(B)
        return
    assert divides(g, A) and divides(g, B)
    assert gcd(from_int(A), from_int(B)) == from_int(g)


def test_divides_over_q():
    assert divides([2, 2], [-1, 0, 1])  # 2x + 2 divides x^2 - 1 over Q
    assert not divides([1, 2], [-1, 0, 1])
    assert divides([3], [1, 5]) and divides([5], [])
    assert divides([], []) and not divides([], [1])


def test_gcd_normalization():
    assert int_gcd([-2, 2], [-4, 0, 4]) == [-1, 1]  # primitive, positive lc


def test_gcd_of_coprime_is_constant():
    assert int_gcd([1, 1], [2, 1]) == [1]


def test_squarefree_decomposition_cube():
    p = mul(mul(mul([1, 1], [1, 1]), [1, 1]), [-2, 1])
    assert squarefree_decomposition(p) == [(1, [-2, 1]), (3, [1, 1])]


def test_squarefree_decomposition_reconstructs():
    p = Poly([1, 1]) ** 2 * Poly([0, 1]) ** 4 * Poly([3, 0, 1])
    parts = squarefree_decomposition([-2 * c for c in primitive_int(p)])
    prod = Poly([1])
    for i, f in parts:
        prod = prod * from_int(f) ** i
    assert monic(prod) == monic(p)


def test_int_poly_primitive_is_the_charpoly_of_the_operator():
    # P = (X - 6)(X + 4) over den 4: D has the eigenvalues 3/2 and -1
    P = IntPoly((-24, -2, 1), 4)
    assert P.degree == 2
    assert P.primitive() == primitive_int(Poly([Fraction(-3, 2), 1]) * Poly([1, 1])) == [-3, -1, 2]
    assert IntPoly((0, 1), 7).primitive() == [0, 1]


@settings(max_examples=60, deadline=None)
@given(poly_strategy(3), poly_strategy(2), st.integers(min_value=1, max_value=3))
def test_squarefree_part_has_no_repeated_factor(p, q, e):
    prod = p * q**e
    if prod.degree < 1:
        return
    s = squarefree_part(prod)
    assert gcd(s, s.derivative()).degree == 0


def test_squarefree_vs_derivative_gcd():
    # squarefree iff gcd(p, p') constant iff res(p, p') != 0
    p = [-1, 0, 1]
    assert resultant(p, derivative(p), 2147483629) != 0
    assert int_gcd(p, derivative(p)) == [1]
    d = mul(p, p)
    assert resultant(d, derivative(d), 2147483629) == 0
    assert len(int_gcd(d, derivative(d))) > 1


def test_shift_is_multiplication_by_x():
    assert Poly([1, 2]).shift(2) == X * X * Poly([1, 2])


def test_int_sign_at_matches_evaluation():
    cs = [6, -7, 0, 1]  # (x-1)(x-2)(x+3)
    for x in (Fraction(-4), Fraction(-3), Fraction(0), Fraction(3, 2), Fraction(2), Fraction(10)):
        val = sum(c * x**i for i, c in enumerate(cs))
        assert int_sign_at(cs, x) == (val > 0) - (val < 0)


def test_sturm_variation_counts_roots_in_interval():
    chain = sturm_chain([6, -7, 0, 1])

    def variations(x):  # sign changes along the chain at x, zeros skipped
        signs = [s for s in (int_sign_at(g, x) for g in chain) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    # roots 1, 2, -3; intervals are half-open (a, b]
    assert variations(Fraction(-4)) - variations(Fraction(3)) == 3
    assert variations(Fraction(0)) - variations(Fraction(3)) == 2
    assert variations(Fraction(1)) - variations(Fraction(2)) == 1
    assert variations(Fraction(2)) - variations(Fraction(5)) == 0


def test_sturm_chain_rejects_repeated_roots():
    with pytest.raises(ValueError):
        sturm_chain([1, 2, 1])


def test_brackets_isolate_real_roots_and_skip_complex_pairs():
    brackets = real_root_brackets(mul([6, -7, 0, 1], [1, 0, 1]))
    assert len(brackets) == 3
    roots = sorted([Fraction(-3), Fraction(1), Fraction(2)])
    for (a, b), r in zip(brackets, roots):
        assert a < r <= b


def test_brackets_tolerate_misleading_hints():
    p = [6, -7, 0, 1]
    for hints in (None, [1.1, 1.9], [-100.0, 0.5, 0.6, 100.0], [float("nan"), 2.0]):
        brackets = real_root_brackets(p, hints=hints)
        assert len(brackets) == 3
        for (a, b), r in zip(brackets, [Fraction(-3), Fraction(1), Fraction(2)]):
            assert a < r <= b


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=7),
    st.integers(1, 10**6),
    st.lists(st.tuples(st.integers(-10**4, 10**4), st.integers(1, 10**4)), max_size=3),
)
def test_root_bound_lies_above_every_root(roots, lead, quadratics):
    """Integer roots r and complex pairs of x^2 + b x + c, whose roots have
    modulus sqrt(c) when b^2 < 4c: each lies strictly inside the bound.
    The bound is at most 16 n times the largest modulus M, since
    |c_i / c_n|^(1 / (n - i)) <= n M and the bit lengths lose a factor 8;
    Cauchy's bound grows with M^n instead."""
    p = [lead]
    for r in roots:
        p = mul(p, [-r, 1])
    top = max(map(abs, roots))
    for b, c in quadratics:
        p = mul(p, [c, b, 1])
        disc = b * b - 4 * c
        if disc < 0:
            moduli = [math.sqrt(c)]
        else:
            moduli = [abs(-b + sign * math.sqrt(disc)) / 2 for sign in (1, -1)]
        top = max(top, *moduli)
    bound = root_bound(p)
    assert bound & (bound - 1) == 0
    for r in roots:
        assert abs(r) < bound
    assert top < bound * (1 - 1e-9)
    assert bound <= 16 * (len(p) - 1) * max(top, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6, unique=True))
def test_brackets_recover_constructed_integer_roots(roots):
    p = [1]
    for r in roots:
        p = mul(p, [-r, 1])
    brackets = real_root_brackets(p)
    assert len(brackets) == len(roots)
    for (a, b), r in zip(brackets, sorted(roots)):
        assert a < r <= b
