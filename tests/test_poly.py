"""Polynomial kernel: exact division, resultants, squarefree structure.

The subresultant resultant is checked against a direct Sylvester-matrix
determinant on random inputs; gcd and Yun decomposition are checked by
their defining properties rather than against fixed strings.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lielap.poly import (
    Poly,
    X,
    div_exact,
    divides,
    divmod_exact,
    from_int,
    gcd,
    int_div_exact,
    int_sign_at,
    monic,
    primitive_int,
    real_root_brackets,
    resultant,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain,
    sturm_variations,
)

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


rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def poly_strategy(max_degree=6):
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(Poly)


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


def test_resultant_known_values():
    # res(x^2 - 1, x^2 - 4) = (1-4)(1-4)... product over roots of p of q
    p = Poly([-1, 0, 1])
    q = Poly([-4, 0, 1])
    assert resultant(p, q) == 9
    # shared root
    assert resultant(p, Poly([-1, 1])) == 0
    # discriminant of x^2 + bx + c is b^2 - 4c up to the convention sign
    disc = resultant(Poly([3, -4, 1]), Poly([-4, 2]))
    assert disc != 0
    assert resultant(Poly([1, 1]), Poly([5])) == 5
    assert resultant(Poly([7]), Poly([5])) == 1
    assert resultant(Poly([]), Poly([1, 2])) == 0


def test_resultant_rational_scaling():
    p = Poly([Fraction(1, 2), 0, 1])
    q = Poly([Fraction(-1, 3), 1])
    assert resultant(p, q) == resultant_sylvester(p, q)


@settings(max_examples=150, deadline=None)
@given(poly_strategy(5), poly_strategy(5))
def test_resultant_matches_sylvester(p, q):
    assert resultant(p, q) == resultant_sylvester(p, q)


@settings(max_examples=80, deadline=None)
@given(poly_strategy(4), poly_strategy(4), poly_strategy(2))
def test_resultant_multiplicative(p, q, r):
    if p.degree < 1 or q.degree < 1 or r.degree < 1:
        return
    assert resultant(p, q * r) == resultant(p, q) * resultant(p, r)


@settings(max_examples=100, deadline=None)
@given(poly_strategy(5), poly_strategy(5))
def test_gcd_divides_both(p, q):
    g = gcd(p, q)
    if g.degree < 0:
        assert p.degree < 0 and q.degree < 0
        return
    assert divides(g, p) or p.degree < 0
    assert divides(g, q) or q.degree < 0


def test_gcd_normalization():
    g = gcd(Poly([-2, 2]), Poly([-4, 0, 4]))
    assert g == Poly([-1, 1])  # primitive with positive leading coefficient


def test_gcd_of_coprime_is_constant():
    assert gcd(Poly([1, 1]), Poly([2, 1])).degree == 0


def test_squarefree_decomposition_cube():
    p = Poly([1, 1]) ** 3 * Poly([-2, 1])
    parts = squarefree_decomposition(p)
    assert [(i, f) for i, f in parts] == [(1, Poly([-2, 1])), (3, Poly([1, 1]))]


def test_squarefree_decomposition_reconstructs():
    p = Poly([1, 1]) ** 2 * Poly([0, 1]) ** 4 * Poly([3, 0, 1])
    parts = squarefree_decomposition(p)
    prod = Poly([1])
    for i, f in parts:
        prod = prod * f**i
    assert monic(prod) == monic(p)


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
    p = Poly([-1, 0, 1])
    assert resultant(p, p.derivative()) != 0
    assert gcd(p, p.derivative()).degree == 0
    d = p * p
    assert resultant(d, d.derivative()) == 0
    assert gcd(d, d.derivative()).degree > 0


def test_shift_is_multiplication_by_x():
    assert Poly([1, 2]).shift(2) == X * X * Poly([1, 2])


def test_int_sign_at_matches_evaluation():
    cs = [6, -7, 0, 1]  # (x-1)(x-2)(x+3)
    for x in (Fraction(-4), Fraction(-3), Fraction(0), Fraction(3, 2), Fraction(2), Fraction(10)):
        val = sum(c * x**i for i, c in enumerate(cs))
        assert int_sign_at(cs, x) == (val > 0) - (val < 0)


def test_sturm_variation_counts_roots_in_interval():
    chain = sturm_chain(Poly([6, -7, 0, 1]))
    # roots 1, 2, -3; intervals are half-open (a, b]
    assert sturm_variations(chain, Fraction(-4)) - sturm_variations(chain, Fraction(3)) == 3
    assert sturm_variations(chain, Fraction(0)) - sturm_variations(chain, Fraction(3)) == 2
    assert sturm_variations(chain, Fraction(1)) - sturm_variations(chain, Fraction(2)) == 1
    assert sturm_variations(chain, Fraction(2)) - sturm_variations(chain, Fraction(5)) == 0


def test_sturm_chain_rejects_repeated_roots():
    with pytest.raises(ValueError):
        sturm_chain(Poly([1, 2, 1]))


def test_brackets_isolate_real_roots_and_skip_complex_pairs():
    p = Poly([6, -7, 0, 1]) * Poly([1, 0, 1])
    brackets = real_root_brackets(p)
    assert len(brackets) == 3
    roots = sorted([Fraction(-3), Fraction(1), Fraction(2)])
    for (a, b), r in zip(brackets, roots):
        assert a < r <= b


def test_brackets_tolerate_misleading_hints():
    p = Poly([6, -7, 0, 1])
    for hints in (None, [1.1, 1.9], [-100.0, 0.5, 0.6, 100.0], [float("nan"), 2.0]):
        brackets = real_root_brackets(p, hints=hints)
        assert len(brackets) == 3
        for (a, b), r in zip(brackets, [Fraction(-3), Fraction(1), Fraction(2)]):
            assert a < r <= b


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6, unique=True))
def test_brackets_recover_constructed_integer_roots(roots):
    p = Poly([1])
    for r in roots:
        p = p * Poly([-r, 1])
    brackets = real_root_brackets(p)
    assert len(brackets) == len(roots)
    for (a, b), r in zip(brackets, sorted(roots)):
        assert a < r <= b
