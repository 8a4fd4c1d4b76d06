"""Exact matrices: products, charpolys, restriction."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lielap.linalg import (
    IntMatrix,
    charpoly_gq,
    restrict_operator,
    split_primes,
)
from lielap.algebra_core import preset, square_of_vector
from lielap.irreps import label
from lielap.operator import build_DV
from lielap.polycert import charpoly_real
from lielap.poly import Poly
from lielap.witness import sample_definite_tensor

I = (0, 1)


def mat(rows):
    """The IntMatrix of dense rows whose entries are rationals or (re, im)
    pairs of rationals."""
    pairs = [[x if isinstance(x, tuple) else (x, 0) for x in row] for row in rows]
    den = math.lcm(1, *(Fraction(v).denominator for row in pairs for x in row for v in x))
    shape = (len(rows), len(rows[0]) if rows else 0)
    re, im = (
        np.array([[int(Fraction(x[part]) * den) for x in row] for row in pairs], dtype=object).reshape(shape)
        for part in (0, 1)
    )
    return IntMatrix.from_dense(re, im, den)


def diagonal(values):
    n = len(values)
    return mat([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def zero(n, m):
    return IntMatrix.from_dense(np.zeros((n, m), dtype=np.int64))


def test_identity_and_scalar():
    m = IntMatrix.identity(3)
    assert m.is_scalar(Fraction(1))
    assert (m * Fraction(5, 3)).is_scalar(Fraction(5, 3))
    assert not (m * 5).is_scalar(Fraction(5, 3))
    assert not mat([[1, 1], [0, 1]]).is_scalar(Fraction(1))
    assert zero(2, 2).is_scalar(0)


def test_matmul_against_dense():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a @ b == mat([[2, 1], [4, 3]])
    assert a @ IntMatrix.identity(2) == a


def test_conj():
    m = mat([[I, 1], [0, (0, -1)]])
    assert list(m.conj().entries()) == [(0, 0, (0, -1)), (0, 1, (1, 0)), (1, 1, (0, 1))]


def test_kron_mixed_product():
    a = mat([[1, 2], [0, 1]])
    b = mat([[2, 0], [1, 1]])
    c = mat([[1, 1], [1, 0]])
    d = mat([[0, 1], [2, 1]])
    assert (a @ c).kron(b @ d) == (a.kron(b)) @ (c.kron(d))


def test_charpoly_2x2():
    # [[2, 1], [1/2, 0]]: trace 2, det -1/2 -> X^2 - 2X - 1/2
    m = mat([[2, 1], [Fraction(1, 2), 0]])
    cs = charpoly_gq(m)
    assert [c.re for c in cs] == [Fraction(-1, 2), Fraction(-2), Fraction(1)]
    assert all(c.im == 0 for c in cs)


def test_charpoly_diag_gaussian():
    m = diagonal([I, (0, -1)])
    cs = charpoly_gq(m)  # (X - i)(X + i) = X^2 + 1
    assert [complex(*c) for c in cs] == [1, 0, 1]


def test_charpoly_companion():
    # companion matrix of X^3 - 7X + 6
    m = mat([[0, 0, -6], [1, 0, 7], [0, 1, 0]])
    cs = charpoly_gq(m)
    assert [c.re for c in cs] == [Fraction(6), Fraction(-7), Fraction(0), Fraction(1)]


def test_restrict_operator():
    d = mat([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    k = mat([[0, 0], [1, 0], [0, 1]])  # invariant: spans the 2-eigenspace
    r = restrict_operator(d, k, [1, 2])
    assert r == IntMatrix.identity(2) * 2


def test_restrict_operator_reads_rows_at_pivots():
    # span(e1 + e2, e3) is invariant; the pivots are rows 0 and 2
    d = mat([[1, 2, 0], [2, 1, 0], [0, 0, 5]])
    k = mat([[1, 0], [1, 0], [0, 1]])
    r = restrict_operator(d, k, [0, 2])
    assert r == mat([[3, 0], [0, 5]])
    assert k @ r == d @ k


def test_restrict_operator_rejects_noninvariant():
    d = mat([[0, 1], [0, 0]])
    k = mat([[0], [1]])  # d maps e2 to e1, outside span(e2)
    with pytest.raises(ArithmeticError):
        restrict_operator(d, k, [1])


def test_restrict_operator_needs_identity_rows_at_pivots():
    d = mat([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        restrict_operator(d, mat([[0], [2]]), [1])
    with pytest.raises(ValueError):
        restrict_operator(d, mat([[1], [0]]), [0, 1])


# -- Faddeev-LeVerrier: the differential oracle for charpoly_gq ----------------


def charpoly_faddeev(M: IntMatrix) -> list[tuple[Fraction, Fraction]]:
    """Coefficients (ascending) of det(X*I - M) by Faddeev-LeVerrier.

    Over Gaussian integers: with d the common denominator of M and
    B = d*M, the recurrence
        N_1 = B,  c_{n-k} = -tr(B N_{k-1} ...)/k,  N_k = B N_{k-1} + c_{n-k} I
    stays integral; det(X*I - M) coefficients are c_k / d^(n-k).  Shares
    nothing with the multimodular route but the input matrix.
    """
    n = M.nrows
    if n == 0:
        return [(1, 0)]
    den = M.den
    RE = np.zeros((n, n), dtype=object)
    IM = np.zeros((n, n), dtype=object)
    RE[M.rows, M.cols] = M.re.tolist()
    IM[M.rows, M.cols] = M.im.tolist()
    mre = np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)], dtype=object)
    mim = np.zeros((n, n), dtype=object)
    idx = np.arange(n)
    coeffs_int = [(0, 0)] * (n + 1)
    coeffs_int[n] = (1, 0)
    for k in range(1, n + 1):
        pre = RE.dot(mre) - IM.dot(mim)
        pim = RE.dot(mim) + IM.dot(mre)
        trr = int(sum(pre[idx, idx]))
        tri = int(sum(pim[idx, idx]))
        assert trr % k == 0 and tri % k == 0
        cr, ci = -(trr // k), -(tri // k)
        coeffs_int[n - k] = (cr, ci)
        if k < n:
            pre[idx, idx] += cr
            pim[idx, idx] += ci
            mre, mim = pre, pim
    return [
        (Fraction(cr, den ** (n - k)), Fraction(ci, den ** (n - k)))
        for k, (cr, ci) in enumerate(coeffs_int)
    ]


def _random_entry(rng, complex_entries, den_digits=2):
    def part():
        if rng.random() < 0.4:
            return Fraction(0)
        q = rng.randint(1, 10**den_digits)
        return Fraction(rng.randint(-3 * q, 3 * q), q)

    return (part(), part() if complex_entries else 0)


def _random_matrix(rng, n, complex_entries, den_digits=2):
    return mat(
        [[_random_entry(rng, complex_entries, den_digits) for _ in range(n)] for _ in range(n)]
    )


@pytest.mark.parametrize("complex_entries", [False, True])
def test_charpoly_matches_faddeev_on_random_matrices(complex_entries):
    rng = random.Random(7013 + complex_entries)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 9), complex_entries)
        assert charpoly_gq(m) == charpoly_faddeev(m)


def test_charpoly_matches_faddeev_past_int64():
    # 120-digit denominators: den * M overflows int64 and the bound needs
    # hundreds of primes
    rng = random.Random(120)
    for complex_entries in (False, True):
        m = _random_matrix(rng, 4, complex_entries, den_digits=120)
        assert charpoly_gq(m) == charpoly_faddeev(m)


def test_charpoly_zero_subdiagonals_swap_and_skip():
    # pivots that are 0 in every image: the first column needs a swap, a
    # later column is zero below the diagonal and is skipped; multiples of
    # the first prime p make the swap or the skip happen in its image only
    rng = random.Random(31)
    p = split_primes(1)[0][0]
    shapes = [
        [[1, 2, 0, 0], [0, 3, 0, 1], [5, 0, 0, 0], [0, 0, 7, 2]],
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 4], [0, 0, 5, 6]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        [[2, 1, 3], [0, 0, 0], [0, 0, 4]],
        [[1, 2, 3], [p, 4, 5], [6, 7, 8]],
        [[1, 2, 3], [p, 4, 5], [2 * p, 7, 8]],
        [[1, 2, 3, 4], [(0, p), 4, 5, 6], [(p, 3), 7, 8, 9], [1, (0, 2), 3, 4]],
    ]
    for rows in shapes:
        m = mat(rows)
        assert charpoly_gq(m) == charpoly_faddeev(m)
    for _ in range(20):
        n = rng.randint(3, 8)
        m = mat(
            [[(rng.randint(-4, 4), rng.randint(-1, 1)) if rng.random() < 0.25 else 0
              for _ in range(n)] for _ in range(n)]
        )
        assert charpoly_gq(m) == charpoly_faddeev(m)


def test_charpoly_of_operators_matches_faddeev():
    # build_DV's integer form goes to charpoly_gq as it stands, on both
    # routes, with imaginary entries.  The object route is taken when
    # den * S passes 2^63 (su2xsu2), or when den * S fits but the bound on
    # the operator's row sums does not (u2, den near 2^50)
    rng = random.Random(1746)
    big = square_of_vector([Fraction(rng.randint(1, 9), 2**64 + 13) for _ in range(6)])
    q = 2**25 + 35
    near = square_of_vector([Fraction(1, q), 0, Fraction(3, q), Fraction(2, q)])
    cases = [
        (preset("su2xsu2"), label((2, 1)), sample_definite_tensor(6, rng), np.int64),
        (preset("u2"), label((3,), (2,)), sample_definite_tensor(4, rng), np.int64),
        (preset("su2xsu2"), label((2, 1)), sample_definite_tensor(6, rng) + big, object),
        (preset("u2"), label((2,), (-1,)), sample_definite_tensor(4, rng) + near, object),
    ]
    for spec, lab, tensor, dtype in cases:
        op = build_DV(spec, lab, tensor)
        assert op.matrix.re.dtype == dtype
        assert charpoly_gq(op.matrix) == charpoly_faddeev(op.matrix)
        assert op.matrix.im.any()
    assert max(abs(x) for x in op.matrix.re.tolist()) < 2**60


def test_charpoly_small_and_zero_matrices():
    assert charpoly_gq(zero(0, 0)) == [(1, 0)]
    assert charpoly_gq(mat([[(Fraction(-3, 7), 2)]])) == [(Fraction(3, 7), -2), (1, 0)]
    assert charpoly_gq(zero(4, 4)) == [(0, 0)] * 4 + [(1, 0)]


def test_charpoly_at_the_coefficient_bound():
    # (X - u r)^n, u a unit of Z[i], has coefficients of absolute value
    # C(n,k) r^(n-k): the bound itself.  With P_k the product of the first
    # k primes, r = (P_k + 1)/2 and r = P_k - 1 need k + 1 primes, and
    # r = (P_k - 1)/2 is the largest |a_0| that k primes recover as a
    # symmetric residue
    products = [math.prod(p for p, _ in split_primes(k)) for k in (1, 2)]
    radii = [1, 3, 2**40 + 1, 10**30]
    radii += [r for q in products for r in ((q - 1) // 2, (q + 1) // 2, q - 1)]
    for r in radii:
        for n in (1, 2, 5, 9):
            for u, v in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                expected = []
                for k in range(n + 1):
                    c = (math.comb(n, k), 0)
                    for _ in range(n - k):
                        # c times -(u + i v) r
                        c = (-(c[0] * u - c[1] * v) * r, -(c[0] * v + c[1] * u) * r)
                    expected.append(c)
                assert charpoly_gq(diagonal([(u * r, v * r)] * n)) == expected


def test_charpoly_real_rejects_imaginary_coefficients():
    with pytest.raises(ArithmeticError):
        charpoly_real(mat([[I]]))
    with pytest.raises(ArithmeticError):
        charpoly_real(diagonal([I, (0, 2)]))
    assert charpoly_real(diagonal([I, (0, -1)])) == Poly([1, 0, 1])


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(flags[q * q::q]))
    return [q for q in range(limit + 1) if flags[q]]


def test_split_primes():
    primes = split_primes(300)
    assert split_primes(300) == primes
    assert split_primes(10) == primes[:10]
    # sieve [lo, 2^31) by every prime up to sqrt(2^31): the list must be
    # exactly the primes = 1 (mod 4) there, largest first
    lo = primes[-1][0]
    flags = bytearray([1]) * (2**31 - lo)
    for q in _sieve(math.isqrt(2**31)):
        flags[-lo % q::q] = bytes(len(flags[-lo % q::q]))
    expected = [x for x in range(2**31 - 1, lo - 1, -1) if x % 4 == 1 and flags[x - lo]]
    assert [p for p, _ in primes] == expected
    assert all(iota * iota % p == p - 1 for p, iota in primes)
