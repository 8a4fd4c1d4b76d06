"""Exact matrices: products, charpolys, the eigenvalue bound."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lielap import linalg
from lielap.linalg import (
    IntMatrix,
    _hessenberg,
    _hessenberg_charpoly,
    eigenvalues_above,
    split_primes,
    weighted_hermitian,
)
from lielap.algebra_core import (
    MetricSpec,
    group_from_json,
    identity_tensor,
    metric_to_tensor,
    preset,
    square_of_vector,
)
from lielap.irreps import classify_type, label, labels_up_to_level
from lielap.operator import build_DV, norm_weights, weight_is_scalar
from lielap.polycert import charpoly_real
from lielap.poly import IntPoly, mul
from lielap.witness import sample_definite_tensor

I = (0, 1)


def one_charpoly(M, weights=None, prime=None) -> list[int]:
    """The kernel `charpolys_gq` on the one matrix M."""
    return linalg.charpolys_gq([M], [weights], prime)[0]


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
    # a scalar matrix is tested by equality with a multiple of the identity
    m = IntMatrix.identity(3)
    assert m == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m * Fraction(5, 3) == mat([[Fraction(5, 3), 0, 0], [0, Fraction(5, 3), 0], [0, 0, Fraction(5, 3)]])
    assert m * 5 != m * Fraction(5, 3)
    assert mat([[1, 1], [0, 1]]) != IntMatrix.identity(2)
    assert zero(2, 2) == IntMatrix.identity(2) * 0


def test_matmul_against_dense():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a @ b == mat([[2, 1], [4, 3]])
    assert a @ IntMatrix.identity(2) == a


def test_matmul_of_zero_by_entries_past_int64():
    # the product is zero, but the factor's own entries still need Python ints
    big = diagonal([10**30, -(10**30)])
    assert zero(2, 2) @ big == zero(2, 2) == big @ zero(2, 2)


def test_conj():
    m = mat([[I, 1], [0, (0, -1)]])
    assert list(m.conj().entries()) == [(0, 0, (0, -1)), (0, 1, (1, 0)), (1, 1, (0, 1))]


def test_kron_mixed_product():
    a = mat([[1, 2], [0, 1]])
    b = mat([[2, 0], [1, 1]])
    c = mat([[1, 1], [1, 0]])
    d = mat([[0, 1], [2, 1]])
    assert (a @ c).kron(b @ d) == (a.kron(b)) @ (c.kron(d))


def _dense_kron(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The Kronecker product through np.kron on dense object arrays."""
    (a, b), (c, d) = x._dense(), y._dense()
    return IntMatrix.from_dense(np.kron(a, c) - np.kron(b, d), np.kron(a, d) + np.kron(b, c), x.den * y.den)


@pytest.mark.parametrize("seed", range(24))
def test_kron_matches_dense_kron(seed):
    """The sparse Kronecker product has the entries, order, denominator
    and dtype of np.kron on dense arrays, on rectangular, empty and
    Gaussian factors, with entries past int64 too."""
    rng = random.Random(seed)

    def draw() -> IntMatrix:
        shape = (rng.randint(0, 4), rng.randint(0, 4))
        top = rng.choice((3, 2**31, 2**70))

        def part():
            return np.array(
                [rng.randint(-top, top) if rng.random() < 0.4 else 0
                 for _ in range(shape[0] * shape[1])],
                dtype=object,
            ).reshape(shape)

        return IntMatrix.from_dense(part(), part() if rng.random() < 0.5 else None, rng.randint(1, 6))

    for _ in range(4):
        x, y = draw(), draw()
        got, want = x.kron(y), _dense_kron(x, y)
        assert got == want
        assert (got.nrows, got.ncols) == (x.nrows * y.nrows, x.ncols * y.ncols)
        assert (got.re.dtype, got.im.dtype) == (want.re.dtype, want.im.dtype)


def test_charpoly_2x2():
    # [[2, 1], [1/2, 0]] over den 2: 2M has trace 4, det -2 -> X^2 - 4X - 2
    m = mat([[2, 1], [Fraction(1, 2), 0]])
    assert one_charpoly(m) == [-2, -4, 1]


def test_charpoly_diag_gaussian():
    # (X - i)(X + i) = X^2 + 1 is real, but without weights nothing proves
    # that, and a complex matrix is refused before any modular work
    for m in (diagonal([I, (0, -1)]), mat([[I]]), mat([[1, I], [I, 1]])):
        with pytest.raises(ValueError):
            one_charpoly(m)
    # [[1, i], [-i, 1]] is hermitian: (X - 1)^2 - 1
    assert one_charpoly(mat([[1, I], [(0, -1), 1]]), np.array([1, 1])) == [0, -2, 1]


def test_charpoly_companion():
    # companion matrix of X^3 - 7X + 6
    m = mat([[0, 0, -6], [1, 0, 7], [0, 1, 0]])
    assert one_charpoly(m) == [6, -7, 0, 1]


# -- Faddeev-LeVerrier: the differential oracle for charpolys_gq ---------------


def charpoly_faddeev(M: IntMatrix) -> list[tuple[int, int]]:
    """Coefficients (ascending) of det(X*I - d*M) by Faddeev-LeVerrier,
    d = M.den.

    Over Gaussian integers: with B = d*M, the recurrence
        N_1 = B,  c_{n-k} = -tr(B N_{k-1} ...)/k,  N_k = B N_{k-1} + c_{n-k} I
    stays integral.  Shares nothing with the multimodular route but the
    input matrix.
    """
    n = M.nrows
    if n == 0:
        return [(1, 0)]
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
    return coeffs_int


def faddeev_real(M: IntMatrix) -> list[int]:
    """The Faddeev-LeVerrier coefficients, which must be real."""
    cs = charpoly_faddeev(M)
    assert all(im == 0 for _, im in cs)
    return [re for re, _ in cs]


def weighted(rows, c):
    """The matrix with the entries of rows on and above the diagonal (the
    diagonal real) and M_ji = (c_j / c_i) conj(M_ij) below it, with its
    weights: c_j M_ij = c_i conj(M_ji) for the positive integers c."""
    n = len(rows)
    full = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rows[i][j]
            re, im = x if isinstance(x, tuple) else (x, 0)
            assert i < j or im == 0
            full[i][j] = (re, im)
            r = Fraction(c[j], c[i])
            full[j][i] = (r * re, -r * im)
    return mat(full), np.array(c, dtype=np.int64)


def _random_entry(rng, complex_entries, den_digits=2):
    def part():
        if rng.random() < 0.4:
            return Fraction(0)
        q = rng.randint(1, 10**den_digits)
        return Fraction(rng.randint(-3 * q, 3 * q), q)

    return (part(), part() if complex_entries else 0)


def _random_matrix(rng, n, complex_entries, den_digits=2):
    """A real matrix with no weights, or a complex weighted-hermitian one
    with random positive weights; (matrix, weights or None)."""
    if not complex_entries:
        rows = [[_random_entry(rng, False, den_digits) for _ in range(n)] for _ in range(n)]
        return mat(rows), None
    rows = [
        [_random_entry(rng, i < j, den_digits) for j in range(n)] for i in range(n)
    ]
    return weighted(rows, [rng.randint(1, 12) for _ in range(n)])


@pytest.mark.parametrize("complex_entries", [False, True])
def test_charpoly_matches_faddeev_on_random_matrices(complex_entries):
    rng = random.Random(7013 + complex_entries)
    imaginary = 0
    for _ in range(40):
        m, c = _random_matrix(rng, rng.randint(1, 9), complex_entries)
        assert one_charpoly(m, c) == faddeev_real(m)
        imaginary += bool(m.im.any())
    assert (imaginary > 30) == complex_entries


def test_charpoly_matches_faddeev_past_int64():
    # 120-digit denominators: den * M overflows int64 and the bound needs
    # hundreds of primes
    rng = random.Random(120)
    for complex_entries in (False, True):
        m, c = _random_matrix(rng, 4, complex_entries, den_digits=120)
        assert m.re.dtype == object
        assert one_charpoly(m, c) == faddeev_real(m)


def test_charpoly_zero_subdiagonals_swap_and_skip():
    # pivots that are 0 in every image: the first column needs a swap, a
    # later column is zero below the diagonal and is skipped; multiples of
    # the first prime p make the swap or the skip happen in its image only.
    # Complex matrices come weighted hermitian, with their weights
    rng = random.Random(31)
    p = split_primes(1)[0][0]
    shapes = [
        [[1, 2, 0, 0], [0, 3, 0, 1], [5, 0, 0, 0], [0, 0, 7, 2]],
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 4], [0, 0, 5, 6]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        [[2, 1, 3], [0, 0, 0], [0, 0, 4]],
        [[1, 2, 3], [p, 4, 5], [6, 7, 8]],
        [[1, 2, 3], [p, 4, 5], [2 * p, 7, 8]],
    ]
    cases = [(mat(rows), None) for rows in shapes]
    cases += [
        weighted([[1, (0, p), (p, 3), 1], [0, 4, 5, (0, 2)], [0, 0, 8, 9], [0, 0, 0, 4]], [1, 1, 1, 1]),
        weighted([[1, (0, p), (2 * p, p), 0], [0, 4, 0, (0, 2)], [0, 0, 8, 0], [0, 0, 0, 4]], [1, 3, 2, 5]),
        weighted([[0, 0, (0, 1), 0], [0, 0, 0, (2, -1)], [0, 0, 3, 0], [0, 0, 0, 1]], [2, 1, 4, 1]),
    ]

    def sparse(imaginary):
        # zero three times in four, else a small integer or its multiple by p
        if rng.random() >= 0.25:
            return 0
        return rng.randint(-1 if imaginary else -4, 1 if imaginary else 4) * rng.choice((1, p))

    for _ in range(20):
        n = rng.randint(3, 8)
        rows = [[(sparse(False), sparse(True) if i < j else 0) for j in range(n)] for i in range(n)]
        cases.append(weighted(rows, [rng.randint(1, 6) for _ in range(n)]))
    for m, c in cases:
        assert one_charpoly(m, c) == faddeev_real(m)


def test_one_prime_lane_is_the_charpoly_mod_that_prime():
    # a prime argument gives one lane: the CRT route's coefficients mod p,
    # real and complex, past int64 too, each behind the same checks
    rng = random.Random(2024)
    primes = [p for p, _ in split_primes(3)]
    for complex_entries in (False, True):
        for den_digits in (2, 120):
            for _ in range(6):
                m, c = _random_matrix(rng, rng.randint(1, 7), complex_entries, den_digits)
                exact = one_charpoly(m, c)
                for p in primes:
                    assert one_charpoly(m, c, p) == [x % p for x in exact]
    m, c = weighted([[0, (0, Fraction(1, 2))], [0, 0]], [1, 4])
    with pytest.raises(ArithmeticError):
        one_charpoly(m, np.ones(2, dtype=np.int64), primes[0])
    # p = 3 (mod 4) has no square root of -1, and 2^31 - 3 = 5 * 429496729
    for bad in (2**31 - 1, 2**31 - 3, 2**31 + 11, 5):
        with pytest.raises(ValueError):
            one_charpoly(m, c, bad)


def test_batched_kernel_reads_each_matrix_as_alone():
    # equal and different dimensions, real and complex, entries small and
    # past int64 (so different numbers of primes share one pass), and the
    # 0 x 0 matrix: each block of lanes gives its own matrix's charpoly
    rng = random.Random(31)
    Ms, ws = [zero(0, 0)], [None]
    for n in (3, 3, 5, 3, 1, 5):
        for complex_entries in (False, True):
            m, c = _random_matrix(rng, n, complex_entries, rng.choice((2, 120)))
            Ms.append(m)
            ws.append(c)
    exact = linalg.charpolys_gq(Ms, ws)
    assert exact[0] == [1] and exact[1:] == [faddeev_real(m) for m in Ms[1:]]
    p = split_primes(1)[0][0]
    assert linalg.charpolys_gq(Ms, ws, p) == [[x % p for x in e] for e in exact]
    assert linalg.charpolys_gq([], [], p) == []
    # a matrix that fails its proof fails the batch
    bad, _ = weighted([[0, (0, Fraction(1, 2))], [0, 0]], [1, 4])
    with pytest.raises(ArithmeticError):
        linalg.charpolys_gq([Ms[1], bad], [None, np.ones(2, dtype=np.int64)], p)


def test_charpoly_of_operators_matches_faddeev():
    # build_DV's integer form goes to the kernel as it stands, with its
    # weights, on both routes, with imaginary entries.  The object route is taken when
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
        assert one_charpoly(op.matrix, norm_weights(lab.spins)) == faddeev_real(op.matrix)
        assert op.matrix.im.any()
    assert max(abs(x) for x in op.matrix.re.tolist()) < 2**60


def _lanes(monkeypatch) -> list:
    """The moduli of every Hessenberg pass, one list per charpoly."""
    seen = []

    def recorded(H, mod):
        seen.append(mod.tolist())
        return _hessenberg(H, mod)

    monkeypatch.setattr(linalg, "_hessenberg", recorded)
    return seen


def test_one_image_route_matches_faddeev_on_operators(monkeypatch):
    # with the invariant weights every operator takes one lane per prime,
    # imaginary entries and quaternionic labels included
    lanes = _lanes(monkeypatch)
    rng = random.Random(18)
    u2 = preset("u2")
    coupled = sample_definite_tensor(4, rng)
    assert not weight_is_scalar(u2, coupled)
    cases = [
        (preset("su2"), sample_definite_tensor(3, rng), 4),
        (u2, coupled, 3),
        (preset("spin4"), sample_definite_tensor(6, rng), 3),
        (preset("so4"), sample_definite_tensor(6, rng), 4),
        (group_from_json({"k": 3, "n": 1}), sample_definite_tensor(10, rng), 1),
    ]
    types = set()
    for spec, tensor, level in cases:
        for lab in labels_up_to_level(spec, level):
            M = build_DV(spec, lab, tensor).matrix
            assert one_charpoly(M, norm_weights(lab.spins)) == faddeev_real(M)
            assert len(set(lanes[-1])) == len(lanes[-1])
            if M.im.any():
                types.add(classify_type(lab))
    assert types == {"real", "complex", "quaternionic"}


def test_one_image_route_past_int64():
    # 2^64 + 13 in the denominators: the entries are Python ints, and so
    # are the products of the weighted-hermitian check
    rng = random.Random(64)
    big = square_of_vector([Fraction(rng.randint(1, 9), 2**64 + 13) for _ in range(6)])
    spec, lab = preset("spin4"), label((3, 2))
    M = build_DV(spec, lab, sample_definite_tensor(6, rng) + big).matrix
    assert M.re.dtype == object and M.im.any()
    assert one_charpoly(M, norm_weights(lab.spins)) == faddeev_real(M)


def test_weighted_hermitian_check_bounds_its_products():
    # c_1 D_01 = 8 (2^58 + 2^61) = 2^61 + 2^64 is 2^61 = c_0 D_10 mod 2^64:
    # int64 products would wrap and accept it
    w = np.array([1, 8], dtype=np.int64)
    good = IntMatrix.from_dense([[0, 2**58], [2**61, 0]])
    bad = IntMatrix.from_dense([[0, 2**58 + 2**61], [2**61, 0]])
    assert bad.re.dtype == np.int64
    assert weighted_hermitian(good, w) and not weighted_hermitian(bad, w)
    # the pattern must be symmetric, and a diagonal entry real
    assert not weighted_hermitian(mat([[1, 2], [0, 1]]), np.array([1, 1]))
    assert not weighted_hermitian(mat([[(1, 1), 0], [0, 1]]), np.array([1, 1]))
    assert weighted_hermitian(mat([[1, (2, 3)], [(4, -6), 1]]), np.array([1, 2]))
    assert weighted_hermitian(zero(0, 0), np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        weighted_hermitian(zero(2, 2), np.array([1]))
    with pytest.raises(ArithmeticError):
        one_charpoly(mat([[1, 2], [3, 1]]), np.array([1, 1]))


def test_single_reduction_at_the_largest_residues():
    # every entry -1 or 1 is p - 1 or 1 in every image, so with a unit pivot
    # the row update subtracts (p - 1)^2 from 0, the most negative case;
    # zero sub-diagonals force swaps, and lanes of the largest split primes
    # run side by side
    primes = np.array([p for p, _ in split_primes(6)], dtype=np.int64)
    rng = random.Random(2**31)
    shapes = [
        [[-1, -1, -1, -1], [1, -1, -1, -1], [-1, 0, 0, 0], [-1, 0, 0, -1]],
        [[-1, -1, -1, -1, -1], [0, -1, -1, -1, -1], [1, -1, -1, -1, -1], [-1, 0, 0, 0, 0], [-1, -1, 0, -1, 0]],
    ]
    for _ in range(20):
        n = rng.randint(3, 9)
        shapes.append([
            [rng.choice((-1, -1, -1, 0, 1)) if j >= i - 1 or rng.random() < 0.5 else 0
             for j in range(n)] for i in range(n)
        ])
    for rows in shapes:
        m = mat(rows)
        expected = faddeev_real(m)
        assert one_charpoly(m) == expected
        n = len(rows)
        H = np.repeat(np.array(rows, dtype=np.int64)[None], len(primes), axis=0) % primes[:, None, None]
        _hessenberg(H, primes)
        assert ((0 <= H) & (H < primes[:, None, None])).all()
        got = _hessenberg_charpoly(H, primes)
        assert (got == np.array(expected) % primes[:, None]).all()


def test_charpoly_small_and_zero_matrices():
    assert one_charpoly(zero(0, 0)) == [1]
    assert one_charpoly(zero(0, 0), np.array([], dtype=np.int64)) == [1]
    # den 7: X - 7 (-3/7)
    assert one_charpoly(mat([[Fraction(-3, 7)]])) == [3, 1]
    assert one_charpoly(mat([[Fraction(-3, 7)]]), np.array([5])) == [3, 1]
    assert one_charpoly(zero(4, 4)) == [0] * 4 + [1]


def test_charpoly_at_the_coefficient_bound():
    # (X - u r)^n, u = +-1, has coefficients of absolute value C(n,k)
    # r^(n-k): the bound itself.  With P_k the product of the first k
    # primes, r = (P_k + 1)/2 and r = P_k - 1 need k + 1 primes, and
    # r = (P_k - 1)/2 is the largest |a_0| that k primes recover as a
    # symmetric residue.  The hermitian blocks [[0, v r], [conj(v) r, 0]],
    # v = +-i, have row sum r and eigenvalues +-r, so with one more real
    # entry u r for odd n their |a_0| = r^n is the bound once r^n is the
    # largest C(n,k) r^k
    products = [math.prod(p for p, _ in split_primes(k)) for k in (1, 2)]
    radii = [1, 3, 2**40 + 1, 10**30]
    radii += [r for q in products for r in ((q - 1) // 2, (q + 1) // 2, q - 1)]
    for r in radii:
        for n in (1, 2, 5, 9):
            for u in (1, -1):
                expected = [math.comb(n, k) * (-u * r) ** (n - k) for k in range(n + 1)]
                assert one_charpoly(diagonal([u * r] * n)) == expected
                rows = [[0] * n for _ in range(n)]
                for i in range(0, n - 1, 2):
                    rows[i][i + 1] = (0, u * r)
                if n % 2:
                    rows[-1][-1] = u * r
                m, c = weighted(rows, [1] * n)
                assert m.im.any() or n == 1
                expected = [1]
                for _ in range(n // 2):
                    expected = mul(expected, [-r * r, 0, 1])
                expected = mul(expected, [-u * r, 1] if n % 2 else [1])
                assert one_charpoly(m, c) == expected
                if r**n == max(math.comb(n, k) * r**k for k in range(n + 1)):
                    assert abs(expected[0]) == r**n


def test_charpoly_real_rejects_imaginary_coefficients():
    # a complex matrix is taken only with weights that prove its charpoly
    # real: ValueError without them, ArithmeticError when they fail
    for m in (mat([[I]]), diagonal([I, (0, 2)]), diagonal([I, (0, -1)])):
        with pytest.raises(ValueError):
            charpoly_real(m)
        with pytest.raises(ArithmeticError):
            charpoly_real(m, weights=np.ones(m.nrows, dtype=np.int64))
    # [[0, i/2], [-2i, 0]] is hermitian for the weights (1, 4): X^2 - 1
    m, c = weighted([[0, (0, Fraction(1, 2))], [0, 0]], [1, 4])
    assert charpoly_real(m, weights=c) == IntPoly((-4, 0, 1), 2)
    assert charpoly_real(m, 6, c) == IntPoly((-36, 0, 1), 6)


def test_charpoly_real_rescales_to_a_multiple_of_den():
    # 2M = [[4, 2], [1, 0]] has X^2 - 4X - 2, so 6M has X^2 - 12X - 18
    m = mat([[2, 1], [Fraction(1, 2), 0]])
    assert charpoly_real(m) == IntPoly((-2, -4, 1), 2)
    assert charpoly_real(m, 6) == IntPoly((-18, -12, 1), 6)
    # the zero matrix has den 1 and takes any den
    assert charpoly_real(zero(2, 2), 31) == IntPoly((0, 0, 1), 31)
    with pytest.raises(ValueError):
        charpoly_real(m, 3)


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


# -- the exact proof that every eigenvalue exceeds a cutoff ----------------------


def exceeds_by_charpoly(M: IntMatrix, weights, cutoff) -> bool:
    """Whether every eigenvalue of M exceeds the cutoff L, from the sign
    pattern of its exact charpoly: P(X) = det(X*I - d*M), d = M.den, has
    the real roots d*lambda_i, so q(y) = (-1)^n P(d*L - y) = prod (y + d
    (lambda_i - L)) has only positive coefficients exactly when every
    lambda_i exceeds L."""
    P = one_charpoly(M, weights)
    n, x = len(P) - 1, Fraction(cutoff) * M.den
    # Taylor shift to P(x - y), ascending in y
    q = [Fraction(0)] * (n + 1)
    for c in reversed(P):
        q = [c + x * q[0]] + [x * q[k] - q[k - 1] for k in range(1, n + 1)]
    return all((-1) ** n * c > 0 for c in q)


def _operator(spec, spins, tensor, weight=()):
    op = build_DV(spec, label(spins, weight), tensor)
    return op.matrix, norm_weights(op.label.spins)


def _lowest(M: IntMatrix, c) -> float:
    """The smallest eigenvalue of diag(c)^(-1/2) M diag(c)^(1/2), which is
    hermitian, in floating point."""
    re, im = M._dense(float)
    d = np.asarray(c, dtype=float) ** -0.5
    return float(np.linalg.eigvalsh((re + 1j * im) * d[:, None] / d / M.den)[0])


BERGER = metric_to_tensor(
    MetricSpec([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, Fraction(2, 3), 0], [0, 0, 0, 3]])
)


@pytest.mark.parametrize(
    "spec, spins, weight, tensor, lowest",
    [
        # a m(m+2) + (b - a) k^2 + c l^2 with a = 1, b = 3/2, c = 1/3, k = m, m - 2, ..
        (preset("u2"), (3,), (1,), BERGER, Fraction(95, 6)),
        (preset("u2"), (4,), (2,), BERGER, Fraction(76, 3)),
        # the Casimir operator is m1(m1 + 2) + m2(m2 + 2) times the identity
        (preset("spin4"), (2, 3), (), identity_tensor(6), Fraction(23)),
        (preset("spin4"), (0, 0), (), identity_tensor(6), Fraction(0)),
    ],
)
def test_proof_refuses_a_cutoff_at_a_rational_eigenvalue(spec, spins, weight, tensor, lowest):
    """Proved just below the smallest eigenvalue; refused at it and above
    it, even with an estimate that puts it above the cutoff."""
    M, c = _operator(spec, spins, tensor, weight)
    assert eigenvalues_above(M, c, lowest - Fraction(1, 1000), float(lowest))
    for cutoff in (lowest, lowest + Fraction(1, 2**40), lowest + 1):
        assert not exceeds_by_charpoly(M, c, cutoff)
        for estimate in (float(lowest), float(cutoff) + 2**-30, 2 * float(cutoff) + 1):
            assert not eigenvalues_above(M, c, cutoff, estimate)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    spins=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    rel=st.fractions(Fraction(-1, 20), Fraction(1, 20), max_denominator=10**6),
)
def test_proof_agrees_with_the_charpoly_sign_on_drawn_tensors(seed, spins, rel):
    """Never a proof where the exact charpoly has a root at or below the
    cutoff, on cutoffs within 5 % of the smallest eigenvalue."""
    tensor = sample_definite_tensor(6, random.Random(seed))
    M, c = _operator(preset("spin4"), spins, tensor)
    lowest = _lowest(M, c)
    cutoff = Fraction(lowest).limit_denominator(10**6) * (1 + rel)
    for estimate in (lowest, float(cutoff) * (1 + 2**-20)):
        if eigenvalues_above(M, c, cutoff, estimate):
            assert exceeds_by_charpoly(M, c, cutoff)


def test_proof_holds_where_the_floats_show_a_margin():
    """Every spin4 label of the seed-0 tensor whose float spectrum lies a
    thousandth above the cutoff is proved, and no other label is."""
    spec, tensor, cutoff = preset("spin4"), sample_definite_tensor(6, random.Random(0)), Fraction(40)
    proved = 0
    for lab in labels_up_to_level(spec, 6):
        M, c = _operator(spec, lab.spins, tensor)
        lowest = _lowest(M, c)
        if eigenvalues_above(M, c, cutoff, lowest):
            assert exceeds_by_charpoly(M, c, cutoff)
            proved += 1
        else:
            assert lowest < cutoff * (1 + 1e-3)
    assert proved > 10


def test_proof_refuses_inputs_past_its_int64_bounds():
    M, c = _operator(preset("spin4"), (2, 1), sample_definite_tensor(6, random.Random(3)))
    lowest = _lowest(M, c)
    below = Fraction(lowest).limit_denominator(100) - Fraction(1, 100)
    assert eigenvalues_above(M, c, below, lowest)
    for den in (2**52, 2**64 + 13, 10**40):
        for num in (math.floor(lowest * den) - 1, math.ceil(lowest * den) + 1):
            assert not eigenvalues_above(M, c, Fraction(num, den), lowest + 1)
    # the weights and the entries as Python ints
    assert not eigenvalues_above(M, c.astype(object), lowest - 1, lowest)
    big = IntMatrix(M.nrows, M.ncols, M.den, M.rows, M.cols, M.re.astype(object), M.im.astype(object))
    assert not eigenvalues_above(big, c, lowest - 1, lowest)
    # a den c and b re c past 2^63: int64 would wrap the diagonal
    # -2^61 - 2^63 to a positive one
    one = np.array([1], dtype=np.int64)
    assert mat([[-(2**61)]]).re.dtype == np.int64
    assert not eigenvalues_above(mat([[-(2**61)]]), one, 2**63, 2.0**64)
    assert not eigenvalues_above(mat([[2**61]]), one, Fraction(1, 2**63), 2.0**61)
    # 256 rows would let R R^H pass 2^63
    for n in (255, 256):
        identity, ones = IntMatrix.identity(n), np.ones(n, dtype=np.int64)
        assert eigenvalues_above(identity, ones, Fraction(1, 2), 1.0) == (n == 255)


def test_proof_refuses_a_matrix_that_is_not_weighted_hermitian():
    with pytest.raises(ArithmeticError):
        eigenvalues_above(mat([[3, 1], [2, 3]]), np.array([1, 1]), 0, 1.0)
    with pytest.raises(ArithmeticError):
        eigenvalues_above(mat([[3, (0, 1)], [(0, 1), 3]]), np.array([1, 1]), 0, 1.0)
    with pytest.raises(ValueError):
        eigenvalues_above(mat([[3]]), np.array([1, 1]), 0, 1.0)
    # the same entries under the weights that make them weighted hermitian
    assert eigenvalues_above(mat([[3, 1], [2, 3]]), np.array([1, 2]), 0, 1.0)


def test_proof_checks_any_proposal_exactly(monkeypatch):
    """The float Cholesky only proposes: with the zero factor, the residue
    is the scaled matrix itself, and the singular Laplacian of a triangle,
    whose rows are dominant with equality, is refused, while a strictly
    dominant one is proved."""
    triangle = mat([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    one = np.ones(3, dtype=np.int64)
    monkeypatch.setattr(np.linalg, "cholesky", np.zeros_like)
    assert not eigenvalues_above(triangle, one, 0, 1.0)
    assert eigenvalues_above(triangle, one, Fraction(-1, 10**6), 1.0)
    # and a proposal that fails to factor proves nothing
    def fails(F):
        raise np.linalg.LinAlgError("not definite")

    monkeypatch.setattr(np.linalg, "cholesky", fails)
    assert not eigenvalues_above(IntMatrix.identity(3), one, 0, 1.0)


def test_empty_matrix_has_every_eigenvalue_above_any_cutoff():
    # no eigenvalue, so none at or below the cutoff: proved with no work,
    # once the estimate itself lies above the cutoff
    empty, none = zero(0, 0), np.ones(0, dtype=np.int64)
    assert eigenvalues_above(empty, none, 5, 6.0)
    assert not eigenvalues_above(empty, none, 5, 4.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), noise=st.integers(-8, 30))
def test_proof_refuses_a_singular_matrix_whatever_the_proposal(seed, noise):
    """H = V V^H with V of n - 1 Gaussian-integer columns is singular, so
    no proposal proves it definite: not the float square root Q
    sqrt(Lambda) of the matrix handed to the Cholesky (its negative
    eigenvalues cut to 0), nor that root moved by noise of size 2^noise."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    V = np.array([
        [complex(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n - 1)] for _ in range(n)
    ])
    H = V @ V.conj().T
    M = IntMatrix.from_dense(H.real.astype(np.int64), H.imag.astype(np.int64))
    one = np.ones(n, dtype=np.int64)
    assert not exceeds_by_charpoly(M, one, 0)
    noisy = np.random.default_rng(seed)

    def propose(F):
        w, Q = np.linalg.eigh(F)
        jitter = noisy.standard_normal((n, n)) + 1j * noisy.standard_normal((n, n))
        return Q * np.sqrt(w.clip(0)) + 2.0**noise * jitter

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", propose)
        for cutoff in (0, Fraction(1, 10**9)):
            assert not eigenvalues_above(M, one, cutoff, 1.0)
