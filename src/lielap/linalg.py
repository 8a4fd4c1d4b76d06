"""Exact matrices: Gaussian integers over one denominator.

``IntMatrix`` is the package's one exact matrix: (re + i im) / den with
integer re and im, the nonzero entries held row-major (columns ascending)
in four arrays rows, cols, re, im, and den the least common denominator,
1 for the zero matrix, so that equal matrices have equal fields.  The
arrays are int64 when a bound computed from the inputs shows that every
row sum of |re| + |im| fits; otherwise they hold Python ints
(dtype=object) and the same numpy code runs on them.  ``entries()``
yields ``Gaussian`` values for readers that want scalars.

Products and sums are computed on dense arrays: the matrices they are
used on (generators, the pairs pipeline's operators) have dimension below
a hundred.  A product runs in int64 when entry_dtype shows that it fits,
and in Python ints otherwise.  Kronecker products are taken on the
nonzero entries of both factors.  There is no elimination over Q(i).

The characteristic polynomial is multimodular and reads an ``IntMatrix``,
whose integers are its input as they stand: it is the charpoly of den*M,
with integer coefficients, and nothing is divided by den after the CRT.
A bound on the eigenvalues (the largest row sum of |Re| + |Im|) bounds
every coefficient by max_k C(n,k) r^k.  Each prime p = 1 (mod 4) below
2^31 maps i to a square root iota of -1 mod p, and its image is one lane
of the modular pass.  One lane per prime suffices because the charpoly is
real: the matrix is real, or it comes with the weights c of an identity
c_j M_ij = c_i conj(M_ji), which `weighted_hermitian` checks exactly
(ArithmeticError if it fails), so that it is similar to a hermitian
matrix.  The operators D_V(s) satisfy it with `operator.norm_weights`.  A
complex matrix without weights is refused (ValueError).

There is one kernel, `charpolys_gq`, over a sequence of matrices, each
with its own weights, proof and primes (`polycert.charpoly_real` reads
one matrix through it).  The lanes of all matrices of one dimension, one
per (matrix, prime), are stacked in one int64 array and reduced to
Hessenberg form together, and no matrix is padded to another's size; the
Hessenberg recurrence gives each charpoly mod p, and the CRT, taken over
enough primes to exceed twice the matrix's bound, gives the exact
integers.  Asked for one prime, each matrix has the one lane of that
prime and returns its residues, with no bound and no CRT.  The tests check it
against Faddeev-LeVerrier, an independent route over Gaussian integers.

`eigenvalues_above` proves, on the same weighted-hermitian matrices, that
every eigenvalue exceeds a rational cutoff: a float Cholesky factor of
the shifted, scaled hermitian form proposes, and an int64 residue that is
strictly diagonally dominant proves.  It is a one-sided proof of a
sufficient condition: False means only that it did not go through.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np


class Gaussian(NamedTuple):
    """An exact value re + i im: ints where integral, else Fractions."""

    re: int | Fraction
    im: int | Fraction


def _rational(x: int, den: int) -> int | Fraction:
    q = Fraction(x, den)
    return q.numerator if q.denominator == 1 else q


def entry_dtype(bound: int, width: int):
    """int64 if entries with |re|, |im| <= bound and at most width of them
    in a row keep every row sum of |re| + |im| below 2^63, else object."""
    return np.int64 if 2 * bound * width < 2**63 else object


class IntMatrix:
    """Exact sparse matrix (re + i im) / den with integer re and im.

    rows, cols, re and im are equal-length arrays over the nonzero
    entries, row-major with columns ascending; rows and cols are int64, re
    and im share one dtype (see entry_dtype).  The constructor divides den,
    re and im by their common gcd, so den is the least common denominator
    of the entries, and 1 when there are none.
    """

    __slots__ = ("nrows", "ncols", "den", "rows", "cols", "re", "im")

    def __init__(self, nrows, ncols, den, rows, cols, re, im):
        if not re.size:
            den = 1
        elif den != 1:
            g = math.gcd(den, int(np.gcd.reduce(re)), int(np.gcd.reduce(im)))
            if g != 1:
                den, re, im = den // g, re // g, im // g
        self.nrows, self.ncols, self.den = nrows, ncols, den
        self.rows, self.cols, self.re, self.im = rows, cols, re, im

    @classmethod
    def from_dense(cls, re, im=None, den: int = 1) -> "IntMatrix":
        """(re + i im) / den from 2-d integer arrays; im is 0 if omitted."""
        re = np.asarray(re)
        im = np.zeros_like(re) if im is None else np.asarray(im)
        rows, cols = np.nonzero((re != 0) | (im != 0))
        return cls._from_values(
            *re.shape, den, rows.astype(np.int64), cols.astype(np.int64),
            re[rows, cols].tolist(), im[rows, cols].tolist(),
        )

    @classmethod
    def _from_values(cls, nrows, ncols, den, rows, cols, re: list, im: list) -> "IntMatrix":
        """From the nonzero entries, row-major, with re and im Python ints."""
        width = int(np.bincount(rows).max()) if rows.size else 0
        dtype = entry_dtype(max(map(abs, re + im), default=0), width)
        return cls(nrows, ncols, den, rows, cols, np.array(re, dtype=dtype), np.array(im, dtype=dtype))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, 1, idx, idx, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    def _dense(self, dtype=object) -> tuple[np.ndarray, np.ndarray]:
        """The integer parts re and im as dense arrays."""
        re = np.zeros((self.nrows, self.ncols), dtype=dtype)
        im = np.zeros_like(re)
        re[self.rows, self.cols] = self.re
        im[self.rows, self.cols] = self.im
        return re, im

    def _largest(self) -> int:
        return max(map(abs, self.re.tolist() + self.im.tolist()), default=0)

    def entries(self) -> Iterator[tuple[int, int, Gaussian]]:
        """(i, j, value) over the nonzero entries, row-major."""
        den = self.den
        # one value per distinct pair: a Casimir operator has one value
        made: dict[tuple[int, int], Gaussian] = {}
        for i, j, x, y in zip(
            self.rows.tolist(), self.cols.tolist(), self.re.tolist(), self.im.tolist()
        ):
            v = made.get((x, y))
            if v is None:
                v = made[x, y] = Gaussian(_rational(x, den), _rational(y, den))
            yield i, j, v

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.den) == (other.nrows, other.ncols, other.den) and all(
            np.array_equal(a, b)
            for a, b in zip(
                (self.rows, self.cols, self.re, self.im),
                (other.rows, other.cols, other.re, other.im),
            )
        )

    __hash__ = None

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        # |entries| of the products before the sums are at most the first,
        # and the dense factors must hold their own entries too
        x, y = self._largest(), other._largest()
        dtype = entry_dtype(max(2 * self.ncols * x * y, x, y), other.ncols)
        (a, b), (c, d) = self._dense(dtype), other._dense(dtype)
        return IntMatrix.from_dense(a @ c - b @ d, a @ d + b @ c, self.den * other.den)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        den = math.lcm(self.den, other.den)
        (a, b), (c, d) = self._dense(), other._dense()
        s, t = den // self.den, den // other.den
        return IntMatrix.from_dense(a * s + c * t, b * s + d * t, den)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.nrows, self.ncols, self.den, self.rows, self.cols, -self.re, -self.im)

    def __mul__(self, c) -> "IntMatrix":
        """The multiple by a rational c."""
        c = Fraction(c)
        if not c:
            return IntMatrix.from_dense(np.zeros((self.nrows, self.ncols), dtype=np.int64))
        return IntMatrix._from_values(
            self.nrows, self.ncols, self.den * c.denominator, self.rows, self.cols,
            [x * c.numerator for x in self.re.tolist()],
            [x * c.numerator for x in self.im.tolist()],
        )

    def conj(self) -> "IntMatrix":
        return IntMatrix(self.nrows, self.ncols, self.den, self.rows, self.cols, self.re, -self.im)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """The Kronecker product, from the nonzero entries of both: entry
        (i, j) of self times entry (p, q) of other is entry
        (i P + p, j Q + q) of the product, (P, Q) the shape of other.  A
        product of nonzero Gaussian integers is nonzero."""
        rows = np.add.outer(self.rows * other.nrows, other.rows).ravel()
        cols = np.add.outer(self.cols * other.ncols, other.cols).ravel()
        order = np.lexsort((cols, rows))
        a, b, c, d = (x.astype(object) for x in (self.re, self.im, other.re, other.im))
        re = np.multiply.outer(a, c) - np.multiply.outer(b, d)
        im = np.multiply.outer(a, d) + np.multiply.outer(b, c)
        return IntMatrix._from_values(
            self.nrows * other.nrows, self.ncols * other.ncols, self.den * other.den,
            rows[order], cols[order], re.ravel()[order].tolist(), im.ravel()[order].tolist(),
        )


# -- exact characteristic polynomial -----------------------------------------

# Miller-Rabin with these bases is exact below 3.2e9, so for every p < 2^31
_MR_BASES = (2, 3, 5, 7)
# (p, iota) with p = 1 (mod 4) prime and iota^2 = -1 (mod p), p descending
# from 2^31; extended on demand by split_primes
_SPLIT_PRIMES: list[tuple[int, int]] = []


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 7 < n < 3.2e9."""
    d, s = n - 1, 0
    while not d % 2:
        d //= 2
        s += 1
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


def _root_of_minus_one(p: int) -> int:
    a = 2
    while True:
        x = pow(a, (p - 1) // 4, p)
        if x * x % p == p - 1:
            return x
        a += 1


def split_primes(k: int) -> list[tuple[int, int]]:
    """The first k primes p = 1 (mod 4) below 2^31, largest first, each
    paired with a root iota of -1 mod p (-1 is a square exactly when
    p = 1 mod 4).  Found on the first request and cached for the process.
    """
    cand = _SPLIT_PRIMES[-1][0] - 4 if _SPLIT_PRIMES else 2**31 - 3
    while len(_SPLIT_PRIMES) < k:
        if cand % 3 and cand % 5 and _is_prime(cand):
            _SPLIT_PRIMES.append((cand, _root_of_minus_one(cand)))
        cand -= 4
    return _SPLIT_PRIMES[:k]


def _residues(xs: list[int], p: np.ndarray) -> np.ndarray:
    """xs mod every prime of the column p, shape (len(p), len(xs)).

    Each |x| is cut into 16-bit limbs and sum_j limb_j (2^(16j) mod p) is
    one int64 matrix product: a term is below 2^47, so 2^15 of them sum
    below 2^63.  Integers of any size then cost numpy passes, not a Python
    division per prime.
    """
    width = max([(abs(x).bit_length() + 15) // 16 for x in xs] + [1])
    raw = b"".join(abs(x).to_bytes(2 * width, "little") for x in xs)
    limbs = np.frombuffer(raw, dtype="<u2").reshape(len(xs), width).astype(np.int64)
    radix = np.ones((len(p), width), dtype=np.int64)
    for j in range(1, width):
        radix[:, j] = (radix[:, j - 1] << 16) % p[:, 0]
    r = np.zeros((len(p), len(xs)), dtype=np.int64)
    for lo in range(0, width, 1 << 15):
        r += radix[:, lo:lo + (1 << 15)] @ limbs[:, lo:lo + (1 << 15)].T % p
    r %= p
    return np.where([x < 0 for x in xs], (p - r) % p, r)


def _hessenberg(H: np.ndarray, mod: np.ndarray) -> None:
    """Reduce every H[b] to upper Hessenberg form mod mod[b], in place.

    Only similarities are applied (row/column swaps and eliminations), so
    each charpoly mod p is kept.  A lane whose pivot is 0 swaps in the first
    nonzero below it; a lane whose column is zero below the diagonal skips it.
    Entries stay in [0, p) with p < 2^31, so every product fits in int64 and
    is reduced before a row is summed.
    """
    n = H.shape[1]
    p2, p3 = mod[:, None], mod[:, None, None]
    moduli = mod.tolist()
    for m in range(1, n - 1):
        if not H[:, m + 1:, m - 1].any():
            continue
        first = np.argmax(H[:, m:, m - 1] != 0, axis=1)
        swap = np.flatnonzero(first)
        if swap.size:
            i = m + first[swap]
            H[swap, m], H[swap, i] = H[swap, i], H[swap, m]
            H[swap, :, m], H[swap, :, i] = H[swap, :, i], H[swap, :, m]
        inv = np.array(
            [pow(x, -1, q) if x else 0 for x, q in zip(H[:, m, m - 1].tolist(), moduli)],
            dtype=np.int64,
        )
        u = H[:, m + 1:, m - 1] * inv[:, None] % p2
        # H - u h lies in (-2^62, 2^31): one reduction per update
        H[:, m + 1:, m - 1:] = (H[:, m + 1:, m - 1:] - u[:, :, None] * H[:, m, None, m - 1:]) % p3
        H[:, :, m] = (H[:, :, m] + (H[:, :, m + 1:] * u[:, None, :] % p3).sum(axis=2)) % p2


def _hessenberg_charpoly(H: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """det(X*I - H[b]) mod mod[b], ascending, for upper Hessenberg H[b].

    p_0 = 1 and p_{k+1} = (X - h_kk) p_k - sum_i c_{k,i} p_{k-i} with
    c_{k,i} = t_{k,i} h_{k-i,k} and t_{k,i} = h_{k,k-1} t_{k-1,i-1} the
    products along the sub-diagonal; one numpy step per k.
    """
    nb, n, _ = H.shape
    p2, p3 = mod[:, None], mod[:, None, None]
    P = np.zeros((nb, n + 1, n + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    one = np.ones((nb, 1), dtype=np.int64)
    t = np.ones((nb, 0), dtype=np.int64)
    for k in range(n):
        nxt = P[:, k + 1]
        nxt[:, 1:k + 2] = P[:, k, :k + 1]
        nxt[:, :k + 1] -= H[:, k, k, None] * P[:, k, :k + 1] % p2
        if k:
            t = H[:, k, k - 1, None] * np.concatenate((one, t), axis=1) % p2
            c = t * H[:, k - 1::-1, k] % p2
            nxt[:, :k] -= (c[:, :, None] * P[:, k - 1::-1, :k] % p3).sum(axis=1)
        nxt %= p2
    return P[:, n]


def _crt_signed(residues: np.ndarray, primes: list[int]) -> list[int]:
    """The integers x_j with |x_j| < prod(primes)/2 and x_j = residues[b, j]
    mod primes[b]; the CRT constants are shared by every column j."""
    product = math.prod(primes)
    cofactors = [product // p for p in primes]
    inv = np.array([pow(c % p, -1, p) for c, p in zip(cofactors, primes)], dtype=np.int64)
    mod = np.array(primes, dtype=np.int64)[:, None]
    scaled = (residues * inv[:, None] % mod).astype(object)
    half = product // 2
    out = []
    for x in np.array(cofactors, dtype=object) @ scaled:
        x %= product
        out.append(x - product if x > half else x)
    return out


def _mod(xs: np.ndarray, p: np.ndarray) -> np.ndarray:
    """xs mod every prime of the column p, shape (len(p), len(xs))."""
    if xs.dtype == object:
        return _residues(xs.tolist(), p)
    return xs % p


def weighted_hermitian(M: IntMatrix, weights: np.ndarray) -> bool:
    """Whether c_j M_ij = c_i conj(M_ji) for all i, j, exactly, with c the
    positive integers weights: then diag(c)^(1/2) M diag(c)^(-1/2) is
    hermitian, so M is similar to a hermitian matrix and its charpoly is
    real.  Each entry is paired with its transpose by one lexsort; the
    products are int64 when a bound shows they fit, Python ints otherwise.
    """
    n = M.nrows
    if (M.ncols, len(weights)) != (n, n):
        raise ValueError(f"{len(weights)} weights for a {M.nrows} x {M.ncols} matrix")
    rows, cols = M.rows, M.cols
    # the entries in column-major order are those of the transpose, row-major
    t = np.lexsort((rows, cols))
    if not (np.array_equal(rows[t], cols) and np.array_equal(cols[t], rows)):
        return False
    top = M._largest() * int(weights.max()) if n else 0
    dtype = np.int64 if top < 2**63 else object
    c, re, im = weights.astype(dtype), M.re.astype(dtype), M.im.astype(dtype)
    ci, cj = c[rows], c[cols]
    return bool(np.array_equal(cj * re, ci * re[t]) and np.array_equal(cj * im, -(ci * im[t])))


def eigenvalues_above(M: IntMatrix, weights: np.ndarray, cutoff, lowest: float) -> bool:
    """True only if every eigenvalue of M exceeds the rational cutoff, by
    an exact proof; False where the proof does not go through, which
    proves nothing either way.  lowest is a float estimate of the
    smallest eigenvalue: it sets the float step, and a wrong one costs
    the proof, never its soundness.

    M must satisfy c_j M_ij = c_i conj(M_ji) for the positive integers
    weights c, which `weighted_hermitian` checks (ArithmeticError if it
    fails).  With cutoff a / b and den = M.den, A = b den M - a den I is
    then a Gaussian-integer matrix with c_j A_ij = c_i conj(A_ji), so
    H = A diag(c) is hermitian and congruent
    to diag(c)^(-1/2) H diag(c)^(-1/2), which is similar to A: H is
    positive definite exactly when every eigenvalue of M exceeds a / b.

    Floating point proposes and integers prove.  H_ii > 0 and
    |H_ij|^2 < H_ii H_jj are checked exactly, and H is scaled to
    G = T H T, T = diag(2^k_i), with every G_ii in [2^50, 2^52) and so,
    by the second check, every |G_ij| below 2^52.  The float Cholesky
    factor of G - delta diag(G), rounded to Gaussian integers R, leaves
    the exact residue E = G - R R^H, hermitian; if every E_ii exceeds the
    sum of |Re E_ij| + |Im E_ij| over j != i, E is positive definite
    (Gershgorin), and so is G = R R^H + E.  The smallest eigenvalue of
    G scaled to a unit diagonal is at least (lowest - a/b) / max_i
    (M_ii - a/b), and delta is half that, so that E keeps about delta
    diag(G), room for the rounding of R.  Every int64 step runs after a
    bound shows that it cannot wrap; an input past a bound (object
    entries or weights, a cutoff denominator near 2^52, more than 255
    rows) or a failed Cholesky gives False.
    """
    cutoff = Fraction(cutoff)
    if not lowest > cutoff:
        return False
    n, a, b = M.nrows, cutoff.numerator, cutoff.denominator
    if (M.ncols, len(weights)) != (n, n):
        raise ValueError(f"{len(weights)} weights for a {M.nrows} x {M.ncols} matrix")
    if not n:
        return True
    # R has entries below 2^27, so each entry of R R^H is below 2n 2^54,
    # and that of G - R R^H below 2^52 more
    if M.re.dtype == object or weights.dtype == object or 2 * n * 2**54 + 2**52 >= 2**63:
        return False
    # every |H_ij| is at most (b |den M_ij| + |a| den) c_j, below 2^52
    top = max(int(abs(M.re).max(initial=1)), int(abs(M.im).max(initial=0)))
    if (b * top + abs(a) * M.den) * int(weights.max()) >= 2**52:
        return False
    # H below is hermitian exactly when M is weighted-hermitian
    if not weighted_hermitian(M, weights):
        raise ArithmeticError("operator is not hermitian for its invariant weights")
    rows, cols, c = M.rows, M.cols, weights.astype(np.int64)
    Hre = np.zeros((n, n), dtype=np.int64)
    Him = np.zeros_like(Hre)
    Hre[rows, cols] = b * M.re * c[cols]
    Him[rows, cols] = b * M.im * c[cols]
    diag = np.arange(n)
    Hre[diag, diag] -= a * M.den * c
    h = Hre[diag, diag]
    if (h <= 0).any():
        return False
    # H is hermitian, so the entries above the diagonal are enough
    up = rows < cols
    i, j = rows[up], cols[up]
    x, y, hh = Hre[i, j].astype(object), Him[i, j].astype(object), h.astype(object)
    if not (x * x + y * y < hh[i] * hh[j]).all():
        return False
    # 0 < h < 2^52, so the factors 2^(k_i + k_j) <= 2^50 fit, and so, by
    # the check above, do the entries of G
    t = np.array([1 << (52 - v.bit_length()) // 2 for v in h.tolist()], dtype=np.int64)
    T = t[:, None] * t
    Gre, Gim = Hre * T, Him * T
    # lowest - a/b over max_i (M_ii - a/b) = max_i h_i / (b den c_i)
    delta = (lowest - float(cutoff)) * (b * M.den) / float((h // c).max()) / 2
    F = Gre + 1j * Gim
    F[diag, diag] *= 1 - delta
    try:
        L = np.linalg.cholesky(F)
    except np.linalg.LinAlgError:
        return False
    Rre, Rim = np.rint(L.real), np.rint(L.imag)
    # NaN fails the comparison too
    if not max(abs(Rre).max(), abs(Rim).max()) < 2**27:
        return False
    Rre, Rim = Rre.astype(np.int64), Rim.astype(np.int64)
    Ere = Gre - (Rre @ Rre.T + Rim @ Rim.T)
    Eim = Gim - (Rim @ Rre.T - Rre @ Rim.T)
    e = Ere[diag, diag]
    Ere[diag, diag] = 0
    Ere, Eim = abs(Ere), abs(Eim)
    # a row sum adds 2n entries, each below 2^63 / 2n
    if 2 * n * int(max(Ere.max(), Eim.max())) >= 2**63:
        return False
    return bool((e > (Ere + Eim).sum(axis=1)).all())


def _images(
    M: IntMatrix, weights: np.ndarray | None, prime: int | None
) -> tuple[list[int], np.ndarray]:
    """(primes, vals): the primes of M's lanes and, in row b, the nonzero
    entries of M's image mod primes[b], after the checks of `charpolys_gq`."""
    n = M.nrows
    if n != M.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    re, im = M.re, M.im
    if weights is None:
        if im.any():
            raise ValueError("a complex matrix needs the weights that make it hermitian")
    elif not weighted_hermitian(M, weights):
        raise ArithmeticError("operator is not hermitian for its invariant weights")
    if prime is not None:
        primes = [(prime, _root_of_minus_one(prime) if im.any() else 0)]
    else:
        rowsum = np.zeros(n, dtype=re.dtype)
        np.add.at(rowsum, M.rows, abs(re) + abs(im))
        r = int(rowsum.max(initial=0))
        bound = max(math.comb(n, k) * r**k for k in range(n + 1))
        primes, product = [], 1
        while product <= 2 * bound:
            primes = split_primes(len(primes) + 1)
            product *= primes[-1][0]
    p = np.array([q for q, _ in primes], dtype=np.int64)[:, None]
    vals = _mod(re, p)
    if im.any():
        iota = np.array([root for _, root in primes], dtype=np.int64)[:, None]
        vals = (vals + _mod(im, p) * iota % p) % p
    return p[:, 0].tolist(), vals


def charpolys_gq(
    Ms: Sequence[IntMatrix], weights: Sequence[np.ndarray | None], prime: int | None = None
) -> list[list[int]]:
    """Coefficients (ascending) of det(X*I - den*M), den = M.den, for every
    matrix M of Ms, weights[j] the weights of Ms[j] (None for a real
    matrix), in one modular pass per dimension.  Each is monic of degree
    n with integer coefficients, so that det(X*I - M) has the
    coefficients a_k / den^(n-k).

    Each M must be real, or come with weights c for which it is weighted
    hermitian (`weighted_hermitian`, ArithmeticError if not), so that its
    charpoly is real; a complex M without weights raises ValueError.  A =
    den*M has Gaussian integer entries (re + i im) and det(X*I - A) =
    sum a_k X^k with |a_k| <= B = max_k C(n,k) r^k, r the largest row sum
    of |Re| + |Im| (which bounds every eigenvalue).  For primes p = 1
    (mod 4) below 2^31, taken until their product exceeds 2B, the map
    i -> iota with iota^2 = -1 (mod p) sends A to a matrix mod p whose
    charpoly is the image of the real det(X*I - A), so one lane per prime
    gives it, and the CRT recovers the signed integers a_k.  With a prime
    p = 1 (mod 4) below 2^31, each matrix has the one lane at p, which
    gives the a_k mod p, in [0, p), with no bound and no CRT; the
    weighted-hermitian proof is the same.

    The lanes of all matrices of one dimension, one per (matrix, prime),
    are stacked in one array, reduced to Hessenberg form together and
    read by one recurrence; no matrix is padded to another's size.
    """
    if prime is not None and not (7 < prime < 2**31 and prime % 4 == 1 and _is_prime(prime)):
        raise ValueError(f"{prime} is not a prime = 1 (mod 4) below 2^31")
    images = [_images(M, w, prime) for M, w in zip(Ms, weights)]
    by_dim: dict[int, list[int]] = {}
    for j, M in enumerate(Ms):
        by_dim.setdefault(M.nrows, []).append(j)
    out: list[list[int]] = [[1] for _ in Ms]
    for n, js in by_dim.items():
        if n == 0:
            continue
        mod = np.array([q for j in js for q in images[j][0]], dtype=np.int64)
        H = np.zeros((len(mod), n, n), dtype=np.int64)
        start = 0
        for j in js:
            vals = images[j][1]
            H[start:start + len(vals), Ms[j].rows, Ms[j].cols] = vals
            start += len(vals)
        _hessenberg(H, mod)
        lanes = _hessenberg_charpoly(H, mod)
        start = 0
        for j in js:
            primes = images[j][0]
            got = lanes[start:start + len(primes)]
            out[j] = got[0].tolist() if prime is not None else _crt_signed(got, primes)
            start += len(primes)
    return out

