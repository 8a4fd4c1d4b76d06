"""Exact matrices: integers over one denominator, and sparse Q(i) rows.

``IntMatrix`` is the package's operator representation: (re + i im) / den
with integer re and im, the nonzero entries held row-major (columns
ascending) in four arrays rows, cols, re, im, and den the least common
denominator.  The arrays are int64 when a bound computed from the inputs
shows that every row sum of |re| + |im| fits; otherwise they hold Python
ints (dtype=object) and the same numpy code runs on them.  ``entries()``
yields Gaussian rationals for readers that want scalars, ``to_matrix()``
the sparse ``Matrix`` below, and ``from_matrix`` converts back.

``Matrix`` keeps rows as dicts keyed by column index holding nonzero
``GaussianRational`` entries, for the callers that multiply, compare or
Kronecker-multiply exact matrices (the pairs pipeline and the identity
checks).  There is no elimination over Q(i) here: the one invariant
subspace the package restricts to comes with a basis whose rows at known
positions form the identity, so restriction reads rows of a product.

The characteristic polynomial is multimodular and reads an ``IntMatrix``,
whose integers are its input as they stand.  A bound on the eigenvalues
(the largest row sum of |Re| + |Im|) bounds every coefficient by
max_k C(n,k) r^k.
Each prime p = 1 (mod 4) below 2^31 maps i to a square root of -1 mod p,
once for a real matrix and under both roots for a complex one, so that the
two images give the real and imaginary parts.  All images are stacked in
one int64 array and reduced to Hessenberg form together; the Hessenberg
recurrence gives each charpoly mod p, and the CRT, taken over enough primes
to exceed twice the bound, gives the exact integers.  The tests check it
against Faddeev-LeVerrier, an independent route over Gaussian integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .gaussian import GaussianRational, GQ, ZERO, ONE

MINUS_ONE = GQ(-1)

Rows = list[dict[int, GaussianRational]]


def _as_gq(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GQ(x)


class Matrix:
    """Sparse exact matrix; immutable by convention after construction."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Rows | None = None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [dict() for _ in range(nrows)]
        self.rows = rows

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: Iterable[Iterable]) -> "Matrix":
        rows: Rows = []
        width = None
        for r in dense:
            entries = [_as_gq(x) for x in r]
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError("ragged rows")
            rows.append({j: v for j, v in enumerate(entries) if v})
        return cls(len(rows), width or 0, rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [{i: ONE} for i in range(n)])

    @classmethod
    def diagonal(cls, values: Iterable) -> "Matrix":
        vals = [_as_gq(v) for v in values]
        rows = [{i: v} if v else {} for i, v in enumerate(vals)]
        return cls(len(vals), len(vals), rows)

    @classmethod
    def from_rows(cls, nrows: int, ncols: int, rows: Rows) -> "Matrix":
        clean = [{j: v for j, v in r.items() if v} for r in rows]
        return cls(nrows, ncols, clean)

    # -- queries -----------------------------------------------------------

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        return self.rows[i].get(j, ZERO)

    def entries(self) -> Iterator[tuple[int, int, GaussianRational]]:
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                yield i, j, v

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and all(
            a == b for a, b in zip(self.rows, other.rows)
        )

    __hash__ = None

    def is_zero_matrix(self) -> bool:
        return all(not r for r in self.rows)

    def is_real(self) -> bool:
        return all(v.is_real for _, _, v in self.entries())

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        rows: Rows = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra)
            for j, v in rb.items():
                s = row.get(j, ZERO) + v
                if s:
                    row[j] = s
                elif j in row:
                    del row[j]
            rows.append(row)
        return Matrix(self.nrows, self.ncols, rows)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (other * GQ(-1))

    def __neg__(self) -> "Matrix":
        return self * GQ(-1)

    def __mul__(self, c) -> "Matrix":
        c = _as_gq(c)
        if not c:
            return Matrix(self.nrows, self.ncols)
        rows = [{j: v * c for j, v in r.items()} for r in self.rows]
        return Matrix(self.nrows, self.ncols, rows)

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        acc: Rows = [dict() for _ in range(self.nrows)]
        add_product(acc, self, other, ONE)
        return Matrix.from_rows(self.nrows, other.ncols, acc)

    def conj(self) -> "Matrix":
        rows = [{j: v.conjugate() for j, v in r.items()} for r in self.rows]
        return Matrix(self.nrows, self.ncols, rows)

    def trace(self) -> GaussianRational:
        t = ZERO
        for i in range(min(self.nrows, self.ncols)):
            t = t + self.rows[i].get(i, ZERO)
        return t

    def kron(self, other: "Matrix") -> "Matrix":
        rows: Rows = [dict() for _ in range(self.nrows * other.nrows)]
        oentries = list(other.entries())
        for i1, j1, a in self.entries():
            base_i = i1 * other.nrows
            base_j = j1 * other.ncols
            if a == ONE:
                for i2, j2, b in oentries:
                    rows[base_i + i2][base_j + j2] = b
            else:
                for i2, j2, b in oentries:
                    rows[base_i + i2][base_j + j2] = a if b == ONE else a * b
        return Matrix(self.nrows * other.nrows, self.ncols * other.ncols, rows)


def add_product(acc: Rows, A: Matrix, B: Matrix, coeff: GaussianRational) -> None:
    """acc += coeff * A @ B, in place on raw row dicts."""
    if not coeff:
        return
    plain = coeff == ONE
    negated = coeff == MINUS_ONE
    brows = B.rows
    for i, arow in enumerate(A.rows):
        if not arow:
            continue
        ai = acc[i]
        for k, a in arow.items():
            if plain:
                ca = a
            elif negated:
                ca = -a
            else:
                ca = coeff * a
            for j, b in brows[k].items():
                prev = ai.get(j)
                s = ca * b if prev is None else prev + ca * b
                if s:
                    ai[j] = s
                elif prev is not None:
                    del ai[j]


# -- integers over one denominator ----------------------------------------------


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
    of the entries.
    """

    __slots__ = ("nrows", "ncols", "den", "rows", "cols", "re", "im")

    def __init__(self, nrows, ncols, den, rows, cols, re, im):
        if den != 1 and re.size:
            g = math.gcd(den, int(np.gcd.reduce(re)), int(np.gcd.reduce(im)))
            if g != 1:
                den, re, im = den // g, re // g, im // g
        self.nrows, self.ncols, self.den = nrows, ncols, den
        self.rows, self.cols, self.re, self.im = rows, cols, re, im

    @classmethod
    def from_matrix(cls, M: Matrix) -> "IntMatrix":
        den = 1
        for _, _, v in M.entries():
            den = math.lcm(den, v.re.denominator, v.im.denominator)
        rows, cols, re, im = [], [], [], []
        for i, row in enumerate(M.rows):
            for j in sorted(row):
                v = row[j]
                if v:
                    rows.append(i)
                    cols.append(j)
                    re.append(v.re.numerator * (den // v.re.denominator))
                    im.append(v.im.numerator * (den // v.im.denominator))
        bound = max(map(abs, re + im), default=0)
        dtype = entry_dtype(bound, max(map(len, M.rows), default=0))
        return cls(
            M.nrows, M.ncols, den,
            np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(re, dtype=dtype), np.array(im, dtype=dtype),
        )

    def entries(self) -> Iterator[tuple[int, int, GaussianRational]]:
        """(i, j, value) over the nonzero entries, row-major."""
        den = self.den
        # one scalar per distinct value: a Casimir operator has one value
        made: dict[tuple[int, int], GaussianRational] = {}
        for i, j, x, y in zip(
            self.rows.tolist(), self.cols.tolist(), self.re.tolist(), self.im.tolist()
        ):
            v = made.get((x, y))
            if v is None:
                v = GQ(x, y) if den == 1 else GQ(Fraction(x, den), Fraction(y, den))
                made[x, y] = v
            yield i, j, v

    def to_matrix(self) -> Matrix:
        rows: Rows = [dict() for _ in range(self.nrows)]
        for i, j, v in self.entries():
            rows[i][j] = v
        return Matrix(self.nrows, self.ncols, rows)

    def is_scalar(self, c) -> bool:
        """True iff self == c * identity, exactly, for a rational c."""
        n = self.nrows
        if n != self.ncols:
            return False
        x = Fraction(c) * self.den
        if not x:
            return self.re.size == 0
        return (
            x.denominator == 1
            and self.re.size == n
            and bool((self.rows == np.arange(n)).all())
            and bool((self.cols == self.rows).all())
            and bool((self.re == x.numerator).all())
            and not self.im.any()
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
        H[:, m + 1:, m - 1:] -= u[:, :, None] * H[:, m, None, m - 1:] % p3
        H[:, m + 1:, m - 1:] %= p3
        H[:, :, m] += (H[:, :, m + 1:] * u[:, None, :] % p3).sum(axis=2)
        H[:, :, m] %= p2


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


def charpoly_gq(M: IntMatrix) -> list[GaussianRational]:
    """Coefficients (ascending) of det(X*I - M), monic of degree n.

    Multimodular.  A = den*M has Gaussian integer entries (re + i im) and
    det(X*I - A) = sum a_k X^k with |a_k| <= B = max_k C(n,k) r^k, r the
    largest row sum of |Re| + |Im| (which bounds every eigenvalue).  For
    primes p = 1 (mod 4) below 2^31, taken until their product exceeds 2B,
    the map i -> iota with iota^2 = -1 (mod p) sends A to a matrix mod p
    whose charpoly is the image of det(X*I - A); all images are reduced to
    Hessenberg form at once.  A matrix with an imaginary entry is mapped
    under i -> -iota as well, and the two images give Re a_k and Im a_k
    mod p.  CRT recovers the signed integers, and the coefficients are
    a_k / den^(n-k).
    """
    n = M.nrows
    if n != M.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    if n == 0:
        return [ONE]
    den, re, im = M.den, M.re, M.im
    rowsum = np.zeros(n, dtype=re.dtype)
    np.add.at(rowsum, M.rows, abs(re) + abs(im))
    r = int(rowsum.max())
    bound = max(math.comb(n, k) * r**k for k in range(n + 1))
    primes, product = [], 1
    while product <= 2 * bound:
        primes = split_primes(len(primes) + 1)
        product *= primes[-1][0]
    plist = [p for p, _ in primes]
    p = np.array(plist, dtype=np.int64)[:, None]
    vals = _mod(re, p)
    complex_entries = bool(im.any())
    if complex_entries:
        # lanes 2j and 2j + 1 map i to iota_j and to -iota_j mod p_j
        iota = np.array([root for _, root in primes], dtype=np.int64)[:, None]
        ims = _mod(im, p) * iota % p
        vals = np.stack((vals + ims, vals - ims), axis=1).reshape(-1, re.size)
        mod = np.repeat(p[:, 0], 2)
        vals %= mod[:, None]
    else:
        mod = p[:, 0]
    H = np.zeros((len(mod), n, n), dtype=np.int64)
    H[:, M.rows, M.cols] = vals
    _hessenberg(H, mod)
    images = _hessenberg_charpoly(H, mod)

    if complex_entries:
        half = (p + 1) // 2
        a, b = images[0::2], images[1::2]
        re_res = (a + b) % p * half % p
        im_res = (b - a) % p * iota % p * half % p
        ints = _crt_signed(np.concatenate((re_res, im_res), axis=1), plist)
        re_c, im_c = ints[: n + 1], ints[n + 1:]
    else:
        re_c, im_c = _crt_signed(images, plist), [0] * (n + 1)
    out = []
    for k, (cr, ci) in enumerate(zip(re_c, im_c)):
        scale = den ** (n - k)
        out.append(GQ(Fraction(cr, scale), Fraction(ci, scale)))
    return out


# -- restriction to an invariant subspace -------------------------------------


def restrict_operator(D: Matrix, K: Matrix, pivots: list[int]) -> Matrix:
    """Matrix R of D on the span of the columns of K, so that D K = K R.

    Row pivots[k] of K must be the k-th unit row; then the columns of K are
    independent and R is read off as those rows of D K.  Invariance is
    verified exactly and violation raises ArithmeticError.
    """
    if len(pivots) != K.ncols or any(
        K.rows[a] != {k: ONE} for k, a in enumerate(pivots)
    ):
        raise ValueError("rows of K at the pivots are not the identity")
    DK = D @ K
    R = Matrix(K.ncols, K.ncols, [DK.rows[a] for a in pivots])
    if K @ R != DK:
        raise ArithmeticError("subspace is not invariant under the operator")
    return R

