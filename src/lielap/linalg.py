"""Exact sparse matrices over the Gaussian rationals.

Rows are dicts keyed by column index holding nonzero ``GaussianRational``
entries; representation matrices of Lie algebra generators are banded, so
products and Kronecker factors stay cheap at dimensions in the hundreds.
There is no elimination here: the one invariant subspace the package
restricts to comes with a basis whose rows at known positions form the
identity, so restriction reads rows of a product.

The characteristic polynomial uses the Faddeev-LeVerrier recurrence run
over Gaussian integers after clearing a common denominator: the recurrence
divides only by the step index k (exactly, asserted), so there is no
rational blowup mid-computation.  The matrix products in that loop run on
numpy object arrays, which iterate Python ints in a C loop.
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

    def is_scalar(self, c) -> bool:
        """True iff self == c * identity, exactly."""
        c = _as_gq(c)
        if self.nrows != self.ncols:
            return False
        for i, row in enumerate(self.rows):
            if c:
                if len(row) != 1 or row.get(i) != c:
                    return False
            elif row:
                return False
        return True

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


# -- exact characteristic polynomial -----------------------------------------


def charpoly_gq(M: Matrix) -> list[GaussianRational]:
    """Coefficients (ascending) of det(X*I - M), monic of degree n.

    Faddeev-LeVerrier over Gaussian integers: with d the lcm of all entry
    denominators and B = d*M, the recurrence
        N_1 = B,  c_{n-k} = -tr(B N_{k-1} ...)/k,  N_k = B N_{k-1} + c_{n-k} I
    stays integral; det(X*I - M) coefficients are c_k / d^(n-k).
    """
    n = M.nrows
    if n != M.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    if n == 0:
        return [ONE]
    den = 1
    for _, _, v in M.entries():
        den = math.lcm(den, v.re.denominator, v.im.denominator)
    RE = np.zeros((n, n), dtype=object)
    IM = np.zeros((n, n), dtype=object)
    for i, j, v in M.entries():
        RE[i, j] = int(v.re * den)
        IM[i, j] = int(v.im * den)
    mre = np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)], dtype=object)
    mim = np.zeros((n, n), dtype=object)
    idx = np.arange(n)
    coeffs_int: list[tuple[int, int]] = [(0, 0)] * (n + 1)
    coeffs_int[n] = (1, 0)
    for k in range(1, n + 1):
        pre = RE.dot(mre) - IM.dot(mim)
        pim = RE.dot(mim) + IM.dot(mre)
        trr = int(sum(pre[idx, idx]))
        tri = int(sum(pim[idx, idx]))
        if trr % k or tri % k:
            raise ArithmeticError("Faddeev-LeVerrier divisibility violated")
        cr, ci = -(trr // k), -(tri // k)
        coeffs_int[n - k] = (cr, ci)
        if k < n:
            pre[idx, idx] += cr
            pim[idx, idx] += ci
            mre, mim = pre, pim
    out = []
    for k, (cr, ci) in enumerate(coeffs_int):
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

