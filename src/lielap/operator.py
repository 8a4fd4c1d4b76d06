"""Laplace-type operators D_V(s) and their numeric cross-check path.

For a symmetric coefficient matrix S the operator on the irreducible V is

    D_V(s) = - sum_{p,q} S_pq rho_*(X_p) rho_*(X_q),

exact and independent of how s is written as a sum of symmetric products
because S is symmetric.  With s the tensor of a metric-orthonormal basis
(the exact inverse of the gram matrix) this is the Laplace operator on the
V-isotypic part; with the identity tensor it is the Casimir element.

D_V(s) is assembled from the product structure of V = V_m1 x ... x V_mk x
C_l as an ``IntMatrix``: integers over the common denominator of S, by
which S is scaled once per tensor.  Each su(2) generator is i^phase times
an integer matrix (H and A imaginary, B real), and the operator is held
band by band: a band is a tuple of per-factor offsets (at most two nonzero,
each in -2..2) with an integer array over the row multi-index, so work and
memory go as bands x dim V.  The terms are broadcast into their bands:

- single-factor blocks: for each SU(2) factor j, B_j = -sum_ab S_ab g_a g_b
  over its own directions, one product of its coefficients with a per-spin
  table of the bands of g_a g_b;
- cross-factor terms: for p, q in distinct SU(2) factors the two orderings
  commute and give -2 S_pq (g_p x g_q), an outer product of factor bands;
- torus scalars: a torus direction e acts as i*l_e, so torus-torus terms
  give (sum S_ef l_e l_f) I and torus-SU(2) terms add -2 i l_e S_pe g_p to
  the block of p.

The bands, sorted by flat column offset, are read out row-major as the
nonzero entries.  The arrays are int64 when a bound (sum |den S_pq| times
the square of the largest generator row sum) shows that every row sum
fits, and Python ints (dtype=object) otherwise, on the same code.

A label pays only for its band arithmetic, the nonzero read-out and the
``IntMatrix``; the rest is done once and kept:

- per tensor (`tensor_form`, kept on the tensor as
  ``SymTensor.operator_form``, so it lives and dies with it): den, the sum
  of |den S_pq| of the bound, and the phase-weighted coefficient blocks
  of every factor and pair of factors, with the zero test of each pair;
- per tuple of spins (`_shape_layout`, a bounded cache): the band offsets
  sorted by flat column offset and each term's positions among them, so
  the terms are added straight into read-out order;
- per spin (`_spin_table`, a bounded cache): the integer bands of the
  triple and of its products, in int32.  The int64 products upcast them as
  they read them; int64 copies would double the memory of every cached
  table.  The object route converts the tables of its label.

The numeric path conjugates D by the diagonal square-root of the invariant
inner product weights, which makes it honestly hermitian, then uses the
dense hermitian eigensolver (`hermitian_eigenvalues`) and clusters
eigenvalues by relative gap.  Its values are hints for root isolation and a
cross-check only: verdicts always come from the exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra_core import (
    GroupSpec,
    SymTensor,
    build_group_spec,
    embed_factor_tensor,
    identity_tensor,
)
from .errors import DomainError
from .irreps import PHASES, IrrepLabel, su2_bands
from .linalg import IntMatrix, entry_dtype


@dataclass(eq=False)
class OperatorMatrix:
    """Exact matrix of D_V(s) together with its provenance."""

    spec: GroupSpec
    label: IrrepLabel
    tensor: SymTensor
    matrix: IntMatrix

    @property
    def dim(self) -> int:
        return self.matrix.nrows


def casimir_tensor(spec: GroupSpec) -> SymTensor:
    """The identity coefficient matrix: sum of squares of the basis."""
    return identity_tensor(spec.dim)


@lru_cache(maxsize=256)
def _spin_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The bands of the spin-m triple's products and of the triple itself
    (su2_bands), shapes (9, 5 (m + 1)) and (3, 3 (m + 1)): [3a + b, 5 i + s]
    is the entry (i, i + s - 2) of G_a G_b and [a, 3 i + s] that (i, i + s
    - 1) of G_a, 0 out of range.  The entries are below (m + 2)^2, which
    int32 holds for any spin one would build."""
    d = m + 1
    # offsets -1..1 of each G_a, padded by one zero column on either side
    G = np.zeros((3, 3, d + 2), dtype=np.int64)
    G[:, :, 1:-1] = su2_bands(m)
    products = np.zeros((3, 3, 5, d), dtype=np.int64)
    for s in range(3):
        # (G_a G_b)[i, i+s+t-2] = G_a[i, i+s-1] G_b[i+s-1, i+s+t-2], t = 0..2
        products[:, :, s:s + 3] += G[:, None, None, s, 1:-1] * G[None, :, :, s:s + d]
    dtype = np.int32 if (m + 2) ** 2 < 2**31 else np.int64
    return (products.transpose(0, 1, 3, 2).astype(dtype).reshape(9, 5 * d),
            G[:, :, 1:-1].transpose(0, 2, 1).astype(dtype).reshape(3, 3 * d))


@lru_cache(maxsize=8)
def _band_layout(k: int) -> tuple[np.ndarray, list[np.ndarray], dict]:
    """The bands on k SU(2) factors: their offset tuples (zero first), for
    each factor j the indices of the offsets -2, -1, 1, 2 in j, and for each
    pair j < j2 those of the offsets (s, t) in {-1, 0, 1}^2, s major."""
    index = {(0,) * k: 0}

    def at(offset: dict) -> int:
        return index.setdefault(tuple(offset.get(j, 0) for j in range(k)), len(index))

    single = [np.array([at({j: s}) for s in (-2, -1, 1, 2)]) for j in range(k)]
    pairs = {
        (j, j2): np.array([at({j: s, j2: t}) for s in (-1, 0, 1) for t in (-1, 0, 1)])
        for j in range(k) for j2 in range(j + 1, k)
    }
    return np.array(list(index), dtype=np.int64).reshape(len(index), k), single, pairs


class _ShapeLayout(NamedTuple):
    """The layout of D_V on one tuple of spins, bands in read-out order."""

    dims: tuple[int, ...]
    total: int
    zero: int  # position of the zero offset
    reach: int  # bound on every su(2) generator row sum of |entries|, >= 1
    offsets: np.ndarray  # flat column offset of each band, ascending
    single: list  # per factor j: (positions of its offsets -2, -1, 1, 2, block shape)
    pairs: dict  # per pair j < j2: (positions of its offsets (s, t), block shape)


@lru_cache(maxsize=4096)
def _shape_layout(spins: tuple[int, ...]) -> _ShapeLayout:
    """The bands on the irreducibles with these spins, sorted by flat
    column offset (stably), so that reading them row by row gives columns
    in ascending order."""
    k, dims = len(spins), tuple(m + 1 for m in spins)
    keys, single, pairs = _band_layout(k)
    offsets = keys @ np.array([math.prod(dims[j + 1:]) for j in range(k)], dtype=np.int64)
    order = np.argsort(offsets, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))

    def shape(factors, nbands: int) -> tuple[int, ...]:
        return (2, *[dims[i] if i in factors else 1 for i in range(k)], nbands)

    return _ShapeLayout(
        dims, math.prod(dims), int(position[0]), max([1] + [m + 2 for m in spins]), offsets[order],
        [(position[idx], shape((j,), 4)) for j, idx in enumerate(single)],
        {jj: (position[idx], shape(jj, 9)) for jj, idx in pairs.items()},
    )


# (Re, Im) of i^(PHASES[a] + PHASES[b]), the phase of g_a g_b, and of
# i^(1 + PHASES[a]), that of (i l_e) g_a
_RE_IM = np.array([[1, 0, -1, 0], [0, 1, 0, -1]])
_PAIR = _RE_IM[:, np.add.outer(PHASES, PHASES) % 4]
_TORUS = _RE_IM[:, (np.array(PHASES) + 1) % 4]
# the offsets -2, -1, 1, 2 among -2..2
_NONZERO = np.array([0, 1, 3, 4])


class TensorForm(NamedTuple):
    """The part of build_DV that depends on the tensor alone (see
    `tensor_form`), kept on the tensor as `SymTensor.operator_form`."""

    den: int
    size: int  # sum of |den S_pq|, the tensor's part of the int64/object bound
    S: np.ndarray  # den * S
    single: list  # per factor j, (2, 9): -S_ab times the phase of g_a g_b
    cross: dict  # per pair j < j2 with a nonzero block, (2, 3, 3): -2 S_ab times that phase
    torus: np.ndarray  # (2, n, n): -2 S_pe times the phase of (i l_e) g_p


def tensor_form(tensor: SymTensor) -> TensorForm:
    """den * S and its phase-weighted blocks, in int64 when they fit and in
    Python ints otherwise; on the object route int64 blocks are upcast by
    the arithmetic with the label's object arrays.  Index p of S is read as
    direction p mod 3 of SU(2) factor p // 3, which it is on every group of
    the tensor's size that has that factor, so the blocks do not depend on
    the group."""
    den, scaled = tensor.integer_form
    size = sum(abs(x) for row in scaled for x in row)
    # every block entry is at most 2 * size
    S = np.array(scaled, dtype=entry_dtype(size, 1))
    a = np.arange(len(S)) % 3
    W = -S * _PAIR[:, a[:, None], a]
    q = len(S) // 3

    def block(j: int, j2: int) -> np.ndarray:
        return W[:, 3 * j:3 * j + 3, 3 * j2:3 * j2 + 3]

    return TensorForm(
        den, size, S,
        [block(j, j).reshape(2, 9) for j in range(q)],
        {(j, j2): 2 * block(j, j2) for j in range(q) for j2 in range(j + 1, q) if block(j, j2).any()},
        -2 * _TORUS[:, a, None] * S,
    )


def build_DV(spec: GroupSpec, lab: IrrepLabel, tensor: SymTensor) -> OperatorMatrix:
    """Exact matrix of D_V(s) on the irreducible with label lab."""
    if tensor.n != spec.dim:
        raise DomainError(
            f"tensor has size {tensor.n}, algebra has dimension {spec.dim}"
        )
    if len(lab.spins) != spec.k or len(lab.weight) != spec.n:
        raise DomainError("label shape does not match the group")
    k, su = spec.k, 3 * spec.k
    form, layout = tensor.operator_form, _shape_layout(lab.spins)
    nbands = len(layout.offsets)
    # every generator row sum of |entries| is at most m + 2 (su2) or |l_e|;
    # r >= 1 keeps den * S itself under the bound
    r = max([layout.reach] + [abs(x) for x in lab.weight])
    dtype = entry_dtype(form.size * r * r, nbands)
    # real and imaginary parts of den * D over the row multi-index, band by band
    bands = np.zeros((2, *layout.dims, nbands), dtype=dtype)

    lin = None
    if spec.n:
        w = np.array(lab.weight, dtype=dtype)
        # torus-torus: -S_ef (i l_e)(i l_f) = S_ef l_e l_f on the identity
        bands[0, ..., layout.zero] = w @ form.S[su:, su:] @ w
        # torus-SU(2), both orders: -2 S_pe (i l_e) g_a, per factor and a
        lin = (form.torus[:, :su, su:] @ w).reshape(2, k, 3)
    tables = [_spin_table(m) for m in lab.spins]
    if dtype is object:
        tables = [(p.astype(object), g.astype(object)) for p, g in tables]
    for j, (d, (products, g)) in enumerate(zip(layout.dims, tables)):
        # -S_ab g_a g_b on the offsets -2..2, the torus part on -1..1
        block = (form.single[j] @ products).reshape(2, d, 5)
        if lin is not None:
            block[..., 1:4] += (lin[:, j] @ g).reshape(2, d, 3)
        # the nonzero offsets of factor j are its own bands, so they are
        # assigned (cheaper than adding through an index); all share offset 0
        at, spread = layout.single[j]
        bands[..., at] = block[..., _NONZERO].reshape(spread)
        bands[..., layout.zero] += block[..., 2].reshape(spread[:-1])
    # cross-factor terms, both orders: -2 S_pq g_a x g_b, on bands that the
    # single-factor terms may have written, so after them and added
    for (j, j2), c in form.cross.items():
        if j2 >= k:
            continue
        d, d2 = layout.dims[j], layout.dims[j2]
        # x[part, (i, s), (i2, t)] = sum_ab c[part, a, b] G_a[i, i+s] G_b[i2, i2+t]
        x = tables[j][1].T @ (c @ tables[j2][1])
        at, spread = layout.pairs[j, j2]
        bands[..., at] += x.reshape(2, d, 3, d2, 3).transpose(0, 1, 3, 2, 4).reshape(spread)

    # row-major read-out: the bands are sorted by flat column offset, so
    # columns ascend within a row; two bands with one flat offset never both
    # reach a column in range, since the column's multi-index fixes the band
    re, im = bands.reshape(2, layout.total * nbands)
    at = np.flatnonzero(re | im)
    rows, band = np.divmod(at, nbands)
    matrix = IntMatrix(
        layout.total, layout.total, form.den, rows, rows + layout.offsets[band], re[at], im[at]
    )
    return OperatorMatrix(spec=spec, label=lab, tensor=tensor, matrix=matrix)


# -- numeric cross-check -------------------------------------------------------


@dataclass(frozen=True)
class NumericSpectrum:
    eigenvalues: tuple[float, ...]
    clusters: tuple[tuple[float, int], ...]
    tolerance: float


def cluster_values(values, tol: float) -> tuple[tuple[float, int], ...]:
    """Group sorted values whose gaps are below tol * max(1, scale)."""
    vals = sorted(values)
    if not vals:
        return ()
    scale = max(1.0, max(abs(v) for v in vals))
    thresh = tol * scale
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > thresh:
            chunk = vals[start:i]
            clusters.append((sum(chunk) / len(chunk), len(chunk)))
            start = i
    return tuple(clusters)


@lru_cache(maxsize=4096)
def _half_weights(spins: tuple[int, ...]) -> np.ndarray:
    """sqrt(w) up to one constant factor, w the squared norms prod_j l_j!
    (m_j - l_j)! of the monomial basis in Kronecker order (first factor
    slowest): prod_j C(m_j, l_j)^(-1/2), since l! (m - l)! = m! / C(m, l).
    Read-only, as the cache shares it."""
    out = np.ones(1)
    for m in spins:
        out = np.multiply.outer(out, [math.comb(m, l) ** -0.5 for l in range(m + 1)]).ravel()
    out.flags.writeable = False
    return out


def hermitian_eigenvalues(op: OperatorMatrix) -> np.ndarray:
    """The eigenvalues of D in increasing order, in floating point.

    The monomial basis is orthogonal but not normalized; conjugating by
    diag(sqrt(w)) with w the squared norms yields an honestly hermitian
    matrix.  If the conjugated matrix fails hermiticity beyond rounding,
    the operator construction is broken and this raises ArithmeticError.
    """
    n = op.dim
    if n == 0:
        return np.zeros(0)
    M = op.matrix
    d = _half_weights(op.label.spins)
    C = np.zeros((n, n), dtype=complex)
    C[M.rows, M.cols] = (M.re + 1j * M.im) * (d[M.rows] / d[M.cols] / float(M.den))
    H = C.conj().T
    scale = max(1.0, float(abs(C).max()))
    asym = float(abs(C - H).max())
    if asym > 1e-9 * scale:
        raise ArithmeticError(
            f"operator is not hermitian after conjugation (residue {asym:g})"
        )
    return np.linalg.eigvalsh((C + H) / 2)


def eigen_decompose_numeric(op: OperatorMatrix, tol: float = 1e-8) -> NumericSpectrum:
    """Hermitian eigenvalues of D in an orthonormal basis
    (`hermitian_eigenvalues`), clustered by relative gap."""
    eigenvalues = tuple(hermitian_eigenvalues(op).tolist())
    return NumericSpectrum(eigenvalues, cluster_values(eigenvalues, tol), tol)


def factor_spec_and_label(
    spec: GroupSpec, lab: IrrepLabel, factor: int
) -> tuple[GroupSpec, IrrepLabel]:
    """The standalone group and label of one factor block."""
    if factor < spec.k:
        return build_group_spec(1, 0), IrrepLabel((lab.spins[factor],), ())
    if spec.n == 0:
        raise DomainError("no torus block")
    return build_group_spec(0, spec.n), IrrepLabel((), lab.weight)


def kronecker_spectrum_check(
    spec: GroupSpec,
    lab: IrrepLabel,
    s1: SymTensor,
    s2: SymTensor,
    eps,
    tol: float = 1e-8,
) -> bool:
    """Verify the product structure of D on a two-block group.

    Exact half: the operator of iota_1(s1) + eps * iota_2(s2) built on the
    product equals the Kronecker sum D_1 x I + eps I x D_2 of the factor
    operators, entry for entry.  build_DV itself assembles D from factor
    blocks, so this half checks the embedding of the blocks rather than
    the operator independently.  Numeric half: its clustered spectrum is
    the Minkowski multiset {mu_i + eps nu_j} within clustering tolerance.
    """
    if spec.factor_count != 2:
        raise DomainError("kronecker_spectrum_check needs exactly two factor blocks")
    eps = Fraction(eps)
    full = embed_factor_tensor(spec, 0, s1) + embed_factor_tensor(spec, 1, s2).scale(eps)
    D_full = build_DV(spec, lab, full)

    spec1, lab1 = factor_spec_and_label(spec, lab, 0)
    spec2, lab2 = factor_spec_and_label(spec, lab, 1)
    D1 = build_DV(spec1, lab1, s1)
    D2 = build_DV(spec2, lab2, s2)
    I1 = IntMatrix.identity(D1.dim)
    I2 = IntMatrix.identity(D2.dim)
    ksum = D1.matrix.kron(I2) + I1.kron(D2.matrix) * eps
    if D_full.matrix != ksum:
        return False

    n1 = eigen_decompose_numeric(D1, tol)
    n2 = eigen_decompose_numeric(D2, tol)
    feps = float(eps)
    sums = sorted(
        mu + feps * nu for mu in n1.eigenvalues for nu in n2.eigenvalues
    )
    got = sorted(eigen_decompose_numeric(D_full, tol).eigenvalues)
    if len(sums) != len(got):
        return False
    scale = max(1.0, max(abs(v) for v in sums + got))
    return all(abs(a - b) <= tol * scale for a, b in zip(sums, got))
