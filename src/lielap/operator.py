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

The numeric path conjugates D by the diagonal square-root of the invariant
inner product weights, which makes it honestly hermitian, then uses the
dense hermitian eigensolver and clusters eigenvalues by relative gap.  It
is a cross-check only: verdicts always come from the exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra_core import (
    GroupSpec,
    SymTensor,
    build_group_spec,
    embed_factor_tensor,
    identity_tensor,
)
from .errors import DomainError
from .irreps import PHASES, IrrepLabel, orthonormal_weights, su2_bands
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
def _spin_table(m: int) -> np.ndarray:
    """The bands of the spin-m triple and of its products, shape (12, 5,
    m + 1): row 3a + b is G_a G_b and row 9 + a is G_a (su2_bands), and
    [row, 2 + s, i] is the entry (i, i + s), 0 out of range.  The entries
    are below (m + 2)^2, which int32 holds for any spin one would build."""
    d = m + 1
    # offsets -1..1 of each G_a, padded by one zero column on either side
    G = np.zeros((3, 3, d + 2), dtype=np.int64)
    for a, band in enumerate(su2_bands(m)):
        for s, vals in band.items():
            G[a, 1 + s, 1:-1] = vals
    table = np.zeros((12, 5, d), dtype=np.int32 if (m + 2) ** 2 < 2**31 else np.int64)
    table[9:, 1:4] = G[:, :, 1:-1]
    for s in range(3):
        for t in range(3):
            # (G_a G_b)[i, i+s+t-2] = G_a[i, i+s-1] G_b[i+s-1, i+s+t-2]
            table[:9, s + t] += (G[:, None, s, 1:-1] * G[None, :, t, s:s + d]).reshape(9, d)
    return table


@lru_cache(maxsize=8)
def _band_layout(k: int) -> tuple[np.ndarray, list[np.ndarray], dict]:
    """The bands on k SU(2) factors: their offset tuples (zero first), for
    each factor j the indices of the offsets -2..2 in j, and for each pair
    j < j2 those of the offsets (s, t) in {-1, 0, 1}^2, s major."""
    index = {(0,) * k: 0}

    def at(offset: dict) -> int:
        return index.setdefault(tuple(offset.get(j, 0) for j in range(k)), len(index))

    single = [np.array([at({j: s}) for s in range(-2, 3)]) for j in range(k)]
    pairs = {
        (j, j2): np.array([at({j: s, j2: t}) for s in (-1, 0, 1) for t in (-1, 0, 1)])
        for j in range(k) for j2 in range(j + 1, k)
    }
    return np.array(list(index), dtype=np.int64).reshape(len(index), k), single, pairs


# (Re, Im) of i^(PHASES[a] + PHASES[b]), the phase of g_a g_b, and of
# i^(1 + PHASES[a]), that of (i l_e) g_a
_RE_IM = np.array([[1, 0, -1, 0], [0, 1, 0, -1]])
_PAIR = _RE_IM[:, np.add.outer(PHASES, PHASES) % 4]
_TORUS = _RE_IM[:, (np.array(PHASES) + 1) % 4]

def build_DV(spec: GroupSpec, lab: IrrepLabel, tensor: SymTensor) -> OperatorMatrix:
    """Exact matrix of D_V(s) on the irreducible with label lab."""
    if tensor.n != spec.dim:
        raise DomainError(
            f"tensor has size {tensor.n}, algebra has dimension {spec.dim}"
        )
    if len(lab.spins) != spec.k or len(lab.weight) != spec.n:
        raise DomainError("label shape does not match the group")
    k, su = spec.k, 3 * spec.k
    den, scaled = tensor.integer_form
    keys, single, pairs = _band_layout(k)
    dims = [m + 1 for m in lab.spins]
    total = math.prod(dims)
    # every generator row sum of |entries| is at most m + 2 (su2) or |l_e|;
    # r >= 1 keeps den * S itself under the bound
    r = max([1] + [m + 2 for m in lab.spins] + [abs(x) for x in lab.weight])
    dtype = entry_dtype(sum(abs(x) for row in scaled for x in row) * r * r, len(keys))
    S = np.array(scaled, dtype=dtype)
    w = np.array(lab.weight, dtype=dtype)
    # real and imaginary parts of den * D, band by band over the multi-index
    bands = np.zeros((2, len(keys), *dims), dtype=dtype)

    # torus-torus: -S_ef (i l_e)(i l_f) = S_ef l_e l_f on the identity
    bands[0, 0] = w @ S[su:, su:] @ w
    # torus-SU(2), both orders: -2 S_pe (i l_e) g_a, per factor and a
    lin = -2 * _TORUS[:, None, :] * (S[:su, su:] @ w).reshape(k, 3)
    blocks = S[:su, :su].reshape(k, 3, k, 3)
    tables = [_spin_table(m).astype(dtype, copy=False) for m in lab.spins]
    for j, d in enumerate(dims):
        # -S_ab g_a g_b on the rows 3a + b of the table, the torus part on 9 + a
        coef = np.concatenate((-(blocks[j, :, j] * _PAIR).reshape(2, 9), lin[:, j]), axis=1)
        block = coef @ tables[j].reshape(12, 5 * d)
        bands[:, single[j]] += block.reshape(2, 5, *[d if i == j else 1 for i in range(k)])
        # cross-factor terms, both orders: -2 S_pq g_a x g_b
        for j2 in range(j + 1, k):
            c = -2 * blocks[j, :, j2] * _PAIR
            if not c.any():
                continue
            d2 = dims[j2]
            g, g2 = tables[j][9:, 1:4].reshape(3, 3 * d), tables[j2][9:, 1:4].reshape(3, 3 * d2)
            # [part, s, t, i, i2] = sum_ab c[part, a, b] G_a[i, i+s] G_b[i2, i2+t]
            x = (g.T @ (c @ g2)).reshape(2, 3, d, 3, d2).transpose(0, 1, 3, 2, 4)
            spread = [dims[i] if i in (j, j2) else 1 for i in range(k)]
            bands[:, pairs[j, j2]] += x.reshape(2, 9, *spread)

    # row-major read-out: bands sorted by flat column offset, so columns
    # ascend within a row; two bands with one flat offset never both reach
    # a column in range, since the column's multi-index fixes the band
    strides = [math.prod(dims[j + 1:]) for j in range(k)]
    offsets = keys @ np.array(strides, dtype=np.int64)
    order = np.argsort(offsets, kind="stable")
    re, im = bands.reshape(2, len(keys), total)[:, order].transpose(0, 2, 1)
    rows, band = np.nonzero((re != 0) | (im != 0))
    matrix = IntMatrix(
        total, total, den, rows, rows + offsets[order][band], re[rows, band], im[rows, band]
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


def eigen_decompose_numeric(op: OperatorMatrix, tol: float = 1e-8) -> NumericSpectrum:
    """Hermitian eigenvalues of D in an orthonormal basis, clustered.

    The monomial basis is orthogonal but not normalized; conjugating by
    diag(sqrt(w)) with w the squared norms yields an honestly hermitian
    matrix.  If the conjugated matrix fails hermiticity beyond rounding,
    the operator construction is broken and this raises ArithmeticError.
    """
    n = op.dim
    if n == 0:
        return NumericSpectrum((), (), tol)
    w = orthonormal_weights(op.label)
    M = op.matrix
    rows, cols = M.rows.tolist(), M.cols.tolist()
    # int / int is correctly rounded: the weights are huge factorials but
    # their ratios along matrix bands stay small
    ratio = np.array([math.sqrt(w[i] / w[j]) for i, j in zip(rows, cols)])
    values = np.array([complex(x / M.den, y / M.den) for x, y in zip(M.re.tolist(), M.im.tolist())])
    C = np.zeros((n, n), dtype=complex)
    C[rows, cols] = values * ratio
    scale = max(1.0, float(np.max(np.abs(C))) if n else 1.0)
    asym = float(np.max(np.abs(C - C.conj().T)))
    if asym > 1e-9 * scale:
        raise ArithmeticError(
            f"operator is not hermitian after conjugation (residue {asym:g})"
        )
    evals = np.linalg.eigvalsh((C + C.conj().T) / 2)
    eigenvalues = tuple(float(x) for x in evals)
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
