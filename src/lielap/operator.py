"""Laplace-type operators D_V(s) and their numeric cross-check path.

For a symmetric coefficient matrix S the operator on the irreducible V is

    D_V(s) = - sum_{p,q} S_pq rho_*(X_p) rho_*(X_q),

exact and independent of how s is written as a sum of symmetric products
because S is symmetric.  With s the tensor of a metric-orthonormal basis
(the exact inverse of the gram matrix) this is the Laplace operator on the
V-isotypic part; with the identity tensor it is the Casimir element.

D_V(s) is assembled from the product structure of V = V_m1 x ... x V_mk x
C_l rather than from full-size generator matrices.  Each su(2) generator is
i^phase times an integer matrix (H and A imaginary, B real), so every term
below is a real or imaginary integer matrix once S is scaled by the common
denominator of its entries:

- single-factor blocks: for each SU(2) factor j the (m_j+1)x(m_j+1) block
  B_j = -sum_ab S_ab g_a g_b over its own basis directions, from products
  g_a g_b cached per spin, Kronecker-embedded as I x B_j x I;
- cross-factor terms: for directions p, q in distinct SU(2) factors the two
  orderings commute and give -2 S_pq (g_p x g_q), embedded the same way;
- torus scalars: a torus direction e acts as the scalar i*l_e, so
  torus-torus terms give (sum S_ef l_e l_f) I and torus-SU(2) terms add
  -2 i l_e S_pe g_p to the single-factor block of p.

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
from .gaussian import GQ
from .irreps import PHASES, IrrepLabel, orthonormal_weights, su2_bands
from .linalg import Matrix


@dataclass(eq=False)
class OperatorMatrix:
    """Exact matrix of D_V(s) together with its provenance."""

    spec: GroupSpec
    label: IrrepLabel
    tensor: SymTensor
    matrix: Matrix

    @property
    def dim(self) -> int:
        return self.matrix.nrows


def casimir_tensor(spec: GroupSpec) -> SymTensor:
    """The identity coefficient matrix: sum of squares of the basis."""
    return identity_tensor(spec.dim)


@lru_cache(maxsize=128)
def _integer_products(m: int) -> tuple[tuple[dict, ...], ...]:
    """[a][b] -> G_a G_b for the spin-m triple, as bands (see su2_bands)."""
    d = m + 1
    gens = su2_bands(m)

    def mul(x: dict, y: dict) -> dict:
        out: dict[int, list[int]] = {}
        for s, xs in x.items():
            lo, hi = max(0, -s), min(d, d - s)
            for t, ys in y.items():
                acc = out.setdefault(s + t, [0] * d)
                acc[lo:hi] = [
                    p + u * v
                    for p, u, v in zip(acc[lo:hi], xs[lo:hi], ys[lo + s:hi + s])
                ]
        return {s: tuple(vals) for s, vals in out.items()}

    return tuple(tuple(mul(x, y) for y in gens) for x in gens)


def _part(parts: tuple[dict, dict], coeff: int, phase: int) -> tuple[dict, int]:
    """The real or imaginary part that coeff * i^phase lands in, and its sign."""
    return parts[phase % 2], (-coeff if phase % 4 >= 2 else coeff)


def _axpy(parts: tuple[dict, dict], band: dict, coeff: int, phase: int) -> None:
    """parts += coeff * i^phase * band, on a pair of bands."""
    if coeff:
        part, c = _part(parts, coeff, phase)
        for s, vals in band.items():
            prev = part.get(s) or [0] * len(vals)
            part[s] = [p + c * v for p, v in zip(prev, vals)]


def _kron_add(
    parts: tuple[dict, dict],
    dims: list[int],
    factors: dict[int, dict],
    coeff: int,
    phase: int,
) -> None:
    """parts += coeff * i^phase * (X_0 x X_1 x ...) with X_j the band
    factors[j], or the identity where j is absent; parts are keyed by the
    flat index row * N + col."""
    part, scaled = _part(parts, coeff, phase)
    entries = [(0, 0, scaled)]
    for j, d in enumerate(dims):
        band = factors.get(j)
        if band is None:
            entries = [
                (r * d + t, c * d + t, v) for r, c, v in entries for t in range(d)
            ]
        else:
            items = [
                (i, i + s, w) for s, ws in band.items() for i, w in enumerate(ws) if w
            ]
            entries = [
                (r * d + i, c * d + k, v * w)
                for r, c, v in entries
                for i, k, w in items
            ]
    n = math.prod(dims)
    for r, c, v in entries:
        key = r * n + c
        part[key] = part.get(key, 0) + v


def build_DV(spec: GroupSpec, lab: IrrepLabel, tensor: SymTensor) -> OperatorMatrix:
    """Exact matrix of D_V(s) on the irreducible with label lab."""
    if tensor.n != spec.dim:
        raise DomainError(
            f"tensor has size {tensor.n}, algebra has dimension {spec.dim}"
        )
    if len(lab.spins) != spec.k or len(lab.weight) != spec.n:
        raise DomainError("label shape does not match the group")
    den = math.lcm(*(x.denominator for row in tensor.entries for x in row))
    S = [[int(x * den) for x in row] for row in tensor.entries]
    k = spec.k
    dims = [m + 1 for m in lab.spins]
    torus = range(3 * k, spec.dim)
    weight = dict(zip(torus, lab.weight))
    # real and imaginary parts of den * D, keyed by flat index
    acc: tuple[dict, dict] = ({}, {})

    # torus-torus: -S_ef (i l_e)(i l_f) = S_ef l_e l_f on the identity
    scalar = sum(S[e][f] * weight[e] * weight[f] for e in torus for f in torus)
    if scalar:
        _kron_add(acc, dims, {}, scalar, 0)

    for j, m in enumerate(lab.spins):
        gens, prods = su2_bands(m), _integer_products(m)
        block: tuple[dict, dict] = ({}, {})
        for a in range(3):
            p = 3 * j + a
            for b in range(3):
                _axpy(block, prods[a][b], -S[p][3 * j + b], PHASES[a] + PHASES[b])
            # torus-SU(2), both orders: -2 S_pe (i l_e) g_a
            t = sum(S[p][e] * weight[e] for e in torus)
            _axpy(block, gens[a], -2 * t, PHASES[a] + 1)
        for phase, part in enumerate(block):
            if part:
                _kron_add(acc, dims, {j: part}, 1, phase)

        # cross-factor terms, both orders: -2 S_pq g_a x g_b
        for j2 in range(j + 1, k):
            gens2 = su2_bands(lab.spins[j2])
            for a in range(3):
                for b in range(3):
                    c = S[3 * j + a][3 * j2 + b]
                    if c:
                        _kron_add(
                            acc, dims, {j: gens[a], j2: gens2[b]},
                            -2 * c, PHASES[a] + PHASES[b],
                        )

    total = math.prod(dims)
    rows: list[dict] = [dict() for _ in range(total)]
    re, im = acc
    for key in sorted(re.keys() | im.keys()):
        x, y = re.get(key, 0), im.get(key, 0)
        if x or y:
            r, c = divmod(key, total)
            if den != 1:
                x, y = Fraction(x, den), Fraction(y, den)
            rows[r][c] = GQ(x, y)
    return OperatorMatrix(
        spec=spec, label=lab, tensor=tensor, matrix=Matrix(total, total, rows)
    )


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
    C = np.zeros((n, n), dtype=complex)
    for i, j, v in op.matrix.entries():
        # exact ratio first: the weights are huge factorials but their
        # ratios along matrix bands stay small
        C[i, j] = complex(v) * math.sqrt(Fraction(w[i], w[j]))
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
    I1 = Matrix.identity(D1.dim)
    I2 = Matrix.identity(D2.dim)
    ksum = D1.matrix.kron(I2) + (I1.kron(D2.matrix) * GQ(eps))
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
