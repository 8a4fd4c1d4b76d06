"""Laplace-type operators D_V(s) and the floating-point hints for their roots.

For a symmetric coefficient matrix S the operator on the irreducible V is

    D_V(s) = - sum_{p,q} S_pq rho_*(X_p) rho_*(X_q),

exact and independent of how s is written as a sum of symmetric products
because S is symmetric.  With s the tensor of a metric-orthonormal basis
(the exact inverse of the gram matrix) this is the Laplace operator on the
V-isotypic part; with the identity tensor it is the Casimir element.

D_V(s) is assembled from the product structure of V = V_m1 x ... x V_mk x
C_l as an ``IntMatrix``: integers over the common denominator of S, by
which S is scaled once per tensor.  Each su(2) generator is i^phase times
an integer matrix G_a (H and A imaginary, B real), and each G_a is a signed
sum of three basic bands, G_a = sum_q GAMMA[a, q] X_q with X = (L, D, U)
on the offsets -1, 0, 1 (`irreps.su2_table`).  The operator is held band
by band: a band is a tuple of per-factor offsets (at most two nonzero,
each in -2..2) with an integer array over the row multi-index, so work and
memory go as bands x dim V.  The coefficient blocks are mapped onto the
basics once per tensor (a block c over the generators becomes
GAMMA^T c GAMMA), and the terms are broadcast into their bands:

- single-factor blocks: for each SU(2) factor j, B_j = -sum_ab S_ab g_a g_b
  over its own directions, one product of its coefficients, spread over
  the offsets -2..2 (`TensorForm.single`), with the spin's table of the
  nine one-band products X_q X_r;
- cross-factor terms: for p, q in distinct SU(2) factors the two orderings
  commute and give -2 S_pq (g_p x g_q), a broadcast of the coefficients
  of X_q x X_r against the basics of the two factors;
- torus scalars: a torus direction e acts as i*l_e, so torus-torus terms
  give (sum S_ef l_e l_f) I (`torus_scalar`) and torus-SU(2) terms add
  -2 i l_e S_pe g_p, a multiple of each basic, to the block of p.

The bands, in lexicographic order of their offset tuples, are read out
row-major as the nonzero entries; that order gives ascending columns in
every row whatever the spins (see `build_DV`).  The arrays are int64
when a bound (sum |den S_pq| times the square r^2 of the largest
generator row sum of |entries|) shows that every row sum fits, and Python
ints (dtype=object) otherwise, on the same code.  The bound covers the
partial sums on the way too.  In row i the basics sit at distinct offsets,
so sum_q |GAMMA[a, q]| |X_q[i]| is the row sum of |G_a|, at most r.  For a
block with coefficients W the terms (GAMMA^T W GAMMA)_qr (X_q X_r)[i] of
one row, over all q and r, therefore sum in absolute value to at most
sum_ab |W_ab| r^2, and so do those of a cross broadcast.

A label pays only for its band arithmetic, the nonzero read-out and the
``IntMatrix``; the rest is done once and kept:

- per tensor (`tensor_form`, kept on the tensor as
  ``SymTensor.operator_form``, so it lives and dies with it): den, the sum
  of |den S_pq| of the bound, and the phase-weighted coefficient blocks
  of every factor and pair of factors on the basics, with the zero test of
  each pair;
- per number of SU(2) factors (`_band_layout`): the offset tuples of the
  bands in lexicographic order, each term's positions among them and the
  index that spreads its block over the row multi-index, so the terms are
  added straight into read-out order; a label computes only its strides
  and the flat offsets of the bands;
- per spin (`irreps.su2_table`, a bounded cache shared with the generator
  matrices): one (12, m + 1) table of the basics and their nine products,
  in int32.  The int64 products upcast it as they read it; an int64 copy
  would double the memory of every cached table.  The object route
  converts the tables of its label.

The numeric path conjugates D by the diagonal square-root of the invariant
inner product weights, which makes it hermitian, and hands the hermitian
part of the result to the dense eigensolver (`hermitian_eigenvalues`);
`cluster_values` groups eigenvalues by relative gap.  Their values are
hints for root isolation only and check nothing: every operator passes
the exact weighted-hermitian check (`linalg.weighted_hermitian`, in
`linalg.charpoly_gq` and in `linalg.eigenvalues_above`) before
any verdict, and verdicts always come from the exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra_core import GroupSpec, SymTensor, identity_tensor
from .errors import DomainError
from .irreps import GAMMA, PHASES, IrrepLabel, su2_table
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


@lru_cache(maxsize=8)
def _band_layout(k: int) -> tuple[np.ndarray, int, list, dict]:
    """The bands on k SU(2) factors in lexicographic order of their offset
    tuples: the tuples, the index of the zero tuple, for each factor j the
    indices of the offsets -2, -1, 1, 2 in j, and for each pair j < j2
    those of the offsets (s, t) in {-1, 0, 1}^2, s major.  Each term's
    indices come with the index that spreads its block, (2, d_j, ...) or
    (2, d_j, d_j2, ...), over the row multi-index."""

    def offset(entries: dict) -> tuple[int, ...]:
        return tuple(entries.get(j, 0) for j in range(k))

    def spread(factors: tuple[int, ...]) -> tuple:
        return (slice(None), *[slice(None) if j in factors else None for j in range(k)])

    single = [[offset({j: s}) for s in (-2, -1, 1, 2)] for j in range(k)]
    pairs = {
        (j, j2): [offset({j: s, j2: t}) for s in (-1, 0, 1) for t in (-1, 0, 1)]
        for j in range(k) for j2 in range(j + 1, k)
    }
    keys = sorted({offset({})}.union(*single, *pairs.values()))
    index = {key: i for i, key in enumerate(keys)}
    return (
        np.array(keys, dtype=np.int64).reshape(len(keys), k), index[offset({})],
        [(np.array([index[t] for t in ts]), spread((j,))) for j, ts in enumerate(single)],
        {jj: (np.array([index[t] for t in ts]), spread(jj)) for jj, ts in pairs.items()},
    )


# (Re, Im) of i^(PHASES[a] + PHASES[b]), the phase of g_a g_b, and of
# i^(1 + PHASES[a]), that of (i l_e) g_a
_RE_IM = np.array([[1, 0, -1, 0], [0, 1, 0, -1]])
_PAIR = _RE_IM[:, np.add.outer(PHASES, PHASES) % 4]
_TORUS = _RE_IM[:, (np.array(PHASES) + 1) % 4]
# the offsets -2, -1, 1, 2 among -2..2
_NONZERO = np.array([0, 1, 3, 4])
# X_q X_r, row 3q + r of a product table, lies on the offset q + r - 2
_PRODUCT_OFFSET = np.add.outer(range(3), range(3)).ravel()


class TensorForm(NamedTuple):
    """The part of build_DV that depends on the tensor alone (see
    `tensor_form`), kept on the tensor as `SymTensor.operator_form`.  The
    blocks act on the basic bands X_q of `su2_table` rather than on the
    generators: G_a = sum_q GAMMA[a, q] X_q turns a block c over the
    generators into GAMMA^T c GAMMA."""

    den: int
    size: int  # sum of |den S_pq|, the tensor's part of the int64/object bound
    S: np.ndarray  # den * S
    # per factor j, (10, 9): [5 part + q + r, 3q + r] is the coefficient of
    # X_q X_r in -sum_ab S_ab g_a g_b over the directions of j (part 0 real,
    # 1 imaginary), and the other entries are 0, so row 5 part + s collects
    # the offset s - 2
    single: list
    # per pair j < j2 with a nonzero block, (2, 3, 3): [part, q, r] is the
    # coefficient of X_q x X_r in -2 sum_ab S_ab g_a x g_b
    cross: dict
    # (2, n // 3, 3, n): [part, j, q, e] is the coefficient of l_e X_q in
    # -2 sum_a S_pe (i l_e) g_a, p = 3j + a the directions of factor j
    torus: np.ndarray


def tensor_form(tensor: SymTensor) -> TensorForm:
    """den * S and its phase-weighted blocks on the basic bands, in int64
    when they fit and in Python ints otherwise; on the object route int64
    blocks are upcast by the arithmetic with the label's object arrays.
    Index p of S is read as direction p mod 3 of SU(2) factor p // 3, which
    it is on every group of the tensor's size that has that factor, so the
    blocks do not depend on the group."""
    den, scaled = tensor.integer_form
    size = sum(abs(x) for row in scaled for x in row)
    # every block entry is at most 2 * size, and so is every entry of
    # GAMMA^T c GAMMA and every partial sum on the way: each is a signed
    # sum of distinct entries of c
    S = np.array(scaled, dtype=entry_dtype(size, 1))
    a = np.arange(len(S)) % 3
    W = -S * _PAIR[:, a[:, None], a]
    q = len(S) // 3

    def basic(j: int, j2: int) -> np.ndarray:
        return GAMMA.T @ W[:, 3 * j:3 * j + 3, 3 * j2:3 * j2 + 3] @ GAMMA

    single = []
    for j in range(q):
        K = np.zeros((2, 5, 9), dtype=S.dtype)
        K[:, _PRODUCT_OFFSET, range(9)] = basic(j, j).reshape(2, 9)
        single.append(K.reshape(10, 9))
    torus = -2 * _TORUS[:, a, None] * S
    return TensorForm(
        den, size, S, single,
        {(j, j2): 2 * basic(j, j2) for j in range(q) for j2 in range(j + 1, q) if basic(j, j2).any()},
        GAMMA.T @ torus[:, :3 * q].reshape(2, q, 3, len(S)),
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
    form = tensor.operator_form
    keys, zero, single, pairs = _band_layout(k)
    dims = tuple(m + 1 for m in lab.spins)
    total, nbands = math.prod(dims), len(keys)
    # int64 strides keep the offsets int64 when k = 0 and keys @ [] is empty
    offsets = keys @ np.array([math.prod(dims[j + 1:]) for j in range(k)], dtype=np.int64)
    # every generator row sum of |entries| is at most m + 2 (su2) or |l_e|;
    # r >= 1 keeps den * S itself under the bound
    r = max([1] + [m + 2 for m in lab.spins] + [abs(x) for x in lab.weight])
    dtype = entry_dtype(form.size * r * r, nbands)
    # real and imaginary parts of den * D over the row multi-index, band by band
    bands = np.zeros((2, *dims, nbands), dtype=dtype)

    lin = None
    if spec.n:
        w = np.array(lab.weight, dtype=dtype)
        # torus-torus: -S_ef (i l_e)(i l_f) = S_ef l_e l_f on the identity
        bands[0, ..., zero] = torus_scalar(spec, tensor, lab.weight)
        # torus-SU(2), both orders: -2 S_pe (i l_e) g_a, per factor and a
        lin = form.torus[:, :k, :, su:] @ w
    tables = [su2_table(m) for m in lab.spins]
    if dtype is object:
        tables = [t.astype(object) for t in tables]
    for j, (d, table) in enumerate(zip(dims, tables)):
        # -S_ab g_a g_b on the offsets -2..2, the torus part on -1..1
        block = (form.single[j] @ table[3:]).reshape(2, 5, d).transpose(0, 2, 1)
        if lin is not None:
            block[..., 1:4] += lin[:, j, None] * table[:3].T
        # the nonzero offsets of factor j are its own bands, so they are
        # assigned (cheaper than adding through an index); all share offset 0
        at, spread = single[j]
        bands[..., at] = block[..., _NONZERO][spread]
        bands[..., zero] += block[..., 2][spread]
    # cross-factor terms, both orders: -2 S_pq g_a x g_b, on bands that the
    # single-factor terms may have written, so after them and added
    for (j, j2), c in form.cross.items():
        if j2 >= k:
            continue
        # x[part, i, i2, 3q + r] = c[part, q, r] X_q[i] X_r[i2], on the offsets
        # (q - 1, r - 1) of the pair
        x = c[:, None, None] * tables[j][:3].T[:, None, :, None] * tables[j2][:3].T[:, None, :]
        at, spread = pairs[j, j2]
        bands[..., at] += x.reshape(2, dims[j], dims[j2], 9)[spread]

    # row-major read-out.  In row i, band s reaches the column multi-index
    # i + s; columns in range compare in flat order as their multi-indices
    # do lexicographically, and i + s against i + s' as s against s', so
    # the bands in lexicographic order give strictly ascending columns
    re, im = bands.reshape(2, total * nbands)
    at = np.flatnonzero(re | im)
    rows, band = np.divmod(at, nbands)
    matrix = IntMatrix(total, total, form.den, rows, rows + offsets[band], re[at], im[at])
    return OperatorMatrix(spec=spec, label=lab, tensor=tensor, matrix=matrix)


def torus_scalar(spec: GroupSpec, tensor: SymTensor, weight: tuple[int, ...]) -> int:
    """w S' w for the torus weight w, with S' = den * S_TT the integer torus
    block of the tensor: the torus-torus term of den * D_V(s) is this
    scalar times the identity."""
    su = 3 * spec.k
    rows = tensor.integer_form[1][su:]
    return sum(x * row[su + f] * y for x, row in zip(weight, rows) for f, y in enumerate(weight))


def weight_is_scalar(spec: GroupSpec, tensor: SymTensor) -> bool:
    """Whether the torus weight w enters D_V(s) only as (w S_TT w) I: no
    entry of S couples a torus direction with an SU(2) one, so two labels
    with the same spins have operators that differ by a scalar."""
    su = 3 * spec.k
    return not tensor.operator_form.S[:su, su:].any()


# -- numeric hints --------------------------------------------------------------


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
def norm_weights(spins: tuple[int, ...]) -> np.ndarray:
    """The exact c_i = prod_j C(m_j, l_j) of the monomial basis in
    Kronecker order, to which the invariant squared norms are inversely
    proportional, so that D_V(s), self-adjoint for them, satisfies
    c_j D_ij = c_i conj(D_ji).  int64 when every c_i fits, Python ints
    otherwise; read-only, as the cache shares it."""
    out = [1]
    for m in spins:
        row = [math.comb(m, l) for l in range(m + 1)]
        out = [x * y for x in out for y in row]
    out = np.array(out, dtype=np.int64 if max(out) < 2**63 else object)
    out.flags.writeable = False
    return out


def hermitian_eigenvalues(op: OperatorMatrix) -> np.ndarray:
    """The eigenvalues of D in increasing order, in floating point: hints.

    The monomial basis is orthogonal but not normalized; conjugating by
    diag(sqrt(w)) with w the squared norms, proportional to
    1 / `norm_weights`, yields a hermitian matrix C, and the eigenvalues
    returned are those of its hermitian part (C + C^H) / 2.  Nothing is
    checked here: whether D is hermitian for the weights is decided
    exactly before any verdict (see the module docstring).
    """
    n = op.dim
    if n == 0:
        return np.zeros(0)
    M = op.matrix
    d = np.asarray(norm_weights(op.label.spins), dtype=float) ** -0.5
    C = np.zeros((n, n), dtype=complex)
    C[M.rows, M.cols] = (M.re + 1j * M.im) * (d[M.rows] / d[M.cols] / float(M.den))
    return np.linalg.eigvalsh((C + C.conj().T) / 2)
