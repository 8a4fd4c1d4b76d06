"""Irreducible representations of SU(2)^k x T^n and their exact matrices.

An irreducible is labeled by nonnegative spins (m_1, ..., m_k) and an
integer weight (l_1, ..., l_n).  The SU(2) factor of spin m acts on the
degree-m binary forms with monomial basis v_l = z1^(m-l) z2^l, l = 0..m;
in that basis the standard su(2) triple acts by

    H: v_l -> i(m-2l) v_l
    A: v_l -> i(m-l) v_{l+1} + i l v_{l-1}
    B: v_l ->  (m-l) v_{l+1} -   l v_{l-1}

and a torus direction e_i acts by the scalar i*l_i.  (The torus character
is written x -> exp(i l.x) with x in units where the period is 2*pi; a
weight-l circle rep in period-1 units multiplies eigenvalues of quadratic
operators by (2*pi)^2.)

So (H, A, B) = (iD, i(L + U), L - U) with three basic bands: L below the
diagonal (v_l -> (m-l) v_{l+1}), D on it (v_l -> (m-2l) v_l) and U above
it (v_l -> l v_{l-1}).  `su2_table` holds them with their nine products,
once per spin.  Both the generator matrices (`build_irrep`) and the
operator layer (`operator.build_DV`) read their entries off it by the
strides of the row multi-index of V_m1 x ... x V_mk x C_l, so neither
builds a dense matrix.

Type classification: complex iff the weight is nonzero; otherwise
quaternionic iff an odd number of spins is odd, else real.  The
quaternionic/real dichotomy is witnessed by an explicit conjugate-linear
equivariant map J with J^2 = (-1)^m, exposed for single factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra_core import GroupSpec
from .errors import DomainError
from .linalg import IntMatrix


@dataclass(frozen=True)
class IrrepLabel:
    spins: tuple[int, ...]
    weight: tuple[int, ...]

    def __post_init__(self):
        def as_int(x):
            if x != int(x):
                raise DomainError(f"label coordinates must be integers, got {x!r}")
            return int(x)

        object.__setattr__(self, "spins", tuple(as_int(m) for m in self.spins))
        object.__setattr__(self, "weight", tuple(as_int(l) for l in self.weight))
        if any(m < 0 for m in self.spins):
            raise DomainError("spins must be nonnegative")

    @property
    def dim(self) -> int:
        d = 1
        for m in self.spins:
            d *= m + 1
        return d

    def __str__(self) -> str:
        return format_label(self)


def label(spins, weight=()) -> IrrepLabel:
    return IrrepLabel(tuple(spins), tuple(weight))


def format_label(lab: IrrepLabel) -> str:
    spins = ",".join(str(m) for m in lab.spins)
    if not lab.weight:
        return spins
    weights = ",".join(str(l) for l in lab.weight)
    return f"{spins};{weights}"


def dual_label(lab: IrrepLabel) -> IrrepLabel:
    """The dual representation: spins fixed, weight negated."""
    return IrrepLabel(lab.spins, tuple(-l for l in lab.weight))


def is_self_dual(lab: IrrepLabel) -> bool:
    """Whether the label is its own dual: its weight is 0."""
    return not any(lab.weight)


def classify_type(lab: IrrepLabel) -> str:
    """'complex' | 'quaternionic' | 'real'."""
    if any(lab.weight):
        return "complex"
    odd = sum(1 for m in lab.spins if m % 2)
    return "quaternionic" if odd % 2 else "real"


# -- generator matrices -------------------------------------------------------


# The triple (H, A, B) is g_a = i^PHASES[a] G_a with G_a an integer matrix,
# G_a = sum_q GAMMA[a, q] X_q over the basic bands X = (L, D, U).
PHASES = (1, 1, 0)
GAMMA = np.array([[0, 1, 0], [1, 0, 1], [1, 0, -1]], dtype=np.int64)


@lru_cache(maxsize=256)
def su2_table(m: int) -> np.ndarray:
    """The spin-m basic bands and their one-band products, read off the
    formulas in the module docstring: a read-only array of shape
    (12, m + 1).  Row q < 3 is X_q, whose [i] is the entry (i, i + q - 1):
    L[i] = m - i + 1, D[i] = m - 2i and U[i] = i + 1.  Row 3 + 3q + r is
    X_q X_r, whose [i] is the entry (i, i + q + r - 2), X_q[i] X_r[i + q - 1].
    Entries whose column is out of range are 0.  All are below (m + 2)^2:
    int32 while that is below 2^31, int64 beyond."""
    if m < 0:
        raise DomainError("spin must be nonnegative")
    dtype = np.int32 if (m + 2) ** 2 < 2**31 else np.int64
    i = np.arange(m + 1, dtype=dtype)
    # the basics padded by one zero column on either side
    X = np.zeros((3, m + 3), dtype=dtype)
    X[:, 1:-1] = m - i + 1, m - 2 * i, i + 1
    X[0, 1] = X[2, -2] = 0
    table = np.empty((12, m + 1), dtype=dtype)
    table[:3] = X[:, 1:-1]
    # X_r[i + q - 1] is X[r, i + q] in the padded array
    table[3:] = (X[:, None, 1:-1] * np.stack([X[:, q:q + m + 1] for q in range(3)])).reshape(9, m + 1)
    table.flags.writeable = False
    return table


def rotation_half_pi(m: int) -> IntMatrix:
    """The spin-m matrix of the group element exp(pi/2 B), i.e. the 2x2
    rotation by 90 degrees: v_l -> (-1)^l v_{m-l}.  Integer entries: row
    m - l holds (-1)^l in column l."""
    rows = np.arange(m + 1, dtype=np.int64)
    cols = m - rows
    return IntMatrix(m + 1, m + 1, 1, rows, cols, 1 - 2 * (cols % 2), np.zeros(m + 1, dtype=np.int64))


def build_irrep(spec: GroupSpec, lab: IrrepLabel) -> tuple[IntMatrix, ...]:
    """The generator matrices of the irreducible, one per basis direction
    of the Lie algebra, in basis order, read off `su2_table` by the
    strides `build_DV` uses: with s_j the product of the dims after
    factor j, generator a of factor j holds, in row r whose coordinate in
    factor j is i, the entry i^PHASES[a] GAMMA[a, q] X_q[i] in column
    r + (q - 1) s_j.  Torus direction e acts as the scalar i l_e.  Zero
    entries, the table's out-of-range ones among them, are not stored."""
    if len(lab.spins) != spec.k or len(lab.weight) != spec.n:
        raise DomainError("label shape does not match the group")
    dims = [m + 1 for m in lab.spins]
    total = math.prod(dims)
    r = np.arange(total, dtype=np.int64)

    def generator(rows, cols, values: list, phase: int) -> IntMatrix:
        zeros = [0] * len(values)
        return IntMatrix._from_values(total, total, 1, rows, cols, *((zeros, values) if phase else (values, zeros)))

    gens = []
    for j, m in enumerate(lab.spins):
        s = math.prod(dims[j + 1:])
        # [r, q]: X_q at row r's coordinate in factor j, and its column
        X = su2_table(m)[:3, r // s % dims[j]].T
        cols = (r[:, None] + s * np.arange(-1, 2)).ravel()
        for g, phase in zip(GAMMA, PHASES):
            v = (g * X).ravel()
            at = np.flatnonzero(v)
            gens.append(generator(at // 3, cols[at], v[at].tolist(), phase))
    for l in lab.weight:
        at = r if l else r[:0]
        gens.append(generator(at, at, [l] * at.size, 1))
    return tuple(gens)


# -- quaternionic structure ---------------------------------------------------


@dataclass(eq=False)
class QuaternionicStructure:
    """Conjugate-linear equivariant map J(v) = P * conj(v) on the spin-m
    irreducible; square_sign = (-1)^m is the sign of J^2."""

    m: int
    matrix: IntMatrix
    square_sign: int

    def is_equivariant(self, generators) -> bool:
        """P conj(G) == G P for every generator G (conjugate-linearity)."""
        P = self.matrix
        return all(P @ G.conj() == G @ P for G in generators)


def quaternionic_structure(m: int) -> QuaternionicStructure:
    """J(sum c_l v_l) = sum conj(c_l) (-1)^l v_{m-l}; J^2 = (-1)^m."""
    return QuaternionicStructure(
        m=m, matrix=rotation_half_pi(m), square_sign=(-1) ** m
    )


# -- central characters and quotient descent ----------------------------------


def _central_phases(spec: GroupSpec) -> list[tuple[int, list[int], list[int]]]:
    """Per central element g: D = lcm(2, the denominators of g's torus
    point t), the integer D/2 on each SU(2) factor that g negates and 0 on
    the others, and the integers D t_i.  g acts on a label by the phase
    #(odd spins on negated factors) / 2 + l . t, which is D times an
    integer exactly when the label descends past g."""
    out = []
    for g in spec.central:
        D = math.lcm(2, *(t.denominator for t in g.torus))
        out.append((D, [D // 2 if s == -1 else 0 for s in g.signs], [int(t * D) for t in g.torus]))
    return out


def _spin_phases(phases, spins: tuple[int, ...]) -> tuple[int, ...]:
    """D times the spins' part of each central phase, mod D."""
    return tuple(sum(h for h, m in zip(halves, spins) if m % 2) % D for D, halves, _ in phases)


def _weight_phases(phases, weight: tuple[int, ...]) -> tuple[int, ...]:
    """Minus D times the weight's part of each central phase, mod D: equal
    to `_spin_phases` exactly when the label descends."""
    return tuple(-sum(c * l for c, l in zip(cs, weight)) % D for D, _, cs in phases)


def descends_to_quotient(spec: GroupSpec, lab: IrrepLabel) -> bool:
    """True iff every central generator acts trivially: the sign factors
    contribute a half period when an odd number of odd spins meets -Id,
    the torus part contributes the phase l . t; descent means the total
    phase is an integer.  Decided in integers, by the rule of
    `labels_up_to_level`."""
    if len(lab.spins) != spec.k or len(lab.weight) != spec.n:
        raise DomainError("label shape does not match the group")
    phases = _central_phases(spec)
    return _spin_phases(phases, lab.spins) == _weight_phases(phases, lab.weight)


def _bounded_tuples(values, count: int, cost, budget) -> list[tuple[tuple[int, ...], int]]:
    """(tuple, total cost) for every tuple of count entries from values
    whose costs sum to at most budget, in lexicographic order; a prefix
    over the budget is not extended."""
    out = [((), 0)]
    for _ in range(count):
        out = [(t + (v,), c + cost(v)) for t, c in out for v in values if c + cost(v) <= budget]
    return out


def labels_up_to_level(
    spec: GroupSpec, level: int, casimir: int | None = None
) -> list[IrrepLabel]:
    """All labels with every spin and |weight entry| <= level, and with
    Casimir value <= casimir when it is given, filtered by quotient
    descent, one representative per dual pair (first nonzero weight entry
    positive), deterministic order (Casimir value, then label tuple).

    The walk keeps the Casimir budget left to each coordinate, so with a
    budget it visits the labels of the ball rather than the whole box.
    Each tuple of spins meets each weight tuple that fits the budget left
    to it, and the pair is kept when its spin and weight phases agree, the
    comparison `descends_to_quotient` makes.  Only the labels kept are
    built."""
    if level < 0:
        raise DomainError("level must be nonnegative")
    budget = math.inf if casimir is None else casimir
    phases = _central_phases(spec)
    spins = [(s, c, _spin_phases(phases, s))
             for s, c in _bounded_tuples(range(level + 1), spec.k, lambda m: m * (m + 2), budget)]
    weights = [(w, c, _weight_phases(phases, w))
               for w, c in _bounded_tuples(range(-level, level + 1), spec.n, lambda l: l * l, budget)
               if next((l for l in w if l), 1) > 0]
    out = [(cs + cw, s, w) for s, cs, ps in spins for w, cw, pw in weights
           if cs + cw <= budget and ps == pw]
    out.sort()
    return [IrrepLabel(s, w) for _, s, w in out]
