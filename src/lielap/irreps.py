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

Type classification: complex iff the weight is nonzero; otherwise
quaternionic iff an odd number of spins is odd, else real.  The
quaternionic/real dichotomy is witnessed by an explicit conjugate-linear
equivariant map J with J^2 = (-1)^m, exposed for single factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

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


def parse_label(s: str, spec: GroupSpec | None = None) -> IrrepLabel:
    s = s.strip()
    spins_part, _, weight_part = s.partition(";")
    spins = tuple(int(t) for t in spins_part.split(",") if t.strip() != "")
    weight = tuple(int(t) for t in weight_part.split(",") if t.strip() != "")
    lab = IrrepLabel(spins, weight)
    if spec is not None:
        if len(lab.spins) != spec.k or len(lab.weight) != spec.n:
            raise DomainError(
                f"label {s!r} does not match group with k={spec.k}, n={spec.n}"
            )
    return lab


def dual_label(lab: IrrepLabel) -> IrrepLabel:
    """The dual representation: spins fixed, weight negated."""
    return IrrepLabel(lab.spins, tuple(-l for l in lab.weight))


def is_self_dual(lab: IrrepLabel) -> bool:
    return lab == dual_label(lab)


def canonical_dual_rep(lab: IrrepLabel) -> IrrepLabel:
    """Canonical representative of {V, V*}: first nonzero weight entry
    positive."""
    for l in lab.weight:
        if l > 0:
            return lab
        if l < 0:
            return dual_label(lab)
    return lab


def classify_type(lab: IrrepLabel) -> str:
    """'complex' | 'quaternionic' | 'real'."""
    if any(lab.weight):
        return "complex"
    odd = sum(1 for m in lab.spins if m % 2)
    return "quaternionic" if odd % 2 else "real"


def casimir_eigenvalue(lab: IrrepLabel) -> int:
    return sum(m * (m + 2) for m in lab.spins) + sum(l * l for l in lab.weight)


# -- generator matrices -------------------------------------------------------


# The triple (H, A, B) is g_a = i^PHASES[a] G_a with G_a an integer matrix.
PHASES = (1, 1, 0)


@lru_cache(maxsize=512)
def su2_bands(m: int) -> np.ndarray:
    """The integer bands of the spin-m triple (G_H, G_A, G_B), read off the
    formulas in the module docstring: a read-only int64 array of shape
    (3, 3, m + 1) whose [a, s + 1, i] is the entry (i, i + s) of G_a, 0 where
    that column is out of range."""
    if m < 0:
        raise DomainError("spin must be nonnegative")
    bands = np.zeros((3, 3, m + 1), dtype=np.int64)
    bands[0, 1] = range(m, -m - 1, -2)
    bands[1:, 0, 1:] = range(m, 0, -1)  # (l + 1, l): m - l
    bands[1, 2, :-1] = range(1, m + 1)  # (l - 1, l): l
    bands[2, 2, :-1] = range(-1, -m - 1, -1)
    bands.flags.writeable = False
    return bands


def su2_generators(m: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(H, A, B) of the spin-m irreducible in the monomial basis."""
    out = []
    for (below, diag, above), phase in zip(su2_bands(m), PHASES):
        G = np.diag(below[1:], -1) + np.diag(diag) + np.diag(above[:-1], 1)
        out.append(IntMatrix.from_dense(0 * G, G) if phase else IntMatrix.from_dense(G))
    return tuple(out)


def rotation_half_pi(m: int) -> IntMatrix:
    """The spin-m matrix of the group element exp(pi/2 B), i.e. the 2x2
    rotation by 90 degrees: v_l -> (-1)^l v_{m-l}.  Integer entries."""
    R = np.zeros((m + 1, m + 1), dtype=np.int64)
    for l in range(m + 1):
        R[m - l, l] = -1 if l % 2 else 1
    return IntMatrix.from_dense(R)


@dataclass(eq=False)
class Irrep:
    """An irreducible with exact generator matrices for every basis
    direction of the Lie algebra, in basis order."""

    spec: GroupSpec
    label: IrrepLabel
    dim: int
    rep_type: str
    generators: tuple[IntMatrix, ...]


def build_irrep(spec: GroupSpec, lab: IrrepLabel) -> Irrep:
    """Tensor-product matrices: factor generators get Kronecker-extended
    by identities, torus directions act as scalars i*l_i."""
    if len(lab.spins) != spec.k or len(lab.weight) != spec.n:
        raise DomainError("label shape does not match the group")
    dims = [m + 1 for m in lab.spins]
    total = 1
    for d in dims:
        total *= d
    gens: list[IntMatrix] = []
    for j, m in enumerate(lab.spins):
        H, A, B = su2_generators(m)
        left = 1
        for d in dims[:j]:
            left *= d
        right = 1
        for d in dims[j + 1:]:
            right *= d
        IL, IR = IntMatrix.identity(left), IntMatrix.identity(right)
        for G in (H, A, B):
            gens.append(IL.kron(G).kron(IR))
    eye = np.eye(total, dtype=object)
    for l in lab.weight:
        gens.append(IntMatrix.from_dense(0 * eye, l * eye))
    return Irrep(
        spec=spec,
        label=lab,
        dim=total,
        rep_type=classify_type(lab),
        generators=tuple(gens),
    )


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


def descends_to_quotient(spec: GroupSpec, lab: IrrepLabel) -> bool:
    """True iff every central generator acts trivially: the sign factors
    contribute a half period when an odd number of odd spins meets -Id,
    the torus part contributes the phase l . t; descent means the total
    phase is an integer.  Evaluated exactly over Fractions."""
    if len(lab.spins) != spec.k or len(lab.weight) != spec.n:
        raise DomainError("label shape does not match the group")
    for g in spec.central:
        neg = sum(
            1 for s, m in zip(g.signs, lab.spins) if s == -1 and m % 2
        )
        phase = Fraction(neg, 2) + sum(
            (l * t for l, t in zip(lab.weight, g.torus)), Fraction(0)
        )
        if phase % 1 != 0:
            return False
    return True


def labels_up_to_level(spec: GroupSpec, level: int) -> list[IrrepLabel]:
    """All labels with every spin and |weight entry| <= level, filtered by
    quotient descent, one representative per dual pair, deterministic
    order (Casimir value, then label tuple)."""
    if level < 0:
        raise DomainError("level must be nonnegative")
    out = []
    spin_ranges = [range(level + 1)] * spec.k
    weight_ranges = [range(-level, level + 1)] * spec.n
    for spins in iter_product(*spin_ranges):
        for weight in iter_product(*weight_ranges):
            lab = IrrepLabel(spins, weight)
            if canonical_dual_rep(lab) != lab:
                continue
            if not descends_to_quotient(spec, lab):
                continue
            out.append(lab)
    out.sort(key=lambda l: (casimir_eigenvalue(l), l.spins, l.weight))
    return out
