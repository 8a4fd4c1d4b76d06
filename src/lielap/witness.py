"""Symbolic witnesses for spectral simplicity and separation.

Reducible eigenspaces disappear for well-chosen coefficient tensors; this
module constructs tensors together with exact certificates that the bad
coincidences are gone.  Four devices:

  * su2_even_b_witness: for even spin the square-of-H tensor has a doubly
    degenerate operator; adding eps times the square of the second basis
    direction splits it.  The search scans eps over prime reciprocals and
    certifies squarefreeness by resultant.
  * pairs_mixed_witness: on SU(2) x torus, the mixed product of H with a
    torus direction has explicitly computable, simple spectrum whenever
    the label pairs nontrivially with the direction.
  * pairs_pipeline: on SU(2) x SU(2) with both spins odd, a staged
    construction splits the doubled spectrum using a real involution that
    anticommutes with one generator and commutes with another, then finds
    a single tensor with fully simple spectrum on the product.  The
    involution is a signed permutation, so its checks are index reads, and
    each operator on its +1 and -1 eigenspaces is read from the operator's
    entries over the orbits of the permutation.
  * witness_search: random definite perturbations of the round tensor,
    with the full certificate battery decided per trial at one prime, a
    nonzero residue being an exact proof; the trial's charpolys are read
    in one batch (`char_polys_of`), and `certificate_battery` reads each
    label off its charpoly (b/c per label by its type, a per pair).

Failure is an exception carrying the best partial report, never a report
claiming success.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra_core import (
    GroupSpec,
    SymTensor,
    group_to_json,
    preset,
    is_positive_definite,
    square_of_vector,
    symmetric_product,
    tensor_hash,
    tensor_to_json,
)
from .errors import DomainError, WitnessSearchExhausted
from .irreps import (
    IrrepLabel,
    build_irrep,
    format_label,
    label,
    labels_up_to_level,
    rotation_half_pi,
)
from .linalg import IntMatrix
from .operator import build_DV
# unused here; perfbench/tracer.py looks up witness.resultant when it
# installs
from .poly import resultant  # noqa: F401
from .polycert import (
    PRIME,
    CharPoly,
    Certificate,
    certificate,
    char_poly_of,
    char_polys_of,
    charpoly_from_eigenvalues,
    charpoly_real,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
# the eps scanned by su2_even_b_witness and the alpha by pairs_pipeline
_EPS_GRID = tuple(Fraction(1, p) for p in _PRIMES)
_ALPHA_GRID = tuple(Fraction(j, 64) for j in range(1, 64))


# -- even-spin splitting witness ------------------------------------------------


@dataclass(frozen=True)
class Su2EvenWitness:
    m: int
    epsilon: Fraction
    tensor: SymTensor
    certificate: Certificate
    even_block_offdiag: tuple[int, ...]
    odd_block_offdiag: tuple[int, ...]


def su2_even_b_witness(m: int) -> Su2EvenWitness:
    """Split the doubled square-of-H spectrum on even spin m.

    The operator of the square of the first basis direction is diagonal
    with values (m - 2l)^2, each nonzero value hit once from each parity
    class of l.  Adding eps times the square of the second direction
    couples within each parity class only; the class spectra are disjoint
    integer sets at eps = 0 and each class becomes simple for any eps > 0,
    so small eps separates everything.  The returned certificate is the
    squarefreeness resultant, nonzero at its prime, at the first eps that
    works.
    """
    if m < 2 or m % 2:
        raise DomainError("even-spin witness needs even m >= 2")
    spec = preset("su2")
    lab = label((m,))

    # structural checks on the coupling term
    dA = build_DV(spec, lab, symmetric_product(3, 1, 1, 1)).matrix
    if ((dA.rows - dA.cols) % 2).any():
        raise ArithmeticError("coupling term mixes parity classes")
    if dA.den != 1 or dA.im.any():
        raise ArithmeticError("coupling term is not a real integer matrix")
    # the entries (l + 2, l), by column
    below = {
        j: x for i, j, x in zip(dA.rows.tolist(), dA.cols.tolist(), dA.re.tolist()) if i == j + 2
    }
    even_off = tuple(below.get(l, 0) for l in range(0, m - 1, 2))
    odd_off = tuple(below.get(l, 0) for l in range(1, m - 1, 2))
    expected_even = tuple((m - l) * (m - l - 1) for l in range(0, m - 1, 2))
    expected_odd = tuple((m - l) * (m - l - 1) for l in range(1, m - 1, 2))
    if even_off != expected_even or odd_off != expected_odd:
        raise ArithmeticError("coupling subdiagonals do not match")

    even_vals = {(m - 2 * l) ** 2 for l in range(0, m + 1, 2)}
    odd_vals = {(m - 2 * l) ** 2 for l in range(1, m + 1, 2)}
    if even_vals & odd_vals:
        raise ArithmeticError("parity class spectra collide at eps = 0")

    best = None
    for eps in _EPS_GRID:
        tensor = symmetric_product(3, 0, 0, 1) + symmetric_product(3, 1, 1, eps)
        cert = certificate(char_poly_of(build_DV(spec, lab, tensor), PRIME))
        if cert.verdict:
            return Su2EvenWitness(
                m=m,
                epsilon=eps,
                tensor=tensor,
                certificate=cert,
                even_block_offdiag=even_off,
                odd_block_offdiag=odd_off,
            )
        best = cert
    raise WitnessSearchExhausted(
        f"no eps in the grid splits the spectrum for m={m}", best=best
    )


# -- mixed SU(2) x torus witness -------------------------------------------------


@dataclass(frozen=True)
class MixedWitness:
    label: IrrepLabel
    pairing: Fraction
    tensor: SymTensor
    spectrum: tuple[Fraction, ...]
    matches_expected: bool
    certificate: Certificate


def pairs_mixed_witness(spec: GroupSpec, lab: IrrepLabel, direction) -> MixedWitness:
    """Mixed H-torus tensor with explicit simple spectrum.

    On V_m twisted by weight w, the symmetrized product of H with a torus
    direction y acts diagonally with eigenvalues k * <w, y> for
    k = m, m-2, ..., -m.  Requires <w, y> != 0, which is exactly the
    condition for the values to be distinct.
    """
    if spec.k != 1 or spec.n < 1:
        raise DomainError("mixed witness needs one SU(2) factor and a torus")
    if len(lab.spins) != 1 or len(lab.weight) != spec.n:
        raise DomainError("label does not fit the group")
    y = [Fraction(v) for v in direction]
    if len(y) != spec.n:
        raise DomainError(f"direction needs {spec.n} coordinates")
    pairing = sum((w * v for w, v in zip(lab.weight, y)), Fraction(0))
    if pairing == 0:
        raise DomainError("label pairs trivially with the chosen direction")

    m = lab.spins[0]
    tensor = None
    for i, v in enumerate(y):
        if v == 0:
            continue
        term = symmetric_product(spec.dim, 0, 3 + i, v)
        tensor = term if tensor is None else tensor + term
    op = build_DV(spec, lab, tensor)
    expected = [Fraction(k) * pairing for k in range(m, -m - 2, -2)]
    p = char_poly_of(op)
    matches = p.poly == charpoly_from_eigenvalues(expected, p.poly.den)
    cert = certificate(p)
    return MixedWitness(
        label=lab,
        pairing=pairing,
        tensor=tensor,
        spectrum=tuple(sorted(expected)),
        matches_expected=matches,
        certificate=cert,
    )


# -- odd-odd pairs pipeline ------------------------------------------------------


@dataclass(frozen=True)
class PairsPipelineReport:
    label: IrrepLabel
    epsilon: Fraction
    involution_ok: bool
    anticommutes_ok: bool
    commutes_ok: bool
    h_charpoly_matches: bool
    h_all_double: bool
    branch_dims_ok: bool
    h_simple_on_branches: tuple[Certificate, Certificate]
    b_branches_disjoint: Certificate
    alpha: Fraction | None
    combined_simple: Certificate | None

    @property
    def ok(self) -> bool:
        return (
            self.involution_ok
            and self.anticommutes_ok
            and self.commutes_ok
            and self.h_charpoly_matches
            and self.h_all_double
            and self.branch_dims_ok
            and all(c.verdict for c in self.h_simple_on_branches)
            and self.b_branches_disjoint.verdict
            and self.alpha is not None
            and self.combined_simple is not None
            and self.combined_simple.verdict
        )


def _involution(T: IntMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """sigma and t with T e_a = t_a e_sigma(a), if T is a real signed
    permutation (den 1, no imaginary part, one entry +-1 in each row and
    column) with T = T^T, which for such an orthogonal T is T^2 = I;
    None otherwise."""
    n = T.nrows
    if T.ncols != n or T.den != 1 or T.im.any() or T.re.size != n or not (abs(T.re) == 1).all():
        return None
    sigma, t = np.full(n, -1), np.zeros(n, dtype=np.int64)
    sigma[T.cols], t[T.cols] = T.rows, T.re
    if (sigma < 0).any() or not np.array_equal(sigma[sigma], np.arange(n)) or not np.array_equal(t[sigma], t):
        return None
    return sigma, t


def _conjugate(sigma: np.ndarray, t: np.ndarray, X: IntMatrix) -> IntMatrix:
    """T X T for the involution T e_a = t_a e_sigma(a): X's entry (i, j)
    moved to (sigma i, sigma j) and multiplied by t_i t_j."""
    rows, cols, s = sigma[X.rows], sigma[X.cols], t[X.rows] * t[X.cols]
    order = np.lexsort((cols, rows))
    return IntMatrix(X.nrows, X.ncols, X.den, rows[order], cols[order], (s * X.re)[order], (s * X.im)[order])


def involution_checks(T: IntMatrix, phi: IntMatrix, psi: IntMatrix) -> tuple[bool, bool, bool]:
    """Exactly: (T is a real signed permutation with T^2 = I, T phi = -phi T,
    T psi = psi T), read on T as the permutation and its signs; the last
    two are T phi T = -phi and T psi T = psi, and all three are False
    where T is no such involution."""
    read = _involution(T)
    if read is None:
        return False, False, False
    return True, _conjugate(*read, phi) == -phi, _conjugate(*read, psi) == psi


def involution_branches(T: IntMatrix, D: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """The matrices R_+ and R_- of D on the +1 and -1 eigenspaces of T, a
    real signed permutation T e_a = t_a e_sigma(a) with T^2 = I.

    An orbit {a, sigma a}, a < sigma a, gives the eigenvectors
    e_a + s t_a e_sigma(a), s = +-1, and over the representatives
    a_1 < a_2 < ... row a_k of these is the k-th unit row: R_s[k, l] =
    D[a_k, a_l] + s t_(a_l) D[a_k, sigma a_l].  T D T = D is checked
    exactly first (ArithmeticError if it fails or T is no such involution).
    A fixed point of sigma gets no row, so R_+ and R_- together have as
    many rows as D exactly when sigma has none.
    """
    read = _involution(T)
    if read is None or _conjugate(*read, D) != D:
        raise ArithmeticError("operator does not commute with a signed permutation involution")
    sigma, t = read
    n = len(sigma)
    re, im = np.zeros((n, n), dtype=object), np.zeros((n, n), dtype=object)
    re[D.rows, D.cols], im[D.rows, D.cols] = D.re, D.im
    a = np.flatnonzero(np.arange(n) < sigma)
    b, u = sigma[a], t[a].astype(object)
    return tuple(
        IntMatrix.from_dense(*(x[np.ix_(a, a)] + s * u * x[np.ix_(a, b)] for x in (re, im)), den=D.den)
        for s in (1, -1)
    )


def _diagonal(M: IntMatrix) -> list[Fraction]:
    """The diagonal entries of M, which are its eigenvalues; ArithmeticError
    unless M is real and diagonal."""
    if M.im.any() or not np.array_equal(M.rows, M.cols):
        raise ArithmeticError("operator is not real and diagonal")
    values = [Fraction(0)] * M.nrows
    for i, x in zip(M.rows.tolist(), M.re.tolist()):
        values[i] = Fraction(x, M.den)
    return values


def pairs_pipeline(m: int, mprime: int) -> PairsPipelineReport:
    """Full simplicity witness on the product of two odd spins.

    The square-of-(H, eps H) operator has doubled spectrum: eigenvalues
    (j + eps j')^2 over odd lattice points, invariant under the sign flip
    of both coordinates.  It is -phi^2 for the diagonal phi = H + eps H',
    which is checked exactly, so its eigenvalues are read off its diagonal,
    with no charpoly.  A real involution built from quarter rotations swaps
    the paired eigenvectors, splitting the product space into two halves
    on which that operator is simple, while the square-of-(B, eps B)
    operator separates the halves.  The involution is a signed permutation,
    so every fact about it is an index read on its permutation and signs,
    and both operators on the halves (its +1 and -1 eigenspaces) are read
    from their entries over its orbits (`involution_branches`).  A
    final scan over convex combinations of the two tensors finds one
    operator with fully simple spectrum and certifies it by resultant.
    Every certificate is decided at PRIME, and past a zero residue there
    at the next split primes (`polycert.certificate`).
    """
    if m < 1 or mprime < 1 or m % 2 == 0 or mprime % 2 == 0:
        raise DomainError("pairs pipeline needs two odd spins")
    # 0 < eps < 1/m' keeps the doubled eigenvalues from colliding further
    eps = Fraction(1, 2 * mprime)
    spec = preset("su2xsu2")
    lab = label((m, mprime))
    G = build_irrep(spec, lab)
    phi = G[0] + G[3] * eps
    psi = G[2] + G[5] * eps
    s_h = square_of_vector([1, 0, 0, eps, 0, 0])
    s_b = square_of_vector([0, 0, 1, 0, 0, eps])

    T = rotation_half_pi(m).kron(rotation_half_pi(mprime))
    involution_ok, anticommutes_ok, commutes_ok = involution_checks(T, phi, psi)

    D_h = build_DV(spec, lab, s_h)
    D_b = build_DV(spec, lab, s_b)
    if D_h.matrix != -(phi @ phi) or D_b.matrix != -(psi @ psi):
        raise ArithmeticError("operator does not match its generator square")

    expected = [
        (Fraction(j) + eps * jp) ** 2
        for j in range(-m, m + 1, 2)
        for jp in range(-mprime, mprime + 1, 2)
    ]
    # phi is diagonal, so D_h = -phi^2 is, and its eigenvalues are its
    # diagonal entries
    h_values = _diagonal(D_h.matrix)
    h_charpoly_matches = sorted(h_values) == sorted(expected)
    h_all_double = set(Counter(h_values).values()) == {2}

    def branch_charpolys(tensor, plus, minus):
        # at the prime, over the lcm of the two denominators
        den, th = math.lcm(plus.den, minus.den), tensor_hash(tensor)
        return [
            CharPoly(lab, th, charpoly_real(R, den, None, PRIME), PRIME, (R, None)) for R in (plus, minus)
        ]

    h_branches = involution_branches(T, D_h.matrix)
    branch_dims_ok = sum(R.nrows for R in h_branches) == T.nrows
    h_simple = tuple(certificate(h) for h in branch_charpolys(s_h, *h_branches))
    b_disjoint = certificate(*branch_charpolys(s_b, *involution_branches(T, D_b.matrix)))

    alpha_found = None
    combined = None
    for alpha in _ALPHA_GRID:
        s_alpha = s_h.scale(1 - alpha) + s_b.scale(alpha)
        cert = certificate(char_poly_of(build_DV(spec, lab, s_alpha), PRIME))
        if cert.verdict:
            alpha_found, combined = alpha, cert
            break

    report = PairsPipelineReport(
        label=lab,
        epsilon=eps,
        involution_ok=involution_ok,
        anticommutes_ok=anticommutes_ok,
        commutes_ok=commutes_ok,
        h_charpoly_matches=h_charpoly_matches,
        h_all_double=h_all_double,
        branch_dims_ok=branch_dims_ok,
        h_simple_on_branches=h_simple,
        b_branches_disjoint=b_disjoint,
        alpha=alpha_found,
        combined_simple=combined,
    )
    if alpha_found is None:
        raise WitnessSearchExhausted(
            f"no alpha in the grid gives a simple combined spectrum for "
            f"({m},{mprime})",
            best=report,
        )
    return report


# -- random definite search ------------------------------------------------------


def sample_definite_tensor(n: int, rng: random.Random) -> SymTensor:
    """Identity plus a small random symmetric rational perturbation.

    Off-diagonal mass is kept below strict diagonal dominance, so the
    result is positive definite by construction; verified exactly anyway.
    """
    d = 3 * n + 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1 + Fraction(rng.randint(-3, 3), d)
        for j in range(i + 1, n):
            q = Fraction(rng.randint(-3, 3), d)
            rows[i][j] = q
            rows[j][i] = q
    tensor = SymTensor(tuple(tuple(r) for r in rows))
    if not is_positive_definite(tensor):
        raise ArithmeticError("dominance bound failed to give definiteness")
    return tensor


@dataclass(frozen=True)
class WitnessReport:
    spec: GroupSpec
    level: int
    seed: int
    trial: int
    tensor: SymTensor
    labels: tuple[IrrepLabel, ...]
    certificates: tuple[Certificate, ...]

    @property
    def success(self) -> bool:
        return all(c.verdict for c in self.certificates)

    @property
    def score(self) -> int:
        return sum(1 for c in self.certificates if c.verdict)


def certificate_battery(polys: list[CharPoly]) -> list[Certificate]:
    """`polycert.certificate` per charpoly (kind b or c, by the type of its
    label), then per unordered pair (kind a)."""
    return [certificate(p) for p in polys] + [
        certificate(p, q) for i, p in enumerate(polys) for q in polys[i + 1:]
    ]


def witness_search(
    spec: GroupSpec,
    level: int,
    trials: int = 8,
    seed: int = 0,
) -> WitnessReport:
    """Find one definite tensor whose spectrum is certified irreducible
    across every label up to the level bound.

    Each trial draws a random definite perturbation of the round tensor
    and evaluates the complete certificate battery at PRIME (`polycert`).
    All certificates are computed even after a failure, so an exhausted
    search carries the best-scoring trial for diagnosis.
    """
    labels = tuple(labels_up_to_level(spec, level))
    rng = random.Random(seed)
    best: WitnessReport | None = None
    for trial in range(trials):
        tensor = sample_definite_tensor(spec.dim, rng)
        certs = certificate_battery(char_polys_of(spec, labels, tensor, PRIME))
        report = WitnessReport(
            spec=spec,
            level=level,
            seed=seed,
            trial=trial,
            tensor=tensor,
            labels=labels,
            certificates=tuple(certs),
        )
        if report.success:
            return report
        if best is None or report.score > best.score:
            best = report
    raise WitnessSearchExhausted(
        f"no certified tensor found for {spec.display_name} at level {level} "
        f"after {trials} trials",
        best=best,
    )


def battery_json(spec: GroupSpec, level: int, tensor: SymTensor, labels, certificates) -> dict:
    """The JSON document of a certificate battery on the labels up to level."""
    return {
        "group": group_to_json(spec),
        "level": level,
        "tensor": tensor_to_json(tensor),
        "tensor_hash": tensor_hash(tensor),
        "labels": [format_label(l) for l in labels],
        "certificates": [c.to_json() for c in certificates],
    }


def witness_report_json(r: WitnessReport) -> dict:
    return {
        **battery_json(r.spec, r.level, r.tensor, r.labels, r.certificates),
        "seed": r.seed,
        "trial": r.trial,
        "success": r.success,
    }
