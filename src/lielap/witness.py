"""Symbolic witnesses for spectral simplicity and separation.

Reducible eigenspaces disappear for well-chosen coefficient tensors; this
module constructs tensors together with exact certificates that the bad
coincidences are gone.  Four devices:

  * epsilon_separation: given two finite rational spectra, a rational
    eps > 0 such that the multiset {mu + eps * nu} has a prescribed
    collision pattern (all simple, or all double).
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
    a single tensor with fully simple spectrum on the product.
  * witness_search: random definite perturbations of the round tensor,
    with the full certificate battery (b/c per label, a per pair) checked
    exactly per trial.

Failure is an exception carrying the best partial report, never a report
claiming success.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra_core import (
    GroupSpec,
    SymTensor,
    preset,
    is_positive_definite,
    square_of_vector,
    symmetric_product,
    tensor_hash,
)
from .errors import DomainError, WitnessSearchExhausted
from .irreps import (
    IrrepLabel,
    build_irrep,
    classify_type,
    format_label,
    label,
    rotation_half_pi,
)
from .linalg import IntMatrix, restrict_operator
from .operator import build_DV
from .poly import resultant
from .polycert import (
    CharPoly,
    Certificate,
    cert_a_from_polys,
    cert_b_from_poly,
    cert_c_from_poly,
    char_poly_exact,
    char_poly_of,
    charpoly_from_eigenvalues,
    charpoly_real,
    multiplicity_profile,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


# -- spectra shifting ----------------------------------------------------------


def epsilon_separation(first, second, mode: str = "simple") -> Fraction:
    """A rational eps > 0 giving {mu + eps*nu} the requested pattern.

    mode "simple": both inputs are collision-free lists and the output
    multiset must be collision-free.  mode "double": the first list is
    collision-free, the second consists of exact pairs, and the output
    must consist of exact pairs.  Any eps below every positive ratio
    (mu_i - mu_k) / (nu_l - nu_j) works; half the smallest is returned,
    or 1 when there is no constraint.
    """
    mu = [Fraction(x) for x in first]
    nu = [Fraction(x) for x in second]
    if mode not in ("simple", "double"):
        raise DomainError(f"unknown separation mode {mode!r}")
    if len(set(mu)) != len(mu):
        raise DomainError("first spectrum must be collision-free")
    if mode == "simple":
        if len(set(nu)) != len(nu):
            raise DomainError("second spectrum must be collision-free")
    else:
        counts = {}
        for x in nu:
            counts[x] = counts.get(x, 0) + 1
        if any(c != 2 for c in counts.values()):
            raise DomainError("second spectrum must consist of exact pairs")

    ratios = [
        (a - b) / (d - c)
        for a in mu
        for b in mu
        for c in nu
        for d in nu
        if d != c and (a - b) / (d - c) > 0
    ]
    eps = min(ratios) / 2 if ratios else Fraction(1)

    shifted = sorted(a + eps * c for a in mu for c in nu)
    counts = {}
    for x in shifted:
        counts[x] = counts.get(x, 0) + 1
    want = 1 if mode == "simple" else 2
    if any(c != want for c in counts.values()):
        raise ArithmeticError("separation post-check failed")
    return eps


# -- even-spin splitting witness ------------------------------------------------


@dataclass(frozen=True)
class Su2EvenWitness:
    m: int
    epsilon: Fraction
    tensor: SymTensor
    certificate: Certificate
    even_block_offdiag: tuple[int, ...]
    odd_block_offdiag: tuple[int, ...]
    blocks_disjoint_at_zero: bool


def su2_even_b_witness(m: int, eps_grid=None) -> Su2EvenWitness:
    """Split the doubled square-of-H spectrum on even spin m.

    The operator of the square of the first basis direction is diagonal
    with values (m - 2l)^2, each nonzero value hit once from each parity
    class of l.  Adding eps times the square of the second direction
    couples within each parity class only; the class spectra are disjoint
    integer sets at eps = 0 and each class becomes simple for any eps > 0,
    so small eps separates everything.  The returned certificate is the
    exact squarefreeness resultant at the first eps that works.
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
    disjoint = not (even_vals & odd_vals)
    if not disjoint:
        raise ArithmeticError("parity class spectra collide at eps = 0")

    if eps_grid is None:
        eps_grid = [Fraction(1, p) for p in _PRIMES]
    best = None
    for eps in eps_grid:
        tensor = symmetric_product(3, 0, 0, 1) + symmetric_product(3, 1, 1, eps)
        cert = cert_b_from_poly(char_poly_of(spec, lab, tensor))
        if cert.verdict:
            return Su2EvenWitness(
                m=m,
                epsilon=Fraction(eps),
                tensor=tensor,
                certificate=cert,
                even_block_offdiag=even_off,
                odd_block_offdiag=odd_off,
                blocks_disjoint_at_zero=disjoint,
            )
        best = cert
    raise WitnessSearchExhausted(
        f"no eps in the grid splits the spectrum for m={m}", best=best
    )


# -- mixed SU(2) x torus witness -------------------------------------------------


@dataclass(frozen=True)
class MixedWitness:
    label: IrrepLabel
    direction: tuple[Fraction, ...]
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
    p = char_poly_exact(op)
    matches = p.poly == charpoly_from_eigenvalues(expected)
    cert = cert_b_from_poly(p)
    return MixedWitness(
        label=lab,
        direction=tuple(y),
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


def orbit_eigenbases(T: IntMatrix) -> tuple[tuple[IntMatrix, IntMatrix], list[int]]:
    """Bases K_+, K_- of the +1 and -1 eigenspaces of a real signed
    permutation involution T e_a = t_a e_sigma(a), read off its orbits.

    Each orbit {a, sigma a} with a < sigma a gives column k of K_s the
    vector e_a + s t_a e_sigma(a), and a is returned as the k-th pivot: row
    a of both bases is the k-th unit row.  Fixed points of sigma get no
    column; the caller checks T K_s == s K_s and the column counts exactly.
    """
    cols = T.cols.tolist()
    sigma = dict(zip(cols, T.rows.tolist()))
    t = dict(zip(cols, T.re.tolist()))  # t_a = t[a] / T.den
    reps = [a for a in range(T.ncols) if a < sigma.get(a, a)]
    bases = []
    for s in (1, -1):
        K = np.zeros((T.nrows, len(reps)), dtype=object)
        for k, a in enumerate(reps):
            K[a, k] = T.den
            K[sigma[a], k] = s * t[a]
        bases.append(IntMatrix.from_dense(K, den=T.den))
    return (bases[0], bases[1]), reps


def involution_checks(T: IntMatrix, phi: IntMatrix, psi: IntMatrix) -> tuple[bool, bool, bool]:
    """Exactly: (T^2 = I and T is real, T phi = -phi T, T psi = psi T)."""
    return (
        T @ T == IntMatrix.identity(T.nrows) and not T.im.any(),
        T @ phi == -(phi @ T),
        T @ psi == psi @ T,
    )


def eigenbases_check(T: IntMatrix, w_plus: IntMatrix, w_minus: IntMatrix) -> bool:
    """Exactly: T K_+ = K_+, T K_- = -K_-, and each has half the columns."""
    return (
        T @ w_plus == w_plus
        and T @ w_minus == -w_minus
        and 2 * w_plus.ncols == 2 * w_minus.ncols == T.nrows
    )


def pairs_pipeline(
    m: int, mprime: int, eps=None, alpha_grid=None
) -> PairsPipelineReport:
    """Full simplicity witness on the product of two odd spins.

    The square-of-(H, eps H) operator has doubled spectrum: eigenvalues
    (j + eps j')^2 over odd lattice points, invariant under the sign flip
    of both coordinates.  A real involution built from quarter rotations
    swaps the paired eigenvectors, splitting the product space into two
    halves on which that operator is simple, while the square-of-(B, eps B)
    operator separates the halves.  The involution is a signed permutation,
    so the halves (its +1 and -1 eigenspaces) are written down from its
    orbits, and both operators are restricted to them by reading rows.  A
    final scan over convex combinations of the two tensors finds one
    operator with fully simple spectrum and certifies it by resultant.
    """
    if m < 1 or mprime < 1 or m % 2 == 0 or mprime % 2 == 0:
        raise DomainError("pairs pipeline needs two odd spins")
    if eps is None:
        eps = Fraction(1, 2 * mprime)
    eps = Fraction(eps)
    if not (0 < eps < Fraction(1, mprime)):
        raise DomainError(
            f"eps must lie strictly between 0 and 1/{mprime} to keep the "
            "doubled eigenvalues from colliding further"
        )
    spec = preset("su2xsu2")
    lab = label((m, mprime))
    rep = build_irrep(spec, lab)
    G = rep.generators
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
    p_h = char_poly_exact(D_h)
    h_charpoly_matches = p_h.poly == charpoly_from_eigenvalues(expected)
    h_all_double = multiplicity_profile(p_h.poly).is_all_double

    (w_plus, w_minus), reps = orbit_eigenbases(T)
    branch_dims_ok = eigenbases_check(T, w_plus, w_minus)

    h_plus, h_minus, b_plus, b_minus = (
        charpoly_real(restrict_operator(D.matrix, w, reps))
        for D in (D_h, D_b) for w in (w_plus, w_minus)
    )
    th = tensor_hash(s_h)
    h_simple = (
        Certificate("b", (lab,), th, resultant(h_plus, h_plus.derivative())),
        Certificate("b", (lab,), th, resultant(h_minus, h_minus.derivative())),
    )
    b_disjoint = Certificate(
        "a", (lab, lab), tensor_hash(s_b), resultant(b_plus, b_minus)
    )

    if alpha_grid is None:
        alpha_grid = [Fraction(j, 64) for j in range(1, 64)]
    alpha_found = None
    combined = None
    for alpha in alpha_grid:
        alpha = Fraction(alpha)
        if not (0 < alpha < 1):
            raise DomainError("alpha grid values must lie strictly in (0, 1)")
        s_alpha = s_h.scale(1 - alpha) + s_b.scale(alpha)
        cert = cert_b_from_poly(char_poly_of(spec, lab, s_alpha))
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


def certificate_battery(
    labels, polys: list[CharPoly]
) -> list[Certificate]:
    """Kind b or c per label by type, kind a per unordered pair."""
    certs: list[Certificate] = []
    for lab, p in zip(labels, polys):
        if classify_type(lab) == "quaternionic":
            certs.append(cert_c_from_poly(p))
        else:
            certs.append(cert_b_from_poly(p))
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            certs.append(cert_a_from_polys(polys[i], polys[j]))
    return certs


def witness_search(
    spec: GroupSpec,
    level: int,
    trials: int = 8,
    seed: int = 0,
    labels=None,
) -> WitnessReport:
    """Find one definite tensor whose spectrum is certified irreducible
    across every label up to the level bound.

    Each trial draws a random definite perturbation of the round tensor
    and evaluates the complete certificate battery exactly.  All
    certificates are computed even after a failure, so an exhausted
    search carries the best-scoring trial for diagnosis.
    """
    from .irreps import labels_up_to_level

    if labels is None:
        labels = labels_up_to_level(spec, level)
    labels = tuple(labels)
    rng = random.Random(seed)
    best: WitnessReport | None = None
    for trial in range(trials):
        tensor = sample_definite_tensor(spec.dim, rng)
        polys = [char_poly_of(spec, lab, tensor) for lab in labels]
        certs = certificate_battery(labels, polys)
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
        f"no certified tensor found for {spec.name} at level {level} "
        f"after {trials} trials",
        best=best,
    )


def witness_report_json(r: WitnessReport) -> dict:
    from .algebra_core import tensor_to_json

    return {
        "group": r.spec.name,
        "level": r.level,
        "seed": r.seed,
        "trial": r.trial,
        "tensor": tensor_to_json(r.tensor),
        "tensor_hash": tensor_hash(r.tensor),
        "labels": [format_label(l) for l in r.labels],
        "certificates": [c.to_json() for c in r.certificates],
        "success": r.success,
    }
