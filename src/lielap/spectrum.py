"""Exact Laplace spectrum assembly below a cutoff.

The pipeline:

  1. Certify a rational lower bound c on the smallest eigenvalue of the
     coefficient tensor S, exactly (positive definiteness of S - c*I).
     Since D_V(s) dominates c times the Casimir operator, every irreducible
     contributing an eigenvalue <= L satisfies Casimir(V) <= L / c, which
     cuts the enumeration down to a finite ball.
  2. Compute the characteristic polynomial of D_V(s) exactly for each
     candidate label of the dual-reduced, quotient-descended list.
  3. Refine all squarefree factors into a gcd-free basis that records,
     for each element, the factors it divides.  Eigenvalue coincidences
     across different labels are read off this exact factorisation, never
     decided by floating-point comparison.
  4. Emit one entry per real root, with the full contributor list and the
     real multiplicity accounting (complex-type labels stand for their
     dual pair and count twice).

Eigenspace irreducibility per entry: exactly one contributing label, with
multiplicity class 1 (real or complex type) or class 2 (quaternionic).
Failures are tagged with the letter of the violated condition: "a" for a
cross-representation collision, "b" for a repeated eigenvalue inside a
real/complex-type representation, "c" for a quaternionic class above two.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra_core import (
    GroupSpec,
    SymTensor,
    group_to_json,
    is_positive_definite,
    tensor_hash,
    tensor_to_json,
)
from .errors import DomainError
from .irreps import (
    IrrepLabel,
    canonical_dual_rep,
    casimir_eigenvalue,
    classify_type,
    descends_to_quotient,
    format_label,
    is_self_dual,
)
from .poly import (
    fold_odd,
    int_div_exact,
    int_gcd,
    int_sign_at,
    real_root_brackets,
    sign_at_dyadic,
)
# unused here; perfbench/tracer.py looks up spectrum.divides when it installs
from .poly import divides  # noqa: F401
from .polycert import char_poly_of, multiplicity_profile


def certified_lower_bound(tensor: SymTensor) -> Fraction:
    """A positive rational c with tensor - c*I exactly positive definite."""
    n = tensor.n
    dense = np.array([[float(tensor[i, j]) for j in range(n)] for i in range(n)])
    lam = float(np.linalg.eigvalsh(dense)[0])
    c = Fraction(max(lam, 0.0)).limit_denominator(10**12) * Fraction(999, 1000)
    if c <= 0:
        c = Fraction(1, 10**6)

    def shifted_ok(c: Fraction) -> bool:
        rows = [
            [tensor[i, j] - (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        return is_positive_definite(rows)

    while not shifted_ok(c):
        c /= 2
        if c < Fraction(1, 10**40):
            raise ArithmeticError("failed to certify a spectral lower bound")
    return c


def enumerate_irreps(
    spec: GroupSpec, tensor: SymTensor, cutoff
) -> list[IrrepLabel]:
    """Dual-reduced labels that can contribute an eigenvalue <= cutoff."""
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise DomainError("eigenvalue cutoff must be nonnegative")
    if not is_positive_definite(tensor):
        raise DomainError("coefficient tensor must be positive definite")
    if tensor.n != spec.dim:
        raise DomainError(
            f"tensor has size {tensor.n}, algebra has dimension {spec.dim}"
        )
    radius = cutoff / certified_lower_bound(tensor)

    found: list[IrrepLabel] = []

    def weights(idx: int, budget: Fraction, acc: tuple[int, ...], spins):
        if idx == spec.n:
            lab = IrrepLabel(spins, acc)
            if lab == canonical_dual_rep(lab) and descends_to_quotient(spec, lab):
                found.append(lab)
            return
        top = math.isqrt(int(budget))
        for w in range(-top, top + 1):
            weights(idx + 1, budget - w * w, acc + (w,), spins)

    def spins(idx: int, budget: Fraction, acc: tuple[int, ...]):
        if idx == spec.k:
            weights(0, budget, (), acc)
            return
        m = 0
        while m * (m + 2) <= budget:
            spins(idx + 1, budget - m * (m + 2), acc + (m,))
            m += 1

    spins(0, radius, ())
    found.sort(key=lambda l: (casimir_eigenvalue(l), l.spins, l.weight))
    return found


@dataclass(frozen=True)
class Contribution:
    """One label's share of an eigenvalue."""

    label: IrrepLabel
    multiplicity: int  # eigenspace dimension inside the complex irreducible
    rep_type: str
    dim: int
    dual_pair: bool

    @property
    def real_multiplicity(self) -> int:
        return self.multiplicity * self.dim * (2 if self.dual_pair else 1)


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    exact_value: Fraction | None  # rational roots only
    factor: tuple[int, ...]  # primitive squarefree basis factor it solves
    real_multiplicity: int
    contributions: tuple[Contribution, ...]
    irreducible: bool
    failed_condition: str | None


@dataclass(frozen=True)
class SpectrumTable:
    spec: GroupSpec
    tensor: SymTensor
    tensor_hash: str
    cutoff: Fraction
    lower_bound: Fraction
    labels: tuple[IrrepLabel, ...]
    entries: tuple[SpectrumEntry, ...]

    @property
    def all_irreducible(self) -> bool:
        return all(e.irreducible for e in self.entries)


def gcd_free_basis(polys: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """Pairwise coprime squarefree polynomials spanning the inputs, each
    with the sorted indices of the inputs it divides.

    Inputs must be primitive and squarefree (Yun output).  Every input is
    then a constant times the product of the basis elements that list it,
    so shared roots are read off the members without any further division.
    """
    basis: list[tuple[list[int], list[int]]] = []
    for n, f in enumerate(polys):
        i = 0
        while i < len(basis) and len(f) > 1:
            b, members = basis[i]
            g = int_gcd(f, b)
            if len(g) == 1:
                i += 1
                continue
            if len(g) < len(b):
                # b / g keeps b's members, and f is squarefree, so b / g is
                # coprime to f and the next gcd is skipped
                basis[i] = (g, members + [n])
                basis.insert(i + 1, (int_div_exact(b, g), members))
                i += 1
            else:
                members.append(n)
            f = int_div_exact(f, g)
            i += 1
        if len(f) > 1:
            basis.append((f, [n]))
    return basis


def _pin(cs: list[int], a: Fraction, b: Fraction) -> tuple[float, Fraction | None]:
    """The one root of the integer polynomial cs in (a, b], to one ulp.

    Bisects at exact midpoints, comparing signs with the sign at b since a
    may itself be a neighbouring root.  The loop stops once b - a is below
    half a float step of the midpoint's float x, which keeps the root
    strictly between the floats next to x (also where x is a power of two
    and the step below it is half the step above).

    The bracket is kept as integers A, B over a shared denominator q 2^k
    with q odd, so the midpoints are the same rationals a Fraction
    bisection takes, without a Fraction per step.  Bracket ends are
    dyadic except a cutoff, which may bring an odd q; q is folded into
    the coefficients once (`fold_odd`) and every sign is then taken at a
    dyadic point by `sign_at_dyadic`.
    """
    d = math.lcm(a.denominator, b.denominator)
    k = (d & -d).bit_length() - 1
    q = d >> k
    A, B = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    folded = fold_odd(cs, q) if q > 1 else cs
    sb = sign_at_dyadic(folded, B, k)
    if sb == 0:
        return float(b), b
    while True:
        # mid = M / (q 2^(k+1)); int / int is correctly rounded
        M = A + B
        x = M / (q << (k + 1))
        un, ud = math.ulp(x).as_integer_ratio()
        # b - a < ulp(x) / 2, with b - a = (B - A) / (q 2^k)
        if ((B - A) * ud) << 1 < (un * q) << k:
            break
        k += 1
        sm = sign_at_dyadic(folded, M, k)
        if sm == 0:
            return x, Fraction(M, q << k)
        if sm == sb:
            A, B = A << 1, M
        else:
            A, B = M, B << 1
    # a rational root r/s of the primitive cs has s | lc; if s <= Q with
    # 2 Q^2 (b - a) <= 1, it is the fraction nearest mid with denominator <= Q
    Q = math.isqrt((q << k) // (2 * (B - A)))
    mid = Fraction(M, q << (k + 1))
    r = mid.limit_denominator(max(1, min(abs(cs[-1]), Q)))
    if Fraction(A, q << k) < r <= Fraction(B, q << k) and int_sign_at(cs, r) == 0:
        return float(r), r
    return x, None


def real_roots(
    h: list[int], upper: Fraction | None = None
) -> list[tuple[float, Fraction | None]]:
    """The roots of a primitive squarefree integer factor known to split
    over the reals, in increasing order, as (float, exact value or None);
    only those <= upper when an upper bound is given.

    Each root is isolated in a bracket (a, b] by a Sturm chain, whose
    first cuts sit between the real parts of the companion-matrix
    eigenvalues, and then pinned by exact bisection (`_pin`), so every
    float lies within one ulp of a sign change of h.  Both loops run on
    integer points m / 2^k (m / (q 2^k) once a cutoff with odd
    denominator part q cuts a bracket: q is folded into the coefficients)
    and take the same midpoints as bisection over Fractions.  Membership
    below `upper` is decided by the sign of h at `upper`.  The exact value
    is set for every rational root that bisection or the nearest small-
    denominator fraction hits.
    """
    n = len(h) - 1
    if n <= 0:
        return []
    if n == 1:
        r = Fraction(-h[0], h[1])
        return [(float(r), r)] if upper is None or r <= upper else []

    # int / int is correctly rounded
    hints = np.roots([c / h[-1] for c in reversed(h)]).real.tolist()
    brackets = real_root_brackets(h, hints=hints)
    if len(brackets) != n:
        raise ArithmeticError(
            f"factor of degree {n} has only {len(brackets)} real "
            "roots; hermitian eigenvalue factors must split over the reals"
        )
    out = []
    for a, b in brackets:
        if upper is not None and upper < b:
            # the root lies in (a, upper] exactly when h does not change
            # sign between upper and b; later roots lie above this one
            if a >= upper or int_sign_at(h, upper) not in (0, int_sign_at(h, b)):
                break
            b = upper
        out.append(_pin(h, a, b))
    return out


def assemble_spectrum(spec: GroupSpec, tensor: SymTensor, cutoff) -> SpectrumTable:
    cutoff = Fraction(cutoff)
    labels = enumerate_irreps(spec, tensor, cutoff)
    bound = certified_lower_bound(tensor)

    # (label, class multiplicity, squarefree factor); a quaternionic
    # label's profile is taken on its checked Kramers root
    pieces = [
        (lab, mult, factor)
        for lab in labels
        for mult, factor in multiplicity_profile(char_poly_of(spec, lab, tensor)).entries
    ]

    entries: list[SpectrumEntry] = []
    for h, members in gcd_free_basis([factor for _, _, factor in pieces]):
        contribs = [
            Contribution(
                label=lab,
                multiplicity=mult,
                rep_type=classify_type(lab),
                dim=lab.dim,
                dual_pair=not is_self_dual(lab),
            )
            for lab, mult, _ in (pieces[k] for k in members)
        ]
        real_mult = sum(c.real_multiplicity for c in contribs)
        if len(contribs) > 1:
            irreducible, failed = False, "a"
        else:
            (c,) = contribs
            if c.rep_type == "quaternionic":
                irreducible = c.multiplicity == 2
                failed = None if irreducible else "c"
            else:
                irreducible = c.multiplicity == 1
                failed = None if irreducible else "b"
        for approx, exact in real_roots(h, cutoff):
            entries.append(
                SpectrumEntry(
                    value=approx,
                    exact_value=exact,
                    factor=tuple(h),
                    real_multiplicity=real_mult,
                    contributions=tuple(contribs),
                    irreducible=irreducible,
                    failed_condition=failed,
                )
            )

    entries.sort(key=lambda e: e.value)
    return SpectrumTable(
        spec=spec,
        tensor=tensor,
        tensor_hash=tensor_hash(tensor),
        cutoff=cutoff,
        lower_bound=bound,
        labels=tuple(labels),
        entries=tuple(entries),
    )


# -- reporting -----------------------------------------------------------------


def _fmt_float(x: float) -> float:
    return float(f"{x:.12g}")


def entry_to_json(e: SpectrumEntry) -> dict:
    return {
        "eigenvalue": _fmt_float(e.value),
        "exact": str(e.exact_value) if e.exact_value is not None else None,
        "multiplicity": e.real_multiplicity,
        "irreducible": e.irreducible,
        "failed_condition": e.failed_condition,
        "contributors": [
            {
                "label": format_label(c.label),
                "eigenspace_dim": c.multiplicity,
                "type": c.rep_type,
                "dim": c.dim,
                "dual_pair": c.dual_pair,
            }
            for c in e.contributions
        ],
    }


def table_to_json(t: SpectrumTable) -> dict:
    return {
        "group": group_to_json(t.spec),
        "tensor": tensor_to_json(t.tensor),
        "tensor_hash": t.tensor_hash,
        "cutoff": str(t.cutoff),
        "certified_lower_bound": str(t.lower_bound),
        "labels_considered": [format_label(l) for l in t.labels],
        "entries": [entry_to_json(e) for e in t.entries],
        "irreducible_spectrum": t.all_irreducible,
    }


def table_to_csv(t: SpectrumTable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["eigenvalue", "exact", "multiplicity", "irreducible",
         "failed_condition", "contributors"]
    )
    for e in t.entries:
        w.writerow(
            [
                f"{e.value:.12g}",
                str(e.exact_value) if e.exact_value is not None else "",
                e.real_multiplicity,
                "yes" if e.irreducible else "no",
                e.failed_condition or "",
                ";".join(
                    f"{format_label(c.label)}*{c.multiplicity}"
                    for c in e.contributions
                ),
            ]
        )
    return buf.getvalue()


def table_to_text(t: SpectrumTable) -> str:
    lines = [
        f"group {t.spec.name}  cutoff {t.cutoff}  "
        f"tensor {t.tensor_hash}",
        f"{'eigenvalue':>16}  {'mult':>5}  {'irr':>3}  contributors",
    ]
    for e in t.entries:
        val = str(e.exact_value) if e.exact_value is not None else f"{e.value:.9g}"
        contribs = ", ".join(
            f"{format_label(c.label)} (x{c.multiplicity})" for c in e.contributions
        )
        flag = "yes" if e.irreducible else f"no:{e.failed_condition}"
        lines.append(f"{val:>16}  {e.real_multiplicity:>5}  {flag:>3}  {contribs}")
    lines.append(
        "all eigenspaces irreducible"
        if t.all_irreducible
        else "reducible eigenspaces present"
    )
    return "\n".join(lines)


def verdict_report(t: SpectrumTable) -> dict:
    return {
        "irreducible_spectrum": t.all_irreducible,
        "entries": len(t.entries),
        "violations": [
            {
                "eigenvalue": _fmt_float(e.value),
                "condition": e.failed_condition,
                "labels": [format_label(c.label) for c in e.contributions],
            }
            for e in t.entries
            if not e.irreducible
        ],
    }
