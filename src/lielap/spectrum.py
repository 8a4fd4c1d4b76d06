"""Exact Laplace spectrum assembly below a cutoff.

The pipeline:

  1. Certify a rational lower bound c on the smallest eigenvalue of the
     coefficient tensor S, exactly (positive definiteness of S - c*I),
     once per tensor (`SymTensor.lower_bound`).  Since D_V(s) dominates
     c times the Casimir operator, every irreducible contributing an
     eigenvalue <= L satisfies Casimir(V) <= L / c, which cuts the
     enumeration down to a finite ball.
  2. Compute the characteristic polynomial of D_V(s) exactly for each
     candidate label of the dual-reduced, quotient-descended list, and
     the eigenvalues of its hermitian form in floating point
     (`hermitian_eigenvalues`), which serve as hints only.  Cut the
     charpoly P (the Kramers root on a quaternionic label) between the
     clustered hints: if its exact sign changes across deg P cells, P is
     squarefree and each cell holds one root (`hint_cells`).  Otherwise
     split P into squarefree factors (Yun) and cut each factor the same
     way.
  3. Round every root <= L of every factor to the nearest double, from
     the hint in its cell, with exact signs at the midpoints between
     doubles; a factor whose cells the hints do not prove falls back to a
     Sturm chain and bisection.  Each root keeps an isolating bracket
     (a, b], or [r, r] for a rational root r found exactly.  Every factor
     splits over the reals, so two equal roots have overlapping brackets:
     the roots are sorted by bracket and swept into clusters of
     overlapping brackets, and inside a cluster two roots of different
     factors are one number exactly when their exact values are equal,
     when one exact value lies in the other's bracket and the other
     factor vanishes there, or, with neither value known, when the factor
     that the gcd-free basis of the two lists under both changes sign on
     the intersection of the brackets.  No floating-point comparison
     decides a coincidence, and exact gcds run only on overlapping
     inexact brackets.
  4. Emit one entry per group of equal roots, with the full contributor
     list and the real multiplicity accounting (complex-type labels
     stand for their dual pair and count twice).

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
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
    casimir_eigenvalue,
    classify_type,
    format_label,
    is_self_dual,
    labels_up_to_level,
)
from .poly import (
    fold_odd,
    int_div_exact,
    int_gcd,
    int_sign_at,
    real_root_brackets,
    sign_at_dyadic,
    sturm_chain,
    sturm_variations,
)
# unused here; perfbench/tracer.py looks up spectrum.divides when it installs
from .poly import divides  # noqa: F401
from . import polycert
from .operator import OperatorMatrix, cluster_values, hermitian_eigenvalues
from .polycert import char_poly_exact, multiplicity_profile


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
    radius = cutoff / tensor.lower_bound
    # m (m + 2) <= radius and w^2 <= radius keep every coordinate in the box
    box = labels_up_to_level(spec, math.isqrt(math.floor(radius)))
    return [lab for lab in box if casimir_eigenvalue(lab) <= radius]


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


class Root(NamedTuple):
    """A real root of an integer polynomial: its float, its value when it
    is found rational, and an isolating bracket (lo, hi].

    The float is the double nearest the root (for a rational root, its
    correctly rounded float).  For an inexact root the bracket is the
    interval between the midpoints of that double and its two neighbours,
    cut to the upper bound of `real_roots`; only where another root of
    the polynomial lies in that interval is it cut to the cell the root
    was isolated in.  For a rational root lo = hi = the value.
    """

    value: float
    exact: Fraction | None
    lo: Fraction
    hi: Fraction


# the doubles in increasing order have consecutive keys; _TOP is the key
# of the largest finite double
_NEG = 1 << 63
_TOP = 0x7FEF_FFFF_FFFF_FFFF


def _key(x: float) -> int:
    (u,) = struct.unpack("<Q", struct.pack("<d", x))
    return u if u < _NEG else _NEG - u


def _double(key: int) -> float:
    (x,) = struct.unpack("<d", struct.pack("<Q", key if key >= 0 else _NEG - key))
    return x


def _midpoint(key: int) -> tuple[int, int]:
    """The midpoint of the doubles with keys key and key + 1, as (m, k)
    for m / 2^k."""
    n1, d1 = _double(key).as_integer_ratio()
    n2, d2 = _double(key + 1).as_integer_ratio()
    d = max(d1, d2)
    return n1 * (d // d1) + n2 * (d // d2), d.bit_length()


def _around(x: float) -> tuple[Fraction, Fraction]:
    """The midpoints between the double x and its two neighbours."""
    key = _key(x)
    (m, k), (n, j) = _midpoint(key - 1), _midpoint(key)
    return Fraction(m, 1 << k), Fraction(n, 1 << j)


def _round(cs: list[int], a: Fraction, b: Fraction, sb: int, start: float) -> Root:
    """The one root of the integer polynomial cs in (a, b], where cs has
    the sign sb != 0 at b, rounded to the nearest double.

    The nearest double is the x with the root strictly between the
    midpoints of x and of its two neighbours, and the exact signs of cs at
    those two midpoints prove it.  The search starts at the double start,
    gallops away from it in steps that double, then bisects over the
    doubles: two signs when start is x.  A midpoint outside (a, b] is
    decided without a sign.  A midpoint that is the root returns it
    exactly, and so does the fraction nearest x with denominator at most
    min(lc, isqrt(2 / ulp(x))) when cs vanishes there.  A rational root
    r / s of the primitive cs has s | lc, and it is that fraction whenever
    2 s^2 ulp(x) < 1.
    """
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    hit = []

    def above(key: int) -> bool:
        """Whether the root lies above the midpoint of key and key + 1."""
        if key >= _TOP:
            return False
        if key < -_TOP:
            return True
        m, k = _midpoint(key)
        if m * bd >= bn << k:
            return False
        if m * ad <= an << k:
            return True
        s = sign_at_dyadic(cs, m, k)
        if not s:
            hit.append(Fraction(m, 1 << k))
        return s == -sb

    lo = hi = _key(start)
    step = 1
    if above(lo):
        hi = lo + 1
        while above(hi):
            lo, hi, step = hi, hi + 2 * step, 2 * step
    else:
        lo = hi - 1
        while not above(lo):
            lo, hi, step = lo - 2 * step, lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    if hit:
        (r,) = hit
        return Root(float(r), r, r, r)
    # the root lies strictly between the midpoints of lo and hi = lo + 1
    x = _double(hi)
    mid_lo, mid_hi = _around(x)
    a, b = max(a, mid_lo), min(b, mid_hi)
    un, ud = math.ulp(x).as_integer_ratio()
    r = Fraction(x).limit_denominator(max(1, min(abs(cs[-1]), math.isqrt(2 * ud // un))))
    if a < r <= b and int_sign_at(cs, r) == 0:
        return Root(float(r), r, r, r)
    return Root(x, None, a, b)


def _pin(cs: list[int], a: Fraction, b: Fraction) -> Root:
    """The one root of the integer polynomial cs in (a, b], rounded to the
    nearest double (`_round`) once bisection has narrowed the bracket.

    Bisects at exact midpoints, comparing signs with the sign at b since a
    may itself be a neighbouring root, until b - a is below half a float
    step of the midpoint's float x; `_round` then starts from x.  A
    midpoint that is the root returns it exactly.

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
        return Root(float(b), b, b, b)
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
            r = Fraction(M, q << k)
            return Root(x, r, r, r)
        if sm == sb:
            A, B = A << 1, M
        else:
            A, B = M, B << 1
    return _round(cs, a, b, sb, x)


def hint_cells(h: list[int], hints) -> list[tuple[Fraction, Fraction, float, int]] | None:
    """Cells (a, b] that each hold exactly one root of the primitive h,
    in increasing order, each with a hint in it and the sign of h at b;
    None unless exact signs prove deg h such cells.

    h is cut at the midpoints between consecutive finite hints, between -
    and + its Cauchy bound, where its signs are those of its leading
    terms.  A cell across which h changes sign holds an odd number of
    roots, so deg h such cells hold one root each, and prove every root
    real and simple.  Wrong hints cost the proof, never a root.  A cut on
    a root of h proves nothing and gives None; near-equal hints of one
    root put a cut next to it, so a caller clusters them first, as
    `root_hints` does.
    """
    n = len(h) - 1
    hints = sorted(x for x in hints if math.isfinite(x))
    if n < 1 or len(hints) < n:
        return None
    lc = h[-1]
    bound = 2 + max(abs(c) for c in h[:-1]) // abs(lc)
    top = 1 if lc > 0 else -1
    cells = []
    # the lower end of the current cell, its sign, and the hint in the cell
    lo, s_lo, start = -bound, (-1) ** n * top, hints[0]
    for u, v in zip(hints, hints[1:]):
        c = (u + v) / 2
        # int-float comparisons are exact
        if c <= -bound:
            start = v
            continue
        if c >= bound:
            break
        if not u < c < v:
            # equal or adjacent hints: no cell between them
            continue
        m, den = c.as_integer_ratio()
        s = sign_at_dyadic(h, m, den.bit_length() - 1)
        if not s:
            return None
        if s != s_lo:
            cells.append((Fraction(lo), Fraction(c), start, s))
        lo, s_lo, start = c, s, v
    if s_lo != top:
        cells.append((Fraction(lo), Fraction(bound), start, top))
    return cells if len(cells) == n else None


def real_roots(
    h: list[int], upper: Fraction | None = None, hints=None, cells=None
) -> list[Root]:
    """The roots of a primitive squarefree integer factor known to split
    over the reals, in increasing order, each rounded to the nearest double
    with an isolating bracket; only those <= upper when an upper bound is
    given.

    hints are approximate roots, such as the clustered eigenvalues that
    `eigvalsh` gives for the operator whose charpoly h divides; cells are
    those `hint_cells(h, hints)` proved, when the caller has them.  Each
    root is then rounded from the hint in its cell with a few exact signs
    (`_round`).  Where the hints do not prove deg h cells, or none are
    given, a Sturm chain isolates the roots (`real_root_brackets`, its
    first cuts between the hints or between the real parts of the
    companion-matrix eigenvalues) and bisection narrows each bracket
    first (`_pin`); that route raises ArithmeticError when h does not
    split over the reals.  Both routes give the same value for each root:
    the nearest double does not depend on the cell.  Membership below
    `upper` is decided by the sign of h at `upper`.
    """
    n = len(h) - 1
    if n <= 0:
        return []
    if n == 1:
        r = Fraction(-h[0], h[1])
        return [Root(float(r), r, r, r)] if upper is None or r <= upper else []

    if cells is None and hints is not None:
        cells = hint_cells(h, hints)
    if cells is None:
        if hints is None:
            # int / int is correctly rounded
            hints = np.roots([c / h[-1] for c in reversed(h)]).real.tolist()
        brackets = real_root_brackets(h, hints=hints)
        if len(brackets) != n:
            raise ArithmeticError(
                f"factor of degree {n} has only {len(brackets)} real "
                "roots; hermitian eigenvalue factors must split over the reals"
            )
        cells = [(a, b, None, None) for a, b in brackets]
    out = []
    for a, b, start, sb in cells:
        if upper is not None and upper < b:
            # the root lies in (a, upper] exactly when h does not change
            # sign between upper and b; later roots lie above this one
            if a >= upper:
                break
            su = int_sign_at(h, upper)
            if su == 0:
                out.append(Root(float(upper), upper, upper, upper))
                break
            if su != (sb or int_sign_at(h, b)):
                break
            b, sb = upper, su
        out.append(_pin(h, a, b) if start is None else _round(h, a, b, sb, start))
    # a cell's end may cut into the interval around a root's double; the
    # whole interval, cut to upper, isolates the root all the same unless
    # a neighbouring root lies in it, and does not depend on the cells
    for i, r in enumerate(out):
        if r.exact is None:
            lo, hi = _around(r.value)
            if upper is not None:
                hi = min(hi, upper)
            if (lo, hi) != (r.lo, r.hi) and not any(
                _meets(s, lo, hi) for s in out[max(i - 1, 0):i] + out[i + 1:i + 2]
            ):
                out[i] = r._replace(lo=lo, hi=hi)
    return out


def _meets(r: Root, lo: Fraction, hi: Fraction) -> bool:
    """Whether the root r may lie in (lo, hi]: its exact value does, or its
    bracket meets it."""
    if r.exact is not None:
        return lo < r.exact <= hi
    return max(lo, r.lo) < min(hi, r.hi)


def _root_in(h: list[int], lo: Fraction, hi: Fraction) -> bool:
    """Whether the squarefree h, which has at most one root in (lo, hi],
    has one there: a change of sign, or a Sturm count where lo is itself
    a root of h."""
    s_lo = int_sign_at(h, lo)
    if s_lo == 0:
        chain = sturm_chain(h)
        return sturm_variations(chain, lo) > sturm_variations(chain, hi)
    return int_sign_at(h, hi) != s_lo


def _same_root(f: list[int], r: Root, g: list[int], s: Root, shared) -> bool:
    """Whether the root r of the factor f and the root s of the factor g
    are one number; shared() is the factor common to f and g."""
    if r.exact is not None and s.exact is not None:
        return r.exact == s.exact
    if s.exact is not None:
        f, r, g, s = g, s, f, r
    if r.exact is not None:
        return s.lo < r.exact <= s.hi and int_sign_at(g, r.exact) == 0
    # a common root lies in both brackets, and is a root of the common
    # factor; each bracket holds one root of its factor, so at most one
    lo, hi = max(r.lo, s.lo), min(r.hi, s.hi)
    if lo >= hi:
        return False
    h = shared()
    return len(h) > 1 and _root_in(h, lo, hi)


def _coincident_roots(
    factors: list[list[int]], roots: list[tuple[int, Root]]
) -> list[list[int]]:
    """The roots that are one number, as groups of indices into roots.

    roots holds (index into factors, root) pairs.  The factors split over
    the reals and each root carries a bracket that isolates it, so equal
    roots have overlapping brackets.  The roots are swept in order of
    their lower ends into clusters of overlapping brackets, and each pair
    of roots of different factors inside a cluster is decided exactly:
    by value, by the sign of a factor at a rational root, or, where
    neither value is known, by a sign change of the factor that
    `gcd_free_basis` finds common to the two.  Groups come in the order
    of their first index, each in increasing order.
    """
    parent = list(range(len(roots)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    common: dict[tuple[int, int], list[int]] = {}

    def shared(k: int, l: int) -> list[int]:
        key = (min(k, l), max(k, l))
        if key not in common:
            basis = gcd_free_basis([factors[key[0]], factors[key[1]]])
            common[key] = next((h for h, members in basis if members == [0, 1]), [1])
        return common[key]

    # the roots of the current cluster, and the top of their brackets
    cluster: list[int] = []
    top: Fraction | None = None
    for i in sorted(range(len(roots)), key=lambda i: roots[i][1].lo):
        k, r = roots[i]
        if cluster and r.lo > top:
            cluster = []
        for j in cluster:
            l, s = roots[j]
            if l != k and find(i) != find(j) and _same_root(
                factors[k], r, factors[l], s, lambda: shared(k, l)
            ):
                parent[find(i)] = find(j)
        top = max(top, r.hi) if cluster else r.hi
        cluster.append(i)

    groups: dict[int, list[int]] = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


# relative gap below which two eigenvalues of one label's hermitian form
# are taken for one
_HINT_TOL = 1e-9


def root_hints(op: OperatorMatrix) -> list[float]:
    """The distinct eigenvalues of the operator as floating point sees
    them (`hermitian_eigenvalues`, clustered): the hints for the roots of
    its charpoly."""
    return [v for v, _ in cluster_values(hermitian_eigenvalues(op).tolist(), _HINT_TOL)]


def assemble_spectrum(spec: GroupSpec, tensor: SymTensor, cutoff) -> SpectrumTable:
    cutoff = Fraction(cutoff)
    labels = enumerate_irreps(spec, tensor, cutoff)

    # (label, class multiplicity, squarefree factor); a quaternionic
    # label's profile is taken on its checked Kramers root
    pieces = []
    # (index into pieces, root)
    roots = []
    for lab in labels:
        # build_DV through polycert's name, which perfbench/tracer.py wraps
        op = polycert.build_DV(spec, lab, tensor)
        cp = char_poly_exact(op)
        hints = root_hints(op)
        base, e = cp.power_form
        P = base.primitive()
        cells = hint_cells(P, hints)
        if cells is not None:
            # P changes sign across deg P cells: its roots are simple, so P
            # is its own squarefree split and Yun's gcd is skipped
            profile = [(e, P, cells)]
        else:
            profile = [(mult, f, None) for mult, f in multiplicity_profile(cp).entries]
        for mult, f, proved in profile:
            roots += [(len(pieces), r) for r in real_roots(f, cutoff, hints, proved)]
            pieces.append((lab, mult, f))
    factors = [factor for _, _, factor in pieces]

    entries: list[SpectrumEntry] = []
    for group in _coincident_roots(factors, roots):
        contribs = [
            Contribution(
                label=lab,
                multiplicity=mult,
                rep_type=classify_type(lab),
                dim=lab.dim,
                dual_pair=not is_self_dual(lab),
            )
            for lab, mult, _ in (pieces[roots[i][0]] for i in group)
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
        exact = next(
            (roots[i][1].exact for i in group if roots[i][1].exact is not None), None
        )
        entries.append(
            SpectrumEntry(
                value=roots[group[0]][1].value if exact is None else float(exact),
                exact_value=exact,
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
        lower_bound=tensor.lower_bound,
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
        f"group {t.spec.display_name}  cutoff {t.cutoff}  "
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
