"""Exact Laplace spectrum assembly below a cutoff.

The pipeline:

  1. Certify a rational lower bound c on the smallest eigenvalue of the
     coefficient tensor S, exactly (positive definiteness of S - c*I),
     once per tensor (`SymTensor.lower_bound`).  Since D_V(s) dominates
     c times the Casimir operator, every irreducible contributing an
     eigenvalue <= L satisfies Casimir(V) <= L / c, which cuts the
     enumeration down to a finite ball.
  2. Build D_V(s) once per operator class of the dual-reduced,
     quotient-descended list of candidate labels, and do its exact work
     on it (`label_work`).  The work is the eigenvalues of the hermitian
     form of D_V(s) in floating point (`hermitian_eigenvalues`), which
     serve as hints only, and its characteristic polynomial, exactly.
     Where the smallest hint lies above the cutoff, one exact proof that
     every eigenvalue does is tried first (`linalg.eigenvalues_above`: a
     float Cholesky factor of the shifted weighted-hermitian form, whose
     integer residue is checked diagonally dominant).  A proved label
     has no charpoly and contributes no root; a failed proof leaves it
     on the charpoly route, so no verdict depends on a float.
     The charpoly P (the Kramers root on a quaternionic label) is cut
     at the midpoints between the clustered hints (`hint_cuts`): if its
     exact sign changes across deg P cells, P is squarefree and each cell
     holds one root (`hint_cells`).  Otherwise P is split into squarefree
     factors (Yun), and each factor is cut the same way; one whose cells
     the hints do not prove takes the brackets of its Sturm chain at the
     same cuts (`proved_cells`).  A class is the labels with one tuple of
     spins, on a tensor whose weight w enters D_V(s) only as (w S' w / d) I
     (`weight_is_scalar`, `torus_scalar`; S' = d S_TT, d the tensor's
     denominator), and one label on any other tensor.  Its member with
     the least scalar does the work and finds its roots (step 3), and
     every other takes them moved by t/d, t >= 0 the difference of the
     scalars: an exact root r becomes r + t/d, kept when it is <= L,
     where 2 q^2 ulp(float(r + t/d)) < 1
     for its denominator q shows that step 3 would find it exactly too.
     Any other factor is shifted (`shift_primitive`) and goes through
     step 3 in its moved cells, so no member proves a cell again.
  3. Round every root <= L of every factor to the nearest double, from
     the double its cell starts at (its hint, or a Sturm bracket's
     midpoint), with exact signs at the midpoints between doubles.  A
     root is exact when a midpoint is the root or the denominator rule of
     `_round` recovers it, whatever cell it came from.  Each inexact root
     keeps a bracket (lo, hi] that isolates it within its factor: the
     interval between the midpoints around its double, cut to its cell.  Two equal roots
     have one nearest double, so the roots are put in buckets by their
     doubles, and inside a bucket two roots are one number exactly when
     their exact values are equal, when one exact value lies in the
     other's bracket and the other factor vanishes there, or, with neither
     value known, when the factor that the gcd-free basis of the two lists
     under both has a root in the intersection of the brackets.  No
     floating-point comparison decides a coincidence: the doubles only
     sort the roots into buckets, and exact gcds run only on inexact
     roots that share a double.
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
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

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
    classify_type,
    format_label,
    is_self_dual,
    labels_up_to_level,
)
from .poly import (
    derivative,
    hint_cuts,
    int_div_exact,
    int_gcd,
    int_sign_at,
    real_root_brackets,
    root_bound,
    shift_primitive,
    sign_at_dyadic,
)
# unused here; perfbench/tracer.py looks up spectrum.divides when it installs
from .poly import divides  # noqa: F401
from . import polycert
from .linalg import eigenvalues_above
from .operator import (
    OperatorMatrix,
    cluster_values,
    hermitian_eigenvalues,
    norm_weights,
    torus_scalar,
    weight_is_scalar,
)
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
    budget = math.floor(radius)
    return labels_up_to_level(spec, math.isqrt(budget), casimir=budget)


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
    correctly rounded float), so equal roots of any two polynomials have
    equal floats.  For an inexact root the bracket is the interval between
    the midpoints of that double and its two neighbours, cut to the cell
    the root was isolated in and to the upper bound of `real_roots`: it
    holds no other root of the polynomial.  For a rational root lo = hi =
    the value.
    """

    value: float
    exact: Fraction | None
    lo: Fraction
    hi: Fraction


# the doubles in increasing order have consecutive keys; _TOP is the key
# of the largest finite double
_NEG = 1 << 63
_TOP = 0x7FEF_FFFF_FFFF_FFFF
_MAX = sys.float_info.max


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
    the sign sb at b (0 when the root is b), rounded to the nearest double.

    The nearest double is the x with the root strictly between the
    midpoints of x and of its two neighbours, and the exact signs of cs at
    those two midpoints prove it.  The search starts at the double start,
    gallops away from it in steps that double, then bisects over the
    doubles: two signs when start is x.  A midpoint outside (a, b] is decided
    without a sign.  A midpoint that is the root returns it exactly, and
    so does the fraction nearest x with denominator at most
    min(lc, isqrt(2 / ulp(x))) when cs vanishes there.  A rational root
    r / s of the primitive cs has s | lc, and it is that fraction whenever
    2 s^2 ulp(x) < 1.  A root at b is searched for like any other, from
    the sign of cs just above b, so the result depends on the root alone,
    not on the cell it was isolated in, apart from the cut of its bracket
    to (a, b].
    """
    sb = sb or int_sign_at(derivative(cs), b)
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    hit = []

    def above(key: int) -> bool:
        """Whether the root lies above the midpoint of key and key + 1."""
        if key >= _TOP:
            return False
        if key < -_TOP:
            return True
        m, k = _midpoint(key)
        if m * bd > bn << k:
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


# a cell (a, b] that holds one root of a factor, the double its rounding
# starts from, and the sign of the factor at b
Cell = tuple[Fraction, Fraction, float, int]


def hint_cells(h: list[int], hints) -> list[Cell] | None:
    """Cells (a, b] that each hold exactly one root of the primitive h, in
    increasing order, each with a hint in it to start from and the sign of
    h at b; None unless exact signs prove deg h such cells.

    h is cut at the `hint_cuts` of its `root_bound`, between - and + the
    bound, where its signs are those of its leading terms.  A cell across
    which h changes sign holds an odd number of roots, so deg h such cells
    hold one root each, and prove every root real and simple.  Wrong hints
    cost the proof, never a root.  A cut on a root of h proves nothing and
    gives None; near-equal hints of one root put a cut next to it, so a
    caller clusters them first, as `root_hints` does.
    """
    n = len(h) - 1
    hints = sorted(x for x in hints if math.isfinite(x))
    if n < 1 or len(hints) < n:
        return None
    bound = root_bound(h)
    top = 1 if h[-1] > 0 else -1
    cells = []
    # the lower end of the current cell, its sign, and the hint in the cell
    lo, s_lo, start = -bound, (-1) ** n * top, hints[0]
    for c, v in hint_cuts(hints, bound):
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


def _sturm_cells(h: list[int], hints) -> list[Cell]:
    """The cells of a Sturm chain: the `real_root_brackets` of h, cut at
    the same `hint_cuts` as `hint_cells`, each starting from the double
    nearest its midpoint, clamped to the finite doubles.  Raises
    ArithmeticError when h does not split over the reals."""
    n = len(h) - 1
    brackets = real_root_brackets(h, hints)
    if len(brackets) != n:
        raise ArithmeticError(
            f"factor of degree {n} has only {len(brackets)} real "
            "roots; hermitian eigenvalue factors must split over the reals"
        )
    return [
        (a, b, float(min(max((a + b) / 2, -_MAX), _MAX)), int_sign_at(h, b))
        for a, b in brackets
    ]


def proved_cells(h: list[int], hints) -> list[Cell]:
    """One cell per root of the primitive squarefree h: those the hints
    prove (`hint_cells`), else those of its Sturm chain (`_sturm_cells`);
    none on a linear h, whose root `real_roots` takes exactly."""
    if len(h) < 3:
        return []
    cells = hint_cells(h, hints)
    return _sturm_cells(h, hints) if cells is None else cells


def real_roots(
    h: list[int], upper: Fraction | None = None, hints=(), cells: list[Cell] | None = None
) -> list[Root]:
    """The roots of a primitive squarefree integer factor known to split
    over the reals, in increasing order, each rounded to the nearest double
    with an isolating bracket; only those <= upper when an upper bound is
    given.

    cells are the factor's `proved_cells`, which are found from the hints
    when the caller has none: approximate roots, such as the clustered
    eigenvalues that `eigvalsh` gives for the operator whose charpoly h
    divides.  `_round` rounds every root from its cell, so the hint cells
    and the Sturm cells give each root the same float and the same exact
    value.  Membership below `upper` is decided by the sign of h at
    `upper`.
    """
    n = len(h) - 1
    if n <= 0:
        return []
    if n == 1:
        r = Fraction(-h[0], h[1])
        return [Root(float(r), r, r, r)] if upper is None or r <= upper else []

    out = []
    for a, b, start, sb in proved_cells(h, hints) if cells is None else cells:
        if upper is not None and upper < b:
            # the root lies in (a, upper] exactly when h does not change
            # sign between upper and b; later roots lie above this one
            if a >= upper:
                break
            su = int_sign_at(h, upper)
            if su and su != sb:
                break
            b, sb = upper, su
        out.append(_round(h, a, b, sb, start))
    return out


def _root_in(h: list[int], lo: Fraction, hi: Fraction) -> bool:
    """Whether the squarefree h, which has at most one root in (lo, hi],
    has one there: its sign at hi differs from its sign just above lo,
    which is that of h' where lo is itself a root of h."""
    s_lo = int_sign_at(h, lo) or int_sign_at(derivative(h), lo)
    return int_sign_at(h, hi) != s_lo


def _same_root(f: list[int], r: Root, g: list[int], s: Root, shared) -> bool:
    """Whether the root r of the factor f and the root s of the factor g,
    which has no exact value, are one number; shared() is the factor
    common to f and g."""
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

    roots holds (index into factors, root) pairs.  A factor is read only
    for a root without an exact value, so it may be None where every root
    of it is exact.  Equal roots have one
    nearest double, so the roots are put in buckets by their floats, and
    only roots of one bucket are compared.  Inside a bucket a root with an
    exact value joins the first root of that value through a dict; every
    other root is compared with the first root of each group of its
    bucket and joins the first group it equals, since equality is
    transitive.  So a bucket of equal exact roots costs linear time.
    Each comparison of roots of different factors is decided exactly: by
    the sign of a factor at a rational root or, where neither value is
    known, by a root of the factor that `gcd_free_basis` finds common to
    the two.  Groups come in the order of their first index, each in
    increasing order.
    """
    common: dict[tuple[int, int], list[int]] = {}

    def shared(k: int, l: int) -> list[int]:
        key = (min(k, l), max(k, l))
        if key not in common:
            basis = gcd_free_basis([factors[key[0]], factors[key[1]]])
            common[key] = next((h for h, members in basis if members == [0, 1]), [1])
        return common[key]

    def same(i: int, j: int) -> bool:
        (k, r), (l, s) = roots[i], roots[j]
        # the roots of one squarefree factor are distinct, and two exact
        # roots are compared by value, through the dict below
        if k == l or r.exact is not None and s.exact is not None:
            return False
        if s.exact is not None:
            (k, r), (l, s) = (l, s), (k, r)
        return _same_root(factors[k], r, factors[l], s, lambda: shared(k, l))

    groups: list[list[int]] = []
    # each bucket's groups as indices into groups, and the group of each
    # exact value
    buckets: dict[float, list[int]] = {}
    values: dict[Fraction, int] = {}
    for i, (_, r) in enumerate(roots):
        g = values.get(r.exact)
        if g is None:
            bucket = buckets.setdefault(r.value, [])
            g = next((h for h in bucket if same(i, groups[h][0])), None)
            if g is None:
                g = len(groups)
                groups.append([])
                bucket.append(g)
            if r.exact is not None:
                values[r.exact] = g
        groups[g].append(i)
    return groups


# relative gap below which two eigenvalues of one label's hermitian form
# are taken for one
_HINT_TOL = 1e-9


def root_hints(op: OperatorMatrix) -> list[float]:
    """The distinct eigenvalues of the operator as floating point sees
    them (`hermitian_eigenvalues`, clustered): the hints for the roots of
    its charpoly."""
    return [v for v, _ in cluster_values(hermitian_eigenvalues(op).tolist(), _HINT_TOL)]


class LabelWork(NamedTuple):
    """A label's exact work and its roots.

    split lists (multiplicity in the charpoly, primitive squarefree factor,
    the factor's `proved_cells`, its roots at or below the cutoff), and is
    empty on a label whose spectrum is proved above the cutoff.  The cells
    are [] on a linear factor, and the factor and cells are None on a
    piece whose roots were all moved exactly from the representative of
    its operator class.  shift is the integer t by which the work was
    moved from that representative, None when it was done on the label's
    own operator.
    """

    label: IrrepLabel
    split: list[tuple[int, list[int] | None, list[Cell] | None, list[Root]]]
    shift: int | None


def _direct_work(op: OperatorMatrix, cutoff: Fraction) -> LabelWork:
    """Charpoly, squarefree split, proved cells and roots of the operator
    itself, from its hints; no split at all when the smallest hint lies
    above the cutoff and `eigenvalues_above` proves that every eigenvalue
    does."""
    hints = root_hints(op)
    if hints and eigenvalues_above(op.matrix, norm_weights(op.label.spins), cutoff, hints[0]):
        return LabelWork(op.label, [], None)
    cp = char_poly_exact(op)
    base, e = cp.power_form
    P = base.primitive()
    # a linear factor needs no cells
    cells = hint_cells(P, hints) if len(P) > 2 else []
    if cells is not None:
        # P changes sign across deg P cells: its roots are simple, so P is
        # its own squarefree split and Yun's gcd is skipped
        split = [(e, P, cells)]
    else:
        # P's proof failed just now, so a factor equal to P goes straight
        # to its Sturm chain
        split = [
            (mult, f, _sturm_cells(f, hints) if f == P else proved_cells(f, hints))
            for mult, f in multiplicity_profile(cp).entries
        ]
    return LabelWork(op.label, [(m, f, c, real_roots(f, cutoff, cells=c)) for m, f, c in split], None)


def _moves_exactly(v: Fraction) -> bool:
    """Whether `_round` gives the rational root v = p/q of a primitive
    integer factor exactly, as Root(float(v), v, v, v), from any cell:
    2 q^2 ulp(float(v)) < 1, the bound of its docstring, since q divides
    the factor's leading coefficient."""
    un, ud = math.ulp(float(v)).as_integer_ratio()
    return 2 * v.denominator**2 * un < ud


def _shifted_work(
    rep: LabelWork, lab: IrrepLabel, t: int, den: int, cutoff: Fraction
) -> LabelWork:
    """rep's work moved to the label whose operator is rep's plus t/den
    times the identity.

    A factor whose listed roots all have exact values moves them: each
    r + t/den at or below the cutoff is kept, with no factor, where
    `_moves_exactly` shows that `real_roots` would find it exactly.  Any
    other factor is shifted by t/den (`shift_primitive`), and its roots
    are rounded from rep's proved cells moved by t/den, so no cell is
    proved again.  t >= 0, so the roots the member keeps are among those
    rep listed.  The split is that of the whole charpoly, which the shift
    carries over whatever the label's type.  A quaternionic label has
    weight 0, whose torus scalar 0 is the least of its class, so it is its
    class's representative and is never moved."""
    s, x = Fraction(t, den), t / den
    split = []
    for mult, f, cells, roots in rep.split:
        if all(r.exact is not None for r in roots):
            kept = [r.exact + s for r in roots if r.exact + s <= cutoff]
            if all(map(_moves_exactly, kept)):
                split.append((mult, None, None, [Root(float(v), v, v, v) for v in kept]))
                continue
        g = shift_primitive(f, t, den)
        moved = [(a + s, b + s, start + x, sb) for a, b, start, sb in cells]
        split.append((mult, g, moved, real_roots(g, cutoff, cells=moved)))
    return LabelWork(lab, split, t)


def label_work(
    spec: GroupSpec, tensor: SymTensor, labels: list[IrrepLabel], cutoff
) -> Iterator[LabelWork]:
    """Each label's exact work and roots at or below the cutoff, in the
    order of labels, done once per operator class; none on a label proved
    to have no eigenvalue at or below the cutoff.

    A class is a tuple of spins where the weight enters D_V(s) only as a
    scalar (`weight_is_scalar`), and a single label on any other tensor.
    Its representative is its label with the least `torus_scalar`, the
    first on a tie.  Only its operator is built (through polycert.build_DV,
    the name perfbench/tracer.py wraps), and it does the work
    (`_direct_work`); every other label of the class takes that work moved
    by t/den, t >= 0 the difference of their scalars (`_shifted_work`):
    its exact roots move, and only a factor with another root is shifted
    and rounded again, in moved cells.  A representative proved above the
    cutoff proves its class.
    """
    cutoff = Fraction(cutoff)
    key = (lambda lab: lab.spins) if weight_is_scalar(spec, tensor) else (lambda lab: lab)
    den = tensor.integer_form[0]
    scalar = {lab: torus_scalar(spec, tensor, lab.weight) for lab in labels}
    rep: dict = {}
    # sorted() is stable: a tie keeps the first label
    for lab in sorted(labels, key=scalar.get):
        rep.setdefault(key(lab), lab)
    done: dict[IrrepLabel, LabelWork] = {}
    for lab in labels:
        r = rep[key(lab)]
        if r not in done:
            done[r] = _direct_work(polycert.build_DV(spec, r, tensor), cutoff)
        if lab == r:
            yield done[r]
        else:
            yield _shifted_work(done[r], lab, scalar[lab] - scalar[r], den, cutoff)


def assemble_spectrum(spec: GroupSpec, tensor: SymTensor, cutoff) -> SpectrumTable:
    cutoff = Fraction(cutoff)
    labels = enumerate_irreps(spec, tensor, cutoff)

    # (label, class multiplicity, squarefree factor or None), in label
    # order; a quaternionic label's profile is taken on its checked
    # Kramers root
    pieces = []
    # (index into pieces, root)
    roots = []
    for work in label_work(spec, tensor, labels, cutoff):
        for mult, f, _, found in work.split:
            roots += [(len(pieces), r) for r in found]
            pieces.append((work.label, mult, f))
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
                value=roots[group[0]][1].value,
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
