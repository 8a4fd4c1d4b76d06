"""Exact characteristic polynomials and resultant certificates.

Every certificate of a witness battery is the nonvanishing of an integer
resultant (spectrum verdicts come from exact signs, exact values and gcds
in `spectrum`).  Three certificate kinds, on p_V = det(D_V(s) - X*I):

  a  res(p_V, p_W) != 0        V, W share no eigenvalue
  b  res(p_V, p_V') != 0       p_V is squarefree (all eigenvalues simple)
  c  res(p_V, p_V'') != 0      no eigenvalue of multiplicity >= 3

Kind a is only meaningful when W is neither V nor its dual (those always
share the full spectrum); kind c is only meaningful on quaternionic type,
where every eigenvalue is forced to even multiplicity and "all double" is
the best possible, and kind b only off it, since there p_V is a square and
its kind-b value is 0 for every tensor.  The domain checks below enforce
exactly that.

Each charpoly is carried in integer form.  With d the denominator of the
tensor (`SymTensor.integer_form`), shared by all its labels, the charpoly
P_V = det(X*I - d*D_V(s)) is monic with integer coefficients and
p_V(X) = (-1)^n P_V(d*X) / d^n, n = deg P_V (`charpoly_real`, `CharPoly`).
`char_poly_exact` passes the label's `norm_weights`, so that P_V is proved
real by an exact weighted-hermitian check and taken from one modular
image per prime.
On a quaternionic label the structure J makes P_V = R_V^2 with R_V monic
and integral (`kramers_root`, taken once per label by the cached
`CharPoly.power_form`; lc(p_V) = 1 there, since n is even).  With the
power forms P_V = A^e and P_W = B^f, (R, 2) or (P, 1), the reported values
of the rational p's are recovered from integer resultants:

  a   res(p_V, p_W) = res(A, B)^(ef) / d^(deg A * deg B * ef)
  b   res(p, p')    = (-1)^n res(P, P') / d^(n(n-1))
  c   res(p, p'')   = 2^n res(R, R')^4 / d^(4k(k-1)),  k = n / 2

so every certificate touching a quaternionic label runs at half the
degree.  The square root is checked: R^2 must equal P exactly, and
otherwise ArithmeticError is raised.  So every quaternionic certificate,
and every multiplicity profile, which `spectrum` reads, is also a Kramers
check on its operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

from .algebra_core import GroupSpec, SymTensor, tensor_hash
from .errors import DomainError
from .irreps import IrrepLabel, classify_type, dual_label, format_label
from .linalg import IntMatrix, charpoly_gq
from .operator import OperatorMatrix, build_DV, norm_weights
from .poly import IntPoly, derivative, mul, resultant, squarefree_decomposition


def charpoly_real(M: IntMatrix, den: int | None = None, weights=None) -> IntPoly:
    """det(X*I - den*M) over den, a multiple of M.den (M.den if omitted).

    charpoly_gq gives det(X*I - M.den*M) with coefficients a_k, and with
    t = den / M.den the k-th coefficient is a_k t^(n-k).  M is real, or
    complex with weights (`operator.norm_weights` of the label's spins),
    by which charpoly_gq proves the charpoly real exactly; a failed proof
    raises ArithmeticError (the construction upstream is wrong), and a
    complex M without weights ValueError.
    """
    den = M.den if den is None else den
    t, r = divmod(den, M.den)
    if r:
        raise ValueError(f"denominator {den} is not a multiple of {M.den}")
    out, pw = [], 1
    for c in reversed(charpoly_gq(M, weights)):
        out.append(c * pw)
        pw *= t
    return IntPoly(tuple(reversed(out)), den)


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial of D_V(s) with its provenance: poly is
    det(X*I - den*D_V(s)) over the denominator den of the tensor, which
    every label of one tensor shares."""

    label: IrrepLabel
    tensor_hash: str
    poly: IntPoly

    @property
    def degree(self) -> int:
        return self.poly.degree

    @cached_property
    def power_form(self) -> tuple[IntPoly, int]:
        """(B, e) with poly = B^e: (Kramers root, 2) on a quaternionic
        label, (poly, 1) on any other."""
        if classify_type(self.label) != "quaternionic":
            return self.poly, 1
        return kramers_root(self.poly), 2


def kramers_root(p: IntPoly) -> IntPoly:
    """The monic R with R^2 = p, by the top-down square-root recursion;
    ArithmeticError if p is not of that form.  A monic rational factor of
    a monic integer polynomial is integral, so R has integer coefficients
    and each step halves exactly; a step that does not shows in the final
    check R^2 = p."""
    n = p.degree
    if n < 0 or n % 2:
        raise ArithmeticError(f"degree {n} polynomial is not a square")
    k = n // 2
    q = [0] * k + [1]
    for j in range(1, k + 1):
        # coefficient of X^(n-j) in R^2 is 2 q[k-j] plus products of known q's
        known = sum(q[k - i] * q[k - j + i] for i in range(1, j))
        q[k - j] = (p.coeffs[n - j] - known) // 2
    if tuple(mul(q, q)) != p.coeffs:
        raise ArithmeticError(
            "characteristic polynomial of a quaternionic label is not "
            "a square (Kramers degeneracy fails)"
        )
    return IntPoly(tuple(q), p.den)


def char_poly_exact(op: OperatorMatrix) -> CharPoly:
    return CharPoly(
        label=op.label,
        tensor_hash=tensor_hash(op.tensor),
        poly=charpoly_real(op.matrix, op.tensor.integer_form[0], norm_weights(op.label.spins)),
    )


def char_poly_of(spec: GroupSpec, lab: IrrepLabel, tensor: SymTensor) -> CharPoly:
    return char_poly_exact(build_DV(spec, lab, tensor))


@dataclass(frozen=True)
class MultiplicityProfile:
    """Squarefree split of a charpoly: entries (multiplicity, factor)."""

    degree: int
    entries: tuple[tuple[int, list[int]], ...]

    def __post_init__(self):
        total = sum(i * (len(f) - 1) for i, f in self.entries)
        if total != self.degree:
            raise ArithmeticError("multiplicity profile does not cover the degree")

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def is_all_double(self) -> bool:
        return self.multiplicities in ((), (2,))


def multiplicity_profile(p: CharPoly) -> MultiplicityProfile:
    """Yun on the primitive form of the power form's base B, with the
    multiplicities times e: at half the degree on a quaternionic label.
    The factors are those of the primitive charpoly of D_V(s)."""
    if p.degree < 0:
        raise DomainError("zero polynomial has no multiplicity profile")
    B, e = p.power_form
    return MultiplicityProfile(
        degree=p.degree,
        entries=tuple((e * i, f) for i, f in squarefree_decomposition(B.primitive())),
    )


def _exact_str(q: Fraction) -> str:
    """str(q) at any size: Python's str() of an int refuses to pass its
    digit limit, but Decimal converts an int exactly without one."""
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


@dataclass(frozen=True)
class Certificate:
    """An integer resultant whose nonvanishing proves a spectral fact."""

    kind: str  # "a", "b", or "c"
    labels: tuple[IrrepLabel, ...]
    tensor_hash: str
    value: Fraction

    @property
    def verdict(self) -> bool:
        return self.value != 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "labels": [format_label(l) for l in self.labels],
            "tensor": self.tensor_hash,
            "value": _exact_str(self.value),
            "nonzero": self.verdict,
        }


def cert_a_from_polys(p: CharPoly, q: CharPoly) -> Certificate:
    if q.label in (p.label, dual_label(p.label)):
        raise DomainError(
            "separation certificate needs distinct, non-dual labels; "
            f"got {format_label(p.label)} and {format_label(q.label)}"
        )
    if p.tensor_hash != q.tensor_hash or p.poly.den != q.poly.den:
        raise DomainError("certificate operands use different coefficient tensors")
    A, e = p.power_form
    B, f = q.power_form
    return Certificate(
        kind="a",
        labels=(p.label, q.label),
        tensor_hash=p.tensor_hash,
        value=Fraction(
            resultant(A.coeffs, B.coeffs) ** (e * f), A.den ** (p.degree * q.degree)
        ),
    )


def cert_b_from_poly(p: CharPoly) -> Certificate:
    if classify_type(p.label) == "quaternionic":
        raise DomainError(
            f"certificate kind b does not apply to quaternionic labels, "
            f"got {format_label(p.label)}"
        )
    P, n = p.poly, p.degree
    return Certificate(
        kind="b",
        labels=(p.label,),
        tensor_hash=p.tensor_hash,
        value=Fraction(
            (-1) ** n * resultant(P.coeffs, derivative(P.coeffs)), P.den ** (n * (n - 1))
        ),
    )


def cert_c_from_poly(p: CharPoly) -> Certificate:
    if classify_type(p.label) != "quaternionic":
        raise DomainError(
            f"certificate kind c applies to quaternionic labels only, "
            f"got {format_label(p.label)}"
        )
    R, _ = p.power_form
    k = R.degree
    return Certificate(
        kind="c",
        labels=(p.label,),
        tensor_hash=p.tensor_hash,
        value=Fraction(
            4 ** k * resultant(R.coeffs, derivative(R.coeffs)) ** 4,
            R.den ** (4 * k * (k - 1)),
        ),
    )


def charpoly_from_eigenvalues(values, den: int = 1) -> IntPoly:
    """prod (X - den*e) over the multiset, over den: the IntPoly of an
    operator with these eigenvalues.  Each den*e must be an integer, as
    every rational eigenvalue of an integer matrix is; ValueError if not."""
    cs = [1]
    for e in values:
        r = Fraction(e) * den
        if r.denominator != 1:
            raise ValueError(f"{e} times {den} is not an integer")
        cs = mul(cs, [-r.numerator, 1])
    return IntPoly(tuple(cs), den)
