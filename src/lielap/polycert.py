"""Exact characteristic polynomials and resultant certificates.

Every verdict in this package reduces to the nonvanishing of an integer
resultant.  Three certificate kinds:

  a  res(p_V, p_W) != 0        V, W share no eigenvalue
  b  res(p_V, p_V') != 0       p_V is squarefree (all eigenvalues simple)
  c  res(p_V, p_V'') != 0      no eigenvalue of multiplicity >= 3

Kind a is only meaningful when W is neither V nor its dual (those always
share the full spectrum); kind c is only meaningful on quaternionic type,
where every eigenvalue is forced to even multiplicity and "all double" is
the best possible, and kind b only off it, since there p_V is a square and
its kind-b value is 0 for every tensor.  The domain checks below enforce
exactly that.

On a quaternionic label the structure J makes p_V = c_V * Q_V^2 with Q_V
monic and c_V = lc(p_V) (`kramers_root`, taken once per label by the
cached `CharPoly.power_form`).
Resultants are multiplicative, so every certificate touching such a label
is computed at half the degree and still reports res(p, q) exactly:

  a, V and W quaternionic   res(p_V, p_W) = c_V^deg p_W * c_W^deg p_V
                                            * res(Q_V, Q_W)^4
  a, only V quaternionic    res(p_V, p_W) = c_V^deg p_W * res(Q_V, p_W)^2
                            (and symmetrically when only W is)
  c                         res(p, p'')   = c^(n-2) * (2c)^n * res(Q, Q')^4,
                                            n = deg p

The square root is checked: c * Q^2 must equal p exactly, and otherwise
ArithmeticError is raised.  So every quaternionic certificate is also a
Kramers check on its operator, like the odd-multiplicity check of
`spectrum.assemble_spectrum`.
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
from .operator import OperatorMatrix, build_DV
from .poly import Poly, resultant, squarefree_decomposition


def charpoly_real(M: IntMatrix) -> Poly:
    """det(M - X*I) as a rational polynomial.

    The sign convention keeps the constant term equal to det(M).  Raises
    ArithmeticError if any coefficient has a nonzero imaginary part: the
    operators this is applied to are similar to hermitian matrices, so an
    imaginary coefficient means the construction upstream is wrong.
    """
    coeffs = charpoly_gq(M)  # det(X*I - M), monic, ascending
    n = M.nrows
    sign = Fraction(-1 if n % 2 else 1)
    out = []
    for c in coeffs:
        if c.im:
            raise ArithmeticError(
                f"characteristic polynomial has imaginary coefficient {c}"
            )
        out.append(sign * c.re)
    return Poly(out)


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial det(D_V(s) - X*I) with its provenance."""

    label: IrrepLabel
    tensor_hash: str
    poly: Poly

    @property
    def degree(self) -> int:
        return self.poly.degree

    @cached_property
    def power_form(self) -> tuple[Fraction, Poly, int]:
        """(c, B, e) with poly = c * B^e: (lc, Kramers root, 2) on a
        quaternionic label, (1, poly, 1) on any other."""
        if classify_type(self.label) != "quaternionic":
            return Fraction(1), self.poly, 1
        return self.poly.lc, kramers_root(self.poly), 2


def kramers_root(p: Poly) -> Poly:
    """The monic Q with p = lc(p) * Q^2, by the top-down square-root
    recursion; ArithmeticError if p is not of that form."""
    n = p.degree
    if n < 0 or n % 2:
        raise ArithmeticError(f"degree {n} polynomial is not c times a square")
    k = n // 2
    c = p.lc
    q = [Fraction(0)] * k + [Fraction(1)]
    for j in range(1, k + 1):
        # coefficient of X^(n-j) in Q^2 is 2 q[k-j] plus products of known q's
        known = sum(q[k - i] * q[k - j + i] for i in range(1, j))
        q[k - j] = (p.coeffs[n - j] / c - known) / 2
    Q = Poly(q)
    if Q * Q * c != p:
        raise ArithmeticError(
            "characteristic polynomial of a quaternionic label is not "
            "c times a square (Kramers degeneracy fails)"
        )
    return Q


def char_poly_exact(op: OperatorMatrix) -> CharPoly:
    return CharPoly(
        label=op.label,
        tensor_hash=tensor_hash(op.tensor),
        poly=charpoly_real(op.matrix),
    )


def char_poly_of(spec: GroupSpec, lab: IrrepLabel, tensor: SymTensor) -> CharPoly:
    return char_poly_exact(build_DV(spec, lab, tensor))


@dataclass(frozen=True)
class MultiplicityProfile:
    """Squarefree split of a charpoly: entries (multiplicity, factor)."""

    degree: int
    entries: tuple[tuple[int, Poly], ...]

    def __post_init__(self):
        total = sum(i * f.degree for i, f in self.entries)
        if total != self.degree:
            raise ArithmeticError("multiplicity profile does not cover the degree")

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def is_all_simple(self) -> bool:
        return self.multiplicities in ((), (1,))

    @property
    def is_all_double(self) -> bool:
        return self.multiplicities in ((), (2,))


def multiplicity_profile(p: Poly) -> MultiplicityProfile:
    if p.degree < 0:
        raise DomainError("zero polynomial has no multiplicity profile")
    return MultiplicityProfile(
        degree=p.degree, entries=tuple(squarefree_decomposition(p))
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
    if p.tensor_hash != q.tensor_hash:
        raise DomainError("certificate operands use different coefficient tensors")
    cp, P, e = p.power_form
    cq, Q, f = q.power_form
    return Certificate(
        kind="a",
        labels=(p.label, q.label),
        tensor_hash=p.tensor_hash,
        value=cp ** q.degree * cq ** p.degree * resultant(P, Q) ** (e * f),
    )


def cert_b_from_poly(p: CharPoly) -> Certificate:
    if classify_type(p.label) == "quaternionic":
        raise DomainError(
            f"certificate kind b does not apply to quaternionic labels, "
            f"got {format_label(p.label)}"
        )
    return Certificate(
        kind="b",
        labels=(p.label,),
        tensor_hash=p.tensor_hash,
        value=resultant(p.poly, p.poly.derivative()),
    )


def cert_c_from_poly(p: CharPoly) -> Certificate:
    if classify_type(p.label) != "quaternionic":
        raise DomainError(
            f"certificate kind c applies to quaternionic labels only, "
            f"got {format_label(p.label)}"
        )
    c, Q, _ = p.power_form
    n = p.degree
    return Certificate(
        kind="c",
        labels=(p.label,),
        tensor_hash=p.tensor_hash,
        value=c ** (n - 2) * (2 * c) ** n * resultant(Q, Q.derivative()) ** 4,
    )


def cert_a(
    spec: GroupSpec, labV: IrrepLabel, labW: IrrepLabel, tensor: SymTensor
) -> Certificate:
    return cert_a_from_polys(
        char_poly_of(spec, labV, tensor), char_poly_of(spec, labW, tensor)
    )


def cert_b(spec: GroupSpec, lab: IrrepLabel, tensor: SymTensor) -> Certificate:
    return cert_b_from_poly(char_poly_of(spec, lab, tensor))


def cert_c(spec: GroupSpec, lab: IrrepLabel, tensor: SymTensor) -> Certificate:
    return cert_c_from_poly(char_poly_of(spec, lab, tensor))


def charpoly_from_eigenvalues(values) -> Poly:
    """prod (e - X) over the multiset: the charpoly in the det(D - X) sign."""
    p = Poly([1])
    for e in values:
        p = p * Poly([Fraction(e), Fraction(-1)])
    return p
