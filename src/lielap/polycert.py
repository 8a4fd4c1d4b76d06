"""Exact characteristic polynomials and resultant certificates.

Every certificate of a witness battery claims that a resultant is nonzero
(spectrum verdicts come from exact signs, exact values and gcds in
`spectrum`).  Three certificate kinds, on p_V = det(D_V(s) - X*I):

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
Every read takes the label's `norm_weights`, so that P_V is proved
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
degree.  On the exact route the square root is checked: R^2 must equal P
exactly, and otherwise ArithmeticError is raised.  So every exact
quaternionic certificate, and every multiplicity profile, which
`spectrum` reads, is also a Kramers check on its operator.

A certificate is (kind, labels, prime, value).  The batteries of the
witness search and of `certify`, and the pairs pipeline, read every
charpoly at the one prime PRIME = 2147483629 (`split_primes(1)`): one
Hessenberg lane per charpoly, rescaled to the tensor's d as on the
exact route, behind the same weighted-hermitian proof.  A battery reads
all its labels at once (`char_polys_of`, `CharPoly.read_all`): one
`charpolys_gq` call, whose lanes share one modular pass per dimension.
The spectrum, the pipeline's alpha scan and `CharPoly.exact` read one
label at a time (`char_poly_of`, `CharPoly.read`, `charpoly_real`).
Both routes rescale by `_over` and read exactly where the prime divides
d, and both keep the matrix and weights that `CharPoly.exact` reads
again.  P is monic and PRIME exceeds every degree, so the leading
coefficients of P, P' and R' (1, n and k) survive reduction, and
reduction commutes with the resultant: res(P, Q) mod p =
res(P mod p, Q mod p) (Collins, JACM 18, 1971; von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 6).  Each
formula above, with d^(-1) mod p, then gives the residue mod p of the
rational value, and a nonzero residue is an exact, deterministic proof
that the value is nonzero; it is reported with its prime.  A zero residue
proves nothing: that certificate is decided again from the exact
charpolys (`CharPoly.exact`) and reported with prime None, as is every
certificate of a tensor whose d is a multiple of the prime, where d has
no inverse.

On a quaternionic label R_p is taken by the same top-down recursion mod
p, halving with the inverse of 2, and R_p^2 = P mod p is checked
(ArithmeticError if not).  Kind c at p: over GF(p), P_p = R_p^2 gives
res(P_p, P_p'') = 2^n res(R_p, R_p')^4, the residue of res(P, P'').  A
nonzero residue says that R_p is squarefree mod p.  Had P a root of
multiplicity 3 or more, its minimal polynomial h would have h^3 dividing
P, so an irreducible factor g of h mod p would have g^3 dividing R_p^2
and g^2 dividing R_p.  So no root has, and Kramers degeneracy (P = R^2
over Q) makes every multiplicity exactly 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

from .algebra_core import GroupSpec, SymTensor, tensor_hash
from .errors import DomainError
from .irreps import IrrepLabel, classify_type, dual_label, format_label
from .linalg import IntMatrix, charpoly_gq, charpolys_gq, split_primes
from .operator import OperatorMatrix, build_DV, norm_weights
from .poly import IntPoly, derivative, mul, resultant, squarefree_decomposition


# the prime at which the certificates of a battery are decided
PRIME = split_primes(1)[0][0]


def _over(coeffs: list[int], den: int, M: IntMatrix, prime: int | None) -> IntPoly:
    """det(X*I - M.den*M), coefficients a_k ascending, rescaled to
    det(X*I - den*M): with t = den / M.den the k-th coefficient is
    a_k t^(n-k), mod prime where there is one."""
    t, r = divmod(den, M.den)
    if r:
        raise ValueError(f"denominator {den} is not a multiple of {M.den}")
    out, pw = [], 1
    for c in reversed(coeffs):
        out.append(c * pw)
        pw *= t
        if prime is not None:
            out[-1] %= prime
            pw %= prime
    return IntPoly(tuple(reversed(out)), den)


def charpoly_real(
    M: IntMatrix, den: int | None = None, weights=None, prime: int | None = None
) -> IntPoly:
    """det(X*I - den*M) over den, a multiple of M.den (M.den if omitted).

    charpoly_gq gives det(X*I - M.den*M), rescaled to den by `_over`.  M
    is real, or complex with weights (`operator.norm_weights` of the
    label's spins), by which charpoly_gq proves the charpoly real
    exactly; a failed proof raises ArithmeticError (the construction
    upstream is wrong), and a complex M without weights ValueError.  With
    a prime, the coefficients are taken mod prime from charpoly_gq's one
    lane there, in [0, prime).
    """
    den = M.den if den is None else den
    return _over(charpoly_gq(M, weights, prime), den, M, prime)


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial of D_V(s) with its provenance: poly is
    det(X*I - den*D_V(s)) over the denominator den of the tensor, which
    every label of one tensor shares.  With a prime, poly holds its
    residues mod prime, and source the matrix and weights it was read
    from, so that `exact` can read it exactly."""

    label: IrrepLabel
    tensor_hash: str
    poly: IntPoly
    prime: int | None = None
    source: tuple[IntMatrix, object] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def read(
        cls, lab: IrrepLabel, th: str, M: IntMatrix, den: int, weights=None,
        prime: int | None = None,
    ) -> "CharPoly":
        """The charpoly of M over den (`charpoly_real`) for the label lab
        of the tensor of hash th: its residues mod the prime, or exact
        where the prime is None or divides den."""
        if prime is None or den % prime == 0:
            return cls(lab, th, charpoly_real(M, den, weights))
        return cls(lab, th, charpoly_real(M, den, weights, prime), prime, (M, weights))

    @classmethod
    def read_all(cls, labels, th: str, Ms, den: int, weights, prime: int) -> list["CharPoly"]:
        """`read` of every (label, matrix, weights), with the residues of
        all of them taken by one `charpolys_gq` call, which shares one
        modular pass among the matrices of each dimension; each is
        rescaled to den as `charpoly_real` does.  Where the prime divides
        den, each is read exactly by `read`."""
        if den % prime == 0:
            return [cls.read(lab, th, M, den, w) for lab, M, w in zip(labels, Ms, weights)]
        return [
            cls(lab, th, _over(cs, den, M, prime), prime, (M, w))
            for lab, M, w, cs in zip(labels, Ms, weights, charpolys_gq(Ms, weights, prime))
        ]

    @property
    def degree(self) -> int:
        return self.poly.degree

    @cached_property
    def exact(self) -> "CharPoly":
        """The exact charpoly: self, or poly read again from source."""
        if self.prime is None:
            return self
        M, weights = self.source
        return CharPoly.read(self.label, self.tensor_hash, M, self.poly.den, weights)

    @cached_property
    def power_form(self) -> tuple[IntPoly, int]:
        """(B, e) with poly = B^e: (Kramers root, 2) on a quaternionic
        label, (poly, 1) on any other; mod the prime where there is one."""
        if classify_type(self.label) != "quaternionic":
            return self.poly, 1
        return kramers_root(self.poly, self.prime), 2


def kramers_root(p: IntPoly, prime: int | None = None) -> IntPoly:
    """The monic R with R^2 = p, by the top-down square-root recursion;
    ArithmeticError if p is not of that form.  A monic rational factor of
    a monic integer polynomial is integral, so R has integer coefficients
    and each step halves exactly; a step that does not shows in the final
    check R^2 = p.  With a prime, p holds residues and R is taken mod
    prime, halving with the inverse of 2, and checked mod prime."""
    n = p.degree
    if n < 0 or n % 2:
        raise ArithmeticError(f"degree {n} polynomial is not a square")
    k = n // 2
    q = [0] * k + [1]
    half = None if prime is None else pow(2, -1, prime)
    for j in range(1, k + 1):
        # coefficient of X^(n-j) in R^2 is 2 q[k-j] plus products of known q's
        known = sum(q[k - i] * q[k - j + i] for i in range(1, j))
        if half is None:
            q[k - j] = (p.coeffs[n - j] - known) // 2
        else:
            q[k - j] = (p.coeffs[n - j] - known) * half % prime
    square = mul(q, q)
    if prime is not None:
        square = [c % prime for c in square]
    if tuple(square) != p.coeffs:
        raise ArithmeticError(
            "characteristic polynomial of a quaternionic label is not "
            "a square (Kramers degeneracy fails)"
        )
    return IntPoly(tuple(q), p.den)


def char_poly_exact(op: OperatorMatrix) -> CharPoly:
    """The exact CharPoly of the operator D_V(s)."""
    return CharPoly.read(
        op.label, tensor_hash(op.tensor), op.matrix, op.tensor.integer_form[0],
        norm_weights(op.label.spins),
    )


def char_poly_of(
    spec: GroupSpec, lab: IrrepLabel, tensor: SymTensor, prime: int | None = None
) -> CharPoly:
    """The CharPoly of D_V(s), read at the prime by `CharPoly.read`;
    exact without one."""
    op = build_DV(spec, lab, tensor)
    return CharPoly.read(
        lab, tensor_hash(tensor), op.matrix, tensor.integer_form[0], norm_weights(lab.spins), prime
    )


def char_polys_of(spec: GroupSpec, labels, tensor: SymTensor, prime: int) -> list[CharPoly]:
    """`char_poly_of` at the prime on every label, by `CharPoly.read_all`:
    one modular pass per dimension among the labels."""
    ops = [build_DV(spec, lab, tensor) for lab in labels]
    return CharPoly.read_all(
        labels, tensor_hash(tensor), [op.matrix for op in ops], tensor.integer_form[0],
        [norm_weights(lab.spins) for lab in labels], prime,
    )


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
    The factors are those of the primitive charpoly of D_V(s), read
    exactly when p holds residues."""
    if p.degree < 0:
        raise DomainError("zero polynomial has no multiplicity profile")
    B, e = p.exact.power_form
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
    """A resultant whose nonvanishing proves a spectral fact, as (kind,
    labels, prime, residue): with a prime, value is the residue mod prime
    of the rational resultant, and nonzero, which proves the resultant
    nonzero; without one, value is the rational resultant itself."""

    kind: str  # "a", "b", or "c"
    labels: tuple[IrrepLabel, ...]
    tensor_hash: str
    value: Fraction
    prime: int | None = None

    @property
    def verdict(self) -> bool:
        return self.value != 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "labels": [format_label(l) for l in self.labels],
            "tensor": self.tensor_hash,
            "value": _exact_str(self.value),
            "prime": self.prime,
            "nonzero": self.verdict,
        }


def _scaled(num: int, d: int, e: int, prime: int | None):
    """num / d^e, or its residue mod prime."""
    return Fraction(num, d**e) if prime is None else num * pow(d, -e, prime) % prime


def _value_a(p: CharPoly, q: CharPoly):
    A, e = p.power_form
    B, f = q.power_form
    r = resultant(A.coeffs, B.coeffs, p.prime)
    return _scaled(r ** (e * f), A.den, p.degree * q.degree, p.prime)


def _value_b(p: CharPoly):
    P, n = p.poly, p.degree
    r = resultant(P.coeffs, derivative(P.coeffs), p.prime)
    return _scaled((-1) ** n * r, P.den, n * (n - 1), p.prime)


def _value_c(p: CharPoly):
    R, _ = p.power_form
    k = R.degree
    r = resultant(R.coeffs, derivative(R.coeffs), p.prime)
    return _scaled(4**k * r**4, R.den, 4 * k * (k - 1), p.prime)


def _decide(kind: str, labels, polys: tuple[CharPoly, ...], value) -> Certificate:
    """The certificate of value(*polys): their residue where they share a
    prime and it is nonzero there, and otherwise the exact value."""
    prime = polys[0].prime
    if prime is not None and all(p.prime == prime for p in polys):
        r = value(*polys)
        if r:
            return Certificate(kind, labels, polys[0].tensor_hash, Fraction(r), prime)
    return Certificate(kind, labels, polys[0].tensor_hash, value(*(p.exact for p in polys)))


def cert_a_from_polys(p: CharPoly, q: CharPoly) -> Certificate:
    # a label and its dual share their spins
    if q.label.spins == p.label.spins and q.label in (p.label, dual_label(p.label)):
        raise DomainError(
            "separation certificate needs distinct, non-dual labels; "
            f"got {format_label(p.label)} and {format_label(q.label)}"
        )
    if p.tensor_hash != q.tensor_hash or p.poly.den != q.poly.den:
        raise DomainError("certificate operands use different coefficient tensors")
    return separation_certificate((p.label, q.label), p, q)


def separation_certificate(labels, p: CharPoly, q: CharPoly) -> Certificate:
    """Kind a on p and q without the label checks of `cert_a_from_polys`:
    the pairs pipeline separates the two halves of one label."""
    return _decide("a", labels, (p, q), _value_a)


def cert_b_from_poly(p: CharPoly) -> Certificate:
    if classify_type(p.label) == "quaternionic":
        raise DomainError(
            f"certificate kind b does not apply to quaternionic labels, "
            f"got {format_label(p.label)}"
        )
    return _decide("b", (p.label,), (p,), _value_b)


def cert_c_from_poly(p: CharPoly) -> Certificate:
    if classify_type(p.label) != "quaternionic":
        raise DomainError(
            f"certificate kind c applies to quaternionic labels only, "
            f"got {format_label(p.label)}"
        )
    return _decide("c", (p.label,), (p,), _value_c)


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
