"""Exact characteristic polynomials and resultant certificates.

Every certificate of a witness battery claims that a resultant is nonzero
(spectrum verdicts come from exact signs, exact values and gcds in
`spectrum`).  Three certificate kinds, on p_V = det(D_V(s) - X*I):

  a  res(p_V, p_W) != 0        V, W share no eigenvalue
  b  res(p_V, p_V') != 0       p_V is squarefree (all eigenvalues simple)
  c  res(p_V, p_V'') != 0      no eigenvalue of multiplicity >= 3

The label fixes the kind, so `certificate(p, q=None)` takes it from its
operands: kind a on two charpolys, and on one, kind c on quaternionic
type, where every eigenvalue is forced to even multiplicity and "all
double" is the best possible, and kind b off it (on quaternionic type p_V
is a square, and its kind-b value would be 0 for every tensor).  Kind a
on V and W = V or its dual, which always share the full spectrum, is an
exact zero; a battery holds one label per dual pair and never asks it.

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
power forms P_V = A^e and P_W = B^f, (R, 2) or (P, 1), the values of the
rational resultants are those of integer resultants:

  a   res(p_V, p_W) = res(A, B)^(ef) / d^(deg A * deg B * ef)
  b   res(p, p')    = (-1)^n res(P, P') / d^(n(n-1))
  c   res(p, p'')   = 2^n res(R, R')^4 / d^(4k(k-1)),  k = n / 2

so every certificate touching a quaternionic label runs at half the
degree.

A certificate is (kind, labels, prime, residue).  The batteries of the
witness search and of `certify`, and the pairs pipeline, read every
charpoly at the one prime PRIME = 2147483629 (`split_primes(1)`): one
Hessenberg lane per charpoly, rescaled to the tensor's d, behind the
weighted-hermitian proof.  There are three readers, all over the one
kernel `linalg.charpolys_gq`: `charpoly_real` reads one matrix (the
pairs pipeline's branch matrices and `CharPoly.exact`), `char_poly_of`
one operator through it (the spectrum and the eps and alpha scans), and
`char_polys_of` a battery, in one kernel call whose lanes share one
modular pass per dimension.  P is monic and every split prime exceeds
every degree, so the leading coefficients of P, P' and R' (1, n and k)
survive reduction, and reduction commutes with the resultant:
res(P, Q) mod p = res(P mod p, Q mod p) (Collins, JACM 18, 1971; von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 6).  Each
formula above, with d^(-1) mod p, then gives the residue mod p of the
rational value, and a nonzero residue is an exact, deterministic proof
that the value is nonzero; it is reported with its prime.

`certificate` takes the split primes in order from PRIME, skips any that
divides d, and reports the first nonzero residue; a charpoly not read at
a prime is the exact one reduced there, with no second read.  A zero
residue proves nothing alone: the exact operands, (A, B), (P, P') or
(R, R'), are then read (`CharPoly.exact`), and a nonconstant `int_gcd`
of them proves the value an exact zero, reported as value 0 with prime
None; otherwise their resultant is nonzero and only finitely many primes
divide it, so the next prime is tried.  The exact Kramers root, taken
for such a gcd and for every multiplicity profile (which `spectrum`
reads), is checked as the residue one is: R^2 must equal P, and
otherwise ArithmeticError is raised.

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

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import count

from .algebra_core import GroupSpec, SymTensor, tensor_hash
from .errors import DomainError
from .irreps import IrrepLabel, classify_type, format_label
from .linalg import IntMatrix, charpolys_gq, split_primes
from .operator import OperatorMatrix, build_DV, norm_weights
from .poly import IntPoly, derivative, int_gcd, mul, resultant, squarefree_decomposition


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

    `charpolys_gq` gives det(X*I - M.den*M), rescaled to den by `_over`.
    M is real, or complex with weights (`operator.norm_weights` of the
    label's spins), by which the kernel proves the charpoly real exactly;
    a failed proof raises ArithmeticError (the construction upstream is
    wrong), and a complex M without weights ValueError.  With a prime,
    the coefficients are taken mod prime from the kernel's one lane
    there, in [0, prime).
    """
    den = M.den if den is None else den
    return _over(charpolys_gq([M], [weights], prime)[0], den, M, prime)


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial of D_V(s) with its provenance: poly is
    det(X*I - den*D_V(s)) over the denominator den of the tensor, which
    every label of one tensor shares.  With a prime, poly holds its
    residues mod prime.  source is the matrix and weights it was read
    from, so that `exact` can read it exactly."""

    label: IrrepLabel
    tensor_hash: str
    poly: IntPoly
    prime: int | None = None
    source: tuple[IntMatrix, object] | None = field(default=None, compare=False, repr=False)

    @property
    def degree(self) -> int:
        return self.poly.degree

    @cached_property
    def exact(self) -> "CharPoly":
        """The exact charpoly: self, or poly read again from source."""
        if self.prime is None:
            return self
        M, weights = self.source
        return replace(self, poly=charpoly_real(M, self.poly.den, weights), prime=None)

    def at(self, prime: int) -> "CharPoly":
        """The residues mod prime: self where it is read there, and
        otherwise the exact charpoly reduced, with no second read."""
        if self.prime == prime:
            return self
        P = self.exact.poly
        return CharPoly(
            self.label, self.tensor_hash, IntPoly(tuple(c % prime for c in P.coeffs), P.den),
            prime, self.source,
        )

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


def char_poly_of(op: OperatorMatrix, prime: int | None = None) -> CharPoly:
    """The CharPoly of the operator D_V(s) over its tensor's denominator
    (`charpoly_real`, with the label's weights): its residues mod the
    prime, or exact without one."""
    M, w = op.matrix, norm_weights(op.label.spins)
    poly = charpoly_real(M, op.tensor.integer_form[0], w, prime)
    return CharPoly(op.label, tensor_hash(op.tensor), poly, prime, (M, w))


def char_polys_of(spec: GroupSpec, labels, tensor: SymTensor, prime: int) -> list[CharPoly]:
    """`char_poly_of` at the prime on every label, all read by one
    `charpolys_gq` call, which shares one modular pass among the matrices
    of each dimension; each is rescaled to the tensor's denominator as
    `charpoly_real` does."""
    th, den = tensor_hash(tensor), tensor.integer_form[0]
    Ms = [build_DV(spec, lab, tensor).matrix for lab in labels]
    ws = [norm_weights(lab.spins) for lab in labels]
    return [
        CharPoly(lab, th, _over(cs, den, M, prime), prime, (M, w))
        for lab, M, w, cs in zip(labels, Ms, ws, charpolys_gq(Ms, ws, prime))
    ]


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


@dataclass(frozen=True)
class Certificate:
    """A resultant whose nonvanishing proves a spectral fact, as (kind,
    labels, prime, residue): with a prime, value is the residue mod prime
    of the rational resultant, and nonzero, which proves the resultant
    nonzero; without one, value is 0, an exact zero proved by a common
    factor of the operands."""

    kind: str  # "a", "b", or "c"
    labels: tuple[IrrepLabel, ...]
    tensor_hash: str
    value: int
    prime: int | None = None

    @property
    def verdict(self) -> bool:
        return self.value != 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "labels": [format_label(l) for l in self.labels],
            "tensor": self.tensor_hash,
            "value": str(self.value),
            "prime": self.prime,
            "nonzero": self.verdict,
        }


def _operands(polys) -> tuple:
    """The integer lists whose resultant decides the certificate on polys:
    the bases (A, B) of two power forms, or the base X of one with X',
    which is (P, P') off quaternionic type and (R, R') on it."""
    if len(polys) == 2:
        return tuple(p.power_form[0].coeffs for p in polys)
    X = polys[0].power_form[0].coeffs
    return X, derivative(X)


def _residue(kind: str, polys, r: int) -> int:
    """The residue of the rational value of the kind on polys, read at one
    prime, from the residue r of its operands' resultant (the formulas of
    the module docstring)."""
    p = polys[0]
    prime, n = p.prime, p.degree
    if kind == "a":
        q = polys[1]
        num, e = r ** (p.power_form[1] * q.power_form[1]), n * q.degree
    elif kind == "b":
        num, e = (-1) ** n * r, n * (n - 1)
    else:
        k = n // 2
        num, e = pow(4, k, prime) * r**4, 4 * k * (k - 1)
    return num * pow(p.poly.den, -e, prime) % prime


def certificate(p: CharPoly, q: CharPoly | None = None) -> Certificate:
    """Kind a on p and q; on p alone, kind c on a quaternionic label and
    kind b on any other.  The residue at the first split prime from PRIME
    that leaves d invertible and the residue nonzero, or the exact zero
    once a zero residue meets operands with a common factor (see the
    module docstring).  DomainError if p and q come from different tensors
    or denominators."""
    if q is not None and (p.tensor_hash != q.tensor_hash or p.poly.den != q.poly.den):
        raise DomainError("certificate operands use different coefficient tensors")
    polys = (p,) if q is None else (p, q)
    kind = "a" if q is not None else "c" if classify_type(p.label) == "quaternionic" else "b"
    labels, th, d = tuple(x.label for x in polys), p.tensor_hash, p.poly.den
    for i in count(1):
        prime = split_primes(i)[-1][0]
        if d % prime == 0:
            continue
        at = tuple(x.at(prime) for x in polys)
        r = resultant(*_operands(at), prime)
        if r:
            return Certificate(kind, labels, th, _residue(kind, at, r), prime)
        if len(int_gcd(*_operands([x.exact for x in polys]))) > 1:
            return Certificate(kind, labels, th, 0)


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
