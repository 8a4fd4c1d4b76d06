"""Group data and symmetric 2-tensors on the Lie algebra su(2)^k + R^n.

The fixed ordered basis of the Lie algebra is
    H_1, A_1, B_1, ..., H_k, A_k, B_k, e_1, ..., e_n
where (H, A, B) is the standard su(2) triple and e_i span the torus
directions; indices into tensors are 0-based throughout the Python API.

A symmetric 2-tensor s = sum S_pq X_p.X_q is stored as its exact rational
coefficient matrix S.  A left-invariant metric enters as the gram matrix G
of the basis; the tensor dual to it (the tensor of any g-orthonormal
basis) is G^{-1}, computed exactly.

Central subgroups are given by generators: a sign per SU(2) factor
(+1 or -1, i.e. the identity or -Id) together with a torus point written
as fractions of the full period per coordinate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# CPython's built-in SHA-256, so that hashing a tensor does not load OpenSSL
# (the module `random` takes its sha512 the same way); hashlib is the fallback.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .errors import DomainError


# -- group data ---------------------------------------------------------------


@dataclass(frozen=True)
class CentralElement:
    """A central element: sign per SU(2) factor, torus point mod 1."""

    signs: tuple[int, ...]
    torus: tuple[Fraction, ...]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise DomainError("central element signs must be +1 or -1")
        object.__setattr__(
            self, "torus", tuple(Fraction(t) % 1 for t in self.torus)
        )


@dataclass(frozen=True)
class GroupSpec:
    """SU(2)^k x T^n modulo the central subgroup generated by `central`."""

    k: int
    n: int
    central: tuple[CentralElement, ...] = ()
    name: str | None = None

    def __post_init__(self):
        if self.k < 0 or self.n < 0 or self.k + self.n == 0:
            raise DomainError("need k >= 0, n >= 0, k + n >= 1")
        for g in self.central:
            if len(g.signs) != self.k or len(g.torus) != self.n:
                raise DomainError("central element shape does not match (k, n)")

    @property
    def dim(self) -> int:
        return 3 * self.k + self.n

    @property
    def display_name(self) -> str:
        """The name, or k<k>n<n> (k1n0 for SU(2)) for an unnamed group."""
        return self.name or f"k{self.k}n{self.n}"


def build_group_spec(
    k: int,
    n: int,
    central: Iterable[CentralElement] = (),
    name: str | None = None,
) -> GroupSpec:
    return GroupSpec(k=k, n=n, central=tuple(central), name=name)


_MINUS = -1


def preset(name: str) -> GroupSpec:
    """Named groups: su2, so3, u2, so4, spin4 (= su2xsu2), t1, t2, t3."""
    key = name.lower().replace("-", "").replace("_", "")
    if key == "su2":
        return build_group_spec(1, 0, name="su2")
    if key == "so3":
        return build_group_spec(
            1, 0, [CentralElement((_MINUS,), ())], name="so3"
        )
    if key == "u2":
        return build_group_spec(
            1, 1, [CentralElement((_MINUS,), (Fraction(1, 2),))], name="u2"
        )
    if key in ("spin4", "su2xsu2"):
        return build_group_spec(2, 0, name="spin4")
    if key == "so4":
        return build_group_spec(
            2, 0, [CentralElement((_MINUS, _MINUS), ())], name="so4"
        )
    if key in ("t1", "t2", "t3"):
        return build_group_spec(0, int(key[1]), name=key)
    raise DomainError(f"unknown group preset: {name!r}")


# -- symmetric tensors --------------------------------------------------------


def _freeze_symmetric(entries: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("tensor matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise DomainError("tensor matrix must be symmetric")
    return rows


@dataclass(frozen=True)
class SymTensor:
    """Coefficient matrix of a symmetric 2-tensor on the Lie algebra."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze_symmetric(self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    @cached_property
    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, den * S as integers), den the least common denominator;
        computed on first use and kept on the tensor."""
        return _integer_rows(self.entries)

    @cached_property
    def digest(self) -> str:
        """`tensor_hash` of the tensor, computed on first use and kept: the
        first 12 hex digits of the SHA-256 of the canonical tensor JSON,
        taken from CPython's built-in hash module (hashlib only where the
        interpreter has none), so no run loads OpenSSL."""
        doc = json.dumps(tensor_to_json(self), sort_keys=True, separators=(",", ":"))
        return sha256(doc.encode()).hexdigest()[:12]

    @cached_property
    def lower_bound(self) -> Fraction:
        """`certified_lower_bound` of the tensor, computed on first use and
        kept."""
        return certified_lower_bound(self)

    @cached_property
    def operator_form(self):
        """`operator.tensor_form` of the tensor, the part of `build_DV` that
        depends on the tensor alone; computed on first use and kept."""
        from .operator import tensor_form

        return tensor_form(self)

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if self.n != other.n:
            raise DomainError("tensor size mismatch")
        return SymTensor(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def scale(self, c) -> "SymTensor":
        c = Fraction(c)
        return SymTensor(tuple(tuple(c * x for x in r) for r in self.entries))


@dataclass(frozen=True)
class MetricSpec:
    """Gram matrix of a left-invariant metric in the fixed basis."""

    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "gram", _freeze_symmetric(self.gram))

    @property
    def n(self) -> int:
        return len(self.gram)


def identity_tensor(n: int) -> SymTensor:
    return SymTensor(
        tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n))
            for i in range(n)
        )
    )


def _integer_rows(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, den * rows as integers), den the least common denominator of
    the rational entries."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                      for row in rows)


def _eliminate(rows) -> list[list[int]] | None:
    """Fraction-free Gauss-Jordan (Bareiss) on the leading square block of
    integer rows, with no row exchanges; None at the first pivot <= 0.

    Every row but the pivot row becomes (pivot * row - f * pivot row) /
    previous pivot.  After step k each entry is a minor of order k + 1 of
    the input, so every division is exact, and the k-th pivot is the k-th
    leading principal minor: a run that finishes is Sylvester's criterion
    for a symmetric block.  It ends with det on the block's diagonal and
    the columns to its right multiplied by det times the block's inverse,
    det the determinant of the block."""
    work = [list(r) for r in rows]
    prev = 1
    for k, wk in enumerate(work):
        p = wk[k]
        if p <= 0:
            return None
        for i, wi in enumerate(work):
            if i != k:
                f = wi[k]
                work[i] = [(p * x - f * y) // prev for x, y in zip(wi, wk)]
        prev = p
    return work


def is_positive_definite(tensor: SymTensor) -> bool:
    """Exact Sylvester criterion: all leading principal minors positive,
    decided on the tensor's integer rows over their common denominator."""
    return _eliminate(tensor.integer_form[1]) is not None


def certified_lower_bound(tensor: SymTensor) -> Fraction:
    """A positive rational c with tensor - c*I exactly positive definite.

    c = a/b is checked on the integer rows b den S - a den I, (den, den S)
    the tensor's `integer_form`.  DomainError when no c down to 10^-40
    passes: the smallest eigenvalue is too close to 0."""
    n = tensor.n
    dense = np.array([[float(tensor[i, j]) for j in range(n)] for i in range(n)])
    lam = float(np.linalg.eigvalsh(dense)[0])
    c = Fraction(max(lam, 0.0)).limit_denominator(10**12) * Fraction(999, 1000)
    if c <= 0:
        c = Fraction(1, 10**6)
    den, rows = tensor.integer_form

    def shifted_ok(c: Fraction) -> bool:
        a, b = c.numerator * den, c.denominator
        return _eliminate(
            [[b * x - (a if i == j else 0) for j, x in enumerate(row)]
             for i, row in enumerate(rows)]
        ) is not None

    while not shifted_ok(c):
        c /= 2
        if c < Fraction(1, 10**40):
            raise DomainError(
                "cannot certify a lower bound of 1e-40 or more on the "
                "tensor's smallest eigenvalue; it is too close to 0"
            )
    return c


def metric_to_tensor(metric: MetricSpec) -> SymTensor:
    """Exact inverse of the gram matrix: the tensor of a g-orthonormal
    basis, so that the operator it induces is the metric Laplacian.

    `_eliminate` on [den G | I] gives det(den G) (den G)^-1 in integers, and
    G^-1 is den times it over det."""
    n = metric.n
    den, gram = _integer_rows(metric.gram)
    work = _eliminate([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(gram)])
    if work is None:
        raise DomainError("gram matrix is not positive definite")
    det = work[-1][n - 1]
    return SymTensor(tuple(tuple(Fraction(den * x, det) for x in row[n:]) for row in work))


def symmetric_product(n: int, p: int, q: int, coeff=1) -> SymTensor:
    """coeff * X_p.X_q as a coefficient matrix (0-based indices): coeff on
    the diagonal slot for p == q, coeff/2 on each of (p,q) and (q,p)."""
    if not (0 <= p < n and 0 <= q < n):
        raise DomainError("basis index out of range")
    c = Fraction(coeff)
    rows = [[Fraction(0)] * n for _ in range(n)]
    if p == q:
        rows[p][p] = c
    else:
        rows[p][q] = c / 2
        rows[q][p] = c / 2
    return SymTensor(tuple(tuple(r) for r in rows))


def square_of_vector(coeffs: Sequence) -> SymTensor:
    """(sum u_p X_p)^2: the rank-one coefficient matrix u u^T."""
    u = [Fraction(x) for x in coeffs]
    return SymTensor(tuple(tuple(a * b for b in u) for a in u))


# -- JSON ---------------------------------------------------------------------


def parse_rational(s) -> Fraction:
    """Parse "p/q" or "p" (also plain ints) into an exact Fraction.

    Floats are rejected: the JSON interfaces carry rationals as strings so
    no precision is silently lost.
    """
    if isinstance(s, bool):
        raise ValueError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, Fraction):
        return s
    if isinstance(s, float):
        raise ValueError(f"refusing float {s!r}; pass a string like 'p/q'")
    if isinstance(s, str):
        return Fraction(s.strip())
    raise ValueError(f"not a rational: {s!r}")


def format_rational(x: int | Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _parse_int(x, what: str) -> int:
    """A JSON integer; floats and booleans are refused rather than cast."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def tensor_to_json(tensor: SymTensor) -> dict:
    return {
        "tensor": [[format_rational(x) for x in row] for row in tensor.entries]
    }


def tensor_from_json(doc: dict) -> SymTensor:
    """Accepts {"tensor": rows} directly or {"gram": rows} via inversion."""
    if "tensor" in doc:
        rows = [[parse_rational(x) for x in r] for r in doc["tensor"]]
        return SymTensor(tuple(tuple(r) for r in rows))
    if "gram" in doc:
        rows = [[parse_rational(x) for x in r] for r in doc["gram"]]
        return metric_to_tensor(MetricSpec(tuple(tuple(r) for r in rows)))
    raise ValueError('expected a JSON object with "tensor" or "gram"')


def tensor_hash(tensor: SymTensor) -> str:
    """Short stable identifier for certificates."""
    return tensor.digest


def group_from_json(doc: dict) -> GroupSpec:
    """The group of a JSON object; ValueError on one of the wrong shape."""
    if not isinstance(doc, dict):
        raise ValueError("a group is a JSON object")
    elements = doc.get("central", [])
    if not isinstance(elements, list) or not all(isinstance(g, dict) for g in elements):
        raise ValueError('"central" must be a list of JSON objects')
    if not isinstance(doc.get("name", ""), str):
        raise ValueError('"name" must be a string')
    central = []
    for g in elements:
        central.append(
            CentralElement(
                tuple(_parse_int(s, "central sign") for s in g.get("signs", [])),
                tuple(parse_rational(t) for t in g.get("torus", [])),
            )
        )
    return build_group_spec(
        _parse_int(doc["k"], "k"), _parse_int(doc["n"], "n"), central, name=doc.get("name")
    )


def group_to_json(spec: GroupSpec) -> dict:
    doc: dict = {"k": spec.k, "n": spec.n}
    if spec.name:
        doc["name"] = spec.name
    if spec.central:
        doc["central"] = [
            {
                "signs": list(g.signs),
                "torus": [format_rational(t) for t in g.torus],
            }
            for g in spec.central
        ]
    return doc
