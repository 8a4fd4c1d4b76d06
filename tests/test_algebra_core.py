"""Group descriptions, symmetric tensors, exact metric inversion."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lielap.algebra_core import (
    MetricSpec,
    SymTensor,
    build_group_spec,
    certified_lower_bound,
    format_rational,
    identity_tensor,
    is_positive_definite,
    metric_to_tensor,
    parse_rational,
    preset,
    square_of_vector,
    symmetric_product,
    tensor_from_json,
    tensor_hash,
    tensor_to_json,
)
from lielap.errors import DomainError
from lielap.witness import sample_definite_tensor
from test_golden import BERGER, GENERIC_0, GENERIC_1, SWAP, TORUS2


def test_group_dimensions():
    assert preset("su2").dim == 3
    assert preset("u2").dim == 4
    assert preset("so4").dim == 6
    assert preset("t3").dim == 3
    assert build_group_spec(2, 2).dim == 8


def test_preset_unknown():
    with pytest.raises(DomainError):
        preset("e8")


def test_sym_tensor_validates_symmetry():
    with pytest.raises(DomainError):
        SymTensor(((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))))


def test_metric_inversion_exact():
    S = metric_to_tensor(MetricSpec([[2, 1], [1, 1]]))
    assert S.entries == (
        (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(2)),
    )


def test_metric_inversion_round_trip():
    g = [[Fraction(5), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(3), Fraction(1, 2)],
         [Fraction(0), Fraction(1, 2), Fraction(7, 5)]]
    S = metric_to_tensor(MetricSpec(g))
    n = 3
    prod = [
        [sum(g[i][k] * S[k, j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_metric_rejects_indefinite():
    with pytest.raises(DomainError):
        metric_to_tensor(MetricSpec([[1, 2], [2, 1]]))
    # positive semidefinite and singular: the second pivot is 0
    assert not is_positive_definite([[1, 1], [1, 1]])
    with pytest.raises(DomainError):
        metric_to_tensor(MetricSpec([[1, 1], [1, 1]]))


def test_positive_definite_matches_numeric():
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = rng.integers(-4, 5, size=(n, n))
        sym = [[Fraction(int(a[i][j] + a[j][i])) for j in range(n)] for i in range(n)]
        exact = is_positive_definite(sym)
        evals = np.linalg.eigvalsh(np.array(sym, dtype=float))
        # integer matrices this small have eigenvalues far from zero or
        # exactly zero; treat tiny as zero, which is not definite
        numeric = bool(evals[0] > 1e-9)
        assert exact == numeric
        agree += 1
    assert agree == 100


def test_symmetric_product_entries():
    s = symmetric_product(3, 0, 1, Fraction(4))
    assert s[0, 1] == Fraction(2) and s[1, 0] == Fraction(2)
    assert s[0, 0] == 0
    d = symmetric_product(3, 2, 2, Fraction(3))
    assert d[2, 2] == Fraction(3)


def test_square_of_vector():
    s = square_of_vector([1, 0, Fraction(1, 2)])
    assert s[0, 0] == 1 and s[2, 2] == Fraction(1, 4) and s[0, 2] == Fraction(1, 2)
    # rank one: every 2x2 minor vanishes
    assert s[0, 0] * s[2, 2] - s[0, 2] * s[2, 0] == 0


def test_tensor_add_scale():
    a = identity_tensor(2)
    b = a.scale(Fraction(1, 3)) + a
    assert b[0, 0] == Fraction(4, 3)


def test_tensor_json_round_trip():
    S = metric_to_tensor(MetricSpec([[2, 1], [1, 1]]))
    doc = tensor_to_json(S)
    assert tensor_from_json(doc).entries == S.entries
    # gram form inverts on load
    doc2 = {"gram": [["2", "1"], ["1", "1"]]}
    assert tensor_from_json(doc2).entries == S.entries


def test_tensor_hash_stability():
    a = identity_tensor(3)
    b = identity_tensor(3)
    assert tensor_hash(a) == tensor_hash(b)
    assert tensor_hash(a) != tensor_hash(identity_tensor(4))
    assert len(tensor_hash(a)) == 12
    # the reference: hashlib's SHA-256 of the canonical tensor JSON
    big = 2**64 + 3
    for t in (
        a,
        SymTensor(((Fraction(2), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(5, 7)))),
        SymTensor(((Fraction(big), Fraction(-big, 7)), (Fraction(-big, 7), Fraction(1, big)))),
        symmetric_product(3, 0, 2),
    ):
        doc = json.dumps(tensor_to_json(t), sort_keys=True, separators=(",", ":"))
        assert tensor_hash(t) == hashlib.sha256(doc.encode()).hexdigest()[:12]


def test_central_elements_validated():
    from lielap.algebra_core import CentralElement

    with pytest.raises(DomainError):
        CentralElement((2,), ())
    # torus coordinates are points on the circle, stored mod 1
    assert CentralElement((), (Fraction(3, 2),)).torus == (Fraction(1, 2),)
    with pytest.raises(DomainError):
        build_group_spec(2, 0, central=[CentralElement((-1,), ())])


def test_parse_rational():
    assert parse_rational("7/5") == Fraction(7, 5)
    assert parse_rational(3) == Fraction(3)
    assert parse_rational(Fraction(2, 9)) == Fraction(2, 9)
    assert parse_rational("-4") == Fraction(-4)


def test_parse_rational_rejects_floats():
    with pytest.raises(ValueError):
        parse_rational(0.5)


def test_format_round_trip():
    for val in (Fraction(0), Fraction(-7, 5), Fraction(12)):
        assert parse_rational(format_rational(val)) == val


# -- the integer elimination against Gauss-Jordan over Q -------------------------


def gauss_jordan_oracle(rows):
    """Gauss-Jordan over Q on the leading square block of rows, with no
    row exchanges; None at the first pivot <= 0.  The k-th pivot is the
    ratio of the k-th to the (k-1)-th leading principal minor, and the
    columns right of the block come out multiplied by its inverse."""
    work = [[Fraction(x) for x in r] for r in rows]
    for c in range(len(work)):
        pivot = work[c][c]
        if pivot <= 0:
            return None
        wc = work[c] = [x / pivot for x in work[c]]
        for r, wr in enumerate(work):
            f = wr[c]
            if r != c and f:
                work[r] = [x - f * y for x, y in zip(wr, wc)]
    return work


def lower_bound_oracle(tensor: SymTensor) -> Fraction:
    """`certified_lower_bound` with each shifted check run by the oracle on
    the Fraction rows of tensor - c I."""
    n = tensor.n
    lam = float(np.linalg.eigvalsh(np.array(tensor.entries, dtype=float))[0])
    c = Fraction(max(lam, 0.0)).limit_denominator(10**12) * Fraction(999, 1000)
    if c <= 0:
        c = Fraction(1, 10**6)
    while gauss_jordan_oracle(
        [[tensor[i, j] - (c if i == j else 0) for j in range(n)] for i in range(n)]
    ) is None:
        c /= 2
    return c


def _random_symmetric(rng: random.Random, n: int) -> tuple[str, list[list[Fraction]]]:
    """A random symmetric rational n x n matrix and its kind: B B^T + D for
    a rational n x r matrix B and a diagonal D >= 0, which is semidefinite
    and singular when r < n and D = 0, and has a zero first leading minor
    when B's first row and D's first entry are 0; or such a matrix less a
    multiple of the identity, often indefinite."""
    r = rng.randint(1, n)
    B = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(r)] for _ in range(n)]
    kind = rng.choice(["gram", "gram+diag", "zero-first", "shifted"])
    D = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) if kind != "gram" else 0 for _ in range(n)]
    if kind == "zero-first":
        B[0] = [Fraction(0)] * r
        D[0] = 0
    rows = [[sum(B[i][l] * B[j][l] for l in range(r)) + (D[i] if i == j else 0)
             for j in range(n)] for i in range(n)]
    if kind == "shifted":
        s = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        rows = [[x - (s if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return kind, rows


def test_integer_elimination_decides_definiteness_as_the_fraction_oracle():
    rng = random.Random(20261021)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 10)
        kind, rows = _random_symmetric(rng, n)
        definite = gauss_jordan_oracle(rows) is not None
        assert is_positive_definite(rows) == definite
        assert is_positive_definite(SymTensor(rows)) == is_positive_definite(MetricSpec(rows)) == definite
        seen[kind, definite] += 1
        if kind == "zero-first":
            assert not definite
    # every kind comes up, the shifted ones on both sides, and semidefinite
    # singular gram matrices (rank r < n) among the failures
    assert seen["shifted", True] and seen["shifted", False] and seen["zero-first", False]
    assert seen["gram", False] and seen["gram", True] and seen["gram+diag", True]


def test_zero_or_negative_leading_minor_is_not_definite():
    for rows in (
        [[0]],
        [[0, 0], [0, 1]],
        # leading minors 1, 0, 0: semidefinite, the second minor is 0
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
        # leading minors 1, 1, 0: singular, the last minor is 0
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
        [[2, 0], [0, Fraction(-1, 7)]],
    ):
        assert gauss_jordan_oracle(rows) is None
        assert not is_positive_definite(rows)
    assert is_positive_definite([[Fraction(1, 10**50)]])


def test_integer_inverse_round_trips_as_the_fraction_oracle():
    rng = random.Random(7)
    inverted = 0
    while inverted < 60:
        n = rng.randint(1, 10)
        _, rows = _random_symmetric(rng, n)
        oracle = gauss_jordan_oracle([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
        if oracle is None:
            with pytest.raises(DomainError):
                metric_to_tensor(MetricSpec(rows))
            continue
        S = metric_to_tensor(MetricSpec(rows))
        assert S.entries == tuple(tuple(r[n:]) for r in oracle)
        assert [[sum(rows[i][k] * S[k, j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]
        # the inverse of the inverse is the gram matrix again
        assert metric_to_tensor(MetricSpec(S.entries)).entries == tuple(map(tuple, rows))
        inverted += 1


def _suite_tensors() -> list[SymTensor]:
    """The golden runs' tensors, the presets' identities, draws of
    `sample_definite_tensor`, and diagonal tensors whose smallest eigenvalue
    sends the bound down by many halvings."""
    tensors = [SymTensor([[parse_rational(x) for x in row] for row in json.loads(doc)])
               for doc in (GENERIC_0, GENERIC_1, SWAP, TORUS2)]
    tensors.append(tensor_from_json({"gram": json.loads(BERGER)}))
    tensors += [identity_tensor(n) for n in (1, 3, 4, 6)]
    tensors += [sample_definite_tensor(n, random.Random(seed)) for n in (3, 4, 5, 6) for seed in range(24)]
    tensors += [SymTensor([[Fraction(1, 10**e) if i == j == 0 else int(i == j) for j in range(3)]
                           for i in range(3)]) for e in (7, 20, 30, 39)]
    return tensors


def test_certified_lower_bound_matches_the_fraction_oracle():
    for tensor in _suite_tensors():
        c = certified_lower_bound(tensor)
        assert c == lower_bound_oracle(tensor)
        assert 0 < c and is_positive_definite(tensor + identity_tensor(tensor.n).scale(-c))


def test_certified_lower_bound_below_its_least_bound_is_a_domain_error():
    # positive definite, but its smallest eigenvalue 10^-45 lies below the
    # least bound tried, 10^-40
    tensor = SymTensor([[Fraction(1, 10**45), 0, 0], [0, 1, 0], [0, 0, 1]])
    assert is_positive_definite(tensor)
    with pytest.raises(DomainError, match="lower bound"):
        certified_lower_bound(tensor)
