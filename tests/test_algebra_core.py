"""Group descriptions, symmetric tensors, exact metric inversion."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from lielap.algebra_core import (
    MetricSpec,
    SymTensor,
    build_group_spec,
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
