"""Operator construction, hermitian numerics, product structure."""

import random
from fractions import Fraction

import numpy as np
import pytest

from lielap.algebra_core import (
    build_group_spec,
    identity_tensor,
    metric_to_tensor,
    MetricSpec,
    preset,
    square_of_vector,
    symmetric_product,
    SymTensor,
)
from lielap.errors import DomainError
from lielap.gaussian import GQ
from lielap.irreps import build_irrep, label, labels_up_to_level
from lielap.linalg import Matrix, add_product
from lielap.operator import (
    build_DV,
    casimir_tensor,
    cluster_values,
    eigen_decompose_numeric,
    kronecker_spectrum_check,
)
from lielap.witness import sample_definite_tensor


def generic_DV(spec, lab, tensor):
    """Reference construction of D_V(s): the sparse products
    -S_pq rho(X_p) rho(X_q) of the full-size generator matrices, summed
    over every ordered pair, with no use of the factor structure."""
    rep = build_irrep(spec, lab)
    acc = [dict() for _ in range(rep.dim)]
    for p in range(spec.dim):
        for q in range(spec.dim):
            c = tensor[p, q]
            if c:
                add_product(acc, rep.generators[p], rep.generators[q], GQ(-c))
    return Matrix.from_rows(rep.dim, rep.dim, acc)


@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
def test_casimir_scalar(m):
    spec = preset("su2")
    op = build_DV(spec, label((m,)), casimir_tensor(spec))
    assert op.matrix.is_scalar(Fraction(m * (m + 2)))


def test_square_of_h_diagonal():
    spec = preset("su2")
    op = build_DV(spec, label((4,)), symmetric_product(3, 0, 0, 1))
    for l in range(5):
        assert op.matrix.to_matrix()[l, l].real_fraction() == (4 - 2 * l) ** 2


def test_operator_linear_in_tensor():
    spec = preset("su2")
    lab = label((3,))
    a = symmetric_product(3, 0, 0, 1)
    b = symmetric_product(3, 1, 2, Fraction(1, 2))
    da = build_DV(spec, lab, a).matrix.to_matrix()
    db = build_DV(spec, lab, b).matrix.to_matrix()
    dsum = build_DV(spec, lab, a + b.scale(2)).matrix.to_matrix()
    assert dsum == da + db + db


def test_tensor_size_mismatch():
    with pytest.raises(DomainError):
        build_DV(preset("su2"), label((1,)), identity_tensor(4))


@pytest.mark.parametrize(
    "spec, lab",
    [
        (preset("su2"), label((1, 2))),
        (preset("su2"), label((1,), (1,))),
        (preset("u2"), label((1,))),
        (preset("spin4"), label((1,))),
        (preset("t2"), label((), (1,))),
    ],
)
def test_label_shape_mismatch(spec, lab):
    with pytest.raises(DomainError, match="label shape does not match the group"):
        build_DV(spec, lab, identity_tensor(spec.dim))


@pytest.mark.parametrize(
    "spec",
    [
        preset("su2"),
        preset("so3"),
        preset("u2"),
        preset("t2"),
        preset("spin4"),
        preset("so4"),
        build_group_spec(2, 1),
        build_group_spec(3, 2),
    ],
    ids=lambda spec: spec.name or f"k{spec.k}n{spec.n}",
)
def test_build_DV_matches_generic_products(spec):
    rng = random.Random(20160215 + spec.dim)
    level = 5 if spec.dim <= 3 else 3 if spec.dim <= 6 else 2 if spec.dim <= 7 else 1
    labels = labels_up_to_level(spec, level)
    assert any(lab.dim == 1 for lab in labels)
    zero = SymTensor(tuple((Fraction(0),) * spec.dim for _ in range(spec.dim)))
    cases, widest = 0, 0
    for lab in labels:
        # mixed denominators: a sampled definite tensor plus a rational square
        u = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(spec.dim)]
        # denominators near 2^64 and 2^61: den * S passes 2^63, the object route
        big = [Fraction(rng.randint(1, 9), rng.choice((2**64 + 13, 2**61 - 1))) for _ in range(spec.dim)]
        for tensor, route in (
            (sample_definite_tensor(spec.dim, rng), np.int64),
            (sample_definite_tensor(spec.dim, rng) + square_of_vector(u), np.int64),
            (sample_definite_tensor(spec.dim, rng) + square_of_vector(big), object),
            (zero, np.int64),
        ):
            op = build_DV(spec, lab, tensor)
            assert op.matrix.re.dtype == route, (lab, tensor)
            assert op.matrix.to_matrix() == generic_DV(spec, lab, tensor), (lab, tensor)
            widest = max([widest] + [abs(x) for x in op.matrix.re.tolist() + op.matrix.im.tolist()])
            cases += 1
    assert cases >= 12 and widest > 2**63


def test_entries_match_generic_products_in_row_major_order():
    spec = preset("su2xsu2")
    generic = sample_definite_tensor(spec.dim, random.Random(1466))
    for tensor in (casimir_tensor(spec), generic):
        for spins in [(m, mp) for m in range(6) for mp in range(6)]:
            lab = label(spins)
            want = generic_DV(spec, lab, tensor)
            expected = [(i, j, want[i, j]) for i in range(want.nrows) for j in sorted(want.rows[i])]
            op = build_DV(spec, lab, tensor)
            got = list(op.matrix.entries())
            assert got == expected, spins
            # the same scalars: ints where the value is integral, else Fractions
            assert [(type(v.re), type(v.im)) for *_, v in got] == [
                (type(v.re), type(v.im)) for *_, v in expected
            ]
            assert op.matrix.to_matrix() == want


def test_torus_operator_is_quadratic_form():
    spec = preset("t2")
    S = metric_to_tensor(MetricSpec([[2, 1], [1, 1]]))
    for w in [(1, 0), (0, 1), (2, -3)]:
        op = build_DV(spec, label((), w), S)
        expect = sum(S[i, j] * w[i] * w[j] for i in range(2) for j in range(2))
        assert op.matrix.to_matrix()[0, 0].real_fraction() == expect


def test_numeric_spectrum_casimir():
    spec = preset("su2")
    ns = eigen_decompose_numeric(build_DV(spec, label((3,)), casimir_tensor(spec)))
    assert ns.clusters == ((15.0, 4),)


def test_numeric_spectrum_clusters_squares():
    spec = preset("su2")
    op = build_DV(spec, label((5,)), symmetric_product(3, 0, 0, 1))
    ns = eigen_decompose_numeric(op)
    assert [c[1] for c in ns.clusters] == [2, 2, 2]
    assert [round(c[0]) for c in ns.clusters] == [1, 9, 25]


def test_numeric_requires_hermitian_weights():
    # a generic definite tensor stays hermitian under the weight conjugation
    spec = preset("su2xsu2")
    op = build_DV(
        spec, label((2, 1)), identity_tensor(6).scale(Fraction(1, 3))
    )
    ns = eigen_decompose_numeric(op)
    assert len(ns.eigenvalues) == 6


def test_cluster_values_gap_logic():
    clusters = cluster_values([1.0, 1.0 + 1e-12, 5.0], 1e-8)
    assert [c[1] for c in clusters] == [2, 1]
    assert cluster_values([], 1e-8) == ()


def test_kronecker_structure_su2xsu2():
    spec = preset("su2xsu2")
    s1 = square_of_vector([1, 0, Fraction(1, 2)])
    s2 = identity_tensor(3)
    assert kronecker_spectrum_check(spec, label((2, 1)), s1, s2, Fraction(1, 5))


def test_kronecker_structure_mixed_torus():
    spec = preset("u2")
    assert kronecker_spectrum_check(
        spec, label((1,), (2,)), identity_tensor(3), identity_tensor(1), Fraction(1, 2)
    )


def test_kronecker_requires_two_blocks():
    with pytest.raises(DomainError):
        kronecker_spectrum_check(
            preset("su2"), label((1,)), identity_tensor(3), identity_tensor(3), 1
        )
