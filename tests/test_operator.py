"""Operator construction, hermitian numerics, product structure."""

import gc
import itertools
import math
import random
import weakref
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
from lielap import operator
from lielap.errors import DomainError
from lielap.irreps import build_irrep, label, labels_up_to_level
from lielap.linalg import IntMatrix
from lielap.operator import (
    OperatorMatrix,
    build_DV,
    casimir_tensor,
    cluster_values,
    hermitian_eigenvalues,
    tensor_form,
)
from lielap.witness import sample_definite_tensor


def generic_DV(spec, lab, tensor):
    """Reference construction of D_V(s): the products
    -S_pq rho(X_p) rho(X_q) of the full-size generator matrices, summed
    over every ordered pair, with no use of the factor structure.  The
    products run over the nonzero entries of the generators, in Python ints
    over the common denominator of S.  The result lists the nonzero
    entries row-major as (i, j, re, im) with Fraction re and im, as
    `listed` reads an IntMatrix."""
    gens = []  # per generator, row -> [(column, re, im)]
    for G in build_irrep(spec, lab):
        assert G.den == 1
        rows = {}
        for i, j, x, y in zip(*(a.tolist() for a in (G.rows, G.cols, G.re, G.im))):
            rows.setdefault(i, []).append((j, x, y))
        gens.append(rows)
    den = math.lcm(*(tensor[p, q].denominator for p in range(spec.dim) for q in range(spec.dim)))
    acc = {}
    for p, Gp in enumerate(gens):
        for q, Gq in enumerate(gens):
            c = int(-tensor[p, q] * den)
            if not c:
                continue
            for i, row in Gp.items():
                for l, x, y in row:
                    for j, u, v in Gq.get(l, ()):
                        re, im = acc.get((i, j), (0, 0))
                        acc[i, j] = re + c * (x * u - y * v), im + c * (x * v + y * u)
    return [(i, j, Fraction(re, den), Fraction(im, den))
            for (i, j), (re, im) in sorted(acc.items()) if re or im]


def listed(M):
    """The stored entries of an IntMatrix in their order, as (i, j, re, im)
    with Fraction re and im, after checking that M.den is their least
    common denominator."""
    out = [(i, j, Fraction(x, M.den), Fraction(y, M.den))
           for i, j, x, y in zip(*(a.tolist() for a in (M.rows, M.cols, M.re, M.im)))]
    assert M.den == math.lcm(1, *(x.denominator for *_, re, im in out for x in (re, im)))
    return out


@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
def test_casimir_scalar(m):
    spec = preset("su2")
    op = build_DV(spec, label((m,)), casimir_tensor(spec))
    assert op.matrix == IntMatrix.identity(m + 1) * (m * (m + 2))


def test_square_of_h_diagonal():
    spec = preset("su2")
    op = build_DV(spec, label((4,)), symmetric_product(3, 0, 0, 1))
    values = {(i, j): v for i, j, v in op.matrix.entries()}
    for l in range(5):
        assert values.get((l, l), (0, 0)) == ((4 - 2 * l) ** 2, 0)


def test_operator_linear_in_tensor():
    spec = preset("su2")
    lab = label((3,))
    a = symmetric_product(3, 0, 0, 1)
    b = symmetric_product(3, 1, 2, Fraction(1, 2))
    da = build_DV(spec, lab, a).matrix
    db = build_DV(spec, lab, b).matrix
    dsum = build_DV(spec, lab, a + b.scale(2)).matrix
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
    ids=lambda spec: spec.display_name,
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
            assert listed(op.matrix) == generic_DV(spec, lab, tensor), (lab, tensor)
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
            expected = [(i, j, (x, y)) for i, j, x, y in want]
            op = build_DV(spec, lab, tensor)
            got = list(op.matrix.entries())
            assert got == expected, spins
            # the same scalars: ints where the value is integral, else Fractions
            assert [(type(v.re), type(v.im)) for *_, v in got] == [
                tuple(int if x.denominator == 1 else Fraction for x in v) for *_, v in expected
            ]
            assert listed(op.matrix) == want


@pytest.mark.parametrize(
    "k, n", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (1, 3), (2, 3), (1, 4)]
)
def test_read_out_is_row_major_on_every_shape(k, n):
    # the bands are read out in one order per k whatever the spins; dims
    # below 5 are included, where two bands share a flat column offset.
    # Every label is checked against the reference, on three factors up to
    # dim 216.  With n >= 3 the tensor form also reads a torus triple as a
    # factor, and the coupled tensor gives it cross blocks with the SU(2)
    # factors, which build_DV must pass over
    spec = build_group_spec(k, n)
    tensor = sample_definite_tensor(spec.dim, random.Random(10 * k + n))
    assert (n >= 3) == any(j2 >= k for _, j2 in tensor.operator_form.cross)
    spins = list(itertools.product(range(6), repeat=k))
    weights = list(itertools.product(range(-2, 3), repeat=n))
    for i in range(max(len(spins), len(weights))):
        lab = label(spins[i % len(spins)], weights[i % len(weights)])
        M = build_DV(spec, lab, tensor).matrix
        assert M.rows.dtype == M.cols.dtype == np.int64, lab
        assert (np.diff(M.rows * M.ncols + M.cols) > 0).all(), lab
        assert listed(M) == generic_DV(spec, lab, tensor), lab


def test_one_tensor_takes_both_routes_in_alternation():
    # the first u2 tensor of test_build_DV_matches_generic_products; weights
    # near 10^30 send den * D to Python ints, small ones keep it in int64
    spec = preset("u2")
    tensor = sample_definite_tensor(spec.dim, random.Random(20160215 + spec.dim))
    for m, l, route in [(0, 2, np.int64), (2, 10**30, object), (1, 1, np.int64),
                        (1, 10**30 + 1, object), (2, -4, np.int64), (0, -10**30, object)]:
        lab = label((m,), (l,))
        op = build_DV(spec, lab, tensor)
        assert op.matrix.re.dtype == route, lab
        assert listed(op.matrix) == generic_DV(spec, lab, tensor), lab


def test_alternating_and_equal_tensors_on_the_same_labels():
    # the inputs of test_entries_match_generic_products_in_row_major_order,
    # with the tensors alternating label by label, and a second tensor equal
    # to the generic one but not the same object
    spec = preset("su2xsu2")
    generic = sample_definite_tensor(spec.dim, random.Random(1466))
    twin = SymTensor(generic.entries)
    assert twin == generic and twin is not generic
    tensors = (casimir_tensor(spec), generic, twin)
    for spins in [(m, mp) for m in range(6) for mp in range(6)]:
        lab = label(spins)
        for tensor in tensors:
            assert listed(build_DV(spec, lab, tensor).matrix) == generic_DV(spec, lab, tensor), spins
    assert twin.operator_form is not generic.operator_form


def test_tensor_form_is_made_once_per_tensor(monkeypatch):
    made = []

    def counted(tensor):
        made.append(tensor)
        return tensor_form(tensor)

    monkeypatch.setattr(operator, "tensor_form", counted)
    spec = preset("u2")
    a, b = (sample_definite_tensor(spec.dim, random.Random(seed)) for seed in (1, 2))
    for lab in labels_up_to_level(spec, 3):
        for tensor in (a, b):
            build_DV(spec, lab, tensor)
    assert made == [a, b] and made[0] is a and made[1] is b


@pytest.mark.parametrize(
    "spec, lab",
    [
        (preset("spin4"), label((2, 3))),
        (preset("u2"), label((3,), (-1,))),
        (preset("u2"), label((2,), (10**30,))),
    ],
)
def test_writes_to_a_result_do_not_reach_the_next_build(spec, lab):
    tensor = sample_definite_tensor(spec.dim, random.Random(99))
    want = generic_DV(spec, lab, tensor)
    M = build_DV(spec, lab, tensor).matrix
    assert listed(M) == want
    for a in (M.rows, M.cols, M.re, M.im):
        a[...] = 7
    assert listed(build_DV(spec, lab, tensor).matrix) == want


def test_no_module_cache_keeps_a_tensor_alive():
    spec = preset("u2")
    tensor = sample_definite_tensor(spec.dim, random.Random(5))
    ops = [build_DV(spec, lab, tensor) for lab in labels_up_to_level(spec, 3)]
    ops.append(build_DV(spec, label((2,), (10**30,)), tensor))
    assert all(op.tensor is tensor for op in ops)
    ref = weakref.ref(tensor)
    del tensor, ops
    gc.collect()
    assert ref() is None


def test_torus_operator_is_quadratic_form():
    spec = preset("t2")
    S = metric_to_tensor(MetricSpec([[2, 1], [1, 1]]))
    for w in [(1, 0), (0, 1), (2, -3)]:
        op = build_DV(spec, label((), w), S)
        expect = sum(S[i, j] * w[i] * w[j] for i in range(2) for j in range(2))
        assert op.matrix == IntMatrix.identity(1) * expect


def test_numeric_spectrum_casimir():
    spec = preset("su2")
    op = build_DV(spec, label((3,)), casimir_tensor(spec))
    assert cluster_values(hermitian_eigenvalues(op).tolist(), 1e-8) == ((15.0, 4),)


def test_numeric_spectrum_clusters_squares():
    spec = preset("su2")
    op = build_DV(spec, label((5,)), symmetric_product(3, 0, 0, 1))
    clusters = cluster_values(hermitian_eigenvalues(op).tolist(), 1e-8)
    assert [c[1] for c in clusters] == [2, 2, 2]
    assert [round(c[0]) for c in clusters] == [1, 9, 25]


def test_hermitian_eigenvalues_returns_one_value_per_dimension():
    # hermitian_eigenvalues checks nothing: it returns the eigenvalues of the
    # hermitian part, one per basis vector, 6 on the su2 x su2 label (2, 1)
    spec = preset("su2xsu2")
    op = build_DV(
        spec, label((2, 1)), identity_tensor(6).scale(Fraction(1, 3))
    )
    assert len(hermitian_eigenvalues(op)) == 6
    # and none on a dimension-0 operator
    empty = OperatorMatrix(spec, op.label, op.tensor, IntMatrix.from_dense(np.zeros((0, 0), dtype=np.int64)))
    assert hermitian_eigenvalues(empty).shape == (0,)


def test_cluster_values_gap_logic():
    clusters = cluster_values([1.0, 1.0 + 1e-12, 5.0], 1e-8)
    assert [c[1] for c in clusters] == [2, 1]
    assert cluster_values([], 1e-8) == ()


def test_kronecker_structure_su2xsu2():
    # the operator of s1 + eps s2 on two factor blocks is, exactly, the
    # Kronecker sum D_1 x I + eps I x D_2 of the factor operators
    eps = Fraction(1, 5)
    full = square_of_vector([1, 0, Fraction(1, 2), 0, 0, 0])
    for p in (3, 4, 5):
        full = full + symmetric_product(6, p, p, eps)
    D = build_DV(preset("su2xsu2"), label((2, 1)), full).matrix
    D1 = build_DV(preset("su2"), label((2,)), square_of_vector([1, 0, Fraction(1, 2)])).matrix
    D2 = build_DV(preset("su2"), label((1,)), identity_tensor(3)).matrix
    assert D == D1.kron(IntMatrix.identity(2)) + IntMatrix.identity(3).kron(D2) * eps


def test_kronecker_structure_mixed_torus():
    eps = Fraction(1, 2)
    full = symmetric_product(4, 3, 3, eps)
    for p in (0, 1, 2):
        full = full + symmetric_product(4, p, p)
    D = build_DV(preset("u2"), label((1,), (2,)), full).matrix
    D1 = build_DV(preset("su2"), label((1,)), identity_tensor(3)).matrix
    D2 = build_DV(preset("t1"), label((), (2,)), identity_tensor(1)).matrix
    assert D == D1.kron(IntMatrix.identity(1)) + IntMatrix.identity(2).kron(D2) * eps
