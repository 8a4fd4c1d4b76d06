"""Representation data: generator relations, types, duality, descent."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lielap.algebra_core import build_group_spec, group_from_json, identity_tensor, preset
from lielap.errors import DomainError
from lielap.irreps import (
    GAMMA,
    PHASES,
    IrrepLabel,
    build_irrep,
    classify_type,
    descends_to_quotient,
    dual_label,
    format_label,
    is_self_dual,
    label,
    labels_up_to_level,
    quaternionic_structure,
    rotation_half_pi,
    su2_table,
)
from lielap.linalg import IntMatrix
from lielap.operator import build_DV


def commutator(a, b):
    return a @ b + -(b @ a)


def imaginary_diagonal(values):
    """diag(i v_0, i v_1, ...)."""
    return IntMatrix.from_dense(np.zeros((len(values),) * 2, dtype=np.int64), np.diag(values))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
def test_su2_commutation_relations(m):
    H, A, B = build_irrep(preset("su2"), label((m,)))
    assert commutator(H, A) == B * 2
    assert commutator(B, H) == A * 2
    assert commutator(A, B) == H * 2


@pytest.mark.parametrize("m", [0, 1, 2, 4, 7])
def test_casimir_from_generators(m):
    H, A, B = build_irrep(preset("su2"), label((m,)))
    cas = -(H @ H) + -(A @ A) + -(B @ B)
    assert cas == IntMatrix.identity(m + 1) * (m * (m + 2))


@pytest.mark.parametrize("m", range(7))
def test_su2_bands_follow_the_docstring_formulas(m):
    """su2_table(m)[q, i] is the entry (i, i + q - 1) of the basic band X_q,
    and G_a = sum_q GAMMA[a, q] X_q, so GAMMA[a, q] X_q[i] is the entry
    (i, i + q - 1) of G_a.  The module docstring gives G_a column by
    column: column l of G_H holds m - 2l in row l, and those of G_A and G_B
    hold m - l in row l + 1 and l (G_A) or -l (G_B) in row l - 1."""
    want = np.zeros((3, 3, m + 1), dtype=np.int64)  # [a, s + 1, i]: entry (i, i + s) of G_a
    for l in range(m + 1):
        want[0, 1, l] = m - 2 * l
        if l < m:
            want[1, 0, l + 1] = want[2, 0, l + 1] = m - l
        if l > 0:
            want[1, 2, l - 1], want[2, 2, l - 1] = l, -l
    table = su2_table(m)
    assert table.dtype == np.int32 and table.shape == (12, m + 1)
    assert np.array_equal(want, GAMMA[:, :, None] * table[:3])
    assert not table.flags.writeable


@pytest.mark.parametrize("m", range(13))
def test_su2_table_rows_are_bands_of_the_dense_products(m):
    # the dense G_a and G_a G_b of the generators; 2 GAMMA^-1 is integer, so
    # 2 X_q and 4 X_q X_r are integer combinations of them
    G = []
    for M, phase in zip(build_irrep(preset("su2"), label((m,))), PHASES):
        dense = np.zeros((m + 1, m + 1), dtype=np.int64)
        dense[M.rows, M.cols] = M.im if phase else M.re
        G.append(dense)
    inverse = np.array([[0, 1, 1], [2, 0, 0], [0, 1, -1]])
    assert np.array_equal(GAMMA @ inverse, 2 * np.eye(3, dtype=np.int64))
    products = [[sum(inverse[q, a] * inverse[r, b] * (G[a] @ G[b]) for a in range(3) for b in range(3))
                 for r in range(3)] for q in range(3)]

    def band(dense, s):
        """[i] = dense[i, i + s], 0 where i + s is out of range; and whether
        dense has no entry off that band."""
        out = np.array([dense[i, i + s] if 0 <= i + s <= m else 0 for i in range(m + 1)])
        return out, np.count_nonzero(out) == np.count_nonzero(dense)

    table = su2_table(m)
    assert table.shape == (12, m + 1)
    for q in range(3):
        X, only = band(np.einsum("a,aij->ij", inverse[q], G), q - 1)
        assert only and np.array_equal(2 * table[q], X), q
        for r in range(3):
            P, only = band(products[q][r], q + r - 2)
            assert only and np.array_equal(4 * table[3 + 3 * q + r], P), (q, r)


def test_su2_table_switches_to_int64_where_its_entries_reach_2_31():
    m = math.isqrt(2**31 - 1) - 2  # the largest m with (m + 2)^2 < 2^31
    below, above = su2_table.__wrapped__(m), su2_table.__wrapped__(m + 1)
    assert below.dtype == np.int32 and above.dtype == np.int64
    # the largest entries, exact: D D at 0 is n^2, L L at 2 and U U at n - 2 are (n - 1) n
    for table, n in ((below, m), (above, m + 1)):
        assert table[7, 0] == n * n and table[3, 2] == table[11, n - 2] == (n - 1) * n


def test_su2_tables_of_256_spins_fit_in_2_mb():
    # 12 int32 entries per basis vector: 1.58 MB over the spins 0..255 that
    # a build_DV pass over the su2 x su2 labels of dim <= 256 reads
    assert sum(su2_table(m).nbytes for m in range(256)) <= 2_000_000


def test_h_action_is_diagonal():
    H, _, _ = build_irrep(preset("su2"), label((4,)))
    want = imaginary_diagonal([4 - 2 * l for l in range(5)])
    assert H == want


def test_label_dim_and_casimir():
    lab = label((2, 3), (1, -2))
    assert lab.dim == 12
    cas = build_DV(build_group_spec(2, 2), lab, identity_tensor(8))
    assert cas.matrix == IntMatrix.identity(12) * (8 + 15 + 1 + 4)


def test_format_label():
    assert format_label(label((3,))) == "3"
    assert format_label(label((), (2, -1))) == ";2,-1"
    assert format_label(label((1, 0), (4,))) == "1,0;4"


def test_duality():
    lab = label((2,), (3,))
    assert dual_label(lab) == label((2,), (-3,))
    assert dual_label(dual_label(lab)) == lab
    assert is_self_dual(label((4,)))
    assert not is_self_dual(lab)
    # the weight test agrees with the dual label's over the u2, t2 and
    # su2 x T^1 labels
    for spec in (preset("u2"), preset("t2"), build_group_spec(1, 1)):
        labels = labels_up_to_level(spec, 4)
        assert any(map(is_self_dual, labels)) and not all(map(is_self_dual, labels))
        for lab in labels:
            assert is_self_dual(lab) == (lab == dual_label(lab))


def test_classify_type_rule():
    assert classify_type(label((2,))) == "real"
    assert classify_type(label((3,))) == "quaternionic"
    assert classify_type(label((1, 1))) == "real"
    assert classify_type(label((1, 2))) == "quaternionic"
    assert classify_type(label((2,), (1,))) == "complex"
    assert classify_type(label((), (0, 0))) == "real"


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_structure_map_oracle_matches_type(m):
    """Conjugate-linear equivariant map squares to (-1)^m, so the parity
    rule for real vs quaternionic is forced."""
    spec = preset("su2")
    J = quaternionic_structure(m)
    assert J.square_sign == (1 if m % 2 == 0 else -1)
    assert J.is_equivariant(build_irrep(spec, label((m,))))
    expected = "real" if J.square_sign == 1 else "quaternionic"
    assert classify_type(label((m,))) == expected


def test_rotation_half_pi_properties():
    for m in (1, 3, 5):
        R = rotation_half_pi(m)
        assert R @ R == IntMatrix.identity(m + 1) * -1
        assert not R.im.any()
    for m in (2, 4):
        R = rotation_half_pi(m)
        assert R @ R == IntMatrix.identity(m + 1)


def test_rotation_conjugates_h_to_minus_h():
    # the quarter turn around B sends H to -H
    for m in (1, 2, 3, 4):
        H, _, B = build_irrep(preset("su2"), label((m,)))
        R = rotation_half_pi(m)
        assert R @ H == -(H @ R)
        assert R @ B == B @ R


def test_product_generators_commute_across_factors():
    spec = preset("su2xsu2")
    G = build_irrep(spec, label((1, 2)))
    assert all(g.nrows == g.ncols == 6 for g in G)
    for i in range(3):
        for j in range(3, 6):
            assert commutator(G[i], G[j]) == IntMatrix.identity(6) * 0


def test_torus_generators_are_scalars():
    spec = preset("t2")
    G = build_irrep(spec, label((), (3, -1)))
    assert all(g.nrows == g.ncols == 1 for g in G)
    assert G[0] == imaginary_diagonal([3])
    assert G[1] == imaginary_diagonal([-1])


def test_mixed_group_generator_shapes():
    spec = preset("u2")
    G = build_irrep(spec, label((2,), (1,)))
    assert len(G) == 4
    assert all(g.nrows == g.ncols == 3 for g in G)
    # torus part acts as i on the twisted spin-2 space
    assert G[3] == imaginary_diagonal([1, 1, 1])


# -- reference construction of the generator matrices -------------------------


def reference_su2(m):
    """(H, A, B) of spin m from the module docstring's formulas, column by
    column on dense arrays, with no use of `su2_table`."""
    G = np.zeros((3, m + 1, m + 1), dtype=np.int64)
    for l in range(m + 1):
        G[0, l, l] = m - 2 * l
        if l < m:
            G[1, l + 1, l] = G[2, l + 1, l] = m - l
        if l > 0:
            G[1, l - 1, l], G[2, l - 1, l] = l, -l
    zero = np.zeros_like(G[0])
    return IntMatrix.from_dense(zero, G[0]), IntMatrix.from_dense(zero, G[1]), IntMatrix.from_dense(G[2])


def reference_irrep(lab):
    """The generators of the label: each factor's (H, A, B) Kronecker-
    embedded between identities, and i l_e on the identity per torus
    direction."""
    dims = [m + 1 for m in lab.spins]
    total = math.prod(dims)
    gens = []
    for j, m in enumerate(lab.spins):
        left = IntMatrix.identity(math.prod(dims[:j]))
        right = IntMatrix.identity(math.prod(dims[j + 1:]))
        gens += [left.kron(G).kron(right) for G in reference_su2(m)]
    for l in lab.weight:
        gens.append(IntMatrix.from_dense([[0]], [[l]]).kron(IntMatrix.identity(total)))
    return gens


def fields(M):
    """Every field of an IntMatrix, the dtypes of its arrays included."""
    arrays = (M.rows, M.cols, M.re, M.im)
    return (M.nrows, M.ncols, M.den, *(a.tolist() for a in arrays), *(a.dtype for a in arrays))


@pytest.mark.parametrize("k,n", [(k, n) for k in range(4) for n in range(3) if k + n])
def test_build_irrep_matches_the_kronecker_reference(k, n):
    spec = build_group_spec(k, n)
    spins = itertools.product(range(3 if k == 3 else 5), repeat=k)
    weights = list(itertools.product((-2, 0, 3, 2**70), repeat=n))
    for s in spins:
        for w in weights:
            lab = label(s, w)
            got = build_irrep(spec, lab)
            assert len(got) == 3 * k + n
            assert [fields(G) for G in got] == [fields(G) for G in reference_irrep(lab)], lab
    # a weight of 2^70 takes the object route, and so does the reference
    if n:
        assert build_irrep(spec, label((0,) * k, (2**70,) * n))[-1].im.dtype == object


def test_rotation_half_pi_matches_its_formula():
    for m in range(10):
        R = np.zeros((m + 1, m + 1), dtype=np.int64)
        for l in range(m + 1):
            R[m - l, l] = (-1) ** l
        assert fields(rotation_half_pi(m)) == fields(IntMatrix.from_dense(R)), m


def test_build_irrep_builds_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("IntMatrix.from_dense called")

    monkeypatch.setattr(IntMatrix, "from_dense", classmethod(refuse))
    H, A, B = build_irrep(preset("su2"), label((2000,)))
    assert H.nrows == 2001 and H.re.size == 2000 and A.re.size == B.re.size == 4000


# -- descent through central quotients ----------------------------------------


def character_descends(spec, lab) -> bool:
    """Oracle: evaluate the central character directly.

    A central element (signs, t) acts on the product monomial basis by
    sign_j^{m_j} on each SU(2) factor and exp(2*pi*i*sum(weight*t)) on the
    torus; the label descends iff every generator acts as +1.
    """
    from fractions import Fraction as F

    for g in spec.central:
        phase = F(0)  # in units of full turns
        for s, m in zip(g.signs, lab.spins):
            if s == -1 and m % 2 == 1:
                phase += F(1, 2)
        for w, t in zip(lab.weight, g.torus):
            phase += F(w) * t
        if phase % 1 != 0:
            return False
    return True


@pytest.mark.parametrize("name", ["su2", "so3", "u2", "so4", "spin4"])
def test_descent_matches_character_oracle(name):
    spec = preset(name)
    k, n = spec.k, spec.n
    spins_list = [()] if k == 0 else (
        [(a,) for a in range(5)] if k == 1 else
        [(a, b) for a in range(4) for b in range(4)]
    )
    weights_list = [()] if n == 0 else [(w,) for w in range(-3, 4)]
    for spins in spins_list:
        for weight in weights_list:
            lab = label(spins, weight)
            assert descends_to_quotient(spec, lab) == character_descends(spec, lab)


# --group-file groups whose central elements carry torus points
TORUS_POINT_GROUPS = [
    {"k": 1, "n": 2, "central": [{"signs": [-1], "torus": ["1/2", "1/3"]}]},
    {"k": 2, "n": 1, "central": [{"signs": [-1, 1], "torus": ["1/2"]},
                                 {"signs": [1, -1], "torus": ["2/5"]}]},
    {"k": 1, "n": 2, "central": [{"signs": [1], "torus": ["1/3", "2/5"]}]},
    {"k": 0, "n": 2, "central": [{"signs": [], "torus": ["2/5", "7/3"]}]},
    {"k": 3, "n": 1, "central": [{"signs": [-1, -1, 1], "torus": ["5/6"]},
                                 {"signs": [1, -1, -1], "torus": ["0"]}]},
]


@pytest.mark.parametrize(
    "spec",
    [preset(name) for name in ("so3", "u2", "so4")] + [group_from_json(d) for d in TORUS_POINT_GROUPS],
    ids=lambda spec: spec.display_name,
)
def test_one_integer_descent_rule_matches_the_character_oracle(spec):
    """descends_to_quotient and the walk of labels_up_to_level decide
    descent on integers by one rule; both agree with the Fraction phases of
    character_descends, on random labels and on every label of a box."""
    rng = random.Random(spec.k * 10 + spec.n)
    for _ in range(400):
        lab = label(
            [rng.randint(0, 11) for _ in range(spec.k)], [rng.randint(-15, 15) for _ in range(spec.n)]
        )
        assert descends_to_quotient(spec, lab) == character_descends(spec, lab)
    free = build_group_spec(spec.k, spec.n)
    for level in (0, 1, 3, 5):
        for budget in (None, 7, 30):
            assert labels_up_to_level(spec, level, casimir=budget) == [
                lab for lab in labels_up_to_level(free, level, casimir=budget)
                if character_descends(spec, lab)
            ]


def test_so3_keeps_even_spins():
    spec = preset("so3")
    assert descends_to_quotient(spec, label((2,)))
    assert not descends_to_quotient(spec, label((3,)))


def test_u2_parity_constraint():
    spec = preset("u2")
    assert descends_to_quotient(spec, label((1,), (1,)))
    assert descends_to_quotient(spec, label((2,), (0,)))
    assert not descends_to_quotient(spec, label((1,), (0,)))
    assert not descends_to_quotient(spec, label((2,), (1,)))


def test_so4_diagonal_parity():
    spec = preset("so4")
    assert descends_to_quotient(spec, label((1, 1)))
    assert descends_to_quotient(spec, label((2, 0)))
    assert not descends_to_quotient(spec, label((1, 0)))


def test_labels_up_to_level():
    su2 = preset("su2")
    assert [l.spins[0] for l in labels_up_to_level(su2, 6)] == [0, 1, 2, 3, 4, 5, 6]
    so3 = preset("so3")
    assert [l.spins[0] for l in labels_up_to_level(so3, 6)] == [0, 2, 4, 6]
    # dual reduction keeps one of each conjugate pair
    t1 = preset("t1")
    assert [l.weight[0] for l in labels_up_to_level(t1, 3)] == [0, 1, 2, 3]
    spin4 = preset("spin4")
    assert len(labels_up_to_level(spin4, 4)) == 25


@pytest.mark.parametrize("name", ["su2", "so3", "u2", "spin4", "t3"])
def test_casimir_budget_cuts_the_box_to_the_ball(name):
    spec = preset(name)
    for level in range(5):
        box = labels_up_to_level(spec, level)
        for budget in (0, 3, 8, 15, 24, 40):
            assert labels_up_to_level(spec, level, casimir=budget) == [
                lab for lab in box
                if sum(m * (m + 2) for m in lab.spins) + sum(l * l for l in lab.weight) <= budget
            ]


def test_labels_sorted_by_casimir():
    labs = labels_up_to_level(preset("u2"), 4)
    cas = [sum(m * (m + 2) for m in l.spins) + sum(w * w for w in l.weight) for l in labs]
    assert cas == sorted(cas)


def test_irrep_label_validation():
    with pytest.raises(DomainError):
        label((-1,))
    with pytest.raises(DomainError):
        IrrepLabel((Fraction(1, 2),), ())
