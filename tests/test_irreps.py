"""Representation data: generator relations, types, duality, descent."""

from fractions import Fraction

import numpy as np
import pytest

from lielap.algebra_core import preset
from lielap.errors import DomainError
from lielap.irreps import (
    IrrepLabel,
    build_irrep,
    canonical_dual_rep,
    casimir_eigenvalue,
    classify_type,
    descends_to_quotient,
    dual_label,
    format_label,
    is_self_dual,
    label,
    labels_up_to_level,
    parse_label,
    quaternionic_structure,
    rotation_half_pi,
    su2_generators,
)
from lielap.linalg import IntMatrix


def commutator(a, b):
    return a @ b + -(b @ a)


def imaginary_diagonal(values):
    """diag(i v_0, i v_1, ...)."""
    return IntMatrix.from_dense(np.zeros((len(values),) * 2, dtype=np.int64), np.diag(values))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
def test_su2_commutation_relations(m):
    H, A, B = su2_generators(m)
    assert commutator(H, A) == B * 2
    assert commutator(B, H) == A * 2
    assert commutator(A, B) == H * 2


@pytest.mark.parametrize("m", [0, 1, 2, 4, 7])
def test_casimir_from_generators(m):
    H, A, B = su2_generators(m)
    cas = -(H @ H) + -(A @ A) + -(B @ B)
    assert cas == IntMatrix.identity(m + 1) * (m * (m + 2))


def test_h_action_is_diagonal():
    H, _, _ = su2_generators(4)
    want = imaginary_diagonal([4 - 2 * l for l in range(5)])
    assert H == want


def test_label_dim_and_casimir():
    lab = label((2, 3), (1, -2))
    assert lab.dim == 12
    assert casimir_eigenvalue(lab) == 8 + 15 + 1 + 4


def test_format_parse_round_trip():
    for lab in [label((3,)), label((), (2, -1)), label((1, 0), (4,))]:
        assert parse_label(format_label(lab)) == lab


def test_parse_label_against_spec():
    u2 = preset("u2")
    assert parse_label("3;1", u2) == label((3,), (1,))
    with pytest.raises(DomainError):
        parse_label("3", u2)  # missing torus weight
    with pytest.raises(DomainError):
        parse_label("-1", preset("su2"))


def test_duality():
    lab = label((2,), (3,))
    assert dual_label(lab) == label((2,), (-3,))
    assert dual_label(dual_label(lab)) == lab
    assert is_self_dual(label((4,)))
    assert not is_self_dual(lab)
    assert canonical_dual_rep(label((1,), (-2, 1))) == label((1,), (2, -1))


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
    assert J.is_equivariant(build_irrep(spec, label((m,))).generators)
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
        H, _, B = su2_generators(m)
        R = rotation_half_pi(m)
        assert R @ H == -(H @ R)
        assert R @ B == B @ R


def test_product_generators_commute_across_factors():
    spec = preset("su2xsu2")
    rep = build_irrep(spec, label((1, 2)))
    G = rep.generators
    assert rep.dim == 6
    for i in range(3):
        for j in range(3, 6):
            assert commutator(G[i], G[j]) == IntMatrix.identity(6) * 0


def test_torus_generators_are_scalars():
    spec = preset("t2")
    rep = build_irrep(spec, label((), (3, -1)))
    assert rep.dim == 1
    assert rep.generators[0] == imaginary_diagonal([3])
    assert rep.generators[1] == imaginary_diagonal([-1])


def test_mixed_group_generator_shapes():
    spec = preset("u2")
    rep = build_irrep(spec, label((2,), (1,)))
    assert rep.dim == 3
    assert all(g.nrows == 3 for g in rep.generators)
    # torus part acts as i on the twisted spin-2 space
    assert rep.generators[3] == imaginary_diagonal([1, 1, 1])


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


def test_labels_sorted_by_casimir():
    labs = labels_up_to_level(preset("u2"), 4)
    cas = [casimir_eigenvalue(l) for l in labs]
    assert cas == sorted(cas)


def test_irrep_label_validation():
    with pytest.raises(DomainError):
        label((-1,))
    with pytest.raises(DomainError):
        IrrepLabel((Fraction(1, 2),), ())
