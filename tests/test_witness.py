"""Witness constructions and the randomized certificate search."""

import random
from fractions import Fraction

import pytest

from lielap import witness
from lielap.algebra_core import (
    is_positive_definite,
    preset,
    square_of_vector,
    tensor_hash,
)
from lielap.errors import DomainError, WitnessSearchExhausted
from lielap.irreps import build_irrep, label, rotation_half_pi
from lielap.linalg import IntMatrix, restrict_operator
from lielap.operator import build_DV, eigen_decompose_numeric
from lielap.polycert import char_poly_exact, charpoly_real, multiplicity_profile
from lielap.witness import (
    certificate_battery,
    eigenbases_check,
    epsilon_separation,
    involution_checks,
    orbit_eigenbases,
    pairs_mixed_witness,
    pairs_pipeline,
    sample_definite_tensor,
    su2_even_b_witness,
    witness_report_json,
    witness_search,
)


# -- epsilon separation ----------------------------------------------------------


def test_separation_simple_example():
    assert epsilon_separation([1, 2], [10, 20]) == Fraction(1, 20)


def test_separation_no_constraint():
    assert epsilon_separation([0], [1, 2]) == 1


def test_separation_double_mode():
    eps = epsilon_separation([0, 5], [3, 3, 7, 7], mode="double")
    shifted = [a + eps * c for a in (0, 5) for c in (3, 3, 7, 7)]
    assert all(shifted.count(x) == 2 for x in shifted)


def test_separation_validates_inputs():
    with pytest.raises(DomainError):
        epsilon_separation([1, 1], [2, 3])
    with pytest.raises(DomainError):
        epsilon_separation([1], [2, 2], mode="simple")
    with pytest.raises(DomainError):
        epsilon_separation([1], [2, 2, 2], mode="double")
    with pytest.raises(DomainError):
        epsilon_separation([1], [2], mode="triple")


def test_separation_preserves_patterns():
    eps = epsilon_separation([0, 1, 7], [2, 5, 11])
    shifted = [a + eps * c for a in (0, 1, 7) for c in (2, 5, 11)]
    assert len(set(shifted)) == 9


# -- even-spin splitting -----------------------------------------------------------


def test_even_witness_m2():
    w = su2_even_b_witness(2)
    assert w.epsilon == Fraction(1, 2)
    assert w.certificate.verdict
    assert w.even_block_offdiag == (2,)
    assert w.odd_block_offdiag == ()
    op = build_DV(preset("su2"), label((2,)), w.tensor)
    ns = eigen_decompose_numeric(op)
    assert [round(c[0], 6) for c in ns.clusters] == [2.0, 4.0, 6.0]


@pytest.mark.parametrize("m", [4, 6, 8])
def test_even_witness_subdiagonals(m):
    w = su2_even_b_witness(m)
    assert w.even_block_offdiag == tuple(
        (m - l) * (m - l - 1) for l in range(0, m - 1, 2)
    )
    assert w.odd_block_offdiag == tuple(
        (m - l) * (m - l - 1) for l in range(1, m - 1, 2)
    )
    assert w.blocks_disjoint_at_zero
    assert w.certificate.verdict


def test_even_witness_domain():
    with pytest.raises(DomainError):
        su2_even_b_witness(3)
    with pytest.raises(DomainError):
        su2_even_b_witness(0)


def test_even_witness_exhaustion_carries_best():
    with pytest.raises(WitnessSearchExhausted) as exc:
        su2_even_b_witness(4, eps_grid=[Fraction(0)])
    assert exc.value.best is not None


# -- mixed SU(2) x torus -------------------------------------------------------------


def test_mixed_witness_spectrum():
    u2 = preset("u2")
    w = pairs_mixed_witness(u2, label((3,), (2,)), [1])
    assert w.pairing == 2
    assert w.spectrum == (-6, -2, 2, 6)
    assert w.matches_expected and w.certificate.verdict


def test_mixed_witness_multi_torus():
    from lielap.algebra_core import build_group_spec

    spec = build_group_spec(1, 2)
    w = pairs_mixed_witness(spec, label((1,), (1, -1)), [Fraction(1, 2), 0])
    assert w.pairing == Fraction(1, 2)
    assert w.spectrum == (Fraction(-1, 2), Fraction(1, 2))


def test_mixed_witness_rejects_trivial_pairing():
    u2 = preset("u2")
    with pytest.raises(DomainError):
        pairs_mixed_witness(u2, label((1,), (1,)), [0])
    with pytest.raises(DomainError):
        pairs_mixed_witness(preset("su2xsu2"), label((1, 1)), [1])


# -- odd-odd pairs pipeline -----------------------------------------------------------


def test_pipeline_default_epsilon():
    r = pairs_pipeline(1, 3)
    assert r.epsilon == Fraction(1, 6)
    assert r.ok


def test_pipeline_small_pair_details():
    r = pairs_pipeline(1, 1)
    assert r.involution_ok and r.anticommutes_ok and r.commutes_ok
    assert r.h_charpoly_matches and r.h_all_double and r.branch_dims_ok
    assert all(c.verdict for c in r.h_simple_on_branches)
    assert r.b_branches_disjoint.verdict
    assert r.alpha is not None and r.combined_simple.verdict
    # the found tensor really has simple spectrum
    spec = preset("su2xsu2")
    s = r.combined_simple
    assert s.kind == "b"


def test_pipeline_h_spectrum_values():
    r = pairs_pipeline(1, 1, eps=Fraction(1, 2))
    spec = preset("su2xsu2")
    from lielap.algebra_core import square_of_vector

    s_h = square_of_vector([1, 0, 0, Fraction(1, 2), 0, 0])
    p = char_poly_exact(build_DV(spec, label((1, 1)), s_h))
    prof = multiplicity_profile(p.poly)
    assert prof.is_all_double
    ns = eigen_decompose_numeric(build_DV(spec, label((1, 1)), s_h))
    assert [round(c[0], 6) for c in ns.clusters] == [0.25, 2.25]
    assert r.ok


# branch certificates of the pipeline, pinned: they do not depend on how the
# eigenbases of the involution are found
PIPELINE_BRANCH_VALUES = {
    (1, 1): ("-4", "16"),
    (1, 3): ("321126400/387420489", "268435456/3486784401"),
    (3, 3): (
        "2332477315761341413537025869445242989228753304944640000000000000000"
        "/278128389443693511257285776231761",
        "2372859267439494490915181755742418698523340241036625156505600000000"
        "/278128389443693511257285776231761",
    ),
}


@pytest.mark.parametrize("m,mprime", sorted(PIPELINE_BRANCH_VALUES))
def test_pipeline_branches_split_the_charpoly(m, mprime):
    r = pairs_pipeline(m, mprime)
    h_value, b_value = PIPELINE_BRANCH_VALUES[(m, mprime)]
    assert [c.value for c in r.h_simple_on_branches] == [Fraction(h_value)] * 2
    assert r.b_branches_disjoint.value == Fraction(b_value)
    assert r.branch_dims_ok

    eps = r.epsilon
    s_h = square_of_vector([1, 0, 0, eps, 0, 0])
    D_h = build_DV(preset("su2xsu2"), label((m, mprime)), s_h).matrix
    T = rotation_half_pi(m).kron(rotation_half_pi(mprime))
    (w_plus, w_minus), reps = orbit_eigenbases(T)
    h_plus, h_minus = (
        charpoly_real(restrict_operator(D_h, w, reps))
        for w in (w_plus, w_minus)
    )
    assert charpoly_real(D_h) == h_plus * h_minus


def test_orbit_eigenbases_skip_fixed_points():
    # v_l -> (-1)^l v_{2-l} fixes the middle vector, which gets no column
    T = rotation_half_pi(2)
    (w_plus, w_minus), reps = orbit_eigenbases(T)
    assert reps == [0]
    assert w_plus.ncols + w_minus.ncols < T.nrows


def test_involution_checks_fail_one_at_a_time():
    # the (1, 1) pipeline's T, phi and psi pass; each replacement breaks
    # the property it names
    G = build_irrep(preset("su2xsu2"), label((1, 1))).generators
    eps = Fraction(1, 2)
    phi, psi = G[0] + G[3] * eps, G[2] + G[5] * eps
    R = rotation_half_pi(1)
    T = R.kron(R)
    assert involution_checks(T, phi, psi) == (True, True, True)
    # a real T with T^2 = -I, and a T with T^2 = I that is not real
    assert not involution_checks(R.kron(IntMatrix.identity(2)), phi, psi)[0]
    sigma_y = IntMatrix.from_dense([[0, 0], [0, 0]], [[0, -1], [1, 0]])
    assert sigma_y @ sigma_y == IntMatrix.identity(2)
    assert not involution_checks(sigma_y.kron(IntMatrix.identity(2)), phi, psi)[0]
    assert not involution_checks(IntMatrix.identity(4), phi, psi)[1]
    assert not involution_checks(T, phi, phi)[2]


def test_eigenbases_check_fails_one_at_a_time():
    R = rotation_half_pi(1)
    T = R.kron(R)
    (w_plus, w_minus), _ = orbit_eigenbases(T)
    assert eigenbases_check(T, w_plus, w_minus)
    assert not eigenbases_check(T, w_minus, w_minus)
    assert not eigenbases_check(T, w_plus, w_plus)
    # spin 2: v_1 is fixed, so K_+ and K_- have one column each out of 3
    (w_plus, w_minus), _ = orbit_eigenbases(rotation_half_pi(2))
    assert rotation_half_pi(2) @ w_plus == w_plus
    assert rotation_half_pi(2) @ w_minus == -w_minus
    assert not eigenbases_check(rotation_half_pi(2), w_plus, w_minus)


@pytest.mark.parametrize("corrupt", [0, 1])
def test_pipeline_checks_operators_against_generator_squares(monkeypatch, corrupt):
    # the pipeline builds D_h, then D_b; doubling either one must be caught
    calls = []

    def build(spec, lab, tensor):
        op = build_DV(spec, lab, tensor)
        if len(calls) == corrupt:
            op.matrix = op.matrix * 2
        calls.append(tensor)
        return op

    monkeypatch.setattr(witness, "build_DV", build)
    with pytest.raises(ArithmeticError, match="generator square"):
        pairs_pipeline(1, 3)


def test_pipeline_domain_checks():
    with pytest.raises(DomainError):
        pairs_pipeline(2, 1)
    with pytest.raises(DomainError):
        pairs_pipeline(1, 3, eps=Fraction(1, 2))  # needs eps < 1/3
    with pytest.raises(DomainError):
        pairs_pipeline(1, 1, alpha_grid=[Fraction(2)])


# -- randomized search ----------------------------------------------------------------


def test_sample_definite_tensor_is_definite():
    rng = random.Random(5)
    for n in (1, 3, 6):
        assert is_positive_definite(sample_definite_tensor(n, rng))


def test_sample_deterministic_under_seed():
    a = sample_definite_tensor(4, random.Random(9))
    b = sample_definite_tensor(4, random.Random(9))
    assert tensor_hash(a) == tensor_hash(b)


def test_witness_search_su2():
    r = witness_search(preset("su2"), 4, trials=4, seed=1)
    assert r.success
    kinds = sorted({c.kind for c in r.certificates})
    assert kinds == ["a", "b", "c"]
    # 5 labels: one b/c each, 10 separation pairs
    assert len(r.certificates) == 15


def test_witness_search_deterministic():
    a = witness_search(preset("so3"), 4, trials=2, seed=3)
    b = witness_search(preset("so3"), 4, trials=2, seed=3)
    assert witness_report_json(a) == witness_report_json(b)


def test_witness_search_exhaustion():
    # zero trials can never succeed; the exception still carries None best
    with pytest.raises(WitnessSearchExhausted):
        witness_search(preset("su2"), 2, trials=0, seed=0)


def test_certificate_battery_round_metric_fails():
    from lielap.algebra_core import identity_tensor
    from lielap.irreps import labels_up_to_level
    from lielap.polycert import char_poly_of

    spec = preset("su2")
    labels = labels_up_to_level(spec, 3)
    tensor = identity_tensor(3)
    polys = [char_poly_of(spec, lab, tensor) for lab in labels]
    certs = certificate_battery(labels, polys)
    assert not all(c.verdict for c in certs)
    # separation between distinct Casimirs still holds
    assert all(c.verdict for c in certs if c.kind == "a")
