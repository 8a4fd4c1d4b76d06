"""Witness constructions and the randomized certificate search."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from fracpoly import Poly, resultant_sylvester

from lielap import witness
from lielap.algebra_core import (
    is_positive_definite,
    preset,
    square_of_vector,
    tensor_hash,
)
from lielap.errors import DomainError, WitnessSearchExhausted
from lielap.irreps import build_irrep, label, rotation_half_pi
from lielap.linalg import IntMatrix
from lielap.operator import build_DV, cluster_values, hermitian_eigenvalues
from lielap.polycert import PRIME, CharPoly, char_poly_of, charpoly_from_eigenvalues, multiplicity_profile
from lielap.witness import (
    certificate_battery,
    involution_branches,
    involution_checks,
    pairs_mixed_witness,
    pairs_pipeline,
    sample_definite_tensor,
    su2_even_b_witness,
    witness_report_json,
    witness_search,
)


# -- even-spin splitting -----------------------------------------------------------


def test_even_witness_m2():
    w = su2_even_b_witness(2)
    assert w.epsilon == Fraction(1, 2)
    assert w.certificate.verdict
    assert w.even_block_offdiag == (2,)
    assert w.odd_block_offdiag == ()
    op = build_DV(preset("su2"), label((2,)), w.tensor)
    clusters = cluster_values(hermitian_eigenvalues(op).tolist(), 1e-8)
    assert [round(c[0], 6) for c in clusters] == [2.0, 4.0, 6.0]


@pytest.mark.parametrize("m", [4, 6, 8])
def test_even_witness_subdiagonals(m):
    w = su2_even_b_witness(m)
    assert w.even_block_offdiag == tuple(
        (m - l) * (m - l - 1) for l in range(0, m - 1, 2)
    )
    assert w.odd_block_offdiag == tuple(
        (m - l) * (m - l - 1) for l in range(1, m - 1, 2)
    )
    assert w.certificate.verdict


def test_even_witness_domain():
    with pytest.raises(DomainError):
        su2_even_b_witness(3)
    with pytest.raises(DomainError):
        su2_even_b_witness(0)


def test_even_witness_exhaustion_carries_best(monkeypatch):
    monkeypatch.setattr(witness, "_EPS_GRID", (Fraction(0),))
    with pytest.raises(WitnessSearchExhausted) as exc:
        su2_even_b_witness(4)
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
    r = pairs_pipeline(1, 1)
    assert r.epsilon == Fraction(1, 2)
    spec = preset("su2xsu2")
    from lielap.algebra_core import square_of_vector

    s_h = square_of_vector([1, 0, 0, Fraction(1, 2), 0, 0])
    op = build_DV(spec, label((1, 1)), s_h)
    prof = multiplicity_profile(char_poly_of(op))
    assert prof.multiplicities == (2,)
    clusters = cluster_values(hermitian_eigenvalues(op).tolist(), 1e-8)
    assert [round(c[0], 6) for c in clusters] == [0.25, 2.25]
    assert r.ok


# the exact values of the branch certificates of the pipeline, pinned: they
# do not depend on how the eigenbases of the involution are found.  The
# pipeline reports their residues mod PRIME
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


def _residue(q: Fraction) -> int:
    """The residue of a rational q mod PRIME."""
    return q.numerator * pow(q.denominator, -1, PRIME) % PRIME


def _quarter_rotations(m: int, mprime: int) -> np.ndarray:
    """exp(pi/2 B) x exp(pi/2 B) as a dense Fraction matrix in Kronecker
    order: v_l x v_l' -> (-1)^(l + l') v_(m-l) x v_(m'-l')."""
    d = mprime + 1
    T = np.full(((m + 1) * d, (m + 1) * d), Fraction(0), dtype=object)
    for l in range(m + 1):
        for lp in range(d):
            T[(m - l) * d + mprime - lp, l * d + lp] = Fraction((-1) ** (l + lp))
    return T


def _fractions(M: IntMatrix) -> np.ndarray:
    """A real IntMatrix as a dense Fraction matrix."""
    assert not M.im.any()
    out = np.full((M.nrows, M.ncols), Fraction(0), dtype=object)
    out[M.rows, M.cols] = [Fraction(x, M.den) for x in M.re.tolist()]
    return out


def _column_basis(P: np.ndarray) -> np.ndarray:
    """The columns of P that raise the rank, in order: a basis of its image."""
    kept, echelon = [], []
    for j in range(P.shape[1]):
        v = P[:, j].copy()
        for pivot, w in echelon:
            v = v - v[pivot] / w[pivot] * w
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            echelon.append((pivot, v))
            kept.append(j)
    return P[:, kept]


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with A X = B for an invertible Fraction matrix A, by Gauss-Jordan."""
    n = len(A)
    M = np.concatenate((A, B), axis=1)
    for c in range(n):
        r = next(i for i in range(c, n) if M[i, c])
        M[[c, r]] = M[[r, c]]
        M[c] = M[c] / M[c, c]
        for i in range(n):
            if i != c:
                M[i] = M[i] - M[i, c] * M[c]
    return M[:, n:]


def _fraction_charpoly(R: np.ndarray) -> Poly:
    """det(R - X*I) over Q by Faddeev-LeVerrier."""
    n = len(R)
    eye = np.diag([Fraction(1)] * n).astype(object)
    c, N = [Fraction(0)] * n + [Fraction(1)], eye
    for k in range(1, n + 1):
        RN = R.dot(N)
        c[n - k] = -sum(RN.diagonal()) / k
        N = RN + c[n - k] * eye
    return Poly([(-1) ** n * x for x in c])


@pytest.mark.parametrize("m,mprime", sorted(PIPELINE_BRANCH_VALUES))
def test_pipeline_branches_split_the_charpoly(m, mprime):
    """The branch certificates are those of D on the images of the
    projections (I + T)/2 and (I - T)/2, found over Q apart from the
    pipeline: a column basis K of each image, D K = K R solved exactly."""
    r = pairs_pipeline(m, mprime)
    h_value, b_value = PIPELINE_BRANCH_VALUES[(m, mprime)]
    assert {c.prime for c in (*r.h_simple_on_branches, r.b_branches_disjoint)} == {PRIME}
    assert [c.value for c in r.h_simple_on_branches] == [_residue(Fraction(h_value))] * 2
    assert r.b_branches_disjoint.value == _residue(Fraction(b_value))
    assert r.branch_dims_ok

    eps = r.epsilon
    T = _quarter_rotations(m, mprime)
    eye = np.diag([Fraction(1)] * len(T)).astype(object)
    bases = [_column_basis((eye + s * T) / 2) for s in (1, -1)]
    assert sum(K.shape[1] for K in bases) == len(T)
    branches = []
    for v in ([1, 0, 0, eps, 0, 0], [0, 0, 1, 0, 0, eps]):
        Dq = _fractions(build_DV(preset("su2xsu2"), label((m, mprime)), square_of_vector(v)).matrix)
        polys = []
        for K in bases:
            DK = Dq.dot(K)
            R = _solve(K.T.dot(K), K.T.dot(DK))
            assert (K.dot(R) == DK).all()
            polys.append(_fraction_charpoly(R))
        assert polys[0] * polys[1] == _fraction_charpoly(Dq)
        branches.append(polys)
    (h_plus, h_minus), (b_plus, b_minus) = branches
    assert [resultant_sylvester(h, h.derivative()) for h in (h_plus, h_minus)] == [
        Fraction(h_value)
    ] * 2
    assert resultant_sylvester(b_plus, b_minus) == Fraction(b_value)


@pytest.mark.parametrize("m,mprime", [(m, mp) for m in (1, 3, 5, 7) for mp in (1, 3, 5, 7)])
def test_pipeline_h_fields_match_the_charpoly_route(m, mprime):
    # the pipeline reads D_h's eigenvalues off its diagonal; the exact
    # charpoly, the product over the expected values and Yun agree
    r = pairs_pipeline(m, mprime)
    eps = r.epsilon
    op = build_DV(preset("su2xsu2"), label((m, mprime)), square_of_vector([1, 0, 0, eps, 0, 0]))
    expected = [
        (Fraction(j) + eps * jp) ** 2 for j in range(-m, m + 1, 2) for jp in range(-mprime, mprime + 1, 2)
    ]
    p = char_poly_of(op)
    assert r.h_charpoly_matches == (p.poly == charpoly_from_eigenvalues(expected, p.poly.den))
    assert r.h_all_double == (multiplicity_profile(p).multiplicities == (2,))


def test_diagonal_read_matches_the_charpoly_route():
    # multiplicities other than 2, a zero entry, a den, and what is refused
    for values in ([4, 4, 1, 1], [4, 4, 4, 1], [0, 0, 3, 3], [Fraction(1, 3)] * 2 + [2, 2, 5]):
        D = IntMatrix.from_dense(np.diag([Fraction(v) * 3 for v in values]).astype(np.int64), den=3)
        got = witness._diagonal(D)
        assert got == [Fraction(v) for v in values]
        p = CharPoly(label((0,)), "h", charpoly_from_eigenvalues(values, 3))
        assert (set(Counter(got).values()) == {2}) == (multiplicity_profile(p).multiplicities == (2,))
    for bad in (IntMatrix.from_dense([[1, 1], [1, 1]]), IntMatrix.from_dense([[1, 0], [0, 1]], [[1, 0], [0, 0]])):
        with pytest.raises(ArithmeticError, match="not real and diagonal"):
            witness._diagonal(bad)


def test_orbit_eigenbases_skip_fixed_points():
    # v_l -> (-1)^l v_{2-l} fixes the middle vector, which gets no row, so
    # the branches fall short of the dimension: branch_dims_ok fails
    T = rotation_half_pi(2)
    plus, minus = involution_branches(T, IntMatrix.from_dense(np.diag([4, 0, 4])))
    assert plus == minus == IntMatrix.from_dense([[4]])
    assert plus.nrows + minus.nrows < T.nrows


def test_involution_checks_fail_one_at_a_time():
    # the (1, 1) pipeline's T, phi and psi pass; each replacement breaks
    # the property it names
    G = build_irrep(preset("su2xsu2"), label((1, 1)))
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


def test_branch_reads_fail_one_at_a_time():
    # the (1, 1) pipeline's T and D_h give two 2 x 2 branches, R_s[k, l] =
    # D[a_k, a_l] + s t_(a_l) D[a_k, sigma a_l] over a = (0, 1), sigma a =
    # (3, 2) and t_a = (1, -1); each replacement breaks the read
    R = rotation_half_pi(1)
    T = R.kron(R)
    D = build_DV(preset("su2xsu2"), label((1, 1)), square_of_vector([1, 0, 0, Fraction(1, 2), 0, 0])).matrix
    dense = _fractions(D)
    plus, minus = involution_branches(T, D)
    for s, branch in ((1, plus), (-1, minus)):
        expected = [[dense[a, b] + s * t * dense[a, 3 - b] for b, t in ((0, 1), (1, -1))] for a in (0, 1)]
        assert _fractions(branch).tolist() == expected
    with pytest.raises(ArithmeticError, match="does not commute"):
        involution_branches(T, D + IntMatrix.from_dense(np.diag([1, 0, 0, 0])))
    # a real T with T^2 = -I, and a T with T^2 = I that is not real
    sigma_y = IntMatrix.from_dense([[0, 0], [0, 0]], [[0, -1], [1, 0]])
    for bad in (R.kron(IntMatrix.identity(2)), sigma_y.kron(IntMatrix.identity(2))):
        with pytest.raises(ArithmeticError):
            involution_branches(bad, IntMatrix.identity(4))


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


def test_pipeline_exhaustion_carries_report(monkeypatch):
    # at alpha = 0 the combined tensor is the doubled square of (H, eps H)
    monkeypatch.setattr(witness, "_ALPHA_GRID", (Fraction(0),))
    with pytest.raises(WitnessSearchExhausted) as exc:
        pairs_pipeline(1, 1)
    assert exc.value.best.alpha is None and exc.value.best.involution_ok


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
    spec = preset("su2")
    labels = labels_up_to_level(spec, 3)
    tensor = identity_tensor(3)
    polys = [char_poly_of(build_DV(spec, lab, tensor)) for lab in labels]
    certs = certificate_battery(polys)
    assert not all(c.verdict for c in certs)
    # separation between distinct Casimirs still holds
    assert all(c.verdict for c in certs if c.kind == "a")
