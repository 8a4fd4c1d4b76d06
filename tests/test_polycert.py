"""Characteristic polynomials, multiplicity profiles, certificates."""

import random
from fractions import Fraction

import pytest
from fracpoly import from_int_poly, resultant, resultant_sylvester

from lielap.algebra_core import (
    SymTensor,
    build_group_spec,
    group_from_json,
    identity_tensor,
    preset,
    symmetric_product,
)
from lielap.errors import DomainError
from lielap.irreps import classify_type, label, labels_up_to_level
from lielap.linalg import IntMatrix
from lielap.operator import OperatorMatrix, build_DV
from lielap.poly import IntPoly, mul
from lielap.polycert import (
    PRIME,
    Certificate,
    CharPoly,
    cert_a_from_polys,
    cert_b_from_poly,
    cert_c_from_poly,
    char_poly_exact,
    char_poly_of,
    char_polys_of,
    charpoly_from_eigenvalues,
    kramers_root,
    multiplicity_profile,
)
from lielap.witness import certificate_battery, sample_definite_tensor

SU2 = preset("su2")
SQ_H = symmetric_product(3, 0, 0, 1)


def test_charpoly_sign_convention():
    # det(X - den D) is monic; the rational det(D - X) the certificates
    # speak about has constant term det(D) and leading coefficient (-1)^dim
    p = char_poly_of(SU2, label((1,)), identity_tensor(3)).poly
    assert p == charpoly_from_eigenvalues([3, 3]) == IntPoly((9, -6, 1), 1)
    assert from_int_poly(p).coeffs[0] == 9 and from_int_poly(p).lc == 1
    q = char_poly_of(SU2, label((2,)), identity_tensor(3)).poly
    assert q.coeffs[-1] == 1 and from_int_poly(q).lc == -1
    # a tensor with denominator 10 scales every root by 10
    tensor = sample_definite_tensor(3, random.Random(0))
    r = char_poly_of(SU2, label((2,)), tensor).poly
    assert r.den == tensor.integer_form[0] == 10 and r.coeffs[-1] == 1


def test_charpoly_matches_explicit_eigenvalues():
    p = char_poly_of(SU2, label((4,)), SQ_H).poly
    assert p == charpoly_from_eigenvalues([16, 4, 0, 4, 16])
    with pytest.raises(ValueError):
        charpoly_from_eigenvalues([Fraction(1, 3)], 2)


def test_charpoly_rejects_wrong_tensor_pairing():
    from lielap.polycert import cert_a_from_polys

    p = char_poly_of(SU2, label((1,)), identity_tensor(3))
    q = char_poly_of(SU2, label((2,)), SQ_H)
    with pytest.raises(DomainError):
        cert_a_from_polys(p, q)


def charpoly_with(values, lab=(2,), den=1):
    return CharPoly(label(lab), "h", charpoly_from_eigenvalues(values, den))


def test_multiplicity_profile_shapes():
    prof = multiplicity_profile(charpoly_with([1, 1, 2, 3, 3]))
    assert prof.degree == 5
    assert prof.multiplicities == (1, 2)
    assert prof.entries == ((1, [-2, 1]), (2, [3, -4, 1]))
    assert not prof.is_all_double
    assert multiplicity_profile(charpoly_with([-2])).multiplicities == (1,)
    assert multiplicity_profile(charpoly_with([5, 5, 7, 7])).is_all_double
    # quaternionic: Yun on the Kramers root, multiplicities doubled; the
    # factors are those of the charpoly of D, whatever the den
    prof = multiplicity_profile(charpoly_with([Fraction(1, 2)] * 4 + [3, 3], (3,), 6))
    assert prof.entries == ((2, [-3, 1]), (4, [-1, 2]))
    with pytest.raises(ArithmeticError):
        multiplicity_profile(charpoly_with([1, 2, 2, 2], (3,)))


def test_multiplicity_profile_zero_poly():
    with pytest.raises(DomainError):
        multiplicity_profile(CharPoly(label((2,)), "h", IntPoly((), 1)))


def test_cert_b_zero_on_degenerate():
    c = cert_b_from_poly(char_poly_of(SU2, label((2,)), SQ_H))
    assert c.value == 0 and not c.verdict
    assert c.kind == "b"


def test_cert_b_nonzero_on_simple():
    spec = preset("t1")
    c = cert_b_from_poly(char_poly_of(spec, label((), (2,)), identity_tensor(1)))
    assert c.verdict


def test_cert_c_on_quaternionic():
    c = cert_c_from_poly(char_poly_of(SU2, label((1,)), identity_tensor(3)))
    assert c.value == 4  # res((3-X)^2, 2) = 2^2
    c = cert_c_from_poly(char_poly_of(SU2, label((3,)), SQ_H))
    assert c.verdict


def test_cert_c_domain():
    with pytest.raises(DomainError):
        cert_c_from_poly(char_poly_of(SU2, label((2,)), identity_tensor(3)))


def test_cert_b_domain():
    # p_V is a square on quaternionic type, so kind b would read 0 always
    for spec, lab, dim in [(SU2, (1,), 3), (preset("spin4"), (1, 2), 6)]:
        with pytest.raises(DomainError):
            cert_b_from_poly(char_poly_of(spec, label(lab), identity_tensor(dim)))


def test_cert_a_separates_casimirs():
    p, q = (char_poly_of(SU2, label((m,)), identity_tensor(3)) for m in (1, 3))
    c = cert_a_from_polys(p, q)
    assert c.value == Fraction(12) ** 8
    assert c.labels == (label((1,)), label((3,)))


def test_cert_a_domain_rejects_self_and_dual():
    p = char_poly_of(SU2, label((2,)), identity_tensor(3))
    with pytest.raises(DomainError):
        cert_a_from_polys(p, p)
    u2 = preset("u2")
    p, q = (char_poly_of(u2, label((1,), (w,)), identity_tensor(4)) for w in (1, -1))
    with pytest.raises(DomainError):
        cert_a_from_polys(p, q)


def test_certificate_json():
    c = cert_c_from_poly(char_poly_of(SU2, label((1,)), identity_tensor(3)))
    doc = c.to_json()
    assert doc["kind"] == "c" and doc["nonzero"] is True
    assert doc["labels"] == ["1"]
    assert doc["value"] == "4"


def test_quaternionic_all_double_identity_operator():
    for m in (1, 3, 5):
        p = char_poly_of(SU2, label((m,)), SQ_H)
        assert multiplicity_profile(p).is_all_double


def test_char_poly_exact_carries_hash():
    op = build_DV(SU2, label((2,)), SQ_H)
    p = char_poly_exact(op)
    q = char_poly_of(SU2, label((2,)), SQ_H)
    assert p.tensor_hash == q.tensor_hash and p.poly == q.poly


def _mutated(op, i, j, dre, dim):
    """op with (dre + i dim) added to the entry (i, j) of its integer matrix."""
    M = op.matrix
    re, im = M._dense()
    re[i, j] += dre
    im[i, j] += dim
    return OperatorMatrix(op.spec, op.label, op.tensor, IntMatrix.from_dense(re, im, M.den))


def test_char_poly_exact_rejects_a_non_hermitian_operator():
    # the one-image route takes the charpoly as real only after the exact
    # weighted-hermitian check, so a broken entry raises instead of giving
    # a wrong charpoly; on complex (1,2) and quaternionic (3,0) labels
    tensor = sample_definite_tensor(6, random.Random(5))
    for lab in (label((1, 2)), label((3, 0))):
        op = build_DV(SPIN4, lab, tensor)
        assert op.matrix.im.any()
        char_poly_exact(op)
        i, j = int(op.matrix.rows[1]), int(op.matrix.cols[1])
        assert i != j
        for broken in (_mutated(op, i, j, 1, 0), _mutated(op, i, j, 0, 1), _mutated(op, 0, 0, 0, 1)):
            with pytest.raises(ArithmeticError):
                char_poly_exact(broken)
    # a real operator is checked too
    op = build_DV(SU2, label((2,)), SQ_H)
    with pytest.raises(ArithmeticError):
        char_poly_exact(_mutated(op, 0, 2, 1, 0))


# -- half-degree certificates on quaternionic labels ------------------------------

SPIN4 = preset("spin4")
SU2_CUBED = build_group_spec(3, 0, [])

# (group, labels, seeds): odd su2 spins, spin4 labels with m + m' odd, and
# SU(2)^3 labels with an odd spin sum, each mixed with real labels so that
# kind a meets both, one or neither label quaternionic.  The trivial label
# has the zero matrix, whose den is 1 while the tensor's is 10 or 19, and
# its kind-b value at degree 1 is -1
DIFFERENTIAL_CASES = [
    (SU2, [(0,), (1,), (2,), (3,), (4,), (5,)], (0, 1, 2)),
    (SPIN4, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (0, 3), (2, 2)], (0, 1)),
    (SU2_CUBED, [(1, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 2, 1)], (0,)),
]


# the Fraction route: the rational det(D - X) rebuilt from (P, den), and the
# resultants of the rational polynomials at full degree


def full_degree_a(p, q):
    return resultant(from_int_poly(p.poly), from_int_poly(q.poly))


def full_degree_b(p):
    P = from_int_poly(p.poly)
    return resultant(P, P.derivative())


def full_degree_c(p):
    P = from_int_poly(p.poly)
    return resultant(P, P.derivative().derivative())


def differential_polys():
    for spec, labs, seeds in DIFFERENTIAL_CASES:
        for seed in seeds:
            tensor = sample_definite_tensor(spec.dim, random.Random(seed))
            yield spec, [char_poly_of(spec, label(l), tensor) for l in labs]


def test_differential_cases_cover_mixed_denominators():
    # the operator dens differ within one tensor (den 1 exactly for the
    # trivial label, listed first where present), while every charpoly
    # carries the tensor's den
    for spec, labs, seeds in DIFFERENTIAL_CASES:
        for seed in seeds:
            tensor = sample_definite_tensor(spec.dim, random.Random(seed))
            dens = {build_DV(spec, label(l), tensor).matrix.den for l in labs}
            assert len(dens) > 1 and (1 in dens) == (not any(labs[0]))
            assert {char_poly_of(spec, label(l), tensor).poly.den for l in labs} == {
                tensor.integer_form[0]
            }


def test_kramers_root_squares_back():
    for _, polys in differential_polys():
        for p in polys:
            if classify_type(p.label) == "quaternionic":
                R, e = p.power_form
                assert e == 2 and R.coeffs[-1] == 1 and 2 * R.degree == p.degree
                assert R.den == p.poly.den and tuple(mul(R.coeffs, R.coeffs)) == p.poly.coeffs
            else:
                assert p.power_form == (p.poly, 1)


def test_half_degree_identities_match_full_degree():
    kinds = set()
    for _, polys in differential_polys():
        for p in polys:
            if classify_type(p.label) == "quaternionic":
                assert cert_c_from_poly(p).value == full_degree_c(p)
            else:
                assert cert_b_from_poly(p).value == full_degree_b(p)
                if p.degree == 1:
                    assert cert_b_from_poly(p).value == -1
        for i, p in enumerate(polys):
            for q in polys[i + 1:]:
                assert cert_a_from_polys(p, q).value == full_degree_a(p, q)
                assert cert_a_from_polys(q, p).value == full_degree_a(q, p)
                kinds.add((p.power_form[1], q.power_form[1]))
    assert kinds == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_half_degree_identities_match_sylvester():
    checked = 0
    for _, polys in differential_polys():
        small = [p for p in polys if p.degree <= 6]
        for p in small:
            P = from_int_poly(p.poly)
            if classify_type(p.label) == "quaternionic":
                want = resultant_sylvester(P, P.derivative().derivative())
                assert cert_c_from_poly(p).value == want
            else:
                assert cert_b_from_poly(p).value == resultant_sylvester(P, P.derivative())
            checked += 1
        for i, p in enumerate(small):
            for q in small[i + 1:]:
                want = resultant_sylvester(from_int_poly(p.poly), from_int_poly(q.poly))
                assert cert_a_from_polys(p, q).value == want
                checked += 1
    assert checked > 50


def test_kind_c_smallest_degree():
    # n = 2: p'' = 2c is a constant and res(p, p'') = (2c)^2
    for seed in range(3):
        tensor = sample_definite_tensor(3, random.Random(seed))
        p = char_poly_of(SU2, label((1,)), tensor)
        P = from_int_poly(p.poly)
        assert p.degree == 2 and P.derivative().derivative().degree == 0
        c = cert_c_from_poly(p)
        assert c.value == full_degree_c(p) == 4 * P.lc ** 2 == 4
        assert c.value == resultant_sylvester(P, P.derivative().derivative())


def test_half_degree_zero_values():
    # round tensor: (0,1) and (1,0) both have the single eigenvalue 3
    ident = identity_tensor(6)
    p, q = char_poly_of(SPIN4, label((0, 1)), ident), char_poly_of(SPIN4, label((1, 0)), ident)
    assert cert_a_from_polys(p, q).value == full_degree_a(p, q) == 0
    # 8 Cas_1 + 3 Cas_2: quaternionic (1,0) and real (0,2) both give 24
    scaled = SymTensor(tuple(
        tuple(Fraction(8 if i < 3 else 3) if i == j else Fraction(0) for j in range(6))
        for i in range(6)
    ))
    r = char_poly_of(SPIN4, label((1, 0)), scaled)
    s = char_poly_of(SPIN4, label((0, 2)), scaled)
    assert cert_a_from_polys(r, s).value == full_degree_a(r, s) == 0
    assert cert_a_from_polys(s, r).value == full_degree_a(s, r) == 0
    w = char_poly_of(SPIN4, label((1, 1)), scaled)
    assert cert_a_from_polys(r, w).value == full_degree_a(r, w) != 0
    # round su2, odd m >= 3: one eigenvalue of multiplicity m + 1 >= 4
    for m in (3, 5, 7):
        p = char_poly_of(SU2, label((m,)), identity_tensor(3))
        assert cert_c_from_poly(p).value == full_degree_c(p) == 0


def test_kramers_check_rejects_non_square():
    good = char_poly_of(SU2, label((1,)), identity_tensor(3))
    for poly in (charpoly_from_eigenvalues([1, 2]), charpoly_from_eigenvalues([1, 1, 2, 3])):
        bad = CharPoly(label=label((3,)), tensor_hash=good.tensor_hash, poly=poly)
        with pytest.raises(ArithmeticError):
            cert_c_from_poly(bad)
        with pytest.raises(ArithmeticError):
            cert_a_from_polys(bad, good)
        with pytest.raises(ArithmeticError):
            cert_a_from_polys(good, bad)
    with pytest.raises(ArithmeticError):
        kramers_root(charpoly_from_eigenvalues([1, 1, 2]))


def test_kramers_root_is_computed_once_per_charpoly():
    p = char_poly_of(SPIN4, label((0, 3)), sample_definite_tensor(6, random.Random(4)))
    assert "power_form" not in vars(p)
    first = p.power_form
    cert_c_from_poly(p)
    assert p.power_form is first


# -- certificates decided at one prime --------------------------------------------

# (group, level): the residue battery against the exact one on the trial-0
# tensors of seeds 0..23.  The torus groups are read as a --group-file
# would give them.  There the operator dens differ most from the tensor's:
# a mod-p charpoly left at its operator's den turns the battery verdict of
# SU(2)^3 x T^1 at seed 15 and of SU(2) x T^2 at seed 4 into false
# successes
RESIDUE_CASES = [
    ("spin4", 3), ("so4", 4), ("u2", 6), ("so3", 8),
    ({"k": 3, "n": 1, "central": []}, 2), ({"k": 1, "n": 2, "central": []}, 3),
]


def _residue(q: Fraction) -> int:
    return q.numerator * pow(q.denominator, -1, PRIME) % PRIME


def _spec(group):
    return preset(group) if isinstance(group, str) else group_from_json(group)


@pytest.mark.parametrize("group, level", RESIDUE_CASES, ids=lambda x: str(x))
def test_residue_battery_matches_exact_battery(group, level):
    spec = _spec(group)
    labels = labels_up_to_level(spec, level)
    verdicts = set()
    for seed in range(24):
        tensor = sample_definite_tensor(spec.dim, random.Random(seed))
        assert tensor.integer_form[0] % PRIME
        # the battery's one kernel call gives, label by label, the CharPoly
        # that char_poly_of reads alone (residues, prime and den), and
        # the same exact charpoly read again from source (checked on one
        # seed; the residues below are checked against it on every seed)
        at_p = char_polys_of(spec, labels, tensor, PRIME)
        assert at_p == [char_poly_of(spec, lab, tensor, PRIME) for lab in labels]
        exact = [p.exact for p in at_p]
        if seed == 0:
            assert exact == [char_poly_of(spec, lab, tensor) for lab in labels]
        assert all(p.prime == PRIME and e.prime is None for p, e in zip(at_p, exact))
        assert [p.poly.coeffs for p in at_p] == [
            tuple(c % PRIME for c in e.poly.coeffs) for e in exact
        ]
        for r, e in zip(certificate_battery(at_p), certificate_battery(exact)):
            assert (r.kind, r.labels, r.verdict) == (e.kind, e.labels, e.verdict)
            if r.prime is None:
                assert r.value == e.value
            else:
                assert r.prime == PRIME and r.value == _residue(e.value) != 0
            verdicts.add(r.verdict)
    assert True in verdicts


@pytest.mark.parametrize(
    "group, level", [c for c in RESIDUE_CASES if isinstance(c[0], dict)], ids=lambda x: str(x)
)
def test_torus_cases_have_operator_dens_apart_from_the_tensor_den(group, level):
    # the battery's read rescales every residue charpoly to the tensor's
    # den: on the torus groups some operator's den differs from it, so a
    # read left at the operator's den fails the test above
    spec = _spec(group)
    labels = labels_up_to_level(spec, level)
    tensor = sample_definite_tensor(spec.dim, random.Random(0))
    dens = {build_DV(spec, lab, tensor).matrix.den for lab in labels}
    assert dens - {tensor.integer_form[0]}


def test_batched_reads_of_edge_batches():
    tensor = sample_definite_tensor(6, random.Random(3))
    assert char_polys_of(SPIN4, [], tensor, PRIME) == []
    # the trivial label has the zero matrix of den 1, and a batch of one
    # runs the one-element case of the kernel
    for labs in ([label((0, 0))], [label((1, 2))], [label((0, 0)), label((1, 0)), label((0, 1))]):
        batched = char_polys_of(SPIN4, labs, tensor, PRIME)
        assert batched == [char_poly_of(SPIN4, lab, tensor, PRIME) for lab in labs]
        assert [p.exact for p in batched] == [char_poly_of(SPIN4, lab, tensor) for lab in labs]
    trivial = char_polys_of(SPIN4, [label((0, 0))], tensor, PRIME)[0]
    assert trivial.poly == IntPoly((0, 1), tensor.integer_form[0])


def test_zero_residue_is_decided_exactly():
    # X^2 + PRIME is X^2 mod PRIME, whose kind-b residue is 0, while its
    # exact value res(X^2 + PRIME, 2X) = 4 PRIME is not
    M = IntMatrix.from_dense([[0, -PRIME], [1, 0]])
    p = CharPoly.read(label((2,)), "h", M, 1, prime=PRIME)
    assert (p.prime, p.poly.coeffs) == (PRIME, (0, 0, 1))
    assert p.exact.poly == IntPoly((PRIME, 0, 1), 1)
    c = cert_b_from_poly(p)
    assert (c.prime, c.value, c.verdict) == (None, 4 * PRIME, True)
    assert c.to_json()["prime"] is None
    # a nonzero residue is reported with its prime
    q = CharPoly.read(label((2,)), "h", IntMatrix.from_dense([[0, -2], [1, 0]]), 1, prime=PRIME)
    assert cert_b_from_poly(q) == Certificate("b", (label((2,)),), "h", Fraction(8), PRIME)


def test_battery_at_a_prime_dividing_den_is_the_exact_battery():
    # d has no inverse mod PRIME: every charpoly and certificate is exact
    q = Fraction(1, PRIME)
    tensor = SymTensor((
        (Fraction(1), q, Fraction(0)), (q, Fraction(3, 2), Fraction(1, 5)),
        (Fraction(0), Fraction(1, 5), Fraction(2)),
    ))
    assert tensor.integer_form[0] % PRIME == 0
    labels = labels_up_to_level(SU2, 4)
    at_p = [char_poly_of(SU2, lab, tensor, PRIME) for lab in labels]
    exact = [char_poly_of(SU2, lab, tensor) for lab in labels]
    assert at_p == exact and all(p.prime is None for p in at_p)
    assert char_polys_of(SU2, labels, tensor, PRIME) == exact
    certs = certificate_battery(at_p)
    assert certs == certificate_battery(exact)
    assert {c.kind for c in certs} == {"a", "b", "c"}
    assert all(c.prime is None and c.verdict for c in certs)


def test_multiplicity_profile_of_residues_reads_the_exact_charpoly():
    # Yun on residues would split X^2 + PRIME = X^2 mod PRIME as a double
    # root; the exact X^2 + PRIME is squarefree
    M = IntMatrix.from_dense([[0, -PRIME], [1, 0]])
    p = CharPoly.read(label((2,)), "h", M, 1, prime=PRIME)
    assert multiplicity_profile(p).multiplicities == (1,)
    for lab in (label((2,)), label((3,))):
        tensor = sample_definite_tensor(3, random.Random(5))
        at_p = char_poly_of(SU2, lab, tensor, PRIME)
        assert at_p.prime == PRIME
        assert multiplicity_profile(at_p) == multiplicity_profile(char_poly_of(SU2, lab, tensor))


def test_kramers_root_mod_prime_checks_the_square():
    # R_p is taken with the inverse of 2 and squared back mod the prime
    p = char_poly_of(SU2, label((3,)), sample_definite_tensor(3, random.Random(2)), PRIME)
    R, e = p.power_form
    assert e == 2 and all(0 <= c < PRIME for c in R.coeffs)
    assert tuple(c % PRIME for c in mul(R.coeffs, R.coeffs)) == p.poly.coeffs
    assert R.coeffs == tuple(c % PRIME for c in p.exact.power_form[0].coeffs)
    bad = IntPoly(tuple(c % PRIME for c in charpoly_from_eigenvalues([1, 1, 2, 3]).coeffs), 1)
    with pytest.raises(ArithmeticError):
        kramers_root(bad, PRIME)
