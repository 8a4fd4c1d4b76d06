"""Spectrum assembly: enumeration bounds, collisions, multiplicities."""

import math
import random
from fractions import Fraction

import pytest

from lielap.algebra_core import (
    MetricSpec,
    SymTensor,
    identity_tensor,
    metric_to_tensor,
    preset,
)
from lielap.errors import DomainError
from lielap.irreps import format_label, label, labels_up_to_level
from lielap.operator import build_DV, eigen_decompose_numeric
from lielap.poly import (
    Poly,
    divides,
    gcd,
    int_sign_at,
    primitive_int,
    sturm_chain,
    sturm_variations,
)
from lielap.polycert import char_poly_exact, multiplicity_profile
from lielap.witness import sample_definite_tensor
from lielap.spectrum import (
    assemble_spectrum,
    certified_lower_bound,
    enumerate_irreps,
    gcd_free_basis,
    real_roots,
    table_to_csv,
    table_to_json,
    verdict_report,
)


def test_certified_lower_bound_is_exact_and_positive():
    S = metric_to_tensor(MetricSpec([[2, 1], [1, 1]]))
    c = certified_lower_bound(S)
    assert 0 < c
    # S has eigenvalues (3 +- sqrt(5))/2; the bound must sit below the gap
    assert float(c) < (3 - 5**0.5) / 2 + 1e-9


def test_enumerate_su2_casimir_ball():
    labs = enumerate_irreps(preset("su2"), identity_tensor(3), 8)
    assert [l.spins[0] for l in labs] == [0, 1, 2]


def test_enumerate_rejects_bad_input():
    with pytest.raises(DomainError):
        enumerate_irreps(preset("su2"), identity_tensor(3), -1)
    bad = metric_to_tensor(MetricSpec([[1, 0], [0, 1]]))
    with pytest.raises(DomainError):
        enumerate_irreps(preset("su2"), bad, 5)


def test_enumerate_torus_dual_reduced():
    labs = enumerate_irreps(preset("t2"), identity_tensor(2), 2)
    names = [format_label(l) for l in labs]
    assert names == [";0,0", ";0,1", ";1,0", ";1,-1", ";1,1"]


def test_gcd_free_basis_splits_shared_factors():
    a = Poly([-1, 1]) * Poly([-2, 1])
    b = Poly([-2, 1]) * Poly([-3, 1])
    basis = gcd_free_basis([a, b])
    assert basis == [
        (Poly([-2, 1]), [0, 1]),
        (Poly([-1, 1]), [0]),
        (Poly([-3, 1]), [1]),
    ]
    roots = sorted(r for f, _ in basis for r, _ in real_roots(f))
    assert roots == [1.0, 2.0, 3.0]


def test_gcd_free_basis_members_factor_every_input():
    """Inputs built from a pool of pairwise coprime small-integer linear
    and quadratic factors, with shared factors, a repeated input and an
    input equal to one basis element.  The basis is checked for pairwise
    coprimality, for factoring every input exactly, and its members
    against divisibility of every input by every element."""
    rng = random.Random(20261018)
    pool: list[Poly] = []
    while len(pool) < 9:
        if rng.random() < 0.5:
            cand = Poly([rng.randint(-6, 6), rng.randint(1, 3)])
        else:
            cand = Poly([rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 3)])
        if cand.degree < 1 or gcd(cand, cand.derivative()).degree > 0:
            continue
        if all(gcd(cand, f).degree == 0 for f in pool):
            pool.append(cand)
    for _ in range(5):
        inputs = []
        for _ in range(8):
            chosen = rng.sample(pool, rng.randint(1, 4))
            inputs.append(math.prod(chosen[1:], start=chosen[0]) * rng.randint(1, 3))
        inputs.append(inputs[2])  # a repeated input
        basis = gcd_free_basis(inputs)
        inputs.append(basis[0][0])  # an input equal to one basis element
        basis = gcd_free_basis(inputs)

        for i, (h, _) in enumerate(basis):
            assert h.degree > 0 and h.lc > 0 and primitive_int(h) == list(h.coeffs)
            for k, _ in basis[i + 1:]:
                assert gcd(h, k).degree == 0
        for n, f in enumerate(inputs):
            listed = [h for h, members in basis if n in members]
            prod = math.prod(listed[1:], start=listed[0])
            assert f == prod * (f.lc / prod.lc)
        for h, members in basis:
            assert members == sorted(set(members))
            assert members == [n for n, f in enumerate(inputs) if divides(h, f)]
        last = len(inputs) - 1
        assert [h for h, members in basis if last in members] == [inputs[-1]]


def test_real_roots_exact_for_linear():
    ((approx, exact),) = real_roots(Poly([-3, 2]))
    assert exact == Fraction(3, 2) and approx == 1.5


def test_real_roots_quadratic():
    vals = real_roots(Poly([2, -3, 1]))  # (x-1)(x-2)
    assert [round(v, 9) for v, _ in vals] == [1.0, 2.0]


def test_su2_round_metric_table():
    t = assemble_spectrum(preset("su2"), identity_tensor(3), 35)
    got = {int(e.exact_value): e for e in t.entries}
    assert set(got) == {0, 3, 8, 15, 24, 35}
    for m in range(6):
        e = got[m * (m + 2)]
        assert e.real_multiplicity == (m + 1) ** 2
        assert e.irreducible == (m in (0, 1))
    assert got[8].failed_condition == "b"
    assert got[15].failed_condition == "c"
    assert not t.all_irreducible


def test_so3_round_metric_table():
    t = assemble_spectrum(preset("so3"), identity_tensor(3), 15)
    assert [int(e.exact_value) for e in t.entries] == [0, 8]


def test_flat_torus_table():
    S = metric_to_tensor(MetricSpec([[1, 0], [0, Fraction(7, 5)]]))
    t = assemble_spectrum(preset("t2"), S, Fraction(3, 2))
    vals = [e.exact_value for e in t.entries]
    assert vals == [0, Fraction(5, 7), 1]
    assert [e.real_multiplicity for e in t.entries] == [1, 2, 2]
    assert t.all_irreducible


def test_cross_label_collision_tagged():
    # square torus: (1,0) and (0,1) collide at eigenvalue 1
    t = assemble_spectrum(preset("t2"), identity_tensor(2), 1)
    by_val = {e.exact_value: e for e in t.entries}
    collision = by_val[Fraction(1)]
    assert not collision.irreducible
    assert collision.failed_condition == "a"
    assert collision.real_multiplicity == 4
    assert len(collision.contributions) == 2


def test_verdict_report_lists_violations():
    t = assemble_spectrum(preset("su2"), identity_tensor(3), 8)
    rep = verdict_report(t)
    assert rep["irreducible_spectrum"] is False
    assert rep["violations"] == [
        {"eigenvalue": 8.0, "condition": "b", "labels": ["2"]}
    ]


def test_dual_pair_counts_twice():
    t = assemble_spectrum(preset("t1"), identity_tensor(1), 4)
    by_val = {e.exact_value: e for e in t.entries}
    assert by_val[Fraction(1)].real_multiplicity == 2
    assert by_val[Fraction(0)].real_multiplicity == 1


def test_table_serializations_agree():
    t = assemble_spectrum(preset("su2"), identity_tensor(3), 8)
    doc = table_to_json(t)
    assert doc["irreducible_spectrum"] is False
    assert [e["exact"] for e in doc["entries"]] == ["0", "3", "8"]
    csv_text = table_to_csv(t)
    assert csv_text.splitlines()[0].startswith("eigenvalue,")
    assert len(csv_text.splitlines()) == 4


def test_zero_cutoff_trivial_only():
    t = assemble_spectrum(preset("su2"), identity_tensor(3), 0)
    assert len(t.entries) == 1
    assert t.entries[0].exact_value == 0
    assert t.entries[0].irreducible


def test_real_roots_on_ill_conditioned_integer_spectrum():
    # products of many close linear factors defeat floating seed finders;
    # the exact fallback must still place every root
    p = Poly([1])
    for k in range(1, 23):
        p = p * Poly([-k, 1])
    roots = real_roots(p)
    assert len(roots) == 22
    for (v, _), k in zip(roots, range(1, 23)):
        assert abs(v - k) < 1e-9


def test_real_roots_returns_exact_linear_root():
    roots = real_roots(Poly([Fraction(-1, 3), 1]))
    assert roots == [(float(Fraction(1, 3)), Fraction(1, 3))]


def test_close_roots_listed_once_each():
    # numpy turns two close roots of label (5,1) into a complex pair; both
    # must still be listed, each at its own value
    rows = [[25, -3, -1, -2, 4, -4], [-3, 26, 3, -1, 2, 2], [-1, 3, 39, 3, -1, -3],
            [-2, -1, 3, 31, -2, -3], [4, 2, -1, -2, 35, 1], [-4, 2, -3, -3, 1, 36]]
    spec = preset("spin4")
    tensor = SymTensor(tuple(tuple(Fraction(x, 31) for x in r) for r in rows))
    cutoff = Fraction(1277, 32)
    t = assemble_spectrum(spec, tensor, cutoff)
    listed = sorted(
        e.value for e in t.entries
        if any(format_label(c.label) == "5,1" for c in e.contributions)
    )
    numeric = eigen_decompose_numeric(build_DV(spec, label((5, 1)), tensor))
    want = [v for v, _ in numeric.clusters if v <= float(cutoff)]
    assert len(listed) == len(want)
    for got, ref in zip(listed, want):
        assert abs(got - ref) <= 1e-9 * max(1.0, ref)


def test_cutoff_decided_exactly():
    tensor = SymTensor((
        (Fraction(1), Fraction(1, 7), Fraction(1, 5)),
        (Fraction(1, 7), Fraction(3, 2), Fraction(1, 11)),
        (Fraction(1, 5), Fraction(1, 11), Fraction(2)),
    ))
    h = Poly([-247071952, 63277436, -5336100, 148225])
    (root,) = [v for v, _ in real_roots(h) if abs(v - 9.7474807749) < 1e-9]
    eps = Fraction(1, 10**10)
    below = assemble_spectrum(preset("su2"), tensor, Fraction(root) * (1 - eps))
    above = assemble_spectrum(preset("su2"), tensor, Fraction(root) * (1 + eps))
    assert not any(abs(e.value - root) < 1e-9 for e in below.entries)
    assert any(abs(e.value - root) < 1e-9 for e in above.entries)


def test_rational_roots_of_higher_degree_factors_are_exact():
    gram = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, Fraction(2, 3), 0], [0, 0, 0, 3]]
    t = assemble_spectrum(preset("u2"), metric_to_tensor(MetricSpec(gram)), 20)
    assert Fraction(37, 2) in [e.exact_value for e in t.entries]
    assert all(e.exact_value is not None for e in t.entries)


def _random_suite_factors():
    """The squarefree factors of the random definite tensors that the
    acceptance suite's numeric-profile test draws (same seed, same order)."""
    rng = random.Random(20260817)
    small = [(preset("su2"), label((m,))) for m in range(8)]
    small += [(preset("so3"), lab) for lab in labels_up_to_level(preset("so3"), 6)]
    small += [(preset("u2"), lab) for lab in labels_up_to_level(preset("u2"), 3)]
    small += [(preset("t2"), lab) for lab in labels_up_to_level(preset("t2"), 1)]
    spin4 = preset("spin4")
    small += [(spin4, label((m, mp))) for m in range(4) for mp in range(4)]
    small += [(preset("so4"), lab) for lab in labels_up_to_level(preset("so4"), 3)]
    big = [(spin4, label((m, m))) for m in (4, 5, 6, 7)]
    for spec, lab in small * 4 + big:
        op = build_DV(spec, lab, sample_definite_tensor(spec.dim, rng))
        for _, factor in multiplicity_profile(char_poly_exact(op).poly).entries:
            yield factor


def test_real_roots_pinned_within_one_ulp_and_cut_exactly():
    for factor in _random_suite_factors():
        cs = primitive_int(factor)
        roots = real_roots(factor)
        assert len(roots) == factor.degree
        values = [x for x, _ in roots]
        assert values == sorted(set(values))
        for x, exact in roots:
            lo = int_sign_at(cs, Fraction(math.nextafter(x, -math.inf)))
            hi = int_sign_at(cs, Fraction(math.nextafter(x, math.inf)))
            assert lo * hi <= 0
            assert exact is None or int_sign_at(cs, exact) == 0
        # a cut at the float of the middle root, checked by a Sturm count
        cut = Fraction(values[len(values) // 2])
        chain = sturm_chain(factor)
        below = sturm_variations(chain, Fraction(-1 - sum(map(abs, cs)))) - \
            sturm_variations(chain, cut)
        assert len(real_roots(factor, cut)) == below
