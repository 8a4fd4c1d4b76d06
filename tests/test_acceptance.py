"""Acceptance suite: end-to-end identities, witnesses, and oracle cross-checks.

One test per acceptance item, ordered; each prints a single summary line
with the measured quantities so `pytest -v` reads as a checklist.  Budgets
are wall-clock upper bounds on this desk-scale hardware profile.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from lielap import (
    assemble_spectrum,
    build_DV,
    build_group_spec,
    build_irrep,
    casimir_tensor,
    char_poly_exact,
    char_poly_of,
    descends_to_quotient,
    dual_label,
    identity_tensor,
    label,
    labels_up_to_level,
    metric_to_tensor,
    MetricSpec,
    multiplicity_profile,
    pairs_mixed_witness,
    pairs_pipeline,
    preset,
    sample_definite_tensor,
    square_of_vector,
    su2_even_b_witness,
    witness_search,
)
from lielap.linalg import IntMatrix
from fracpoly import Poly, clear_denominators
from lielap.poly import int_gcd, resultant
from lielap.operator import cluster_values, hermitian_eigenvalues
from lielap.polycert import cert_b_from_poly, cert_c_from_poly, charpoly_from_eigenvalues
from lielap.spectrum import real_roots

H_SQUARED = square_of_vector([1, 0, 0])


def test_01_casimir_scalar_and_product_additivity():
    budget = 10.0
    start = time.perf_counter()

    su2 = preset("su2")
    cas3 = casimir_tensor(su2)
    for m in range(31):
        op = build_DV(su2, label((m,)), cas3)
        assert op.matrix == IntMatrix.identity(m + 1) * (m * (m + 2))

    prod = preset("su2xsu2")
    cas6 = casimir_tensor(prod)
    pairs = 0
    for m in range(256):
        for mp in range(256):
            d = (m + 1) * (mp + 1)
            if d > 256:
                break
            op = build_DV(prod, label((m, mp)), cas6)
            want = m * (m + 2) + mp * (mp + 2)
            assert op.matrix == IntMatrix.identity(d) * want, (m, mp)
            pairs += 1

    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{elapsed:.1f}s over the {budget:.0f}s budget"
    print(f"PASS 1/9 casimir: 31 scalars, {pairs} product pairs of dim <= 256, "
          f"{elapsed:.1f}s")


def test_02_h_generator_spectrum_and_double_profile():
    su2 = preset("su2")
    for m in range(31):
        H = build_irrep(su2, label((m,)))[0]
        zero = np.zeros((m + 1, m + 1), dtype=np.int64)
        want = IntMatrix.from_dense(zero, np.diag([m - 2 * l for l in range(m + 1)]))
        assert H == want

    for m in range(1, 16, 2):
        lab = label((m,))
        p = char_poly_of(su2, lab, H_SQUARED)
        doubled = [Fraction((m - 2 * l) ** 2) for l in range(m + 1)]
        assert p.poly == charpoly_from_eigenvalues(doubled, p.poly.den)
        assert multiplicity_profile(p).is_all_double
        assert cert_c_from_poly(p).verdict

    print("PASS 2/9 h-spectrum: diag(i(m-2l)) for m <= 30; odd m <= 15 "
          "all-double squares with nonzero pairing certificate")


def test_03_even_spin_degenerate_square_and_witness():
    su2 = preset("su2")
    for m in range(2, 13, 2):
        lab = label((m,))
        assert cert_b_from_poly(char_poly_of(su2, lab, H_SQUARED)).value == 0

        w = su2_even_b_witness(m)
        assert w.epsilon > 0
        assert w.certificate.verdict
        assert w.blocks_disjoint_at_zero
        even = tuple((m - l) * (m - l - 1) for l in range(0, m - 1, 2))
        odd = tuple((m - l) * (m - l - 1) for l in range(1, m - 1, 2))
        assert w.even_block_offdiag == even
        assert w.odd_block_offdiag == odd

    print("PASS 3/9 even-spin witness: cert_b(H^2)=0, perturbation found, "
          "subdiagonals m(m-1),(m-2)(m-3),...,2*1 for even m <= 12")


def test_04_mixed_tensor_simple_spectrum():
    spec = build_group_spec(1, 1)
    for m in range(1, 10, 2):
        for lam in (1, 2, 3):
            w = pairs_mixed_witness(spec, label((m,), (lam,)), (1,))
            assert w.pairing == lam
            expected = {Fraction(k * lam) for k in range(-m, m + 1, 2)}
            assert set(w.spectrum) == expected
            assert len(w.spectrum) == m + 1
            assert w.matches_expected
            assert w.certificate.verdict

    print("PASS 4/9 mixed tensor: spectrum {k*lam} simple for odd m <= 9, "
          "lam in {1,2,3}")


def test_05_product_pair_pipeline():
    budget = 120.0
    start = time.perf_counter()
    for m, mp in [(1, 1), (1, 3), (3, 3), (3, 5)]:
        r = pairs_pipeline(m, mp)
        assert r.epsilon == Fraction(1, 2 * mp)
        # T^2 = Id with real entries, the H-side square anticommutes
        # through T, the B-side square commutes.
        assert r.involution_ok
        assert r.anticommutes_ok
        assert r.commutes_ok
        assert r.h_charpoly_matches
        assert r.h_all_double
        assert r.branch_dims_ok
        assert all(c.verdict for c in r.h_simple_on_branches)
        assert r.b_branches_disjoint.verdict
        assert r.alpha is not None
        assert r.combined_simple is not None
        assert r.combined_simple.kind == "b"
        assert r.combined_simple.verdict

    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{elapsed:.1f}s over the {budget:.0f}s budget"
    print(f"PASS 5/9 pair pipeline: (1,1),(1,3),(3,3),(3,5) fully certified, "
          f"{elapsed:.1f}s")


def test_06_spectrum_tables():
    su2 = preset("su2")
    t = assemble_spectrum(su2, identity_tensor(3), Fraction(35))
    rows = {e.exact_value: e for e in t.entries}
    for m in range(5):
        e = rows[Fraction(m * (m + 2))]
        assert e.real_multiplicity == (m + 1) ** 2
        assert e.irreducible is (m in (0, 1))
    # closed cutoff keeps the boundary eigenvalue 35 = 5*7: sanity only
    assert rows[Fraction(35)].real_multiplicity == 36

    torus = preset("t2")
    flat = metric_to_tensor(MetricSpec(gram=((1, 0), (0, Fraction(7, 5)))))
    t2 = assemble_spectrum(torus, flat, Fraction(3, 2))
    values = {e.exact_value: e for e in t2.entries}
    assert set(values) == {Fraction(0), Fraction(5, 7), Fraction(1)}
    assert values[Fraction(0)].real_multiplicity == 1
    for v, e in values.items():
        if v:
            assert e.real_multiplicity == 2
            assert e.irreducible

    print("PASS 6/9 spectrum tables: round-metric multiplicities (m+1)^2 with "
          "quaternionic-double verdicts at m in {0,1}; flat torus nonzero "
          "rows all have multiplicity 2")


def test_07_witness_search_presets():
    budget = 300.0
    assert preset("spin4") == preset("su2xsu2")
    timings = []
    for name, level in [
        ("su2", 6),
        ("so3", 6),
        ("su2xsu2", 4),
        ("so4", 4),
        ("u2", 4),
        ("spin4", 4),
    ]:
        start = time.perf_counter()
        r = witness_search(preset(name), level)
        elapsed = time.perf_counter() - start
        assert r.success, f"{name} level {level}: some certificate vanished"
        assert all(c.verdict for c in r.certificates)
        assert elapsed < budget, f"{name}: {elapsed:.1f}s over budget"
        timings.append(f"{name}:{elapsed:.1f}s")

    print(f"PASS 7/9 witness search: {' '.join(timings)}")


def _profile_multiplicities(profile):
    out = []
    for mult, factor in profile.entries:
        out.extend([mult] * (len(factor) - 1))
    return sorted(out)


def _profile_value_list(profile):
    out = []
    for mult, factor in profile.entries:
        for r in real_roots(factor):
            out.extend([r.value] * mult)
    return sorted(out)


def test_08_exact_profiles_match_numeric_and_resultant_matches_gcd():
    rng = random.Random(20260817)

    small = [(preset("su2"), label((m,))) for m in range(8)]
    small += [(preset("so3"), lab) for lab in labels_up_to_level(preset("so3"), 6)]
    small += [(preset("u2"), lab) for lab in labels_up_to_level(preset("u2"), 3)]
    small += [(preset("t2"), lab) for lab in labels_up_to_level(preset("t2"), 1)]
    spin4 = preset("spin4")
    small += [(spin4, label((m, mp))) for m in range(4) for mp in range(4)]
    small += [(preset("so4"), lab) for lab in labels_up_to_level(preset("so4"), 3)]
    big = [(spin4, label((m, m))) for m in (4, 5, 6, 7)]

    trials = small * 4 + big
    assert len(trials) >= 200
    max_dim = 0
    for spec, lab in trials:
        op = build_DV(spec, lab, sample_definite_tensor(spec.dim, rng))
        max_dim = max(max_dim, op.dim)
        profile = multiplicity_profile(char_poly_exact(op))
        eigenvalues = hermitian_eigenvalues(op).tolist()
        assert sorted(c for _, c in cluster_values(eigenvalues, 1e-8)) == \
            _profile_multiplicities(profile)
        roots = _profile_value_list(profile)
        assert len(roots) == op.dim
        for a, b in zip(roots, eigenvalues):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    agree = 0
    for i in range(100):
        p = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(rng.randint(2, 6))] + [1])
        q = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(rng.randint(2, 6))] + [1])
        if i % 2:
            shared = Poly([Fraction(rng.randint(-3, 3)), 1])
            p, q = p * shared, q * shared
        P, Q = clear_denominators(p)[0], clear_denominators(q)[0]
        assert (resultant(P, Q) != 0) == (int_gcd(P, Q) == [1])
        agree += 1

    print(f"PASS 8/9 oracles: {len(trials)} random definite tensors of dim <= "
          f"{max_dim} cluster-matched at 1e-8; {agree} resultant-vs-gcd pairs")


def test_09_duality_and_central_descent():
    rng = random.Random(414213)
    mixed = build_group_spec(1, 1)
    pool = [(mixed, label((m,), (w,))) for m in range(4) for w in (1, 2, 3)]
    pool += [(preset("t2"), label((), (a, b)))
             for a, b in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]]
    checked = 0
    while checked < 50:
        spec, lab = pool[checked % len(pool)]
        s = sample_definite_tensor(spec.dim, rng)
        assert char_poly_of(spec, lab, s).poly == \
            char_poly_of(spec, dual_label(lab), s).poly
        checked += 1

    def character_trivial(spec, lab):
        for z in spec.central:
            phase = Fraction(0)
            for m, sign in zip(lab.spins, z.signs):
                if sign == -1:
                    phase += Fraction(m, 2)
            for w, t in zip(lab.weight, z.torus):
                phase += w * t
            if phase % 1:
                return False
        return True

    compared = 0
    for name in ("so3", "u2", "so4"):
        spec = preset(name)
        parent = build_group_spec(spec.k, spec.n)
        for lab in labels_up_to_level(parent, 6):
            assert descends_to_quotient(spec, lab) == character_trivial(spec, lab)
            compared += 1

    print(f"PASS 9/9 duality and descent: {checked} dual charpoly identities; "
          f"descent matched the central character on {compared} labels")
