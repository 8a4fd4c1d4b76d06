"""Spectrum assembly: enumeration bounds, collisions, multiplicities."""

import functools
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lielap.algebra_core import (
    MetricSpec,
    SymTensor,
    build_group_spec,
    certified_lower_bound,
    group_from_json,
    identity_tensor,
    metric_to_tensor,
    preset,
)
from lielap import algebra_core, polycert, spectrum
from lielap.errors import DomainError
from lielap.irreps import (
    classify_type,
    format_label,
    is_self_dual,
    label,
    labels_up_to_level,
)
from lielap.linalg import IntMatrix
from lielap.operator import build_DV, cluster_values, hermitian_eigenvalues, torus_scalar
from fracpoly import Poly, clear_denominators, from_int, gcd, primitive_int
from fracpoly import sturm_chain as fraction_sturm_chain
from test_irreps import TORUS_POINT_GROUPS, character_descends
from lielap.poly import (
    divides,
    int_gcd,
    int_sign_at,
    mul,
    real_root_brackets,
    root_bound,
    shift_primitive,
)
from lielap.polycert import char_poly_of, multiplicity_profile
from lielap.witness import sample_definite_tensor
from lielap.spectrum import (
    _coincident_roots,
    _round,
    assemble_spectrum,
    enumerate_irreps,
    gcd_free_basis,
    hint_cells,
    label_work,
    real_roots,
    root_hints,
    table_to_csv,
    table_to_json,
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


def test_enumerate_walks_the_ball_not_the_box():
    # t3 at cutoff 900: 56,541 labels in the ball against 226,981 in the box
    # of side 61 (the walk used to build and check every one of them)
    spec, tensor = preset("t3"), identity_tensor(3)
    tensor.lower_bound
    start = time.perf_counter()
    labels = enumerate_irreps(spec, tensor, 900)
    elapsed = time.perf_counter() - start
    assert len(labels) == 56541
    assert elapsed < 1.5, f"{elapsed:.2f}s over the 1.5s budget"


def brute_force_labels(spec, radius, level=math.inf):
    """Oracle for enumerate_irreps and labels_up_to_level: every label with
    Casimir <= radius, and every spin and |weight entry| <= level, whose
    central character is trivial, one per dual pair (first nonzero weight
    entry positive), sorted by Casimir and then by label.  One of radius
    and level must be finite."""
    top_spin = 0
    while top_spin < level and (top_spin + 1) * (top_spin + 3) <= radius:
        top_spin += 1
    top_weight = 0
    while top_weight < level and (top_weight + 1) ** 2 <= radius:
        top_weight += 1
    found = []
    for spins in itertools.product(range(top_spin + 1), repeat=spec.k):
        for weight in itertools.product(range(-top_weight, top_weight + 1), repeat=spec.n):
            casimir = sum(m * (m + 2) for m in spins) + sum(w * w for w in weight)
            first_nonzero = next((w for w in weight if w), 0)
            if casimir > radius or first_nonzero < 0:
                continue
            lab = label(spins, weight)
            if character_descends(spec, lab):
                found.append((casimir, spins, weight, lab))
    return [lab for *_, lab in sorted(found, key=lambda x: x[:3])]


TORUS_CENTRAL_GROUPS = [
    {"k": 1, "n": 2, "central": [{"signs": [-1], "torus": ["1/2", "1/3"]}]},
    {"k": 2, "n": 1, "central": [{"signs": [-1, 1], "torus": ["1/2"]},
                                 {"signs": [1, -1], "torus": ["2/3"]}]},
]


@pytest.mark.parametrize(
    "spec",
    [preset(name) for name in ("su2", "so3", "u2", "so4", "spin4", "t1", "t2", "t3")]
    + [group_from_json(doc) for doc in TORUS_CENTRAL_GROUPS],
    ids=lambda spec: spec.display_name,
)
def test_enumerate_matches_brute_force_walk(spec):
    for tensor in (identity_tensor(spec.dim),
                   sample_definite_tensor(spec.dim, random.Random(spec.dim)).scale(Fraction(1, 2))):
        for cutoff in (0, Fraction(1, 3), 3, Fraction(123, 7), 24):
            radius = Fraction(cutoff) / tensor.lower_bound
            assert enumerate_irreps(spec, tensor, cutoff) == brute_force_labels(spec, radius)


@pytest.mark.parametrize(
    "group, level, casimir",
    [
        ("u2", 15, 240),
        ("spin4", 7, 46),
        ("u2", 60, 3600),
        ({"k": 1, "n": 2}, 6, None),
        ({"k": 1, "n": 3, "central": [{"signs": [-1], "torus": ["1/2", "1/3", "0"]}]}, 8, 60),
        ("t3", 30, 900),
    ],
    ids=["u2-240", "spin4-46", "u2-3600", "k1n2-box", "k1n3-central-60", "t3-900"],
)
def test_walk_matches_brute_force_labels(group, level, casimir):
    # the walks of the benchmark's spectra, a box with no budget, and a
    # central element coupling the sign with three torus coordinates
    spec = preset(group) if isinstance(group, str) else group_from_json(group)
    radius = math.inf if casimir is None else casimir
    assert labels_up_to_level(spec, level, casimir) == brute_force_labels(spec, radius, level)


@pytest.mark.parametrize(
    "spec",
    [group_from_json(doc) for doc in TORUS_POINT_GROUPS]
    + [preset(name) for name in ("t1", "t2", "t3")]
    + [group_from_json({"k": 0, "n": 3, "central": [{"signs": [], "torus": ["1/3", "0", "2/5"]}]})],
    ids=lambda spec: spec.display_name,
)
def test_walk_matches_brute_force_labels_at_every_level(spec):
    # central torus points 1/3 and 2/5, groups with no SU(2) factor, and
    # the box (casimir=None) beside budgets that cut it
    for level in (0, 1, 2, 4, 6):
        for casimir in (None, 0, 5, 17, 40):
            radius = math.inf if casimir is None else casimir
            assert labels_up_to_level(spec, level, casimir) == brute_force_labels(spec, radius, level), (level, casimir)


def test_gcd_free_basis_splits_shared_factors():
    a = mul([-1, 1], [-2, 1])
    b = mul([-2, 1], [-3, 1])
    basis = gcd_free_basis([a, b])
    assert basis == [([-2, 1], [0, 1]), ([-1, 1], [0]), ([-3, 1], [1])]
    roots = sorted(r.value for f, _ in basis for r in real_roots(f))
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
            prod = math.prod(chosen[1:], start=chosen[0]) * rng.randint(1, 3)
            inputs.append(primitive_int(prod))
        inputs.append(inputs[2])  # a repeated input
        basis = gcd_free_basis(inputs)
        inputs.append(basis[0][0])  # an input equal to one basis element
        basis = gcd_free_basis(inputs)

        for i, (h, _) in enumerate(basis):
            assert len(h) > 1 and h[-1] > 0 and primitive_int(from_int(h)) == h
            for k, _ in basis[i + 1:]:
                assert int_gcd(h, k) == [1]
        for n, f in enumerate(inputs):
            listed = [from_int(h) for h, members in basis if n in members]
            prod = math.prod(listed[1:], start=listed[0])
            assert from_int(f) == prod * (f[-1] / prod.lc)
        for h, members in basis:
            assert members == sorted(set(members))
            assert members == [n for n, f in enumerate(inputs) if divides(h, f)]
        last = len(inputs) - 1
        assert [h for h, members in basis if last in members] == [inputs[-1]]


def test_real_roots_exact_for_linear():
    (root,) = real_roots([-3, 2])
    r = Fraction(3, 2)
    assert root.exact == r and root.value == 1.5 and root.lo == root.hi == r


def test_real_roots_quadratic():
    vals = real_roots([2, -3, 1])  # (x-1)(x-2)
    assert [round(r.value, 9) for r in vals] == [1.0, 2.0]


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
    p = [1]
    for k in range(1, 23):
        p = mul(p, [-k, 1])
    roots = real_roots(p)
    assert len(roots) == 22
    for r, k in zip(roots, range(1, 23)):
        assert abs(r.value - k) < 1e-9


def test_real_roots_returns_exact_linear_root():
    roots = real_roots([-1, 3])
    third = Fraction(1, 3)
    assert roots == [(float(third), third, third, third)]


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
    numeric = hermitian_eigenvalues(build_DV(spec, label((5, 1)), tensor)).tolist()
    want = [v for v, _ in cluster_values(numeric, 1e-8) if v <= float(cutoff)]
    assert len(listed) == len(want)
    for got, ref in zip(listed, want):
        assert abs(got - ref) <= 1e-9 * max(1.0, ref)


def test_cutoff_decided_exactly():
    tensor = SymTensor((
        (Fraction(1), Fraction(1, 7), Fraction(1, 5)),
        (Fraction(1, 7), Fraction(3, 2), Fraction(1, 11)),
        (Fraction(1, 5), Fraction(1, 11), Fraction(2)),
    ))
    h = [-247071952, 63277436, -5336100, 148225]
    (root,) = [r.value for r in real_roots(h) if abs(r.value - 9.7474807749) < 1e-9]
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


# -- coincidences: bracket sweep against the all-pairs gcd-free basis ---------


def _tensor31(numerators) -> SymTensor:
    return SymTensor(tuple(tuple(Fraction(x, 31) for x in r) for r in numerators))


# symmetric under the swap of the two su2 factors, so the labels (m, m') and
# (m', m) share their charpoly and its irrational roots
SWAP = _tensor31([
    [38, 2, 1, 3, -2, 1], [2, 32, 4, -2, 1, 2], [1, 4, 24, 1, 2, -4],
    [3, -2, 1, 38, 2, 1], [-2, 1, 2, 2, 32, 4], [1, 2, -4, 1, 4, 24],
])
# the first spectrum_generic tensor of the benchmark (seed 0, round 0)
GENERIC = _tensor31([
    [38, 2, 1, 2, -3, -4], [2, 32, 4, 2, 4, 4], [1, 4, 24, 1, -3, 3],
    [2, 2, 1, 32, -1, 4], [-3, 4, -3, -1, 25, -1], [-4, 4, 3, 4, -1, 30],
])
# the second (seed 0, round 1)
GENERIC_1 = _tensor31([
    [33, 4, -3, 2, -3, 2], [4, 25, -2, 1, 1, -1], [-3, -2, 35, -3, 3, -2],
    [2, 1, -3, 34, -4, 4], [-3, 1, 3, -4, 39, 4], [2, -1, -2, 4, 4, 23],
])
BERGER_GRAM = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, Fraction(2, 3), 0], [0, 0, 0, 3]]
BERGER = metric_to_tensor(MetricSpec(BERGER_GRAM))


def all_pairs_spectrum(spec, tensor, cutoff):
    """The entries grouped by one gcd-free basis of every squarefree factor
    of every label, as (value, exact value, multiplicity, contributors,
    verdict) in the order of the table."""
    cutoff = Fraction(cutoff)
    pieces = [
        (lab, mult, f)
        for lab in enumerate_irreps(spec, tensor, cutoff)
        for mult, f in multiplicity_profile(char_poly_of(build_DV(spec, lab, tensor))).entries
    ]
    out = []
    for h, members in gcd_free_basis([f for _, _, f in pieces]):
        contributors = tuple((pieces[k][0], pieces[k][1]) for k in members)
        real_mult = sum(
            mult * lab.dim * (1 if is_self_dual(lab) else 2) for lab, mult in contributors
        )
        if len(contributors) > 1:
            verdict = "a"
        else:
            ((lab, mult),) = contributors
            quaternionic = classify_type(lab) == "quaternionic"
            verdict = None if mult == (2 if quaternionic else 1) else "bc"[quaternionic]
        for root in real_roots(h, cutoff):
            out.append((root.value, root.exact, real_mult, contributors, verdict))
    return sorted(out, key=lambda e: e[0])


def _rows(table):
    return [
        (e.value, e.exact_value, e.real_multiplicity,
         tuple((c.label, c.multiplicity) for c in e.contributions), e.failed_condition)
        for e in table.entries
    ]


def test_coincidences_match_all_pairs_gcd_free_basis():
    """The swap-symmetric tensor (irrational roots shared by two labels),
    the Berger metric (rational roots shared by many) and random spin4
    tensors (no root shared) give the same table as the all-pairs oracle."""
    rng = random.Random(20261019)
    cases = [(preset("spin4"), SWAP, 40), (preset("u2"), BERGER, 80)]
    cases += [(preset("spin4"), sample_definite_tensor(6, rng), 30) for _ in range(3)]
    shared_irrational = 0
    for spec, tensor, cutoff in cases:
        got = _rows(assemble_spectrum(spec, tensor, cutoff))
        assert got == all_pairs_spectrum(spec, tensor, cutoff)
        shared_irrational += sum(1 for e in got if e[1] is None and len(e[3]) > 1)
    assert shared_irrational > 0


def _count_gcds(monkeypatch) -> dict:
    """Count the exact gcds of the coincidence step: the calls of
    gcd_free_basis and of the int_gcd it runs, both looked up in spectrum."""
    calls = {"gcd_free_basis": 0, "int_gcd": 0}
    for name in calls:
        fn = getattr(spectrum, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(spectrum, name, counted)
    return calls


def test_no_exact_gcd_where_no_brackets_overlap(monkeypatch):
    calls = _count_gcds(monkeypatch)
    assemble_spectrum(preset("u2"), BERGER, 80)
    assemble_spectrum(preset("spin4"), GENERIC, Fraction(1779, 64))
    assert calls == {"gcd_free_basis": 0, "int_gcd": 0}
    # the shared irrational roots of the swap-symmetric tensor take the
    # exact route, once per pair of factors
    assemble_spectrum(preset("spin4"), SWAP, 20)
    assert calls["gcd_free_basis"] > 0 and calls["int_gcd"] > 0


def test_bound_and_hash_computed_once_per_spectrum(monkeypatch):
    calls = {"certified_lower_bound": 0, "tensor_to_json": 0}
    for name in calls:
        fn = getattr(algebra_core, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(algebra_core, name, counted)
    tensor = metric_to_tensor(MetricSpec(BERGER_GRAM))
    table = assemble_spectrum(preset("u2"), tensor, 80)
    assert len(table.labels) > 1
    assert calls == {"certified_lower_bound": 1, "tensor_to_json": 1}


def _groups(*factors, hints=()):
    roots = [(k, r) for k, f in enumerate(factors) for r in real_roots(f, None, hints)]
    return [[roots[i][1].value for i in g] for g in _coincident_roots(list(factors), roots)], roots


def test_overlapping_inexact_brackets_decided_by_common_factor():
    sqrt2 = [-2, 0, 1]
    # sqrt(2) shared with a multiple; -sqrt(2) too; 3 alone
    groups, _ = _groups(sqrt2, mul(sqrt2, [-3, 1]))
    assert [len(g) for g in groups] == [2, 2, 1]
    # sqrt(2 + 2^-60) lies within 2^-62 of sqrt(2): the pinned brackets
    # overlap, yet the factors are coprime and the roots distinct
    q = 2**30
    groups, roots = _groups(sqrt2, [-(2 * q * q + 1), 0, q * q])
    assert [len(g) for g in groups] == [1, 1, 1, 1]
    (_, r), (_, s) = roots[1], roots[3]
    assert r.exact is None and s.exact is None and max(r.lo, s.lo) < min(r.hi, s.hi)


def test_exact_root_met_inside_an_inexact_bracket():
    # 150000001/100000007 is exact as the root of the linear factor, but its
    # denominator is too large for the pin of the quadratic to recover it
    h = [-150000001, 100000007]
    groups, roots = _groups(h, mul(h, [-5, 1]))
    assert [len(g) for g in groups] == [2, 1]
    assert roots[0][1].exact is not None and roots[1][1].exact is None


def test_common_factor_vanishing_at_the_lower_end(monkeypatch):
    """sqrt(1 + 2^-e) lies so close to the root 1 that, cut at 1 by the
    hints 0.5 and 1.5, its bracket is (1, 1 + 2^-53]: where the common
    factor has the root 1 too, its sign at 1 is 0, and the sign of its
    derivative there tells whether it has another root in the bracket."""
    def near_one(e):
        return [-(2**e + 1), 0, 2**e]

    calls = []
    derivative = spectrum.derivative

    def counted(cs):
        calls.append(cs)
        return derivative(cs)

    f = mul(mul([-1, 1], near_one(120)), [4, 1])
    # the same root 1 + 2^-121 (and -1 - 2^-121, and 1) in both factors
    f2 = mul(mul([-1, 1], near_one(120)), [-6, 1])
    roots = [(k, r) for k, h in enumerate((f, f2)) for r in real_roots(h, None, [0.5, 1.5])]
    monkeypatch.setattr(spectrum, "derivative", counted)
    groups = _coincident_roots([f, f2], roots)
    assert [len(g) for g in groups] == [1, 2, 2, 2, 1]
    assert roots[3][1].exact is None and roots[3][1].lo == 1
    assert calls == [mul([-1, 1], near_one(120))]
    # the common factor (x - 1)(x + 4) has no root in (1, 1 + 2^-53], so
    # 1 + 2^-121 and 1 + 2^-101 stay apart
    groups, roots = _groups(f, mul(mul([-1, 1], near_one(100)), [4, 1]), hints=[0.5, 1.5])
    assert [len(g) for g in groups] == [2, 1, 2, 1, 1, 1]
    (_, r), (_, s) = roots[3], roots[7]
    assert r.exact is None and s.exact is None and r.lo == s.lo == 1


def _all_pairs_groups(factors, roots):
    """The oracle of _coincident_roots: every pair of roots decided, two
    exact values by equality and any other pair of different factors by
    _same_root, joined by a plain union-find."""
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(roots)), 2):
        (k, r), (l, s) = roots[i], roots[j]
        if s.exact is not None:
            (k, r), (l, s) = (l, s), (k, r)
        if s.exact is not None:
            same = r.exact == s.exact
        else:
            same = k != l and spectrum._same_root(
                factors[k], r, factors[l], s, lambda: _common(factors[k], factors[l])
            )
        if same:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _common(f, g):
    return next((h for h, members in gcd_free_basis([f, g]) if members == [0, 1]), [1])


def test_coincident_roots_match_all_pairs_on_mixed_clusters():
    # exact roots of linear factors, the same roots met inexactly inside
    # quadratics whose pin cannot recover them, and irrational roots, all
    # in few clusters, with each factor's roots in shuffled order
    h = [-150000001, 100000007]
    pieces = [h, [-2, 1], [-2, 0, 1], [-3, 1], [-5, 1]]
    rng = random.Random(31)
    mixed = 0
    for _ in range(12):
        factors = []
        for _ in range(rng.randint(2, 9)):
            f = [1]
            for piece in rng.sample(pieces, rng.randint(1, 3)):
                f = mul(f, piece)
            factors.append(f)
        roots = [(k, r) for k, f in enumerate(factors) for r in real_roots(f)]
        rng.shuffle(roots)
        groups = _coincident_roots(factors, roots)
        assert groups == _all_pairs_groups(factors, roots)
        mixed += sum(1 for g in groups if len({roots[i][1].exact is None for i in g}) == 2)
    assert mixed > 0


def test_coincident_roots_linear_on_equal_exact_roots(monkeypatch):
    calls = []
    same_root = spectrum._same_root

    def counted(*args):
        calls.append(args)
        return same_root(*args)

    monkeypatch.setattr(spectrum, "_same_root", counted)
    # 300 equal exact roots and one irrational root with their double: one
    # group, and one comparison, that of the irrational root with the value
    factors = [[-2, 1]] * 300 + [[-4 * 2**80 - 1, 0, 2**80]]
    roots = [(k, r) for k, f in enumerate(factors) for r in real_roots(f)]
    groups = _coincident_roots(factors, roots)
    assert sorted(map(len, groups)) == [1, 1, 300]
    assert len(calls) == 1


def _hinted_factors(spec, tensor, labels):
    """(squarefree factor, its label's clustered hermitian eigenvalues) for
    every factor of every label."""
    out = []
    for lab in labels:
        op = build_DV(spec, lab, tensor)
        hints = root_hints(op)
        out += [(f, hints) for _, f in multiplicity_profile(char_poly_of(op)).entries]
    return out


@functools.cache
def _random_suite() -> tuple[tuple[list[int], list[float]], ...]:
    """The squarefree factors of the random definite tensors that the
    acceptance suite's numeric-profile test draws (same seed, same order),
    each with its label's clustered hermitian eigenvalues."""
    rng = random.Random(20260817)
    small = [(preset("su2"), label((m,))) for m in range(8)]
    small += [(preset("so3"), lab) for lab in labels_up_to_level(preset("so3"), 6)]
    small += [(preset("u2"), lab) for lab in labels_up_to_level(preset("u2"), 3)]
    small += [(preset("t2"), lab) for lab in labels_up_to_level(preset("t2"), 1)]
    spin4 = preset("spin4")
    small += [(spin4, label((m, mp))) for m in range(4) for mp in range(4)]
    small += [(preset("so4"), lab) for lab in labels_up_to_level(preset("so4"), 3)]
    big = [(spin4, label((m, m))) for m in (4, 5, 6, 7)]
    out = []
    for spec, lab in small * 4 + big:
        out += _hinted_factors(spec, sample_definite_tensor(spec.dim, rng), [lab])
    return tuple(out)


def _random_suite_factors() -> tuple[list[int], ...]:
    return tuple(f for f, _ in _random_suite())


def test_real_roots_pinned_within_one_ulp_and_cut_exactly():
    # the hint route; the Sturm route meets the Fraction oracle below
    for cs, hints in _random_suite():
        roots = real_roots(cs, None, hints)
        assert len(roots) == len(cs) - 1
        values = [r.value for r in roots]
        assert values == sorted(set(values))
        for x, exact, a, b in roots:
            lo = int_sign_at(cs, Fraction(math.nextafter(x, -math.inf)))
            hi = int_sign_at(cs, Fraction(math.nextafter(x, math.inf)))
            assert lo * hi <= 0
            if exact is not None:
                assert int_sign_at(cs, exact) == 0 and a == b == exact
            else:
                # the bracket holds the root, within the floats next to x
                assert int_sign_at(cs, a) * int_sign_at(cs, b) < 0
                assert Fraction(math.nextafter(x, -math.inf)) < a < b
                assert b < Fraction(math.nextafter(x, math.inf))
        # a cut at the float of the middle root, checked by a Sturm count
        cut = Fraction(values[len(values) // 2])
        chain = oracle_chain(tuple(cs))
        signs = [[s for g in chain if (s := int_sign_at(g, x))]
                 for x in (Fraction(-1 - sum(map(abs, cs))), cut)]
        v_lo, v_hi = (sum(u != v for u, v in zip(s, s[1:])) for s in signs)
        assert len(real_roots(cs, cut, hints)) == v_lo - v_hi


# -- oracle: Sturm brackets and nearest doubles over Fractions ---------------


def sign_at_oracle(cs, x: Fraction) -> int:
    """Sign of the integer polynomial cs at x by Horner over num / den."""
    num, den = x.numerator, x.denominator
    acc = 0
    dp = 1
    for c in reversed(cs):
        acc = acc * num + c * dp
        dp *= den
    return (acc > 0) - (acc < 0)


def variations_oracle(chain, x: Fraction) -> int:
    signs = [s for cs in chain if (s := sign_at_oracle(cs, x))]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


@functools.cache
def oracle_chain(p: tuple) -> list[list[int]]:
    """The classical Sturm chain of p over Q (`fracpoly.sturm_chain`),
    each member times a positive integer that clears its denominators."""
    return [clear_denominators(g)[0] for g in fraction_sturm_chain(from_int(p))]


def brackets_oracle(p: list[int], hints=None):
    """Sturm isolation on the classical chain, with Fraction cuts and
    Fraction midpoints, from the same root bound and the same cuts between
    hints: the float midpoint of two hints strictly between them."""
    chain = oracle_chain(tuple(p))
    bound = root_bound(primitive_int(from_int(p)))
    lo, hi = Fraction(-bound), Fraction(bound)
    cuts = {lo, hi}
    if hints:
        finite = sorted(x for x in hints if math.isfinite(x))
        for u, v in zip(finite, finite[1:]):
            c = (u + v) / 2
            if u < c < v and lo < c < hi:
                cuts.add(Fraction(c))
    cuts = sorted(cuts)
    vs = [variations_oracle(chain, c) for c in cuts]
    out = []
    stack = [(cuts[i], cuts[i + 1], vs[i], vs[i + 1]) for i in range(len(cuts) - 1)]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 1:
            out.append((a, b))
        elif va - vb > 1:
            mid = (a + b) / 2
            vm = variations_oracle(chain, mid)
            stack.append((a, mid, va, vm))
            stack.append((mid, b, vm, vb))
    return sorted(out)


def pin_oracle(cs, a: Fraction, b: Fraction):
    """The root of cs in (a, b] as (its nearest double, its exact value or
    None, bracket), by bisection at Fraction midpoints until the correctly
    rounded floats of both ends agree.  A root exactly halfway between two
    doubles never lets them agree; it is met by the sign at that halfway
    point once the ends round to the two doubles.  A root at b is b, so
    its double is float(b), and it is exact when it lies halfway between
    two doubles.  Otherwise the exact value is the one a midpoint meets,
    or the fraction nearest the double with denominator at most
    min(lc, isqrt(2 / ulp)) if it is a root in (a, b]; the bracket is the
    interval between the halfway points to the neighbouring doubles, cut
    to (a, b]."""
    sb = sign_at_oracle(cs, b)
    lo, hi = a, b
    while sb and float(lo) != float(hi):
        if math.nextafter(float(lo), math.inf) == float(hi):
            half = (Fraction(float(lo)) + Fraction(float(hi))) / 2
            if lo < half < hi and sign_at_oracle(cs, half) == 0:
                return float(half), half, half, half
        mid = (lo + hi) / 2
        sm = sign_at_oracle(cs, mid)
        if sm == 0:
            return float(mid), mid, mid, mid
        if sm == sb:
            hi = mid
        else:
            lo = mid
    x = float(hi)
    below = (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    if not sb and b in (below, above):
        return x, b, b, b
    Q = math.isqrt(math.floor(2 / Fraction(math.ulp(x))))
    r = Fraction(x).limit_denominator(max(1, min(abs(cs[-1]), Q)))
    if a < r <= b and sign_at_oracle(cs, r) == 0:
        return float(r), r, r, r
    return x, None, max(a, below), min(b, above)


@functools.cache
def _unhinted_oracle_brackets(cs: tuple) -> list:
    return brackets_oracle(list(cs))


def _hints(h: list[int]):
    return np.roots([float(Fraction(c, h[-1])) for c in reversed(h)]).real.tolist()


def real_roots_oracle(cs: list[int], upper=None):
    """`real_roots` without hints, over Fractions: the oracle's brackets,
    each pinned to the nearest double by `pin_oracle`."""
    if len(cs) == 2:
        r = Fraction(-cs[0], cs[1])
        return [(float(r), r, r, r)] if upper is None or r <= upper else []
    out = []
    for a, b in _unhinted_oracle_brackets(tuple(cs)):
        if upper is not None and upper < b:
            if a >= upper or sign_at_oracle(cs, upper) not in (0, sign_at_oracle(cs, b)):
                break
            b = upper
        out.append(pin_oracle(cs, a, b))
    return out


def round_bracket(cs, a: Fraction, b: Fraction):
    """The root in a Sturm bracket (a, b], rounded as `real_roots` rounds
    it: from the double nearest the bracket's midpoint, clamped to the
    finite doubles, with the sign of cs at b."""
    mid = min(max((a + b) / 2, -sys.float_info.max), sys.float_info.max)
    return _round(cs, a, b, int_sign_at(cs, b), float(mid))


@functools.cache
def _suite_oracle_brackets() -> tuple:
    """The oracle's hinted brackets of every suite factor of degree > 1."""
    return tuple(
        brackets_oracle(f, _hints(f)) if len(f) > 2 else ()
        for f in _random_suite_factors()
    )


def test_dyadic_route_matches_fraction_oracle_on_suite_factors():
    """Brackets and their roots equal the oracle's on every factor; the
    whole of `real_roots`, and brackets without hints, on the smaller ones
    (the oracle's hintless isolation of the degree 16-64 factors takes
    tens of seconds)."""
    for cs, brackets in zip(_random_suite_factors(), _suite_oracle_brackets()):
        if len(cs) == 2:
            assert real_roots(cs) == real_roots_oracle(cs)
            continue
        assert real_root_brackets(cs, _hints(cs)) == brackets
        want = [pin_oracle(cs, a, b) for a, b in brackets]
        assert [round_bracket(cs, a, b) for a, b in brackets] == want
        if len(cs) < 17:
            unhinted = _unhinted_oracle_brackets(tuple(cs))
            assert real_root_brackets(cs) == unhinted
            assert real_roots(cs) == [pin_oracle(cs, a, b) for a, b in unhinted]


def test_dyadic_route_matches_oracle_at_odd_denominator_cutoffs():
    """Cutoffs n/3, n/10, n/77 and n/(77 2^30) around every middle root;
    those that fall inside the root's bracket and above the root end its
    cell at a point whose denominator has an odd part q, which the
    rounding compares with the dyadic midpoints between doubles."""
    cut_inside = {3: 0, 5: 0, 77: 0}
    suite = zip(_random_suite_factors(), _suite_oracle_brackets())
    for n, (cs, brackets) in enumerate(suite):
        if len(cs) == 2:
            continue
        a, b = brackets[len(brackets) // 2]
        x = round_bracket(cs, a, b).value
        den = (3, 10, 77)[n % 3]
        q = den // (den & -den)
        for upper in (
            Fraction(math.floor(x * den), den),
            Fraction(math.ceil(x * den), den),
            Fraction(math.ceil(x * den * 2**30), den * 2**30),
        ):
            if len(cs) < 17:
                assert real_roots(cs, upper) == real_roots_oracle(cs, upper)
            if x < upper < b:
                assert round_bracket(cs, a, upper) == pin_oracle(cs, a, upper)
                cut_inside[q] += 1
    assert all(cut_inside.values()), cut_inside


def test_pin_on_a_midpoint_that_is_the_root():
    # rational roots of Sturm brackets, which the oracle's bisection lands
    # on: (x - 1)(x - 7) on (0, 4] has the root 1, a double; with a cutoff
    # 10/3, (3x - 5)(x - 7) has the root 5/3, the fraction nearest its
    # double; the root 1 + 2^-53 of a factor 2^53 x - (2^53 + 1) is the
    # midpoint between the doubles 1 and 1 + 2^-52
    cases = [
        ([7, -8, 1], Fraction(0), Fraction(4), Fraction(1)),
        ([35, -26, 3], Fraction(0), Fraction(10, 3), Fraction(5, 3)),
        ([35, -26, 3], Fraction(1, 2), Fraction(17, 6), Fraction(5, 3)),
        (mul([-(2**53 + 1), 2**53], [-7, 1]), Fraction(0), Fraction(4), 1 + Fraction(1, 2**53)),
    ]
    for cs, a, b, root in cases:
        got = round_bracket(cs, a, b)
        assert got == pin_oracle(cs, a, b) == (float(root), root, root, root)
    # a Sturm midpoint on a rational root: x^2 - 4x has the bound 6, and
    # the first midpoint of (-6, 6] is its root 0
    p = [0, -4, 1]
    assert real_root_brackets(p) == brackets_oracle(p)
    assert real_roots(p) == real_roots_oracle(p) == [(0.0, 0, 0, 0), (4.0, 4, 4, 4)]


def test_pin_exact_value_up_to_the_denominator_bound():
    # on [1, 2) a double's ulp is 2^-52, so the fraction checked at the
    # nearest double has s <= isqrt(2 / 2^-52) = 94906265, and a rational
    # root r/s with a larger s is reported inexact
    for r, s, exact in (
        (135000001, 90000007, True),
        (150000001, 100000007, False),
    ):
        cs = [-r, s]
        x, value, *_ = root = round_bracket(cs, Fraction(1), Fraction(2))
        assert root == pin_oracle(cs, Fraction(1), Fraction(2))
        assert value == (Fraction(r, s) if exact else None)
        assert abs(x - r / s) <= math.ulp(x)


def _branch_factors() -> list[list[int]]:
    """Factors on both sides of the rational check of `_round`: monic ones,
    whose denominator bound is 1, with integer roots and with irrational
    roots next to integers; and shifted ones (`shift_primitive`, lc > 1):
    the smaller suite factors and two with integer roots, moved by t/d."""
    monic = [
        mul(mul([1, 1], [-7, 1]), [3, 1]),
        mul([-2, 0, 1], [-5, 1]),
        mul(mul([-3, 0, 1], [-1, -1, 1]), [-2, 1]),
        [-1, -3, 0, 1],
        mul(mul(mul([0, 1], [-1, 1]), [4, 1]), [-10**6, 1]),
    ]
    small = [f for f in _random_suite_factors() if 3 <= len(f) <= 5][:8]
    shifted = [shift_primitive(f, t, d) for f, (t, d) in zip(small, itertools.cycle([(1, 3), (5, 31), (2, 7)]))]
    shifted += [shift_primitive(monic[0], 1, 3), shift_primitive(monic[4], -2, 5)]
    # (2x - 1)(x - 3)(x^2 - 2) moved by 1/2: the roots 1 and 7/2 of a
    # factor with lc 4
    shifted.append(shift_primitive(mul(mul([-1, 2], [-3, 1]), [-2, 0, 1]), 1, 2))
    return monic + shifted


def test_rational_check_on_monic_and_shifted_factors_matches_the_oracle(monkeypatch):
    """The Sturm brackets of every factor, rounded by `_round` from their
    midpoints and by `real_roots`, give what the Fraction oracle gives;
    the rational candidate is taken with the bound 1 and above it, and
    each finds exact roots, integers and fractions."""
    bounds = []
    nearest = spectrum._nearest_fraction

    def counted(x, bound):
        bounds.append(bound)
        return nearest(x, bound)

    monkeypatch.setattr(spectrum, "_nearest_fraction", counted)
    exact = set()
    for cs in _branch_factors():
        brackets = _unhinted_oracle_brackets(tuple(cs))
        assert len(brackets) == len(cs) - 1
        want = [pin_oracle(cs, a, b) for a, b in brackets]
        del bounds[:]
        got = [round_bracket(cs, a, b) for a, b in brackets]
        assert got == want
        assert len(bounds) == len(brackets) and len(set(bounds)) == 1
        assert real_roots(cs) == want
        exact |= {(bounds[0] == 1, r.exact.denominator == 1) for r in got if r.exact is not None}
    assert exact == {(True, True), (False, True), (False, False)}


def test_nearest_fraction_on_integers_is_limit_denominator():
    rng = random.Random(11)
    xs = [0.0, -0.0, 0.5, -0.5, 2.5, -2.5, 1 / 3, math.pi, 5e-324, -5e-324,
          sys.float_info.max, -sys.float_info.max, 2.0**53 + 2, 1e-300]
    xs += [rng.uniform(-100, 100) for _ in range(300)]
    xs += [rng.randint(-10**6, 10**6) / rng.randint(1, 10**4) for _ in range(300)]
    xs += [math.ldexp(rng.random(), rng.randint(-1074, 1023)) for _ in range(100)]
    for x in xs:
        for bound in (1, 2, 3, 31, 961, rng.randint(1, 10**9), 2**60):
            assert spectrum._nearest_fraction(x, bound) == Fraction(x).limit_denominator(bound)


def test_integer_midpoints_match_the_fraction_formula():
    """`_midpoint` against the mean of the two doubles over Fractions: at
    every binade edge, on subnormals, next to 0 and -0, on negative keys
    and next to the largest double, at both signs."""
    top = spectrum._TOP
    keys = {(e << 52) + d for e in range(2047) for d in (-2, -1, 0, 1)}
    keys |= {1, 2, 3, (1 << 51), top - 1, top - 2, spectrum._key(1.0), spectrum._key(math.pi)}
    rng = random.Random(5)
    keys |= {rng.randrange(top) for _ in range(2000)}
    keys = {k for k in keys if 0 <= k < top}
    # the negative keys mirror them: -1 is the key of minus the least
    # subnormal, whose upper neighbour is -0, and -top that of minus the
    # largest double
    keys |= {-k - 1 for k in keys}
    assert spectrum._key(0.0) == spectrum._key(-0.0) == 0
    for key in keys:
        x = spectrum._double(key)
        y = math.nextafter(x, math.inf)
        assert spectrum._key(y) == key + 1
        m, k = spectrum._midpoint(key)
        assert k >= 0 and Fraction(m, 1 << k) == (Fraction(x) + Fraction(y)) / 2
    assert spectrum._midpoint(0) == (1, 1075) and spectrum._midpoint(-1) == (-1, 1075)


def test_sturm_cell_from_past_the_largest_double():
    """(x + 1)(x - 2^1100): the root bound passes the largest double, and
    the Sturm bracket of the root -1 starts at minus it.  (x + 1) prod
    (x - 10^20 k) has coefficients past the largest double, and no
    coefficient ratio is taken as a float."""
    h = mul([1, 1], [-(2**1100), 1])
    (a, b), _ = real_root_brackets(h)
    assert a < -sys.float_info.max < -1 <= b
    assert real_roots(h, Fraction(0)) == [(-1.0, -1, -1, -1)]
    # the root 2^1100 takes the largest double, and its bracket keeps the
    # end of its cell above it; the mirror image at -2^1100
    for g, sign in ((h, 1), (mul([-1, 1], [2**1100, 1]), -1)):
        (x, exact, lo, hi), = [r for r in real_roots(g) if abs(r.value) > 1]
        assert x == sign * sys.float_info.max and exact is None
        assert lo < sign * 2**1100 <= hi and int_sign_at(g, lo) * int_sign_at(g, hi) < 0
    h = [1, 1]
    for k in range(1, 17):
        h = mul(h, [-(10**20) * k, 1])
    assert max(map(abs, h)) > sys.float_info.max
    roots = real_roots(h)
    assert [r.exact for r in roots] == [-1] + [10**20 * k for k in range(1, 17)]
    assert all(r.value == r.exact == r.lo == r.hi for r in roots)


# -- the hint route against the Sturm route -----------------------------------


def _count_sturm(monkeypatch) -> list:
    """Count the Sturm isolations real_roots falls back to, looked up in
    spectrum as the benchmark's tracer does."""
    calls = []
    fn = spectrum.real_root_brackets

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(spectrum, "real_root_brackets", counted)
    return calls


FIXED_CASES = {
    "swap": (preset("spin4"), SWAP, Fraction(20)),
    "berger": (preset("u2"), BERGER, Fraction(80)),
    "generic-0": (preset("spin4"), GENERIC, Fraction(1779, 64)),
    "generic-1": (preset("spin4"), GENERIC_1, Fraction(1797, 64)),
}


@pytest.mark.parametrize("case", list(FIXED_CASES))
def test_hint_route_matches_sturm_route(case, monkeypatch):
    """Every factor's hints prove its cells, and the roots they pin, with
    their exact values and brackets, are the Sturm route's."""
    spec, tensor, cutoff = FIXED_CASES[case]
    factors = _hinted_factors(spec, tensor, enumerate_irreps(spec, tensor, cutoff))
    assert any(len(f) > 2 for f, _ in factors)
    sturm = _count_sturm(monkeypatch)
    for f, hints in factors:
        if len(f) > 2:
            assert hint_cells(f, hints) is not None
        hinted = real_roots(f, cutoff, hints)
        assert sturm == []
        assert hinted == real_roots(f, cutoff)
        sturm.clear()


def test_both_routes_agree_on_the_exact_value():
    """The root r = 1 + 2^-k of (2^k x - (2^k + 1))(x - 3) gets one double
    and one exact value on every route: from hints that prove its cell,
    from hints whose cut lands on r and so ends a Sturm bracket there,
    without hints, where a bisection of its Sturm bracket at exact
    midpoints lands on r for k = 51 and 52, and with r as the cutoff,
    which ends its cell there.  r is exact for k <= 26, where the fraction
    check's denominator bound reaches 2^k, and for k = 53, where r lies
    halfway between the doubles 1 and 1 + 2^-52 and the search meets it
    as a midpoint."""
    for k in range(20, 61):
        h = mul([-(2**k + 1), 2**k], [-3, 1])
        r = 1 + Fraction(1, 2**k)
        hinted = real_roots(h, None, [float(r), 3.0])
        routes = [real_roots(h)]
        if k < 53:
            cut = [1.0, 1 + 2.0 ** (1 - k), 3.0]
            assert hint_cells(h, cut) is None
            routes.append(real_roots(h, None, cut))
        for other in routes:
            assert _values(other) == _values(hinted)
            _nearest_double_checked(h, other)
        for other in (real_roots(h, r, [float(r), 3.0]), real_roots(h, r)):
            assert _values(other) == _values(hinted[:1])
            _nearest_double_checked(h, other)
        assert hinted[0].value == float(r)
        assert (hinted[0].exact is None) == (26 < k != 53)
        _nearest_double_checked(h, hinted)


def _nearest_double_checked(f, roots):
    """Each inexact root is the nearest double to a root of f: f has
    nonzero opposite signs at the midpoints to the neighbouring doubles,
    and its bracket lies between them and holds one root of f."""
    chain = oracle_chain(tuple(f)) if len(f) > 2 else None
    for x, exact, lo, hi in roots:
        if exact is not None:
            assert int_sign_at(f, exact) == 0 and lo == hi == exact
            assert x == float(exact)
            continue
        below = (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2
        above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        assert int_sign_at(f, below) * int_sign_at(f, above) < 0
        assert below <= lo < hi <= above
        # the Sturm chain loses one sign change across (lo, hi]
        signs = [[s for g in chain if (s := int_sign_at(g, x))] for x in (lo, hi)]
        v_lo, v_hi = (sum(u != v for u, v in zip(s, s[1:])) for s in signs)
        assert v_lo - v_hi == 1


def _values(roots):
    """The roots as (nearest double, exact value): what two routes share;
    their brackets may be cut to different cells."""
    return [(r.value, r.exact) for r in roots]


def _definite(n: int):
    """Symmetric integer rows over 31, diagonally dominant and so definite."""
    off = st.lists(st.integers(-4, 4), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    diag = st.lists(st.integers(23, 40), min_size=n, max_size=n)

    def build(entries):
        upper, d = entries
        rows = [[0] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), x in zip(pairs, upper):
            rows[i][j] = rows[j][i] = x
        for i in range(n):
            rows[i][i] = d[i]
        return _tensor31(rows)

    return st.tuples(off, diag).map(build)


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(["spin4", "u2"]).flatmap(
        lambda name: st.tuples(st.just(name), _definite(preset(name).dim))
    ),
    st.integers(1, 40),
)
def test_hint_route_matches_sturm_route_on_drawn_tensors(drawn, cut):
    """Definite spin4 and u2 tensors: hints never change a root, with and
    without an upper bound, and every inexact root is a nearest double."""
    name, tensor = drawn
    spec = preset(name)
    upper = Fraction(cut, 4)
    proven = 0
    for f, hints in _hinted_factors(spec, tensor, labels_up_to_level(spec, 3)):
        proven += hint_cells(f, hints) is not None
        for bound in (None, upper):
            hinted = real_roots(f, bound, hints)
            assert hinted == real_roots(f, bound)
            _nearest_double_checked(f, hinted)
    assert proven > 0


def _square_of_root(quadratic) -> Fraction:
    a, d = quadratic
    return Fraction(a, d * d)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(2, 400), st.integers(1, 40)), min_size=1, max_size=4,
        unique_by=_square_of_root,
    ),
    st.sampled_from([0.0, 1e-12, -1e-7, 1e-3]),
)
def test_inexact_roots_are_nearest_doubles(quadratics, shift):
    """Products of d^2 x^2 - a, with roots +-sqrt(a) / d, pinned from
    hints moved by a relative shift and without hints."""
    f = [1]
    hints = []
    for a, d in quadratics:
        f = mul(f, [-a, 0, d * d])
        r = math.sqrt(a) / d
        hints += [-r * (1 + shift), r * (1 + shift)]
    f = primitive_int(from_int(f))
    hinted = real_roots(f, None, hints)
    assert hinted == real_roots(f)
    assert len(hinted) == len(f) - 1
    _nearest_double_checked(f, hinted)


BAD_HINTS = {
    "shifted": lambda hs: [h + 1e-3 for h in hs],
    "dropped": lambda hs: hs[:len(hs) // 2] + hs[len(hs) // 2 + 1:],
    # as many hints as roots, but two on the first root and none on the second
    "moved": lambda hs: hs[:1] + [math.nextafter(hs[0], math.inf)] + hs[2:],
    "duplicated": lambda hs: hs + hs[:1],
    "nan": lambda hs: hs + [math.nan],
    "inf": lambda hs: [-math.inf] + hs + [math.inf],
    "empty": lambda hs: [],
}


@pytest.mark.parametrize("bad", list(BAD_HINTS))
def test_bad_hints_give_the_same_roots(bad, monkeypatch):
    """Wrong hints fall back to the Sturm route where they cannot prove the
    cells, and every root keeps its double and exact value, with a bracket
    that isolates it; without hints real_roots runs the Sturm route."""
    sturm = _count_sturm(monkeypatch)
    cases = [FIXED_CASES["generic-0"], FIXED_CASES["berger"]]
    fell_back = 0
    for spec, tensor, cutoff in cases:
        for f, hints in _hinted_factors(spec, tensor, enumerate_irreps(spec, tensor, cutoff)):
            if len(f) < 3:
                continue
            want = _values(real_roots(f, cutoff, hints))
            assert sturm == []
            got = real_roots(f, cutoff, BAD_HINTS[bad](hints))
            assert _values(got) == want
            _nearest_double_checked(f, got)
            fell_back += len(sturm)
            sturm.clear()
            if bad == "empty":
                assert _values(real_roots(f, cutoff)) == want and len(sturm) == 1
                sturm.clear()
    if bad in ("dropped", "moved", "empty"):
        assert fell_back > 0


@pytest.mark.parametrize("every", [1, 2])
@pytest.mark.parametrize("case", ["swap", "su2xt1"])
def test_a_failed_hint_cell_proof_is_retried_at_most_once(case, every, monkeypatch):
    """With a spectrum's hints and with every other hint dropped, so that
    proofs fail, a label runs `hint_cells` on one factor with one set of
    hints once, except its whole charpoly P: when P's proof fails and
    Yun's split gives P back as a factor, `proved_cells` tries that proof
    once more, and it fails again.  Each factor no proof proved goes to
    the Sturm route, once.  (On the swap-symmetric su2 x su2 tensor at cutoff 40,
    the labels (m, m') and (m', m) have one charpoly and one set of hints,
    so the same pair does recur across labels.)  A class member (su2 x T^1)
    calls neither `hint_cells` nor `real_root_brackets`: it moves the
    cells its representative proved, Sturm cells included, so Sturm runs
    once per class whose representative fell back.  The table is
    unchanged."""
    group, tensor, cutoff = {
        "swap": (preset("su2xsu2"), SWAP, Fraction(40)),
        "su2xt1": SHARED_CASES["su2xt1"],
    }[case]
    table = table_to_json(assemble_spectrum(group, tensor, cutoff))
    hints_of, prove, sturm = spectrum.root_hints, spectrum.hint_cells, spectrum.real_root_brackets
    direct, shifted = spectrum._direct_work, spectrum._shifted_work
    # per label doing its own work: its hint_cells calls, its Sturm
    # isolations and its split; and the calls members made
    reps: list[dict] = []
    member_calls: list = []
    in_member = []

    def log(kind, entry):
        (member_calls if in_member else reps[-1][kind]).append(entry)

    def counted(h, hints):
        out = prove(h, hints)
        log("proofs", (tuple(h), tuple(hints), out is None))
        return out

    def isolated(h, hints=None):
        log("sturm", tuple(h))
        return sturm(h, hints)

    def own_work(*args):
        reps.append({"proofs": [], "sturm": []})
        work = direct(*args)
        reps[-1]["split"] = work.split
        return work

    def moved_work(*args):
        in_member.append(True)
        try:
            return shifted(*args)
        finally:
            in_member.pop()

    monkeypatch.setattr(spectrum, "root_hints", lambda op: hints_of(op)[::every])
    monkeypatch.setattr(spectrum, "hint_cells", counted)
    monkeypatch.setattr(spectrum, "real_root_brackets", isolated)
    monkeypatch.setattr(spectrum, "_direct_work", own_work)
    monkeypatch.setattr(spectrum, "_shifted_work", moved_work)
    assert table_to_json(assemble_spectrum(group, tensor, cutoff)) == table
    members = len(enumerate_irreps(group, tensor, cutoff)) - len(reps)
    assert (members > 0) == (case == "su2xt1")
    assert member_calls == []
    fell_back = 0
    retried = 0
    for rep in reps:
        # the first proof is P's; only a failed one comes back, failed
        repeats = [c for c in rep["proofs"][1:] if c[:2] == rep["proofs"][0][:2]]
        assert len({c[:2] for c in rep["proofs"]}) == len(rep["proofs"]) - len(repeats)
        assert len(repeats) <= 1 and all(c[2] and c == rep["proofs"][0] for c in repeats)
        retried += len(repeats)
        # the Sturm route isolates each factor of degree > 1 that no hint
        # proof of this label proved, once
        proved = {c[0] for c in rep["proofs"] if not c[2]}
        unproved = [tuple(f) for _, f, _, _ in rep["split"] if len(f) > 2 and tuple(f) not in proved]
        assert rep["sturm"] == unproved
        fell_back += bool(unproved)
    assert any(c[2] for rep in reps for c in rep["proofs"]) == (every == 2)
    sturm_runs = sum(len(rep["sturm"]) for rep in reps)
    assert sturm_runs == fell_back
    assert bool(sturm_runs) == (every == 2)
    assert (0 < retried <= fell_back) if every == 2 else (retried == 0)


def test_no_sturm_chain_on_generic_and_berger_spectra(monkeypatch):
    sturm = _count_sturm(monkeypatch)
    for spec, tensor, cutoff in (FIXED_CASES[k] for k in ("generic-0", "generic-1", "berger")):
        assert assemble_spectrum(spec, tensor, cutoff).entries
    assert sturm == []


# -- one exact computation per operator class ---------------------------------

# SU(2) x T^1 under a product tensor: the weight enters as a scalar, and the
# quaternionic (1;0) shares its class with the complex (1;1), (1;2), ...
SU2_T1 = SymTensor(tuple(tuple(Fraction(x) for x in r) for r in [
    ["1", "1/7", "1/5", "0"], ["1/7", "3/2", "1/11", "0"],
    ["1/5", "1/11", "2", "0"], ["0", "0", "0", "3/2"],
]))
# a u2 metric whose B and torus directions are coupled: D_V(s) has a
# torus-SU(2) term, so no two labels share a class
U2_CROSS = metric_to_tensor(MetricSpec(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, Fraction(2, 3), Fraction(1, 5)], [0, 0, Fraction(1, 5), 3]]
))
# u2 with a torus entry over the denominator N = 10^8 + 7: a member's
# moved exact roots have denominators near 10^8, past 2 q^2 ulp < 1, so
# its factors are shifted and isolated again, and its nonlinear factors'
# roots come out inexact
BIG_DEN = SymTensor(tuple(tuple(Fraction(x) for x in r) for r in [
    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, Fraction(3, 2), 0], [0, 0, 0, 1 + Fraction(1, 10**8 + 7)],
]))
SHARED_CASES = {
    "berger": (preset("u2"), BERGER, Fraction(80)),
    "su2xt1": (build_group_spec(1, 1), SU2_T1, Fraction(30)),
    "t3": (preset("t3"), identity_tensor(3), Fraction(20)),
    "u2-cross": (preset("u2"), U2_CROSS, Fraction(40)),
    "u2-big-den": (preset("u2"), BIG_DEN, Fraction(40)),
}


def _label_roots(work) -> list:
    """(multiplicity, root) over a label's work, in its order."""
    return [(mult, r) for mult, _, _, roots in work.split for r in roots]


def _direct_works(spec, tensor, labels, cutoff, monkeypatch) -> list:
    """Each label's work on its own operator: the oracle of moved work."""
    with monkeypatch.context() as m:
        m.setattr(spectrum, "weight_is_scalar", lambda spec, tensor: False)
        works = list(label_work(spec, tensor, labels, cutoff))
    assert all(w.shift is None for w in works)
    return works


@pytest.mark.parametrize("case", list(SHARED_CASES))
def test_shared_work_matches_the_direct_route(case, monkeypatch):
    """Every label's roots at or below the cutoff, each with its value,
    exact value and bracket, and its multiplicity, are those its own
    operator gives, where its work was moved from its class's
    representative; a piece moved without a factor has only exact roots,
    and a shifted factor is one of the label's own; the table is the one
    the direct route gives."""
    spec, tensor, cutoff = SHARED_CASES[case]
    labels = enumerate_irreps(spec, tensor, cutoff)
    works = list(label_work(spec, tensor, labels, cutoff))
    direct = _direct_works(spec, tensor, labels, cutoff, monkeypatch)
    assert [w.label for w in works] == [w.label for w in direct] == labels
    pieces = {"moved": 0, "shifted": 0}
    for w, d in zip(works, direct):
        assert _label_roots(w) == _label_roots(d)
        if w.shift is None:
            continue
        own = [f for _, f, _, _ in d.split]
        for _, f, cells, roots in w.split:
            if f is None:
                assert cells is None and all(r.exact is not None for r in roots)
                pieces["moved"] += 1
            else:
                # a label proved above the cutoff has no split of its own
                assert f in own or not own
                # every moved hint cell holds one root of the shifted factor
                for a, b, _, sb in cells:
                    assert int_sign_at(f, b) == sb and int_sign_at(f, a) == -sb
                pieces["shifted"] += 1
    if case == "u2-cross":
        assert pieces == {"moved": 0, "shifted": 0}
    elif case == "u2-big-den":
        assert pieces["shifted"] and any(
            r.exact is None for w in works if w.shift for _, f, _, rs in w.split if f for r in rs
        )
    else:
        assert pieces["moved"]
    if case in ("berger", "t3"):
        # every root of these spectra is rational with a small denominator
        assert not pieces["shifted"]
    if case == "su2xt1":
        # one class mixes quaternionic and complex labels
        types = {}
        for w in works:
            types.setdefault(w.label.spins, set()).add(classify_type(w.label))
        assert any(len(t) > 1 for t in types.values())
    table = table_to_json(assemble_spectrum(spec, tensor, cutoff))
    monkeypatch.setattr(spectrum, "weight_is_scalar", lambda spec, tensor: False)
    assert table_to_json(assemble_spectrum(spec, tensor, cutoff)) == table


def test_cutoff_decided_exactly_on_a_shifted_member():
    """28/3 is an eigenvalue of (2;2) alone, which takes the work of (2;0)
    moved by 8/6: listed at the cutoff 28/3, not at 28/3 - 2^-40."""
    spec, value = preset("u2"), Fraction(28, 3)
    works = {w.label: w for w in label_work(spec, BERGER, enumerate_irreps(spec, BERGER, value), value)}
    assert works[label((2,), (2,))].shift == 8
    assert works[label((2,), (0,))].shift is None
    (entry,) = [e for e in assemble_spectrum(spec, BERGER, value).entries if e.exact_value == value]
    assert [c.label for c in entry.contributions] == [label((2,), (2,))]
    below = assemble_spectrum(spec, BERGER, value - Fraction(1, 2**40))
    assert all(e.exact_value != value and e.value < value for e in below.entries)


# -- labels proved wholly above the cutoff ------------------------------------

# SU(2) x T^2 over a central quotient that keeps odd spins off the weight
# 0, under a tensor whose torus block makes the weight (1, 3) cheaper than
# (1, 0), which comes first: (1; 1, 3), 3/10 below (1; 1, 0), has the
# eigenvalue 26/5, and (1; 1, 0) has 11/2, above 27/5
TORUS2_SPEC = group_from_json({"k": 1, "n": 2, "central": [{"signs": [-1], "torus": ["1/2", "1/3"]}]})
TORUS2 = SymTensor(tuple(tuple(Fraction(x) for x in r) for r in [
    ["1", "1/7", "0", "0", "0"], ["1/7", "3/2", "0", "0", "0"], ["0", "0", "2", "0", "0"],
    ["0", "0", "0", "1", "-1/5"], ["0", "0", "0", "-1/5", "1/10"],
]))
SKIP_CASES = {
    "swap": (preset("spin4"), SWAP, Fraction(20)),
    "torus2": (TORUS2_SPEC, TORUS2, Fraction(27, 5)),
    # one operator class, whose first label (weight 0) has the eigenvalue
    # 0: every other label takes its work moved, and none is skipped
    "t3": (preset("t3"), identity_tensor(3), Fraction(20)),
    "berger": (preset("u2"), BERGER, Fraction(80)),
    "spin4": (preset("spin4"), sample_definite_tensor(6, random.Random(0)), Fraction(60)),
}


@pytest.mark.parametrize("case", list(SKIP_CASES))
def test_skipped_labels_match_the_charpoly_route(case, monkeypatch):
    """The table with labels skipped where `eigenvalues_above` proves
    their spectrum above the cutoff is the one every label's charpoly
    gives."""
    spec, tensor, cutoff = SKIP_CASES[case]
    prove, proved = spectrum.eigenvalues_above, []

    def counted(*args):
        proved.append(prove(*args))
        return proved[-1]

    monkeypatch.setattr(spectrum, "eigenvalues_above", counted)
    table = table_to_json(assemble_spectrum(spec, tensor, cutoff))
    assert any(proved) == (case != "t3")
    monkeypatch.setattr(spectrum, "eigenvalues_above", lambda *args: False)
    assert table_to_json(assemble_spectrum(spec, tensor, cutoff)) == table


@pytest.mark.parametrize("spins,above", [((1, 1), False), ((0, 4), True)])
def test_a_non_hermitian_operator_is_refused_exactly(spins, above, monkeypatch):
    """One imaginary entry of one label's operator flipped: floating point
    reads only the hermitian part and refuses nothing, and the exact
    weighted-hermitian check refuses the operator: on the charpoly route,
    and, where the smallest hint lies above the cutoff, in
    `eigenvalues_above`, before any charpoly."""
    spec, tensor, _ = SKIP_CASES["spin4"]
    cutoff, target = Fraction(20), label(spins)

    def corrupt(spec, lab, tensor):
        op = build_DV(spec, lab, tensor)
        if lab == target:
            M = op.matrix
            im = M.im.copy()
            k = np.flatnonzero(im)[0]
            im[k] = -im[k]
            op.matrix = IntMatrix(M.nrows, M.ncols, M.den, M.rows, M.cols, M.re, im)
        return op

    assert target in enumerate_irreps(spec, tensor, cutoff)
    assert (root_hints(corrupt(spec, target, tensor))[0] > cutoff) == above
    charpolys = []

    def charpoly(op):
        charpolys.append(op.label)
        return char_poly_of(op)

    monkeypatch.setattr(polycert, "build_DV", corrupt)
    monkeypatch.setattr(spectrum, "char_poly_of", charpoly)
    with pytest.raises(ArithmeticError, match="not hermitian"):
        assemble_spectrum(spec, tensor, cutoff)
    assert (target in charpolys) != above


def test_the_least_scalar_label_does_its_class_work(monkeypatch):
    """The class of the spins (1,) does its work on (1; 1, 3), its label
    of least torus scalar, and not on its first label (1; 1, 0): that one
    and (1; 1, 6) take the work moved by 21/70 and 105/70.  At 27/5 the
    root 26/5 moves to 11/2 and 67/10, above the cutoff, and at 40 it is
    kept; each member's roots are those its own operator gives, and the
    table is the one every label's own operator gives."""
    spec, tensor, _ = SKIP_CASES["torus2"]
    for cutoff, kept in ((Fraction(27, 5), []), (Fraction(40), [Fraction(11, 2), Fraction(67, 10)])):
        labels = enumerate_irreps(spec, tensor, cutoff)
        works = {w.label: w for w in label_work(spec, tensor, labels, cutoff)}
        direct = {w.label: w for w in _direct_works(spec, tensor, labels, cutoff, monkeypatch)}
        spin1 = [lab.weight for lab in labels if lab.spins == (1,)]
        assert spin1[0] == (1, 0)
        first, least, higher = (works[label((1,), w)] for w in ((1, 0), (1, 3), (1, 6)))
        assert least.shift is None and [r.exact for _, r in _label_roots(least)] == [Fraction(26, 5)]
        assert first.shift == 21 and higher.shift == 105
        # the roots move without a factor
        assert [f for w in (first, higher) for _, f, _, _ in w.split] == [None, None]
        assert [r.exact for w in (first, higher) for _, r in _label_roots(w)] == kept
        for lab, w in works.items():
            assert _label_roots(w) == _label_roots(direct[lab])
        table = table_to_json(assemble_spectrum(spec, tensor, cutoff))
        with monkeypatch.context() as m:
            m.setattr(spectrum, "weight_is_scalar", lambda spec, tensor: False)
            assert table_to_json(assemble_spectrum(spec, tensor, cutoff)) == table


@pytest.mark.parametrize("case", ["berger", "su2xt1", "t3", "torus2"])
def test_each_label_is_its_representative_plus_its_shift(case):
    """In every class, each label's operator is exactly that of the label
    with the least torus scalar (the first on a tie) plus t/den times the
    identity, t >= 0 the difference of their scalars; that label's work
    is not moved, and every other label's is moved by t."""
    spec, tensor, cutoff = {**SHARED_CASES, **SKIP_CASES}[case]
    den = tensor.integer_form[0]
    labels = enumerate_irreps(spec, tensor, cutoff)
    scalar = {lab: torus_scalar(spec, tensor, lab.weight) for lab in labels}
    works = {w.label: w for w in label_work(spec, tensor, labels, cutoff)}
    for spins in {lab.spins for lab in labels}:
        members = [lab for lab in labels if lab.spins == spins]
        rep = min(members, key=scalar.get)
        minus_rep = build_DV(spec, rep, tensor).matrix * -1
        for lab in members:
            t = scalar[lab] - scalar[rep]
            assert t >= 0
            assert build_DV(spec, lab, tensor).matrix + minus_rep == IntMatrix.identity(lab.dim) * Fraction(t, den)
            assert works[lab].shift == (None if lab == rep else t)
