"""The benchmark's tracer wraps lielap functions by module and name.

perfbench/tracer.py looks every wrapped name up with getattr when a traced
run starts, so a refactor that removes or renames one would only show up as
a traced run exiting with an error.  This loads the tracer by path, checks
that each name it wraps still resolves, and runs four small traced spectra
and one traced certificate battery, so that a change to what the size hooks
read (the charpoly's matrix `.nrows`, its polynomial's `.coeffs`, the
resultant's value) or a resultant the wraps do not see fails here too.
"""

import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from lielap import polycert, spectrum
from lielap.algebra_core import MetricSpec, SymTensor, metric_to_tensor, preset
from lielap.irreps import labels_up_to_level
from lielap.polycert import PRIME, char_poly_of, multiplicity_profile
from lielap.witness import certificate_battery, sample_definite_tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_every_wrapped_name_resolves():
    tracer = _load_tracer()
    assert tracer.WRAPS
    missing = [
        f"lielap.{module}.{attr}"
        for module, attr, *_ in tracer.WRAPS
        if not callable(getattr(importlib.import_module(f"lielap.{module}"), attr, None))
    ]
    assert missing == []


def _traced(run):
    """(tracer values, run()) with the tracer installed around the call;
    every wrapped name is restored afterwards."""
    tracer = _load_tracer()
    saved = []
    for module, attr, *_ in tracer.WRAPS:
        mod = importlib.import_module(f"lielap.{module}")
        saved.append((mod, attr, getattr(mod, attr)))
    traced = tracer.Tracer()
    try:
        traced.install()
        out = run()
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
    assert all(getattr(mod, attr) is fn for mod, attr, fn in saved)
    return traced, out


def test_traced_spectrum_records_charpoly_sizes():
    group = preset("su2")
    rows = [["1", "1/7", "1/5"], ["1/7", "3/2", "1/11"], ["1/5", "1/11", "2"]]
    tensor = SymTensor(tuple(tuple(Fraction(x) for x in r) for r in rows))
    cutoff = Fraction(30)
    labels = spectrum.enumerate_irreps(group, tensor, cutoff)
    traced, table = _traced(lambda: spectrum.assemble_spectrum(group, tensor, cutoff))
    assert table.entries
    assert traced.values["linalg.charpoly_calls"] == len(labels) > 1
    assert traced.values["linalg.charpoly_max_dim"] == max(lab.dim for lab in labels)
    assert traced.values["linalg.charpoly_max_bits"] > 0


def test_traced_generic_spectrum_counts_every_operator_and_no_fallback():
    # build_DV is reached through the name the tracer wraps once per label,
    # and charpoly_real once per label with an eigenvalue at or below the
    # cutoff, which the float operator of perfbench/oracles.py, built apart
    # from lielap, tells with a wide margin; the others are proved above
    # it.  The hints isolate every root without a Sturm chain (the first
    # spectrum_generic tensor of the benchmark)
    group = preset("spin4")
    rows = [[38, 2, 1, 2, -3, -4], [2, 32, 4, 2, 4, 4], [1, 4, 24, 1, -3, 3],
            [2, 2, 1, 32, -1, 4], [-3, 4, -3, -1, 25, -1], [-4, 4, 3, 4, -1, 30]]
    S = tuple(tuple(Fraction(x, 31) for x in r) for r in rows)
    tensor = SymTensor(S)
    cutoff = Fraction(1779, 64)
    traced, table = _traced(lambda: spectrum.assemble_spectrum(group, tensor, cutoff))
    labels = traced.values["spectrum.labels"]
    assert labels == len(table.labels) > 1
    assert traced.values["operator.build_DV_calls"] == labels
    oracles = _load("oracles")
    lowest = [
        np.linalg.eigvalsh(oracles.hermitian_operator(lab.spins, (), S))[0] / float(cutoff)
        for lab in table.labels
    ]
    assert all(abs(x - 1) > 1e-3 for x in lowest)
    below = sum(x < 1 for x in lowest)
    assert 0 < below < labels
    assert traced.values["linalg.charpoly_calls"] == below
    assert traced.values["spectrum.roots"] > 0
    assert traced.values["spectrum.sturm_fallbacks"] == 0


def test_traced_spectrum_sees_the_exact_coincidence_route():
    # su2 x su2 tensor symmetric under the factor swap: the labels (m, m')
    # and (m', m) share irrational roots, which only the gcd-free basis of
    # their factors decides; every factor's roots are pinned once
    group = preset("su2xsu2")
    rows = [[38, 2, 1, 3, -2, 1], [2, 32, 4, -2, 1, 2], [1, 4, 24, 1, 2, -4],
            [3, -2, 1, 38, 2, 1], [-2, 1, 2, 2, 32, 4], [1, 2, -4, 1, 4, 24]]
    tensor = SymTensor(tuple(tuple(Fraction(x, 31) for x in r) for r in rows))
    cutoff = Fraction(20)
    traced, table = _traced(lambda: spectrum.assemble_spectrum(group, tensor, cutoff))
    pinned = sum(
        len(spectrum.real_roots(f, cutoff))
        for lab in spectrum.enumerate_irreps(group, tensor, cutoff)
        for _, f in multiplicity_profile(char_poly_of(group, lab, tensor)).entries
    )
    assert any(len(e.contributions) > 1 and e.exact_value is None for e in table.entries)
    assert traced.values["spectrum.basis_size"] > 0
    assert traced.values["spectrum.gcd_free_basis_s"] > 0
    assert traced.values["spectrum.roots"] == pinned > len(table.entries)


def test_traced_berger_spectrum_does_the_exact_work_once_per_class(monkeypatch):
    # the Berger metric on U(2) (the spectrum_berger input): labels with the
    # same spins differ by a scalar, so one charpoly and at most one
    # squarefree split per tuple of spins with an eigenvalue at or below
    # the cutoff (from the closed form of perfbench/oracles.py), none for
    # the others, and one operator per tuple of spins
    group = preset("u2")
    gram = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, Fraction(2, 3), 0], [0, 0, 0, 3]]
    tensor = metric_to_tensor(MetricSpec(gram))
    cutoff = Fraction(80)
    labels = spectrum.enumerate_irreps(group, tensor, cutoff)
    classes = len({lab.spins for lab in labels})
    contributing = len({
        name.partition(";")[0]
        for entry in _load("oracles").berger_spectrum(gram, cutoff).values()
        for name in entry["contributors"]
    })
    splits = []
    yun = polycert.squarefree_decomposition

    def counted(*args):
        splits.append(args)
        return yun(*args)

    monkeypatch.setattr(polycert, "squarefree_decomposition", counted)
    traced, table = _traced(lambda: spectrum.assemble_spectrum(group, tensor, cutoff))
    assert table.entries
    assert (len(labels), classes, contributing) == (96, 15, 9)
    assert traced.values["linalg.charpoly_calls"] == contributing
    assert traced.values["operator.build_DV_calls"] == classes
    assert 0 < len(splits) <= contributing


def test_traced_battery_counts_every_resultant():
    # each certificate runs one resultant, through polycert.resultant
    group = preset("spin4")
    labels = labels_up_to_level(group, 2)
    tensor = sample_definite_tensor(group.dim, random.Random(0))

    def battery():
        return certificate_battery([char_poly_of(group, l, tensor) for l in labels])

    traced, certs = _traced(battery)
    assert traced.values["poly.resultant_calls"] == len(certs) > 0
    assert traced.values["poly.resultant_max_bits"] > 0
    assert traced.values["linalg.charpoly_calls"] == len(labels)


def test_traced_battery_at_the_prime_counts_one_residue_per_certificate():
    # the battery of witness and certify: one charpoly lane per label and
    # one resultant mod PRIME per certificate, through the wrapped names
    group = preset("spin4")
    labels = labels_up_to_level(group, 2)
    tensor = sample_definite_tensor(group.dim, random.Random(0))

    def battery():
        return certificate_battery([char_poly_of(group, l, tensor, PRIME) for l in labels])

    traced, certs = _traced(battery)
    assert all(c.prime == PRIME for c in certs)
    assert traced.values["poly.resultant_calls"] == len(certs) > 0
    assert 0 < traced.values["poly.resultant_max_bits"] <= 31
    assert traced.values["linalg.charpoly_calls"] == len(labels)
    assert traced.values["linalg.charpoly_max_bits"] <= 31
