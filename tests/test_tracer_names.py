"""The benchmark's tracer wraps lielap functions by module and name.

perfbench/tracer.py looks every wrapped name up with getattr when a traced
run starts, so a refactor that removes or renames one would only show up as
a traced run exiting with an error.  This loads the tracer by path, checks
that each name it wraps still resolves, and runs three small traced spectra
and one traced certificate battery, so that a change to what the size hooks
read (the charpoly's matrix `.nrows`, its polynomial's `.coeffs`, the
resultant's value) or a resultant the wraps do not see fails here too.
"""

import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from lielap import spectrum
from lielap.algebra_core import SymTensor, preset
from lielap.irreps import labels_up_to_level
from lielap.polycert import char_poly_of, multiplicity_profile
from lielap.witness import certificate_battery, sample_definite_tensor

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
    # build_DV and charpoly_real are reached through the names the tracer
    # wraps, once per label, and the hints isolate every root without a
    # Sturm chain (the first spectrum_generic tensor of the benchmark)
    group = preset("spin4")
    rows = [[38, 2, 1, 2, -3, -4], [2, 32, 4, 2, 4, 4], [1, 4, 24, 1, -3, 3],
            [2, 2, 1, 32, -1, 4], [-3, 4, -3, -1, 25, -1], [-4, 4, 3, 4, -1, 30]]
    tensor = SymTensor(tuple(tuple(Fraction(x, 31) for x in r) for r in rows))
    cutoff = Fraction(1779, 64)
    traced, table = _traced(lambda: spectrum.assemble_spectrum(group, tensor, cutoff))
    labels = traced.values["spectrum.labels"]
    assert labels == len(table.labels) > 1
    assert traced.values["operator.build_DV_calls"] == labels
    assert traced.values["linalg.charpoly_calls"] == labels
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


def test_traced_battery_counts_every_resultant():
    # each certificate runs one resultant, through polycert.resultant
    group = preset("spin4")
    labels = labels_up_to_level(group, 2)
    tensor = sample_definite_tensor(group.dim, random.Random(0))

    def battery():
        return certificate_battery(labels, [char_poly_of(group, l, tensor) for l in labels])

    traced, certs = _traced(battery)
    assert traced.values["poly.resultant_calls"] == len(certs) > 0
    assert traced.values["poly.resultant_max_bits"] > 0
    assert traced.values["linalg.charpoly_calls"] == len(labels)
