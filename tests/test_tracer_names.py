"""The benchmark's tracer wraps lielap functions by module and name.

perfbench/tracer.py looks every wrapped name up with getattr when a traced
run starts, so a refactor that removes or renames one would only show up as
a traced run exiting with an error.  This loads the tracer by path, checks
that each name it wraps still resolves, and runs one small traced spectrum
so that a change to what the size hooks read (the charpoly's matrix
`.nrows`, its polynomial's `.coeffs`) fails here too.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from lielap import spectrum
from lielap.algebra_core import SymTensor, preset

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


def test_traced_spectrum_records_charpoly_sizes():
    tracer = _load_tracer()
    group = preset("su2")
    rows = [["1", "1/7", "1/5"], ["1/7", "3/2", "1/11"], ["1/5", "1/11", "2"]]
    tensor = SymTensor(tuple(tuple(Fraction(x) for x in r) for r in rows))
    cutoff = Fraction(30)
    labels = spectrum.enumerate_irreps(group, tensor, cutoff)
    saved = []
    for module, attr, *_ in tracer.WRAPS:
        mod = importlib.import_module(f"lielap.{module}")
        saved.append((mod, attr, getattr(mod, attr)))
    traced = tracer.Tracer()
    try:
        traced.install()
        table = spectrum.assemble_spectrum(group, tensor, cutoff)
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
    assert all(getattr(mod, attr) is fn for mod, attr, fn in saved)
    assert table.entries
    assert traced.values["linalg.charpoly_calls"] == len(labels) > 1
    assert traced.values["linalg.charpoly_max_dim"] == max(lab.dim for lab in labels)
    assert traced.values["linalg.charpoly_max_bits"] > 0
