"""Per-layer figures of one traced round.

Each public function is wrapped at the place where its caller looks it up
(for example `lielap.spectrum.real_roots`, which `assemble_spectrum` calls,
or `lielap.witness.charpoly_real`, which the pairs pipeline calls), so the
program itself is unchanged.  A wrapper adds the call's inclusive busy
time and count to its layer and records the size that drives the cost.
Layers do not nest into one another except `spectrum.sturm_fallbacks`,
which counts calls made from inside `real_roots`.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# metric name -> unit, in report order
METRICS = {
    "linalg.charpoly_s": "s",
    "linalg.charpoly_calls": "count",
    "linalg.charpoly_max_dim": "count",
    "linalg.charpoly_max_bits": "bits",
    "poly.resultant_s": "s",
    "poly.resultant_calls": "count",
    "poly.resultant_max_bits": "bits",
    "spectrum.real_roots_s": "s",
    "spectrum.roots": "count",
    "spectrum.sturm_fallbacks": "count",
    "poly.divides_s": "s",
    "poly.divides_calls": "count",
    "spectrum.gcd_free_basis_s": "s",
    "spectrum.basis_size": "count",
    "poly.squarefree_s": "s",
    "operator.build_DV_s": "s",
    "operator.build_DV_calls": "count",
    "operator.max_dim": "count",
    "witness.pairs_pipeline_s": "s",
    "irreps.build_irrep_s": "s",
    "spectrum.enumerate_s": "s",
    "spectrum.labels": "count",
    "cli.encode_s": "s",
}


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _charpoly(t, args, out):
    t.peak("linalg.charpoly_max_dim", args[0].nrows)
    t.peak("linalg.charpoly_max_bits", max(_bits(c) for c in out.coeffs))


def _resultant(t, args, out):
    t.peak("poly.resultant_max_bits", _bits(out))


def _operator(t, args, out):
    t.peak("operator.max_dim", out.matrix.nrows)


# (module, attribute, busy-time metric, call-count metric, metric that adds
# up len(result), size hook); None where the layer reports no such figure
WRAPS = [
    ("polycert", "charpoly_real", "linalg.charpoly_s", "linalg.charpoly_calls", None, _charpoly),
    ("witness", "charpoly_real", "linalg.charpoly_s", "linalg.charpoly_calls", None, _charpoly),
    ("polycert", "resultant", "poly.resultant_s", "poly.resultant_calls", None, _resultant),
    ("witness", "resultant", "poly.resultant_s", "poly.resultant_calls", None, _resultant),
    ("spectrum", "real_roots", "spectrum.real_roots_s", None, "spectrum.roots", None),
    ("spectrum", "real_root_brackets", None, "spectrum.sturm_fallbacks", None, None),
    ("spectrum", "divides", "poly.divides_s", "poly.divides_calls", None, None),
    ("spectrum", "gcd_free_basis", "spectrum.gcd_free_basis_s", None, "spectrum.basis_size", None),
    ("polycert", "squarefree_decomposition", "poly.squarefree_s", None, None, None),
    ("polycert", "build_DV", "operator.build_DV_s", "operator.build_DV_calls", None, _operator),
    ("witness", "build_DV", "operator.build_DV_s", "operator.build_DV_calls", None, _operator),
    ("operator", "build_DV", "operator.build_DV_s", "operator.build_DV_calls", None, _operator),
    ("cli", "pairs_pipeline", "witness.pairs_pipeline_s", None, None, None),
    ("witness", "build_irrep", "irreps.build_irrep_s", None, None, None),
    ("cli", "build_irrep", "irreps.build_irrep_s", None, None, None),
    ("spectrum", "enumerate_irreps", "spectrum.enumerate_s", None, "spectrum.labels", None),
    ("cli", "table_to_json", "cli.encode_s", None, None, None),
    ("cli", "witness_report_json", "cli.encode_s", None, None, None),
    ("cli", "dump_json", "cli.encode_s", None, None, None),
]


class Tracer:
    def __init__(self):
        self.values = {name: 0 for name in METRICS}

    def peak(self, name: str, value: int) -> None:
        self.values[name] = max(self.values[name], value)

    def install(self) -> None:
        for module, attr, *how in WRAPS:
            mod = importlib.import_module(f"lielap.{module}")
            setattr(mod, attr, self._wrap(getattr(mod, attr), *how))

    def _wrap(self, fn, busy, calls, counter, hook):
        values = self.values

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                if busy:
                    values[busy] += perf_counter() - start
                if calls:
                    values[calls] += 1
            if counter:
                values[counter] += len(out)
            if hook:
                hook(self, args, out)
            return out

        return traced
