"""Exact Laplace spectra on compact Lie groups with certified verdicts.

Groups are products of SU(2) factors and a torus, possibly divided by a
finite central subgroup.  Left-invariant metrics are rational symmetric
tensors; the induced operators on irreducible representations are built
exactly, and every spectral claim (simplicity, separation, multiplicity)
is decided in exact arithmetic rather than from floating-point
eigenvalues: spectra by exact sign changes, exact values and gcds of
integer charpolys, certificates by nonzero residues of integer resultants
at a prime, and exact zeros by gcds.
Numerics supply hints only.
"""

import importlib

# each public name and the submodule that defines it; a name is imported
# on first use (PEP 562), so that `import lielap` loads no submodule
_HOMES = {
    "algebra_core": (
        "CentralElement", "GroupSpec", "MetricSpec", "SymTensor", "build_group_spec",
        "identity_tensor", "is_positive_definite", "metric_to_tensor", "preset",
        "square_of_vector", "symmetric_product", "tensor_from_json", "tensor_hash",
        "tensor_to_json",
    ),
    "errors": ("DomainError", "WitnessSearchExhausted"),
    "irreps": (
        "IrrepLabel", "build_irrep", "classify_type", "descends_to_quotient",
        "dual_label", "format_label", "is_self_dual", "label", "labels_up_to_level",
        "quaternionic_structure",
    ),
    "operator": ("OperatorMatrix", "build_DV", "casimir_tensor"),
    "polycert": (
        "Certificate", "CharPoly", "MultiplicityProfile", "certificate", "char_poly_of",
        "multiplicity_profile",
    ),
    "spectrum": (
        "SpectrumEntry", "SpectrumTable", "assemble_spectrum", "enumerate_irreps",
        "table_to_csv", "table_to_json", "table_to_text",
    ),
    "witness": (
        "MixedWitness", "PairsPipelineReport", "Su2EvenWitness", "WitnessReport",
        "certificate_battery", "pairs_mixed_witness", "pairs_pipeline",
        "sample_definite_tensor", "su2_even_b_witness", "witness_search",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
