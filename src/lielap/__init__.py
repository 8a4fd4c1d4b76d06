"""Exact Laplace spectra on compact Lie groups with certified verdicts.

Groups are products of SU(2) factors and a torus, possibly divided by a
finite central subgroup.  Left-invariant metrics are rational symmetric
tensors; the induced operators on irreducible representations are built
exactly, and every spectral claim (simplicity, separation, multiplicity)
is decided in exact arithmetic rather than from floating-point
eigenvalues: spectra by exact sign changes, exact values and gcds of
integer charpolys, certificates by nonzero integer resultants.
Numerics supply hints only.
"""

from .algebra_core import (
    CentralElement,
    GroupSpec,
    MetricSpec,
    SymTensor,
    build_group_spec,
    identity_tensor,
    is_positive_definite,
    metric_to_tensor,
    preset,
    square_of_vector,
    symmetric_product,
    tensor_from_json,
    tensor_hash,
    tensor_to_json,
)
from .errors import DomainError, WitnessSearchExhausted
from .irreps import (
    Irrep,
    IrrepLabel,
    build_irrep,
    classify_type,
    descends_to_quotient,
    dual_label,
    format_label,
    is_self_dual,
    label,
    labels_up_to_level,
    quaternionic_structure,
)
from .operator import OperatorMatrix, build_DV, casimir_tensor
from .polycert import (
    Certificate,
    CharPoly,
    MultiplicityProfile,
    char_poly_exact,
    char_poly_of,
    multiplicity_profile,
)
from .spectrum import (
    SpectrumEntry,
    SpectrumTable,
    assemble_spectrum,
    enumerate_irreps,
    table_to_csv,
    table_to_json,
    table_to_text,
)
from .witness import (
    MixedWitness,
    PairsPipelineReport,
    Su2EvenWitness,
    WitnessReport,
    certificate_battery,
    pairs_mixed_witness,
    pairs_pipeline,
    sample_definite_tensor,
    su2_even_b_witness,
    witness_search,
)

__version__ = "0.1.0"

__all__ = [
    "CentralElement",
    "Certificate",
    "CharPoly",
    "DomainError",
    "GroupSpec",
    "Irrep",
    "IrrepLabel",
    "MetricSpec",
    "MixedWitness",
    "MultiplicityProfile",
    "OperatorMatrix",
    "PairsPipelineReport",
    "SpectrumEntry",
    "SpectrumTable",
    "Su2EvenWitness",
    "SymTensor",
    "WitnessReport",
    "WitnessSearchExhausted",
    "assemble_spectrum",
    "build_DV",
    "build_group_spec",
    "build_irrep",
    "casimir_tensor",
    "certificate_battery",
    "char_poly_exact",
    "char_poly_of",
    "classify_type",
    "descends_to_quotient",
    "dual_label",
    "enumerate_irreps",
    "format_label",
    "identity_tensor",
    "is_positive_definite",
    "is_self_dual",
    "label",
    "labels_up_to_level",
    "metric_to_tensor",
    "multiplicity_profile",
    "pairs_mixed_witness",
    "pairs_pipeline",
    "preset",
    "quaternionic_structure",
    "sample_definite_tensor",
    "square_of_vector",
    "su2_even_b_witness",
    "symmetric_product",
    "table_to_csv",
    "table_to_json",
    "table_to_text",
    "tensor_from_json",
    "tensor_hash",
    "tensor_to_json",
    "witness_search",
]
