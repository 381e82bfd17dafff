"""Breeding entanglement-distillation protocols from stabilizer codes."""

from .breeding import (
    BreedingProtocolSpec,
    EaqeccParams,
    build_from_subspace,
    convert_pure,
    eaqecc_distance,
    ebit_count,
)
from .catalog import CatalogEntry, CatalogError, builtin_catalog, compare_report, load_catalog
from .codes import (
    CodeConstructionError,
    FeasibilityError,
    LogicalClass,
    StabilizerCode,
)
from .engine import (
    Channel,
    ErrorPattern,
    PostSelect,
    ProtocolOutcome,
    SimulationReport,
    exact_fidelity,
    run_protocol,
    simulate,
    verify_guarantee,
)
from .search import SearchQuery, SearchResult, search_codes
from .symplectic import (
    SympSubspace,
    is_self_orthogonal,
    puncture,
    star,
    symp_dual,
    symp_extend,
    symp_product,
    symp_weight,
)

__all__ = [
    "BreedingProtocolSpec",
    "CatalogEntry",
    "CatalogError",
    "Channel",
    "CodeConstructionError",
    "EaqeccParams",
    "ErrorPattern",
    "FeasibilityError",
    "LogicalClass",
    "PostSelect",
    "ProtocolOutcome",
    "SearchQuery",
    "SearchResult",
    "SimulationReport",
    "StabilizerCode",
    "SympSubspace",
    "build_from_subspace",
    "builtin_catalog",
    "compare_report",
    "convert_pure",
    "eaqecc_distance",
    "ebit_count",
    "exact_fidelity",
    "is_self_orthogonal",
    "load_catalog",
    "puncture",
    "run_protocol",
    "search_codes",
    "simulate",
    "star",
    "symp_dual",
    "symp_extend",
    "symp_product",
    "symp_weight",
    "verify_guarantee",
]

__version__ = "0.1.0"
