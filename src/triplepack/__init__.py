"""Exact bounds, constructions and certificates for triple packing
numbers D(n, k, 3)."""

from .decomp import (
    DecompositionResult,
    SearchStatus,
    clique_reduction,
    decompose_via_reduction,
    dehon_conditions,
    find_triangle_decomposition,
    verify_decomposition,
)
from .dioph import DiophInstance, crt, prime_power_split, solve_avoidance
from .gdd import (
    GddInstance,
    GddShape,
    gadget_multigraph,
    juxtapose,
    lgdd_exists,
    search_simple_gdd,
    simple_gdd_exists,
    simple_ts_exists,
    verify_gdd,
)
from .leave import (
    LeaveCertificate,
    achieved_lower_bound,
    construct_p_leave,
    construct_q_leave,
    construct_r_leave,
    verify_certificate,
)
from .multigraph import (
    Multigraph,
    check_leave_conditions,
    complete,
    disjoint_union,
    erdos_gallai_feasible,
    overlay,
    realize_degree_sequence,
    scale,
)
from .oracle import (
    BlockCollection,
    ReportStatus,
    SearchReport,
    max_packing,
    search_leave_nonexistence,
    verify_packing,
)
from .params import (
    CaseData,
    CaseLabel,
    classify,
    j_prime,
    johnson_bound,
    packing_number_k4,
    packing_number_t2,
    recursion_upper,
    upper_bound,
)

__all__ = [
    "DecompositionResult", "SearchStatus", "clique_reduction",
    "decompose_via_reduction", "dehon_conditions",
    "find_triangle_decomposition", "verify_decomposition",
    "DiophInstance", "crt", "prime_power_split", "solve_avoidance",
    "GddInstance", "GddShape", "gadget_multigraph", "juxtapose",
    "lgdd_exists", "search_simple_gdd", "simple_gdd_exists",
    "simple_ts_exists", "verify_gdd",
    "LeaveCertificate", "achieved_lower_bound", "construct_p_leave",
    "construct_q_leave", "construct_r_leave", "verify_certificate",
    "Multigraph", "check_leave_conditions", "complete", "disjoint_union",
    "erdos_gallai_feasible", "overlay", "realize_degree_sequence", "scale",
    "BlockCollection", "ReportStatus", "SearchReport", "max_packing",
    "search_leave_nonexistence", "verify_packing",
    "CaseData", "CaseLabel", "classify", "j_prime", "johnson_bound",
    "packing_number_k4", "packing_number_t2", "recursion_upper",
    "upper_bound",
]
__version__ = "0.1.0"
