"""Exact bounds, constructions and certificates for triple packing
numbers D(n, k, 3).

The public names below load their submodule on first use (PEP 562), so
``import triplepack`` imports no submodule and each CLI command loads only
what it runs.  A submodule itself, ``triplepack.leave`` say, needs its own
``import triplepack.leave``.
"""

from importlib import import_module

# each public name, keyed by the submodule that defines it
_EXPORTS = {
    "decomp": (
        "DecompositionResult", "SearchStatus", "clique_reduction",
        "decompose_via_reduction", "dehon_conditions",
        "find_triangle_decomposition", "verify_decomposition",
    ),
    "dioph": ("DiophInstance", "solve_avoidance"),
    "gdd": (
        "GddInstance", "gadget_multigraph", "lgdd_exists", "search_simple_gdd",
        "simple_gdd_exists", "simple_ts_exists", "verify_gdd",
    ),
    "leave": (
        "LeaveCertificate", "achieved_lower_bound", "construct_p_leave",
        "construct_q_leave", "construct_r_leave", "verify_certificate",
    ),
    "multigraph": (
        "Multigraph", "check_leave_conditions", "complete", "disjoint_union",
        "erdos_gallai_feasible", "realize_degree_sequence",
    ),
    "oracle": (
        "BlockCollection", "ReportStatus", "SearchReport", "max_packing",
        "search_leave_nonexistence", "verify_packing",
    ),
    "params": (
        "CaseData", "CaseLabel", "classify", "j_prime", "johnson_bound",
        "packing_number_k4", "packing_number_t2", "recursion_upper",
        "upper_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
