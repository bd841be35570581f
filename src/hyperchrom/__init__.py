"""hyperchrom: edge colouring of bounded-codegree hypergraphs.

Exact small-scale machinery around the chromatic index of hypergraphs whose
pairwise codegree is bounded by t: generators for the extremal families
(projective planes, near-pencils, t-folds), certified edge orderings and
partitions, matching-based and pipeline colouring procedures, exact
oracles, and classification of the instances attaining e(H) = t*max|N[v]|.

All numeric comparisons behind certificates use exact rationals; square
roots are compared by squaring both sides, and fourth roots enter only
through rational enclosures.
"""

import importlib

# public name -> defining module, one block per module.  ``__getattr__``
# imports a module the first time one of its names is read, so a process
# loads only the modules it uses (PEP 562); nothing is cached here, so the
# package always returns the module's current attribute.
_EXPORTS = {
    name: module
    for module, names in {
        "characterize": (
            "Classification", "NotApplicable", "NotExtremal", "TFoldNearPencil",
            "TFoldProjectivePlane", "classify_extremal", "debruijn_erdos_check",
            "intersecting_bound",
        ),
        "extremal": (
            "ComplementMatching", "ExtremalReport", "UsefulFamily", "colour_extremal",
            "colour_from_matching", "find_useful_family", "is_t_useful",
            "maximal_complement_matching",
        ),
        "generators": (
            "GeneratorParams", "near_pencil", "projective_plane",
            "random_bounded_codegree", "t_fold",
        ),
        "hypercore": (
            "ColouringFailure", "DegreeStats", "Graph", "Hypergraph", "Neighbourhoods",
            "Predicates", "ValidationReport", "canonical_form", "degree_stats", "dual",
            "is_isomorphic", "line_graph", "neighbourhoods", "predicates",
            "restrict_and_induce", "subhypergraph", "uniform_lists",
            "validate_colouring", "volume",
        ),
        "oracle": (
            "BudgetExceeded", "ListColourResult", "OracleBudget",
            "enumerate_hypergraphs", "exact_chromatic_index", "exact_list_colourable",
            "kernel_name",
        ),
        "ordering": (
            "EdgeOrdering", "PartitionCertificate", "ReorderOutcome", "forward_degrees",
            "greedy_list_colour", "partition_extremal", "partition_stability",
            "reorder", "size_monotone_ordering",
        ),
        "pipeline": (
            "PipelineParams", "PipelineRun", "ReservedColours", "SizeSplit",
            "StageRecord", "colour_main", "colour_small", "colour_sparse_block",
            "colour_stability", "reserve_colours", "split_by_size",
        ),
    }.items()
    for name in names
}

# the modules an eager import of the names above would have loaded, so that
# ``hyperchrom.oracle`` and friends resolve after a bare ``import hyperchrom``
_MODULES = frozenset(_EXPORTS.values()) | {"_kernel_py", "_matching", "exactarith"}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
