"""Conjugation of set partitions and integer compositions.

The central object is a bijection ``phi`` on partitions of a finite set
that repeatedly strips block initiators and singletons and re-inserts
them as singletons and block terminators.  Composing it with the
relabelling ``x -> n+1-x`` gives a conjugation that interchanges the
singleton count with the cyclic-adjacency count.  Restricted to
noncrossing partitions it coincides with the Kreweras complement.

Every public name is listed once, under its submodule, in ``_EXPORTS``.
The core modules are imported with the package; the others load on first
access of one of their names (PEP 562), so that a CLI call imports only
what its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # Core (_CORE): imported eagerly, and all that a CLI call loads before
    # its command runs.  phi must be, because importing the submodule
    # conjlab.phi sets the package attribute phi to that module, and
    # __getattr__ would then never be asked for the function.
    "errors": ("CombineDomainError", "DomainError", "InvalidPartitionError", "ParseError"),
    "partition": (
        "EMPTY",
        "AdjacencyProfile",
        "SetPartition",
        "adjacency_profile",
        "canonicalize",
        "complement",
        "format_partition",
        "inferred_n",
        "parse_partition",
    ),
    "phi": ("conjugate", "phi", "phi_inverse", "reduce_core"),
    # Loaded on first access.  separate holds the record-based reference
    # path, which only trace, verify and library code run.
    "separate": (
        "ROLE_IS",
        "ROLE_ST",
        "PhiTrace",
        "SeparationRecord",
        "combine_domain_ok",
        "combine_is",
        "combine_st",
        "phi_trace",
        "separate_is",
        "separate_st",
    ),
    "compositions": (
        "Composition",
        "conjugate_composition",
        "flip_path",
        "format_composition",
        "from_subset",
        "mu",
        "mu_path",
        "nu",
        "nu_path",
        "parse_composition",
        "path_to_composition",
        "sort_rank",
        "strip_conjugate",
        "to_path",
        "to_subset",
    ),
    "enumeration": (
        "PAIR_MU_NU",
        "PAIR_SING_ADJ",
        "DistributionTable",
        "bell_number",
        "catalan_number",
        "count_adjacency_free",
        "distribution",
        "iter_compositions",
        "iter_set_partitions",
        "iter_set_partitions_of",
        "random_partition",
    ),
    "noncrossing": (
        "find_crossing",
        "format_gaps",
        "graphical_conjugate",
        "is_noncrossing",
        "kreweras_complement",
        "rotate_partition",
    ),
    "verify": ("VerifyReport", "verify_suite"),
}
_CORE = ("errors", "partition", "phi")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)

for _module in _CORE:
    _mod = import_module(f".{_module}", __name__)
    globals().update((name, getattr(_mod, name)) for name in _EXPORTS[_module])
del _module, _mod


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
