"""Conjugation of set partitions and integer compositions.

The central object is a bijection ``phi`` on partitions of a finite set
that repeatedly strips block initiators and singletons and re-inserts
them as singletons and block terminators.  Composing it with the
relabelling ``x -> n+1-x`` gives a conjugation that interchanges the
singleton count with the cyclic-adjacency count.  Restricted to
noncrossing partitions it coincides with the Kreweras complement.
"""

from .compositions import (
    Composition,
    conjugate_composition,
    flip_path,
    format_composition,
    from_subset,
    mu,
    mu_path,
    nu,
    nu_path,
    parse_composition,
    path_to_composition,
    sort_rank,
    strip_conjugate,
    to_path,
    to_subset,
)
from .enumeration import (
    PAIR_MU_NU,
    PAIR_SING_ADJ,
    DistributionTable,
    bell_number,
    catalan_number,
    count_adjacency_free,
    distribution,
    iter_compositions,
    iter_set_partitions,
    iter_set_partitions_of,
    random_partition,
)
from .errors import (
    CombineDomainError,
    DomainError,
    InvalidPartitionError,
    ParseError,
)
from .noncrossing import (
    find_crossing,
    format_gaps,
    graphical_conjugate,
    is_noncrossing,
    kreweras_complement,
    rotate_partition,
)
from .partition import (
    EMPTY,
    AdjacencyProfile,
    SetPartition,
    adjacency_profile,
    canonicalize,
    complement,
    format_partition,
    inferred_n,
    parse_partition,
)
from .phi import PhiTrace, conjugate, phi, phi_inverse, phi_trace, reduce_core
from .separate import (
    ROLE_IS,
    ROLE_ST,
    SeparationRecord,
    combine_domain_ok,
    combine_is,
    combine_st,
    separate_is,
    separate_st,
)
from .verify import VerifyReport, verify_suite

__version__ = "0.1.0"

__all__ = [
    "AdjacencyProfile",
    "CombineDomainError",
    "Composition",
    "DistributionTable",
    "DomainError",
    "EMPTY",
    "InvalidPartitionError",
    "PAIR_MU_NU",
    "PAIR_SING_ADJ",
    "ParseError",
    "PhiTrace",
    "ROLE_IS",
    "ROLE_ST",
    "SeparationRecord",
    "SetPartition",
    "VerifyReport",
    "adjacency_profile",
    "bell_number",
    "canonicalize",
    "catalan_number",
    "combine_domain_ok",
    "combine_is",
    "combine_st",
    "complement",
    "conjugate",
    "conjugate_composition",
    "count_adjacency_free",
    "distribution",
    "find_crossing",
    "flip_path",
    "format_composition",
    "format_gaps",
    "format_partition",
    "from_subset",
    "graphical_conjugate",
    "inferred_n",
    "is_noncrossing",
    "iter_compositions",
    "iter_set_partitions",
    "iter_set_partitions_of",
    "kreweras_complement",
    "mu",
    "mu_path",
    "nu",
    "nu_path",
    "parse_composition",
    "parse_partition",
    "path_to_composition",
    "phi",
    "phi_inverse",
    "phi_trace",
    "random_partition",
    "reduce_core",
    "rotate_partition",
    "separate_is",
    "separate_st",
    "sort_rank",
    "strip_conjugate",
    "to_path",
    "to_subset",
    "verify_suite",
]
