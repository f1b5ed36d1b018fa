"""Separation and combination of adjacency initiators, terminators and singletons.

separate_is strips the initiators and singletons out of a partition;
separate_st strips the singletons and terminators.  Both return a
SeparationRecord (reduced partition plus the two stripped sets).
combine_is / combine_st insert such sets back, and are inverse to the
matching separate on every record a separate call actually produces.

Both combine operations share one domain test, combine_domain_ok: either
the one-element form (empty rho, a_set == b_set == {a}), or the three
element sets are pairwise disjoint and no element of a_set is the cyclic
predecessor of an element of b_set inside the combined universe.  The
domain is slightly larger than the set of records separate can emit, so
combine(separate(p)) == p always holds but separate(combine(r)) == r can
fail off that range; see the round-trip tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CombineDomainError
from .partition import EMPTY, SetPartition, adjacency_profile, format_partition

ROLE_IS = "IS"
ROLE_ST = "ST"


@dataclass(frozen=True)
class SeparationRecord:
    """A reduced partition plus the element sets stripped from it.

    role "IS": a_set holds adjacency initiators, b_set singletons.
    role "ST": a_set holds singletons, b_set adjacency terminators.
    """

    rho: SetPartition
    a_set: frozenset[int]
    b_set: frozenset[int]
    role: str

    def __str__(self) -> str:
        return format_record(self)


def format_record(rec: SeparationRecord) -> str:
    a = ",".join(str(x) for x in sorted(rec.a_set))
    b = ",".join(str(x) for x in sorted(rec.b_set))
    return f"{format_partition(rec.rho)} | A={{{a}}} | B={{{b}}} | role={rec.role}"


def suppress(p: SetPartition, kill) -> SetPartition:
    """Delete the given elements from p, dropping any block that empties."""
    if not kill:
        return p
    blocks = []
    for blk in p.blocks:
        nb = tuple(x for x in blk if x not in kill)
        if nb:
            blocks.append(nb)
    blocks.sort()
    return SetPartition(tuple(blocks))


def separate_is(p: SetPartition) -> SeparationRecord:
    """Strip adjacency initiators (a_set) and singletons (b_set) out of p."""
    prof = adjacency_profile(p)
    rho = suppress(p, prof.initiators | prof.singletons)
    return SeparationRecord(rho, prof.initiators, prof.singletons, ROLE_IS)


def separate_st(p: SetPartition) -> SeparationRecord:
    """Strip singletons (a_set) and adjacency terminators (b_set) out of p."""
    prof = adjacency_profile(p)
    rho = suppress(p, prof.singletons | prof.terminators)
    return SeparationRecord(rho, prof.singletons, prof.terminators, ROLE_ST)


def combine_domain_ok(rec: SeparationRecord) -> bool:
    """Shared acceptance test for combine_is and combine_st.

    Deliberately ignores rec.role: both combine directions accept exactly
    the same records.
    """
    rho, a_set, b_set = rec.rho, rec.a_set, rec.b_set
    if not rho.blocks and a_set == b_set and len(a_set) == 1:
        return True
    supp = set(rho.support)
    if (supp & a_set) or (supp & b_set) or (a_set & b_set):
        return False
    universe = sorted(supp | a_set | b_set)
    if not universe:
        return True
    prev = universe[-1]
    for x in universe:
        if prev in a_set and x in b_set:
            return False
        prev = x
    return True


def _combine(rho: SetPartition, a_set, b_set, with_succ: bool) -> SetPartition:
    """Union-find merge over the combined universe.

    with_succ: each element of a_set joins the block of its cyclic
    successor (insertion as initiator).  Otherwise each element of b_set
    joins the block of its cyclic predecessor (insertion as terminator).
    Unmerged new elements remain singleton blocks.  The merge order is
    irrelevant: the result only depends on which pairs get unioned.
    """
    universe = sorted(set(rho.support) | a_set | b_set)
    if not universe:
        return EMPTY
    parent = {x: x for x in universe}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blk in rho.blocks:
        first = blk[0]
        for x in blk[1:]:
            parent[find(x)] = find(first)
    # The cyclic neighbour of universe[i] is universe[i + step], wrapping.
    moving, step = (a_set, 1) if with_succ else (b_set, -1)
    for i, x in enumerate(universe):
        if x in moving:
            parent[find(x)] = find(universe[(i + step) % len(universe)])
    groups: dict[int, list[int]] = {}
    for x in universe:
        groups.setdefault(find(x), []).append(x)
    blocks = sorted(tuple(g) for g in groups.values())
    return SetPartition(tuple(blocks))


def combine_is(rec: SeparationRecord) -> SetPartition:
    """Insert a_set as adjacency initiators and b_set as singletons."""
    if not combine_domain_ok(rec):
        raise CombineDomainError(f"record outside combine domain: {rec}")
    return _combine(rec.rho, rec.a_set, rec.b_set, with_succ=True)


def combine_st(rec: SeparationRecord) -> SetPartition:
    """Insert a_set as singletons and b_set as adjacency terminators."""
    if not combine_domain_ok(rec):
        raise CombineDomainError(f"record outside combine domain: {rec}")
    return _combine(rec.rho, rec.a_set, rec.b_set, with_succ=False)
