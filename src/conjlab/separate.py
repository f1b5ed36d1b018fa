"""Separation and combination of adjacency initiators, terminators and singletons.

separate_is strips the initiators and singletons out of a partition;
separate_st strips the singletons and terminators.  Both return a
SeparationRecord (reduced partition plus the two stripped sets).
combine_is / combine_st insert such sets back, and are inverse to the
matching separate on every record a separate call actually produces.

Both combine operations share one domain test, combine_domain_ok: either
the one-element form (empty rho, a_set == b_set == {a}), or the three
element sets are pairwise disjoint and no element of a_set is the cyclic
predecessor of an element of b_set inside the combined universe, the
union of the three sets.  Each takes the record alone and works out its
universe itself; a combine sorts it once, for its domain test and its
merge alike.  The domain is slightly larger than the set of records
separate can emit, so combine(separate(p)) == p always holds but
separate(combine(r)) == r can fail off that range; see the round-trip
tests.

phi_trace composes them into the record-based phi of the paper (strip
with separate_is down to the core, re-insert with combine_st), keeping
every row: the independent reference for the array kernels in phi.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CombineDomainError
from .partition import EMPTY, SetPartition, adjacency_profile, format_partition

ROLE_IS = "IS"
ROLE_ST = "ST"


class SeparationRecord(NamedTuple):
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
    blocks = [tuple([x for x in blk if x not in kill]) for blk in p.blocks]
    return SetPartition(tuple(sorted(filter(None, blocks))))


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
    return _domain_universe(rec.rho, rec.a_set, rec.b_set) is not None


def _domain_universe(rho: SetPartition, a_set, b_set) -> list[int] | None:
    """The sorted combined universe of the record (rho, a_set, b_set), or
    None when the record is outside the combine domain."""
    supp = rho.support
    universe = sorted(a_set.union(supp, b_set))
    if not rho.blocks and a_set == b_set and len(a_set) == 1:
        return universe
    if not (a_set.isdisjoint(supp) and b_set.isdisjoint(supp) and a_set.isdisjoint(b_set)):
        return None
    prev = universe[-1] if universe else None
    for x in universe:
        if prev in a_set and x in b_set:
            return None
        prev = x
    return universe


def _combine(rho: SetPartition, a_set, b_set, with_succ: bool) -> SetPartition | None:
    """Union-find merge over the sorted combined universe; None when the
    record (rho, a_set, b_set) is outside the combine domain.

    with_succ: each element of a_set joins the block of its cyclic
    successor (insertion as initiator).  Otherwise each element of b_set
    joins the block of its cyclic predecessor (insertion as terminator).
    Unmerged new elements remain singleton blocks.  The merge order is
    irrelevant: the result only depends on which pairs get unioned.
    """
    universe = _domain_universe(rho, a_set, b_set)
    if universe is None:
        return None
    if not universe:
        return EMPTY
    index = {x: i for i, x in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for blk in rho.blocks:  # disjoint blocks of fresh roots: no finds needed
        first = index[blk[0]]
        for x in blk[1:]:
            parent[index[x]] = first
    # The cyclic neighbour of universe[i] is universe[i + step], wrapping.
    moving, step = (a_set, 1) if with_succ else (b_set, -1)
    for x in moving:
        i = index[x]
        parent[find(i)] = find((i + step) % len(universe))
    # Indices in increasing order list each class by its least element.
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(universe):
        r = parent[i]
        groups.setdefault(r if parent[r] == r else find(r), []).append(x)
    return SetPartition(tuple(map(tuple, groups.values())))


def _checked_combine(rec: SeparationRecord, with_succ: bool) -> SetPartition:
    """_combine of a record; CombineDomainError outside the domain."""
    combined = _combine(rec.rho, rec.a_set, rec.b_set, with_succ)
    if combined is None:
        raise CombineDomainError(f"record outside combine domain: {rec}")
    return combined


def combine_is(rec: SeparationRecord) -> SetPartition:
    """Insert a_set as adjacency initiators and b_set as singletons."""
    return _checked_combine(rec, True)


def combine_st(rec: SeparationRecord) -> SetPartition:
    """Insert a_set as singletons and b_set as adjacency terminators."""
    return _checked_combine(rec, False)


class ForwardRow(NamedTuple):
    j: int
    rho: SetPartition
    initiators: frozenset
    singletons: frozenset


class ReverseRow(NamedTuple):
    j: int
    tau: SetPartition


class PhiTrace(NamedTuple):
    """Full record of one phi computation.

    forward_rows[j-1] holds (j, rho_j, I_j, S_j) for j = 1..k, where
    separate_is(rho_{j-1}) = (rho_j, I_j, S_j) and rho_0 is the input.
    reverse_rows runs j = k down to 0 with tau_k = rho_k and
    tau_{j-1} = combine_st(tau_j, I_j, S_j); tau_0 = phi(input).
    """

    forward_rows: tuple[ForwardRow, ...]
    reverse_rows: tuple[ReverseRow, ...]
    k: int

    @property
    def core(self) -> SetPartition:
        return self.reverse_rows[0].tau

    @property
    def result(self) -> SetPartition:
        return self.reverse_rows[-1].tau


def _reinsert(tau: SetPartition, rec: SeparationRecord) -> SetPartition:
    """tau_{j-1} from tau_j and the record (rho_j, I_j, S_j) of step j."""
    return combine_st(SeparationRecord(tau, rec.a_set, rec.b_set, ROLE_ST))


def phi_trace(p: SetPartition) -> PhiTrace:
    """Run phi through the record-based operations, keeping every row."""
    records = []
    rho = p
    while True:
        rec = separate_is(rho)
        if not rec.a_set and not rec.b_set:
            break
        if len(rec.rho.support) >= len(rho.support):
            raise RuntimeError(f"strip step made no progress on {rho.blocks}")
        records.append(rec)
        rho = rec.rho
    k = len(records)
    forward = tuple(
        ForwardRow(j, rec.rho, rec.a_set, rec.b_set)
        for j, rec in enumerate(records, start=1)
    )
    reverse = [ReverseRow(k, rho)]
    tau = rho
    for j in range(k - 1, -1, -1):
        tau = _reinsert(tau, records[j])
        reverse.append(ReverseRow(j, tau))
    return PhiTrace(forward, tuple(reverse), k)
