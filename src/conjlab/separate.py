"""Separation and combination of adjacency initiators, terminators and singletons.

separate_is strips the initiators and singletons out of a partition,
separate_st the singletons and terminators; each returns a
SeparationRecord (reduced partition plus the two stripped sets).
combine_is / combine_st insert such sets back, inverse to the matching
separate on every record it produces.  Both accept one domain, tested by
combine_domain_ok: the one-element form (empty rho, a_set == b_set ==
{a}), or pairwise disjoint sets with no element of a_set the cyclic
predecessor of one of b_set in their union.  It is larger than what
separate emits, so separate(combine(r)) == r can fail; see the tests.

They adapt two kernels on the rank view of a partition, as phi and
noncrossing have.  _separate marks the stripped ranks and keeps the rest
as a view, the stripped sets as element lists.  _combine places each
element at its own position when the universe is 1..N, and sorts only a
universe with gaps; it tests the domain there (None off it) and merges
by a union-find whose roots partition._grow renumbers.  phi_trace
composes them into the record-based phi of the paper, keeping every
row: the independent reference for phi's array kernels, whose strip and
transfer nothing here calls.
"""

from __future__ import annotations

from itertools import compress, islice
from typing import NamedTuple

from .errors import CombineDomainError
from .partition import SetPartition, _grow, _lazy, _profile, format_partition

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
        a = ",".join(str(x) for x in sorted(self.a_set))
        b = ",".join(str(x) for x in sorted(self.b_set))
        return f"{format_partition(self.rho)} | A={{{a}}} | B={{{b}}} | role={self.role}"


def _separate(p: SetPartition, st: bool, prof=None) -> tuple[SetPartition, list, list]:
    """(rho, a, b): separate_st (st) or separate_is of p, the stripped
    sets as increasing element lists a and b, and rho the rest of p.
    prof is _profile of p's view, when the caller has it."""
    m, labels, g = p._view
    ini, ter, sing = prof or _profile(g, p._sizes)
    a, b = (sing, ter) if st else (ini, sing)
    if not (a or b):
        return p, a, b
    keep = [True] * (m + 1)
    for r in [0, *a, *b]:  # the pad and the stripped ranks
        keep[r] = False
    live = [*compress(range(m + 1), keep)]
    if labels is not None:
        live, a, b = ([labels[r] for r in s] for s in (live, a, b))
    g, sizes = _grow(compress(g, keep), len(p._sizes))  # keys: p's block numbers
    rest = None if not live or live[-1] == len(live) else [0, *live]  # labels unless 1..k
    return _lazy(g, sizes, rest), a, b


def separate_is(p: SetPartition) -> SeparationRecord:
    """Strip adjacency initiators (a_set) and singletons (b_set) out of p."""
    rho, a, b = _separate(p, False)
    return SeparationRecord(rho, frozenset(a), frozenset(b), ROLE_IS)


def separate_st(p: SetPartition) -> SeparationRecord:
    """Strip singletons (a_set) and adjacency terminators (b_set) out of p."""
    rho, a, b = _separate(p, True)
    return SeparationRecord(rho, frozenset(a), frozenset(b), ROLE_ST)


def _combine(rho: SetPartition, a_set, b_set, with_succ: bool) -> SetPartition | None:
    """combine_is (with_succ) or combine_st of the record (rho, a_set,
    b_set), whose sets may be any collections of elements; None when the
    record is outside the combine domain.

    with_succ: each element of a_set joins the block of its cyclic
    successor (insertion as initiator).  Otherwise each element of b_set
    joins the block of its cyclic predecessor (insertion as terminator).
    Unmerged new elements remain singleton blocks.  The merge order is
    irrelevant: the result only depends on which pairs get unioned.
    """
    own = rho.support
    n = len(own) + len(a_set) + len(b_set)
    if not own and len(a_set) == 1 and a_set == b_set:  # the one-element form
        return _lazy((0, 0), [1], None if 1 in a_set else [0, *a_set])
    # Positions 1..n are the elements, unless one lies above n: then the
    # universe has gaps, and its sorted elements are ranked.
    labels = None
    if max(own[-1] if own else 0, max(a_set, default=0), max(b_set, default=0)) > n:
        labels = [0, *sorted({*own, *a_set, *b_set})]
        at = dict(zip(labels, range(n + 1))).__getitem__
        own, a_set, b_set = [*map(at, own)], [*map(at, a_set)], [*map(at, b_set)]
    # Union-find over the positions and, after them, one node per block of
    # rho: a position of rho starts in its block's node.
    parent = [*range(n + 1 + len(rho._sizes))]
    for i, blk in zip(own, islice(rho._view[2], 1, None)):
        parent[i] = n + 1 + blk
    in_b = [False] * (n + 1)
    for i in b_set:
        if parent[i] != i:
            return None
        in_b[i] = True
    for i in a_set:
        if parent[i] != i or in_b[i] or in_b[i % n + 1]:
            return None
    # The cyclic neighbour of position i is i + step, wrapping.
    step = 1 if with_succ else -1
    for i in a_set if with_succ else b_set:
        j = (i + step) % n or n
        while parent[j] != j:  # path halving
            parent[j] = j = parent[parent[j]]
        parent[i] = j  # i is a root: only its own merge moves it
    for i in range(1, n + 1):  # each position's root, in place
        j = i
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        parent[i] = j
    g, sizes = _grow(parent[1 : n + 1], len(parent))
    return _lazy(g, sizes, labels)


def combine_domain_ok(rec: SeparationRecord) -> bool:
    """Shared acceptance test for combine_is and combine_st.  It ignores
    rec.role on purpose: both directions accept exactly the same records."""
    return _combine(rec.rho, rec.a_set, rec.b_set, True) is not None


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


def _reinsert(tau: SetPartition, a, b) -> SetPartition:
    """tau_{j-1}: combine_st of the record (tau_j, I_j, S_j) of step j."""
    return _checked_combine(SeparationRecord(tau, a, b, ROLE_ST), False)


def _trace(p: SetPartition) -> tuple[list, list]:
    """(steps, taus): steps[j - 1] = _separate(rho_{j-1}, False), that is
    (rho_j, I_j, S_j), for j = 1..k, with rho_0 = p and rho_k the core;
    taus = [tau_k, ..., tau_0], tau_k = rho_k and tau_{j-1} the re-insert
    of (I_j, S_j) into tau_j."""
    steps = []
    rho = p
    while (step := _separate(rho, False))[1] or step[2]:
        if len(step[0].support) >= len(rho.support):
            raise RuntimeError(f"strip step made no progress on {rho.blocks}")
        steps.append(step)
        rho = step[0]
    taus = [rho]
    for _, a, b in reversed(steps):
        taus.append(_reinsert(taus[-1], a, b))
    return steps, taus


def phi_trace(p: SetPartition) -> PhiTrace:
    """Run phi through the record-based operations, keeping every row."""
    steps, taus = _trace(p)
    k = len(steps)
    forward = tuple(
        ForwardRow(j, rho, frozenset(a), frozenset(b)) for j, (rho, a, b) in enumerate(steps, 1)
    )
    return PhiTrace(forward, tuple(ReverseRow(k - i, tau) for i, tau in enumerate(taus)), k)
