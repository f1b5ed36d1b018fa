"""The singleton/adjacency transfer bijection and the conjugation involution.

phi repeatedly strips initiators and singletons until neither remains,
then rebuilds in reverse, re-inserting each stripped pair (I_j, S_j) with
the I elements as singletons and the S elements as terminators.  It is a
support-preserving bijection that swaps the singleton count with the
adjacency count; conjugate composes it with complementation and is an
involution on partitions of {1..n}.

phi and phi_inverse need no rebuild phase.  Each singleton stripped at a
step ends up in the block of its cyclic predecessor (successor, for
phi_inverse) among the elements still live at that step, so one strip
scan records those links and a union-find joins them with the core
blocks.  The strip and the transfer are kernels on the growth string of
a partition of ranks (partition.ranks), the form that the adjacency
profile, the relabel and the crossing scans share: they read block ids
by rank, and the transfer's roots, renumbered, are the growth string of
the result.  phi, phi_inverse, reduce_core and conjugate are adapters
that take a partition's rank view and build blocks from the roots in
one pass (partition._partition).  The exhaustive checks sweep millions
of partitions on growth strings alone; phi_trace keeps the readable
record-based computation, and the two paths are compared exhaustively
in the tests.

A full scan per step makes a strip O(m x steps) on a support of size m,
and nested inputs take about m/2 steps.  So once its scans would pass
_SCAN_PASSES x m elements, a strip finishes on a worklist over a linked
list of the live elements, and is O(m) on every input.
"""

from __future__ import annotations

from typing import NamedTuple

from .partition import (
    SetPartition,
    _ranks_of,
    _partition,
    _relabel,
    _renumber,
    _shared,
    require_full_support,
)
from .separate import ROLE_ST, SeparationRecord, combine_st, separate_is

# Passes over the support a strip may scan before it moves to the
# worklist: a worklist from the first step cost 35% more in phi over all
# partitions of n <= 10, whose strips are a few short steps and with this
# budget almost never reach it; a deep strip reaches it in a few steps.
_SCAN_PASSES = 4


def _strip(bid, sizes, invert: bool):
    """Iterate one of the two strip maps on the growth string bid of a
    partition of ranks 1..m, whose block b has sizes[b] ranks.

    invert False (the phi strip): kill initiators and singletons per
    step.  invert True (the phi_inverse strip): kill singletons and
    terminators, which is the same scan run over the support in
    decreasing order, where the cyclic predecessor of an element is its
    successor and an initiator is a terminator.
    Every singleton killed at a step is linked to its cyclic predecessor,
    in scan order, among the elements live at that step: reversing the
    step re-inserts it into that element's block.
    Returns (core, link): core the ranks never killed, in scan order, and
    link[r] the rank r is linked to (r itself if none).
    Steps scan the whole live list until the scans would pass
    _SCAN_PASSES x m elements, then _worklist finishes: O(m) in all.
    """
    m = len(bid) - 1
    sizes = list(sizes)
    link = list(range(m + 1))
    dead = [False] * (m + 1)
    live = list(range(m, 0, -1)) if invert else link[1:]
    budget = _SCAN_PASSES * m
    while live:
        budget -= len(live)
        if budget < 0:
            return _worklist(live, bid, sizes, link, dead), link
        ends = []
        prev = live[-1]
        pb = bid[prev]
        for x in live:
            xb = bid[x]
            if xb == pb:
                ends.append(prev)
            if sizes[xb] == 1:
                link[x] = prev
                dead[x] = True
            prev = x
            pb = xb
        for x in ends:
            sizes[bid[x]] -= 1
            dead[x] = True
        rest = [x for x in live if not dead[x]]
        if len(rest) == len(live):
            break
        if not rest and not ends:
            # Every live element was a singleton: the links close a cycle
            # through all of them, and one fewer link joins them as well.
            link[live[0]] = live[0]
        live = rest
    return live, link


def _worklist(live, bid, sizes, link, dead) -> list[int]:
    """Finish a strip from its live ranks live, in scan order, updating
    _strip's sizes, link and dead; return the core in scan order.
    The live ranks form a cyclic doubly linked list, so a killed rank is
    unlinked in O(1).  Only the live predecessor of a removed rank can
    become an initiator, and only the last live rank of a block (the sum
    of its live ranks) a singleton, so after a first step over every live
    rank a step checks just those candidates: O(len(live)) in all.
    """
    prv = [0] * len(link)
    nxt = prv[:]
    sums = [0] * len(sizes)
    for p, x in zip([live[-1], *live], live):
        prv[x], nxt[p] = p, x
        sums[bid[x]] += x
    left = len(live)
    singles = starts = live
    while left:
        # Singletons read the block sizes of the step's start, so go first.
        killed = []
        for x in singles:
            if not dead[x] and sizes[bid[x]] == 1:
                link[x] = prv[x]
                dead[x] = True
                killed.append(x)
        lone = len(killed)
        # dead keeps a predecessor of several killed ranks from counting twice.
        for x in starts:
            b = bid[x]
            if not dead[x] and bid[nxt[x]] == b:
                sizes[b] -= 1
                sums[b] -= x
                dead[x] = True
                killed.append(x)
        if not killed:
            break
        if lone == left:
            link[killed[0]] = killed[0]  # break the cycle, as in _strip
        left -= len(killed)
        singles = [sums[bid[x]] for x in killed[lone:] if sizes[bid[x]] == 1]
        starts = [prv[x] for x in killed]
        for x in killed:
            p, q = prv[x], nxt[x]
            nxt[p], prv[q] = q, p
    return [x for x in live if not dead[x]]


def _root(link, x: int) -> int:
    while link[x] != x:
        x = link[x]
    return x


def _transfer(bid, strip, invert: bool) -> list[int]:
    """The roots of phi (invert False) or phi_inverse (invert True): root[r]
    names the block of rank r in the result, from the _strip result strip
    on bid, run with the same invert: the ranks with equal roots form a
    block of the result, so _partition(root[1:]) builds it.

    The result's blocks are the classes of a union-find over the strip's
    links and the core blocks.  Links point back in scan order, bar one
    wrap-around per step, so resolving ranks in scan order finds almost
    every target resolved already.  The links are resolved in place.
    """
    core, link = strip
    rep = {}
    for x in core:
        link[x] = rep.setdefault(bid[x], x)
    m = len(bid) - 1
    for x in range(m, 0, -1) if invert else range(1, m + 1):
        r = link[x]
        if link[r] != r:
            link[x] = _root(link, r)
    return link


def _phi_growth(bid, sizes, invert: bool = False):
    """(g, core): the growth string g of phi, or of phi_inverse when
    invert, of the growth string bid with block sizes sizes, and the
    strip's core ranks in scan order (empty exactly when bid is
    noncrossing, for phi)."""
    strip = _strip(bid, sizes, invert)
    return _renumber(_transfer(bid, strip, invert)[1:]), strip[0]


def _core(core, bid, labels=None) -> SetPartition:
    """The core blocks of a forward strip: its core ranks, which it lists
    increasing, by block of bid; _shared without labels."""
    groups: dict[int, list[int]] = {}
    for r in core:
        groups.setdefault(bid[r], []).append(r if labels is None else labels[r])
    blocks = map(tuple, groups.values())
    return SetPartition(_shared(blocks, len(bid) - 1) if labels is None else tuple(blocks))


def _map(p: SetPartition, invert: bool):
    """The rank view of p and the roots of phi, or phi_inverse, on it."""
    view = _ranks_of(p)
    bid = view[2]
    return view, _transfer(bid, _strip(bid, map(len, p.blocks), invert), invert)


def phi(p: SetPartition) -> SetPartition:
    """Bijection interchanging singletons with adjacencies.

    The singletons of phi(p) are the initiators of p; the terminators of
    phi(p) are the singletons of p.  Works on any finite support and
    preserves it.
    """
    view, root = _map(p, False)
    return _partition(root[1:], view[1])


def phi_inverse(p: SetPartition) -> SetPartition:
    """Two-sided inverse of phi: strip singletons/terminators, rebuild
    joining each stripped singleton to its cyclic successor."""
    view, root = _map(p, True)
    return _partition(root[1:], view[1])


def reduce_core(p: SetPartition) -> SetPartition:
    """The fixed point of iterated separate_is: no initiators, no singletons.

    Empty exactly when p is noncrossing.
    """
    _, labels, bid = _ranks_of(p)
    return _core(_strip(bid, map(len, p.blocks), False)[0], bid, labels)


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


def conjugate(p: SetPartition, n: int) -> SetPartition:
    """complement(phi(p), n): an involution on partitions of {1..n}.

    Like phi it interchanges the singleton count with the adjacency count.
    """
    g = require_full_support(p, n)
    return _relabel(_transfer(g, _strip(g, map(len, p.blocks), False), False), _partition)
