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
blocks.  The scan runs on arrays indexed by rank, so supports other than
{1..n} are mapped to ranks first, by the rank view (partition.ranks) that
the adjacency profile and the crossing scans share.  The exhaustive
checks sweep millions of partitions, so the per-step partition objects
of the record-based path are too dear; phi_trace keeps that readable
computation, and the two paths are compared exhaustively in the tests.

A full scan per step makes a strip O(m x steps) on a support of size m,
and nested inputs take about m/2 steps.  So once its scans would pass
_SCAN_PASSES x m elements, a strip finishes on a worklist over a linked
list of the live elements, and is O(m) on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .partition import SetPartition, complement, ranks, require_full_support
from .separate import ROLE_ST, SeparationRecord, combine_st, separate_is

# Passes over the support a strip may scan before it moves to the
# worklist: a worklist from the first step cost 35% more in phi over all
# partitions of n <= 10, whose strips are a few short steps and with this
# budget almost never reach it; a deep strip reaches it in a few steps.
_SCAN_PASSES = 4


def _strip(blocks, invert: bool):
    """Iterate one of the two strip maps on canonical blocks.

    invert False (the phi strip): kill initiators and singletons per
    step.  invert True (the phi_inverse strip): kill singletons and
    terminators, which is the same scan run over the support in
    decreasing order, where the cyclic predecessor of an element is its
    successor and an initiator is a terminator.
    Every singleton killed at a step is linked to its cyclic predecessor,
    in scan order, among the elements live at that step: reversing the
    step re-inserts it into that element's block.
    The scan runs on ranks 1..m of the support, with arrays indexed by
    rank; everything it looks at depends only on the relative order of
    the support.  Returns (m, labels, core, bid, link): m, labels and bid
    as ranks() gives them, core the ranks never killed in scan order,
    and link[r] the rank r is linked to (r itself if none).
    Steps scan the whole live list until the scans would pass
    _SCAN_PASSES x m elements, then _worklist finishes: O(m) in all.
    """
    m, labels, bid = ranks(blocks)
    sizes = list(map(len, blocks))
    link = list(range(m + 1))
    dead = [False] * (m + 1)
    live = list(range(m, 0, -1)) if invert else link[1:]
    budget = _SCAN_PASSES * m
    while live:
        budget -= len(live)
        if budget < 0:
            return m, labels, _worklist(live, bid, sizes, link, dead), bid, link
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
    return m, labels, live, bid, link


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


def _transfer(p: SetPartition, invert: bool) -> SetPartition:
    """phi (invert False) or phi_inverse (invert True) by one strip scan.

    The result's blocks are the classes of a union-find over the strip's
    links and the core blocks.  Links point back in scan order, bar one
    wrap-around per step, so resolving ranks in scan order finds almost
    every target resolved already; grouping in increasing order then
    gives canonical blocks.  For phi the two passes are one.
    """
    m, labels, core, bid, link = _strip(p.blocks, invert)
    rep = {}
    for x in core:
        link[x] = rep.setdefault(bid[x], x)
    if invert:
        for x in range(m, 0, -1):
            r = link[x]
            if link[r] != r:
                link[x] = _root(link, r)
    groups: dict[int, list[int]] = {}
    for x in range(1, m + 1):
        r = link[x]
        if link[r] != r:
            r = link[x] = _root(link, r)
        g = groups.get(r)
        if g is None:
            groups[r] = [x]
        else:
            g.append(x)
    return _unrank(groups.values(), labels)


def _unrank(groups, labels) -> SetPartition:
    """Groups of ranks, each increasing and listed by least rank, as the
    canonical partition of the elements they rank."""
    if labels is None:
        return SetPartition(tuple(map(tuple, groups)))
    label = labels.__getitem__
    return SetPartition(tuple([tuple(map(label, g)) for g in groups]))


def phi(p: SetPartition) -> SetPartition:
    """Bijection interchanging singletons with adjacencies.

    The singletons of phi(p) are the initiators of p; the terminators of
    phi(p) are the singletons of p.  Works on any finite support and
    preserves it.
    """
    return _transfer(p, invert=False)


def phi_inverse(p: SetPartition) -> SetPartition:
    """Two-sided inverse of phi: strip singletons/terminators, rebuild
    joining each stripped singleton to its cyclic successor."""
    return _transfer(p, invert=True)


def reduce_core(p: SetPartition) -> SetPartition:
    """The fixed point of iterated separate_is: no initiators, no singletons.

    Empty exactly when p is noncrossing.
    """
    _, labels, core, bid, _ = _strip(p.blocks, invert=False)
    groups: dict[int, list[int]] = {}
    for x in core:
        groups.setdefault(bid[x], []).append(x)
    return _unrank(groups.values(), labels)


class ForwardRow(NamedTuple):
    j: int
    rho: SetPartition
    initiators: frozenset
    singletons: frozenset


class ReverseRow(NamedTuple):
    j: int
    tau: SetPartition


@dataclass(frozen=True)
class PhiTrace:
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
        rec = records[j]
        tau = combine_st(SeparationRecord(tau, rec.a_set, rec.b_set, ROLE_ST))
        reverse.append(ReverseRow(j, tau))
    return PhiTrace(forward, tuple(reverse), k)


def conjugate(p: SetPartition, n: int) -> SetPartition:
    """complement(phi(p), n): an involution on partitions of {1..n}.

    Like phi it interchanges the singleton count with the adjacency count.
    """
    require_full_support(p, n)
    return complement(phi(p), n)
