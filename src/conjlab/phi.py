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
by rank, and the transfer's roots, renumbered by partition._grow, are
the growth string of the result.  _phi_growth returns that growth
string with its block sizes, as every growth-string kernel does.  phi,
phi_inverse, reduce_core and conjugate are adapters that read a
partition's rank view and block sizes, never its blocks, and wrap the
kernel's result with partition._lazy, which builds blocks only when
read; reduce_core alone builds blocks, those of the core, and it takes
them from partition._core, since partition alone picks the tuple of a
block.
The exhaustive checks sweep millions of partitions on growth strings
alone.  The readable record-based computation on blocks, phi_trace,
lives in separate beside the operations it composes, and this module
imports nothing from there, so the CLI's one-partition maps never
compile it; the two paths are compared exhaustively in the tests.

A full scan per step makes a strip O(m x steps) on a support of size m,
and nested inputs take about m/2 steps, nearly all of which kill one or
two ranks.  So a strip moves to a worklist over a linked list of its
live ranks, which checks only the ranks that may die next, once two
steps in a row each kill fewer than 1/16 of their live ranks.  A step
kills at most one rank per run of ranks that the step before it killed,
so the second of those steps needs no scan: a scan that kills k ranks
and leaves more than 16k hands off at once.  The cost model, measured on
the deep family at m = 2000 (CPython 3.11, 2 vCPU Xeon): a scan visits a
live rank in about 0.09 us, filtering included, and the worklist kills
a rank in about 0.5 us, set-up included, six visits.  A scan that kills
fewer than 1/6 of its ranks costs more than the worklist would; 1/16
leaves room for a strip that ends soon after its hand-off, whose set-up
and last pass cost about one more scan.  Strips of fewer than 32 live
ranks keep scanning, so every strip of n <= 12 runs as it did before.
The scans also stop once they would pass _SCAN_PASSES x m elements, and
a strip is O(m) on every input.
"""

from __future__ import annotations

from .partition import SetPartition, _core, _grow, _lazy, _relabel, require_full_support

# Passes over the support a strip may scan before it moves to the
# worklist: a worklist from the first step cost 35% more in phi over all
# partitions of n <= 10, whose strips are a few short steps and with this
# budget almost never reach it.  It also sets the kill rate below which
# a scan is slow, 1/(4 x _SCAN_PASSES), so that this one constant selects
# the path: 0 sends every strip to the worklist before its first scan,
# and 10**9 keeps every strip on full scans.
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

    Steps scan the whole live list until _worklist is cheaper.  A step
    kills at most one rank per run of ranks (cyclically) that the step
    before it killed: the run's live predecessor may become an
    initiator, or else the block of the run's initiators may be left
    with one live rank, never both.  So after a scan of L >= 32 live
    ranks that kills k of them, with 16k < L - k, that step and the next
    both kill fewer than 1/16 of their live ranks, and the strip hands
    its last scan's list to _worklist, whose kills cost about six scan
    visits each.  It hands off as well once the scans after the first
    would pass (_SCAN_PASSES - 1) x m elements, and before any scan when
    that budget is negative.  The rate follows the budget: 16 is
    4 x _SCAN_PASSES.
    Reads of bid: a scan reads one per live rank, one more, and one per
    initiator it kills, so the scans read at most (_SCAN_PASSES + 2) x m
    + 1 times.  _worklist reads two per live candidate, one per kill and
    one more per kill of its last step; its candidates are at most two
    per rank that the last scan or the worklist itself killed, plus
    every rank when it starts the strip.  That is at most 6m after a
    hand-off and 8m from the start, so a strip reads bid at most
    (_SCAN_PASSES + 8) x m + 1 times: O(m).
    """
    m = len(bid) - 1
    sizes = list(sizes)
    link = list(range(m + 1))
    dead = [False] * (m + 1)
    live = list(range(m, 0, -1)) if invert else link[1:]
    budget = (_SCAN_PASSES - 1) * m  # what the scans after the first may spend
    if budget < 0:
        return _worklist(live, live, live[:], bid, sizes, link, dead), link
    slow = 4 * _SCAN_PASSES
    while live:
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
        budget -= len(rest)
        if budget < 0 or (len(live) >= 32 and slow * (len(live) - len(rest)) < len(rest)):
            return _worklist(live, rest, [], bid, sizes, link, dead), link
        live = rest
    return live, link


def _worklist(live, rest, cands, bid, sizes, link, dead) -> list[int]:
    """Finish a strip from live, the list its last scan visited, in scan
    order: the ranks that scan killed are dead, and rest lists the
    others.  Updates _strip's sizes, link and dead, and returns the core
    in scan order.  The first step checks cands and the live neighbours
    of each run of dead ranks in live.
    The live ranks form a cyclic doubly linked list, so a killed rank is
    unlinked in O(1).  Only the live predecessor of a removed rank can
    become an initiator, and only a block that loses an initiator can
    become a singleton, whose live rank then follows the last of those
    initiators.  So a step checks only the live neighbours of the last
    step's kills: it costs O(its kills and the last step's), O(len(live))
    in all.
    """
    prv = [0] * len(link)
    nxt = prv[:]
    p = rest[-1]
    gap = dead[live[-1]]  # a run that wraps around is offered at its end
    for x in live:
        if dead[x]:
            gap = True
            continue
        if gap:
            cands.append(p)
            cands.append(x)
            gap = False
        prv[x], nxt[p] = p, x
        p = x
    left = len(rest)
    while cands:
        # Kill by the sizes and the links of the step's start; the
        # unlinking and the size updates come after.
        killed = []
        for x in cands:
            if not dead[x]:
                b = bid[x]
                if sizes[b] == 1:
                    link[x] = prv[x]
                    dead[x] = True
                    killed.append(x)
                elif bid[nxt[x]] == b:
                    dead[x] = True
                    killed.append(x)
        left -= len(killed)
        if not left and all(sizes[bid[x]] == 1 for x in killed):
            link[killed[0]] = killed[0]  # break the cycle, as in _strip
        cands = []
        for x in killed:
            p, q = prv[x], nxt[x]
            nxt[p], prv[q] = q, p
            if not dead[p]:
                cands.append(p)
            b = bid[x]
            # An initiator; a block that loses every rank at once is the
            # whole live list, and its last kill reads as a singleton.
            if sizes[b] > 1:
                sizes[b] -= 1
                if not dead[q]:
                    cands.append(q)
    return [x for x in rest if not dead[x]] if left else []


def _root(link, x: int) -> int:
    while link[x] != x:
        x = link[x]
    return x


def _transfer(bid, strip, invert: bool) -> list[int]:
    """The roots of phi (invert False) or phi_inverse (invert True): root[r]
    names the block of rank r in the result, from the _strip result strip
    on bid, run with the same invert: the ranks with equal roots form a
    block of the result, so _grow(root[1:]) is its growth string.

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
    """((g, gsizes), core): the growth string g of phi, or of phi_inverse
    when invert, of the growth string bid with block sizes sizes, gsizes
    the block sizes of g, and the strip's core ranks in scan order (empty
    exactly when bid is noncrossing, for phi)."""
    strip = _strip(bid, sizes, invert)
    return _grow(_transfer(bid, strip, invert)[1:]), strip[0]


def phi(p: SetPartition) -> SetPartition:
    """Bijection interchanging singletons with adjacencies.

    The singletons of phi(p) are the initiators of p; the terminators of
    phi(p) are the singletons of p.  Works on any finite support and
    preserves it.
    """
    _, labels, bid = p._view
    return _lazy(*_phi_growth(bid, p._sizes)[0], labels)


def phi_inverse(p: SetPartition) -> SetPartition:
    """Two-sided inverse of phi: strip singletons/terminators, rebuild
    joining each stripped singleton to its cyclic successor."""
    _, labels, bid = p._view
    return _lazy(*_phi_growth(bid, p._sizes, True)[0], labels)


def reduce_core(p: SetPartition) -> SetPartition:
    """The fixed point of iterated separate_is: no initiators, no singletons.

    Empty exactly when p is noncrossing.
    """
    _, labels, bid = p._view
    return _core(_strip(bid, p._sizes, False)[0], bid, labels)


def conjugate(p: SetPartition, n: int) -> SetPartition:
    """complement(phi(p), n): an involution on partitions of {1..n}.

    Like phi it interchanges the singleton count with the adjacency count.
    """
    g = require_full_support(p, n)
    return _lazy(*_relabel(_transfer(g, _strip(g, p._sizes, False), False)))
