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
and nested inputs take about m/2 steps.  So once its scans would pass
_SCAN_PASSES x m elements, a strip finishes on a worklist over a linked
list of the live elements, and is O(m) on every input.  The last full
scan hands the worklist the only candidates of the next step (the live
predecessors of its kills, and the blocks it left with one live rank),
so the worklist does work only for the ranks it kills.
"""

from __future__ import annotations

from .partition import SetPartition, _core, _grow, _lazy, _relabel, require_full_support

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
    Steps scan the whole live list until the next step would push the
    scans past _SCAN_PASSES x m elements.  Then _worklist finishes from
    the candidates of that step: the live predecessor of each run of
    ranks the last scan killed (cyclically), and each block its initiator
    kills left with one live rank, both in scan order.  O(m) in all.  A
    budget spent before the first scan hands over every rank instead.
    """
    m = len(bid) - 1
    sizes = list(sizes)
    link = list(range(m + 1))
    dead = [False] * (m + 1)
    live = list(range(m, 0, -1)) if invert else link[1:]
    budget = (_SCAN_PASSES - 1) * m  # what the scans after the first may spend
    if budget < 0:
        return _worklist(live, [bid[x] for x in live], live, bid, sizes, link, dead), link
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
        if budget < 0:
            cut = [bid[x] for x in rest if sizes[bid[x]] == 1]
            starts = [x for x, y in zip(live, [*live[1:], live[0]]) if dead[y] and not dead[x]]
            return _worklist(rest, cut, starts, bid, sizes, link, dead), link
        live = rest
    return live, link


def _worklist(live, cut, starts, bid, sizes, link, dead) -> list[int]:
    """Finish a strip from its live ranks live, in scan order, updating
    _strip's sizes, link and dead; return the core in scan order.
    cut and starts are the candidates of the first step: the blocks that
    may be left with a single live rank, and the ranks that may be
    initiators, in scan order.
    The live ranks form a cyclic doubly linked list, so a killed rank is
    unlinked in O(1).  Only the live predecessor of a removed rank can
    become an initiator, and only a block that loses an initiator can
    become a singleton, whose rank is the sum of its live ranks.  So each
    step collects the blocks it cuts and, while it unlinks its kills, the
    next step's starts: a step costs O(its kills and the last step's),
    O(len(live)) in all.
    """
    prv = [0] * len(link)
    nxt = prv[:]
    sums = [0] * len(sizes)
    for p, x in zip([live[-1], *live], live):
        prv[x], nxt[p] = p, x
        sums[bid[x]] += x
    left = len(live)
    while left > 0:
        # Singletons read the block sizes of the step's start, so go first.
        killed = []
        for b in cut:
            x = sums[b]
            if sizes[b] == 1 and not dead[x]:
                link[x] = prv[x]
                dead[x] = True
                killed.append(x)
        lone = len(killed)
        cut = []
        # A predecessor can come once per rank of the run it precedes: dead
        # keeps it from counting twice.
        for x in starts:
            b = bid[x]
            if not dead[x] and bid[nxt[x]] == b:
                sizes[b] -= 1
                sums[b] -= x
                dead[x] = True
                killed.append(x)
                cut.append(b)
        if not killed:
            break
        if lone == left:
            link[killed[0]] = killed[0]  # break the cycle, as in _strip
        left -= len(killed)
        starts = []
        for x in killed:
            p, q = prv[x], nxt[x]
            nxt[p], prv[q] = q, p
            if not dead[p]:
                starts.append(p)
    return [x for x in live if not dead[x]]


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
