"""Noncrossing partitions and the Kreweras complement.

A partition crosses when some a < b < c < d has a, c in one block and
b, d in another (only the relative order of the support matters).  For a
noncrossing partition of {1..n} the Kreweras complement is the coarsest
partition of the n gap positions 1'..n' (gap i' between i and i+1, gap n'
between n and 1) whose union with the original is noncrossing on the
interleaved 2n-cycle.  Gaps are returned on plain labels 1..n.

The crossing test and the complement are one stack scan over a growth
string of ranks (partition.ranks), with the public functions adapters
over it: block polygons of a noncrossing partition nest, so the open
blocks at any point of the scan form a stack, and each gap lands in the
pocket of the innermost open block (or in the shared outer region).  A
rank that continues a block below the top of the stack is a crossing, so
the complement checks its input in the same scan.  The Kreweras and
rotation kernels return, as every growth-string kernel does, the
result's growth string with its block sizes (partition._grow).  The
adapters read a partition's rank view and block sizes, never its blocks,
and wrap a kernel's result with partition._lazy, which builds blocks
only when read.
"""

from __future__ import annotations

from .errors import DomainError
from .partition import EMPTY, SetPartition, _complement, _grow, _lazy, require_full_support


def _scan(bid, sizes, pockets=None):
    """The stack scan of the growth string bid with block sizes sizes:
    None when it is noncrossing, else (a, c, t), where rank c continues
    the block of rank a while block t, opened after a, is still open.
    Each rank x appends to pockets, if given, the pocket of gap x': the
    latest rank of the innermost open block, 0 in the outer region."""
    left = list(sizes)  # ranks of each block not yet seen
    last = [0] * len(left)  # each block's latest rank seen
    stack: list[int] = []
    for x in range(1, len(bid)):
        b = bid[x]
        if not last[b]:
            stack.append(b)
        elif stack[-1] != b:
            return last[b], x, stack[-1]
        last[b] = x
        left[b] -= 1
        if not left[b]:
            stack.pop()
        if pockets is not None:
            pockets.append(last[stack[-1]] if stack else 0)
    return None


def _kreweras(bid, sizes):
    """(g, sizes) of the Kreweras complement of the growth string bid with
    block sizes sizes: its pockets renumbered by _grow.  None when bid is
    crossing."""
    pockets: list[int] = []
    return None if _scan(bid, sizes, pockets) else _grow(pockets)


def _rotate(g, shift: int):
    """(g, sizes) of x -> ((x - 1 + shift) mod m) + 1 on the growth string
    g of a partition of [m]: rank y takes the block of y - shift,
    renumbered by _grow."""
    cut = len(g) - shift % (len(g) - 1)
    return _grow(g[cut:] + g[1:cut])


def find_crossing(p: SetPartition):
    """A witness quadruple (a, b, c, d) with a, c and b, d in two crossing
    blocks, or None when p is noncrossing."""
    sizes = p._sizes
    if len(sizes) < 2:
        return None
    _, labels, bid = p._view
    hit = _scan(bid, sizes)
    if hit is None:
        return None
    a, c, t = hit
    quad = (a, bid.index(t), c, len(bid) - 1 - bid[::-1].index(t))  # b, d: block t's ends
    return quad if labels is None else tuple(map(labels.__getitem__, quad))


def is_noncrossing(p: SetPartition) -> bool:
    """True when no two blocks interleave."""
    sizes = p._sizes
    return len(sizes) < 2 or _scan(p._view[2], sizes) is None


def kreweras_complement(p: SetPartition) -> SetPartition:
    """Coarsest partition of the gaps compatible with p; labels i stand for i'.

    Requires supp(p) = {1..n} and p noncrossing.  Gap i lands in the
    pocket that _scan records for it, and the same scan meets any
    crossing; find_crossing runs only to name its witness.  The result
    equals phi(p), an independent computation that the tests and verify
    check it against.
    """
    sizes = p._sizes
    if not sizes:
        return EMPTY
    k = _kreweras(require_full_support(p, sum(sizes)), sizes)
    if k is None:
        raise DomainError(f"partition is crossing: quadruple {find_crossing(p)}")
    return _lazy(*k)


def graphical_conjugate(p: SetPartition) -> SetPartition:
    """Kreweras complement with gaps relabelled i' -> n + 1 - i.

    Coincides with conjugate on noncrossing partitions.
    """
    return _complement(kreweras_complement(p))  # which checks supp(p) = {1..n}


def rotate_partition(p: SetPartition, shift: int) -> SetPartition:
    """Relabel x -> ((x - 1 + shift) mod n) + 1 on a partition of {1..n}.

    Applying the Kreweras complement twice equals rotate_partition(p, -1).
    """
    sizes = p._sizes
    if not sizes:
        return EMPTY
    return _lazy(*_rotate(require_full_support(p, sum(sizes)), shift))


def format_gaps(p: SetPartition) -> str:
    """Dash notation with primes: "1' 2' - 3'" for a gap partition."""
    return " - ".join(" ".join(f"{x}'" for x in blk) for blk in p.blocks)
