"""Noncrossing partitions and the Kreweras complement.

A partition crosses when some a < b < c < d has a, c in one block and
b, d in another (only the relative order of the support matters).  For a
noncrossing partition of {1..n} the Kreweras complement is the coarsest
partition of the n gap positions 1'..n' (gap i' between i and i+1, gap n'
between n and 1) whose union with the original is noncrossing on the
interleaved 2n-cycle.  Gaps are returned on plain labels 1..n.

Both the crossing test and the complement are single stack scans over
the ranks of the support (partition.ranks): block polygons of a
noncrossing partition nest, so the open blocks at any point of the scan
form a stack, and each gap lands in the pocket of the innermost open
block (or in the shared outer region).  A rank that continues a block
below the top of the stack is a crossing, so the complement checks its
input in the same scan.
"""

from __future__ import annotations

from .errors import DomainError
from .partition import EMPTY, SetPartition, _complement, inferred_n, ranks


def find_crossing(p: SetPartition):
    """A witness quadruple (a, b, c, d) with a, c and b, d in two crossing
    blocks, or None when p is noncrossing."""
    blocks = p.blocks
    if len(blocks) < 2:
        return None
    m, labels, bid = ranks(blocks)
    left = list(map(len, blocks))  # elements of each block not yet seen
    last = [0] * len(blocks)  # rank of each block's latest element seen
    stack: list[int] = []
    for x in range(1, m + 1):
        b = bid[x]
        if not last[b]:
            stack.append(b)
        elif stack[-1] != b:
            # x continues block b, but block t on top of the stack is still
            # open: it opened after b's previous element and closes later.
            t = stack[-1]
            a, c = (last[b], x) if labels is None else (labels[last[b]], labels[x])
            return (a, blocks[t][0], c, blocks[t][-1])
        last[b] = x
        left[b] -= 1
        if not left[b]:
            stack.pop()
    return None


def is_noncrossing(p: SetPartition) -> bool:
    """True when no two blocks interleave."""
    return find_crossing(p) is None


_OUTER = (-1, 0)


def kreweras_complement(p: SetPartition) -> SetPartition:
    """Coarsest partition of the gaps compatible with p; labels i stand for i'.

    Requires supp(p) = {1..n} and p noncrossing.  The scan tracks, for the
    innermost open block, how many of its elements have been consumed; gap
    i lands in the pocket keyed by that pair, or in the outer region when
    no block is open.  The same scan meets any crossing, as find_crossing
    does, and find_crossing runs only to name its witness.  The result
    equals phi(p), an independent computation that the tests and verify
    check it against.
    """
    blocks = p.blocks
    if not blocks:
        return EMPTY
    n = inferred_n(p)
    _, _, bid = ranks(blocks, (n, True))
    stack: list[list[int]] = []  # [block index, elements consumed]
    regions: dict[tuple[int, int], list[int]] = {}
    for x in range(1, n + 1):
        b = bid[x]
        blk = blocks[b]
        if x == blk[0]:
            stack.append([b, 1])
        elif stack[-1][0] != b:
            raise DomainError(f"partition is crossing: quadruple {find_crossing(p)}")
        else:
            stack[-1][1] += 1
        if x == blk[-1]:
            stack.pop()
        key = (stack[-1][0], stack[-1][1]) if stack else _OUTER
        regions.setdefault(key, []).append(x)
    out = sorted(tuple(g) for g in regions.values())
    return SetPartition(tuple(out))


def graphical_conjugate(p: SetPartition) -> SetPartition:
    """Kreweras complement with gaps relabelled i' -> n + 1 - i.

    Coincides with conjugate on noncrossing partitions.
    """
    k = kreweras_complement(p)  # checks that supp(p) = {1..n}
    return _complement(k, sum(map(len, p.blocks)))


def rotate_partition(p: SetPartition, shift: int) -> SetPartition:
    """Relabel x -> ((x - 1 + shift) mod n) + 1 on a partition of {1..n}.

    Applying the Kreweras complement twice equals rotate_partition(p, -1).
    """
    if not p.blocks:
        return EMPTY
    n = inferred_n(p)
    blocks = sorted(
        tuple(sorted((x - 1 + shift) % n + 1 for x in blk)) for blk in p.blocks
    )
    return SetPartition(tuple(blocks))


def format_gaps(p: SetPartition) -> str:
    """Dash notation with primes: "1' 2' - 3'" for a gap partition."""
    return " - ".join(" ".join(f"{x}'" for x in blk) for blk in p.blocks)
