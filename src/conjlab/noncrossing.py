"""Noncrossing partitions and the Kreweras complement.

A partition crosses when some a < b < c < d has a, c in one block and
b, d in another (only the relative order of the support matters).  For a
noncrossing partition of {1..n} the Kreweras complement is the coarsest
partition of the n gap positions 1'..n' (gap i' between i and i+1, gap n'
between n and 1) whose union with the original is noncrossing on the
interleaved 2n-cycle.  Gaps are returned on plain labels 1..n.

Both the crossing test and the complement are single stack scans: block
polygons of a noncrossing partition nest, so the open blocks at any point
of the scan form a stack, and each gap lands in the pocket of the
innermost open block (or in the shared outer region).
"""

from __future__ import annotations

from .errors import DomainError
from .partition import (
    EMPTY,
    SetPartition,
    complement,
    format_partition,
    require_full_support,
)


def find_crossing(p: SetPartition):
    """A witness quadruple (a, b, c, d) with a, c and b, d in two crossing
    blocks, or None when p is noncrossing."""
    if len(p.blocks) < 2:
        return None
    bid = p.block_index
    blocks = p.blocks
    stack: list[int] = []
    last_seen: dict[int, int] = {}
    for x in p.support:
        b = bid[x]
        blk = blocks[b]
        if x == blk[0]:
            stack.append(b)
        elif stack[-1] != b:
            # x continues block b, but block t on top of the stack is still
            # open: it opened after b's previous element and closes later.
            t = stack[-1]
            return (last_seen[b], blocks[t][0], x, blocks[t][-1])
        last_seen[b] = x
        if x == blk[-1]:
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
    no block is open.  It equals phi(p), an independent computation that
    the tests and verify check it against.
    """
    n = len(p.support)
    if n == 0:
        return EMPTY
    require_full_support(p, n)
    crossing = find_crossing(p)
    if crossing is not None:
        raise DomainError(
            f"{format_partition(p)!r} crosses at quadruple {crossing}"
        )
    bid = p.block_index
    blocks = p.blocks
    stack: list[list[int]] = []  # [block index, elements consumed]
    regions: dict[tuple[int, int], list[int]] = {}
    for x in p.support:
        b = bid[x]
        blk = blocks[b]
        if x == blk[0]:
            stack.append([b, 1])
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
    n = len(p.support)
    k = kreweras_complement(p)
    return complement(k, n) if n else EMPTY


def rotate_partition(p: SetPartition, shift: int) -> SetPartition:
    """Relabel x -> ((x - 1 + shift) mod n) + 1 on a partition of {1..n}.

    Applying the Kreweras complement twice equals rotate_partition(p, -1).
    """
    n = len(p.support)
    if n == 0:
        return EMPTY
    require_full_support(p, n)
    blocks = sorted(
        tuple(sorted((x - 1 + shift) % n + 1 for x in blk)) for blk in p.blocks
    )
    return SetPartition(tuple(blocks))


def format_gaps(p: SetPartition) -> str:
    """Dash notation with primes: "1' 2' - 3'" for a gap partition."""
    return " - ".join(" ".join(f"{x}'" for x in blk) for blk in p.blocks)
