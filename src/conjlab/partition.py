"""Set partitions over finite supports of positive integers.

Canonical form everywhere: elements increase within a block, blocks are
ordered by their smallest element.  Adjacency is cyclic *within the
support of the partition itself*: the successor of the largest element
wraps around to the smallest, so a one-element support has succ(a) = a
and the lone element counts as one adjacency.

Only the order of the support matters to adjacencies, crossings and the
strip of phi, so they scan the rank view that ranks() builds: ranks
1..m of the support with the block of each rank.

Text form: blocks joined by " - ", elements by single spaces; the empty
partition is the empty string.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import DomainError, InvalidPartitionError, ParseError


@dataclass(frozen=True)
class SetPartition:
    """A canonical set partition.

    Construct through canonicalize() or parse_partition() unless the block
    data is already canonical (sorted within blocks, blocks sorted by
    minimum, pairwise disjoint).
    """

    blocks: tuple[tuple[int, ...], ...]

    @cached_property
    def support(self) -> tuple[int, ...]:
        """All elements of the partition, increasing."""
        return tuple(sorted(x for blk in self.blocks for x in blk))

    def __str__(self) -> str:
        return format_partition(self)


EMPTY = SetPartition(())


class AdjacencyProfile(NamedTuple):
    """Initiators, terminators and singletons of one partition.

    An adjacency is an ordered pair (a, succ(a)) lying in one block; a is
    its initiator, succ(a) its terminator.  adjacency_count == number of
    initiators == number of terminators.
    """

    initiators: frozenset[int]
    terminators: frozenset[int]
    singletons: frozenset[int]
    adjacency_count: int


_EMPTY_PROFILE = AdjacencyProfile(frozenset(), frozenset(), frozenset(), 0)

_last = itemgetter(-1)


def support_size(blocks) -> tuple[int, bool]:
    """(m, full): the number of elements of canonical blocks, and whether
    they are exactly {1..m}.  O(#blocks): m distinct positive integers
    whose largest is m are 1..m."""
    m = sum(map(len, blocks))
    return m, not m or max(map(_last, blocks)) == m


def ranks(blocks):
    """(m, labels, bid): the rank view of canonical blocks over a support
    of size m.  labels[r] is the element of rank r, 1 <= r <= m (None when
    the support is {1..m}, so a rank is its element), and bid[r] the index
    of the block holding rank r."""
    m, full = support_size(blocks)
    if full:
        bid = [0] * (m + 1)
        for i, blk in enumerate(blocks):
            for x in blk:
                bid[x] = i
        return m, None, bid
    index = {x: i for i, blk in enumerate(blocks) for x in blk}
    ranked = sorted(index)
    return m, [0, *ranked], [0, *map(index.__getitem__, ranked)]


def adjacency_profile(p: SetPartition) -> AdjacencyProfile:
    """Pair each element with its cyclic successor, in one pass."""
    blocks = p.blocks
    if not blocks:
        return _EMPTY_PROFILE
    initiators = []
    terminators = []
    m, full = support_size(blocks)
    if full:
        # Support {1..m}: u and succ(u) = u + 1 share a block exactly when
        # they are consecutive in it; the pair (m, 1) does when the block
        # of 1 ends at m.
        for blk in blocks:
            u = blk[0]
            for v in blk:
                if v == u + 1:
                    initiators.append(u)
                    terminators.append(v)
                u = v
        if blocks[0][-1] == m:
            initiators.append(m)
            terminators.append(1)
    else:
        _, labels, bid = ranks(blocks)
        prev = m
        for r in range(1, m + 1):
            if bid[r] == bid[prev]:
                initiators.append(labels[prev])
                terminators.append(labels[r])
            prev = r
    singletons = [blk[0] for blk in blocks if len(blk) == 1]
    return AdjacencyProfile(
        frozenset(initiators),
        frozenset(terminators),
        frozenset(singletons),
        len(initiators),
    )


def canonicalize(raw_blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Validate raw blocks and sort them into canonical form."""
    blocks = []
    seen: set[int] = set()
    for raw in raw_blocks:
        blk = tuple(raw)
        if not blk:
            raise InvalidPartitionError("empty block")
        for x in blk:
            if isinstance(x, bool) or not isinstance(x, int) or x < 1:
                raise InvalidPartitionError(f"element {x!r} is not a positive integer")
            if x in seen:
                raise InvalidPartitionError(f"element {x} appears more than once")
            seen.add(x)
        blocks.append(tuple(sorted(blk)))
    blocks.sort()
    return SetPartition(tuple(blocks))


def require_full_support(p: SetPartition, n: int) -> None:
    """Raise DomainError unless the support of p is exactly {1, ..., n}."""
    m, full = support_size(p.blocks)
    if n < 1 or m != n or not full:
        got = format_partition(p) or "(empty)"
        raise DomainError(f"support of {got!r} is not 1..{n}")


def inferred_n(p: SetPartition) -> int:
    """The n with supp(p) = {1..n}; DomainError if the support has gaps."""
    n, _ = support_size(p.blocks)
    require_full_support(p, n)
    return n


def complement(p: SetPartition, n: int) -> SetPartition:
    """Relabel every element x of a partition of {1..n} as n + 1 - x.

    An involution; it reverses the cyclic order, so initiators and
    terminators trade places while singleton status is preserved.
    """
    require_full_support(p, n)
    flip = (n + 1).__sub__
    blocks = sorted([tuple(map(flip, reversed(blk))) for blk in p.blocks])
    return SetPartition(tuple(blocks))


def format_partition(p: SetPartition) -> str:
    """Dash notation: "3 5 12 - 4 8 10 - 7"; empty partition -> ""."""
    return " - ".join(" ".join(str(x) for x in blk) for blk in p.blocks)


# Longest accepted number token.  int() refuses strings longer than
# sys.get_int_max_str_digits() (4300 digits by default, never below 640
# unless unlimited), so longer tokens are turned away before conversion.
MAX_TOKEN_DIGITS = 100


def parse_positive(tok: str, what: str) -> int:
    """A positive integer written in ASCII digits; ParseError otherwise."""
    if len(tok) > MAX_TOKEN_DIGITS:
        raise ParseError(f"{what} of {len(tok)} characters exceeds {MAX_TOKEN_DIGITS} digits")
    if not (tok.isascii() and tok.isdigit()) or int(tok) < 1:
        raise ParseError(f"bad {what} {tok!r}")
    return int(tok)


def parse_partition(text: str) -> SetPartition:
    """Parse dash notation; elements may be space- or comma-separated."""
    if not text.strip():
        return EMPTY
    blocks = []
    seen: set[int] = set()
    for chunk in text.split("-"):
        tokens = chunk.replace(",", " ").split()
        if not tokens:
            raise ParseError(f"empty block in {text!r}")
        blk = []
        for tok in tokens:
            x = parse_positive(tok, "element")
            if x in seen:
                raise ParseError(f"duplicate element {x}")
            seen.add(x)
            blk.append(x)
        blk.sort()
        blocks.append(tuple(blk))
    blocks.sort()
    return SetPartition(tuple(blocks))


def partition_to_blocks(p: SetPartition) -> list[list[int]]:
    """Structured form used by the JSON output mode; canonicalize reads it back."""
    return [list(blk) for blk in p.blocks]

