"""Exhaustive enumeration of set partitions and compositions.

Set partitions of {1..n} are generated one per restricted growth string
(a_1 = 0, a_{i+1} <= 1 + max of the prefix) in lexicographic order, so an
enumeration splits into independent sub-ranges by fixing a prefix; the
shards cover the whole space exactly once and can run concurrently.
Each partition carries its growth string, the form the partition kernels
work on, as the rank view (n, None, (0, a_1, ..., a_n)) of its blocks.
Lex order changes only a tail of the string (Knuth, TAOCP 4A, 7.2.1.5),
so a step rebuilds only the blocks of the elements it moves.  For
n <= N_MAX_HARD each rebuilt block comes from partition._BLOCKS, so all
partitions of [n] share one tuple per block, with the map results over
[n] too; beyond it consecutive partitions share the blocks a step leaves
alone.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

from .compositions import Composition, _composition, mu, nu
from .partition import (
    EMPTY,
    N_MAX_HARD,
    SetPartition,
    _share,
    _viewed,
    adjacency_profile,
    canonicalize,
)

# Largest n of an exhaustive composition sweep, in conjlab verify and
# conjlab enumerate: 2^19 compositions of 20.  N_MAX_HARD bounds the
# partition sweeps.
COMP_N_MAX_HARD = 20


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set (triangle recurrence)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan_number(n: int) -> int:
    """Number of noncrossing partitions of {1..n}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def _check_prefix(n: int, prefix: tuple[int, ...]) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(prefix) > n:
        raise ValueError(f"prefix longer than n={n}: {prefix!r}")
    top = 0
    for i, letter in enumerate(prefix):
        if not 0 <= letter <= (0 if i == 0 else top + 1):
            raise ValueError(f"not a growth-string prefix: {prefix!r}")
        top = max(top, letter)


def _rgs_walk(n: int, prefix: tuple[int, ...]) -> Iterator[tuple[list[int], int]]:
    """Restricted growth strings of length n >= 1 extending prefix, in lex
    order, as (a, i): the one list a, updated in place, and the first
    position whose letter changed since the previous string (0 at first).
    """
    plen = max(len(prefix), 1)  # a[0] is pinned to 0
    a = list(prefix) + [0] * (n - len(prefix))
    bmax = [0] * n  # bmax[i] = max(a[0..i-1])
    run = a[0]
    for i in range(1, n):
        bmax[i] = run
        if a[i] > run:
            run = a[i]
    i = 0
    while True:
        yield a, i
        i = n - 1
        while i >= plen and a[i] == bmax[i] + 1:
            i -= 1
        if i < plen:
            return
        a[i] += 1
        run = bmax[i] if bmax[i] >= a[i] else a[i]
        for j in range(i + 1, n):
            a[j] = 0
            bmax[j] = run


def iter_rgs(n: int, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n extending prefix, in lex order."""
    _check_prefix(n, prefix)
    if n == 0:
        yield ()
        return
    for a, _ in _rgs_walk(n, prefix):
        yield tuple(a)


def rgs_prefixes(n: int, depth: int) -> list[tuple[int, ...]]:
    """All growth-string prefixes of the given depth (shard keys, lex order)."""
    if depth < 0:
        raise ValueError(f"prefix depth must be >= 0, got {depth}")
    return list(iter_rgs(min(depth, n)))


def iter_set_partitions(
    n: int, prefix: tuple[int, ...] = ()
) -> Iterator[SetPartition]:
    """All partitions of {1..n} (restricted to a growth-string prefix if given).

    Follows the growth strings of iter_rgs in the same order.  After the
    first, a string raises letter i by one and resets the letters after it
    to 0; those were at their maxima, so elements i + 2..n each sat alone
    in one of the last blocks.  So a step drops those blocks, moves element
    i + 1 from the end of block a[i] - 1 to the end of block a[i], and
    appends elements i + 2..n to block 0.  A block is a tuple, rebuilt
    only when an element leaves or joins it, and otherwise shared.  For
    n <= N_MAX_HARD every block comes from partition._BLOCKS, so all
    partitions of [n] share one tuple per block; for larger n the lookup
    is a dict that stays empty.
    """
    _check_prefix(n, prefix)
    if n == 0:
        yield EMPTY
        return
    # For n > N_MAX_HARD, {}.get(blk, blk) is blk: the blocks stay unshared.
    share = _share if n <= N_MAX_HARD else {}.get
    walk = _rgs_walk(n, prefix)
    a, _ = next(walk)
    blocks = [tuple(x for x, b in enumerate(a, 1) if b == k) for k in range(max(a) + 1)]
    blocks = [share(blk, blk) for blk in blocks]
    yield _viewed(tuple(blocks), (n, None, (0, *a)))
    elements = tuple(range(1, n + 1))
    for a, i in walk:
        del blocks[len(blocks) + i + 1 - n :]
        c = a[i]
        if c == len(blocks):
            blocks.append(())
        blk = blocks[c - 1][:-1]
        blocks[c - 1] = share(blk, blk)
        blk = blocks[c] + (i + 1,)
        blocks[c] = share(blk, blk)
        blk = blocks[0] + elements[i + 1 :]
        blocks[0] = share(blk, blk)
        yield _viewed(tuple(blocks), (n, None, (0, *a)))


def iter_set_partitions_of(elements: Iterable[int]) -> Iterator[SetPartition]:
    """All partitions of an arbitrary support: distinct positive integers,
    else InvalidPartitionError before the first partition.  Each carries
    its rank view."""
    support = canonicalize([x] for x in elements).support
    m = len(support)
    if not m or support[-1] == m:
        yield from iter_set_partitions(m)
        return
    labels = [0, *support]
    for p in iter_set_partitions(m):
        blocks = tuple(tuple([labels[x] for x in blk]) for blk in p.blocks)
        yield _viewed(blocks, (m, labels, p._view[2]))


def random_partition(elements: Iterable[int], rng) -> SetPartition:
    """A random partition of the given support.

    Uniform over growth strings, not over partitions; good enough for
    spot checks on sparse supports.  The elements must be distinct
    positive integers, else InvalidPartitionError.
    """
    blocks: list[list[int]] = []
    for x in canonicalize([x] for x in elements).support:
        j = rng.randrange(len(blocks) + 1)
        if j == len(blocks):
            blocks.append([x])
        else:
            blocks[j].append(x)
    return SetPartition(tuple(tuple(blk) for blk in blocks))


def iter_compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n (by cut-point bitmask, ascending).

    Bit i of the mask cuts after i + 1, so its n - 1 bits, read from bit 0
    up, split at the cuts into runs of 0s, each one short of its part.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    top = 1 << (n - 1)
    for mask in range(top):
        # "0b1", then the n - 1 bits of mask down to bit 0: read backwards.
        yield _composition(tuple([len(run) + 1 for run in bin(top | mask)[:2:-1].split("1")]))


PAIR_SING_ADJ = "sing-adj"
PAIR_MU_NU = "mu-nu"


def _asymmetric_pair(counts):
    """The least (s, t) whose count differs from that of (t, s), a missing
    pair counting 0; None when the table counts is symmetric."""
    return next((k for k, v in sorted(counts.items()) if counts.get(k[::-1], 0) != v), None)


class DistributionTable(NamedTuple):
    """Joint counts of a statistic pair over all objects of one size."""

    n: int
    pair: str
    counts: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def is_symmetric(self) -> bool:
        return _asymmetric_pair(self.counts) is None


def distribution(n: int, pair: str) -> DistributionTable:
    """Tabulate (singletons, adjacencies) over partitions of {1..n}, or
    (mu, nu) over compositions of n."""
    counts: dict[tuple[int, int], int] = {}
    if pair == PAIR_SING_ADJ:
        if n < 0:
            raise ValueError("n must be >= 0")
        for p in iter_set_partitions(n):
            prof = adjacency_profile(p)
            key = (len(prof.singletons), prof.adjacency_count)
            counts[key] = counts.get(key, 0) + 1
    elif pair == PAIR_MU_NU:
        for c in iter_compositions(n):
            key = (mu(c), nu(c))
            counts[key] = counts.get(key, 0) + 1
    else:
        raise ValueError(f"unknown statistic pair {pair!r}")
    return DistributionTable(n, pair, counts)


def count_adjacency_free(n: int, k: int) -> int:
    """Partitions of {1..n} into exactly k blocks with no cyclic adjacency.

    Note {1} itself is one adjacency (succ(1) = 1), so the count for
    n = k = 1 is 0.
    """
    total = 0
    for p in iter_set_partitions(n):
        if len(p.blocks) == k and adjacency_profile(p).adjacency_count == 0:
            total += 1
    return total
