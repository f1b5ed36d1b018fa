"""Exhaustive enumeration of set partitions and compositions.

Set partitions of {1..n} are generated one per restricted growth string
(a_1 = 0, a_{i+1} <= 1 + max of the prefix) in lexicographic order, so an
enumeration splits into independent sub-ranges by fixing a prefix; the
shards cover the whole space exactly once and can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .compositions import Composition, mu, nu
from .partition import EMPTY, SetPartition, adjacency_profile, canonicalize


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
    return list(iter_rgs(min(depth, n)))


def iter_set_partitions(
    n: int, prefix: tuple[int, ...] = ()
) -> Iterator[SetPartition]:
    """All partitions of {1..n} (restricted to a growth-string prefix if given).

    Follows the growth strings of iter_rgs in the same order, moving only
    the elements whose letters changed: those are the largest elements,
    so each sits at the end of its block.
    """
    _check_prefix(n, prefix)
    if n == 0:
        yield EMPTY
        return
    blocks: list[list[int]] = []
    held = [0] * n  # held[j]: the block element j + 1 sits in
    for a, i in _rgs_walk(n, prefix):
        if blocks:  # element 1 never moves, so blocks[0] never empties
            for j in range(n - 1, i - 1, -1):
                blocks[held[j]].pop()
            while not blocks[-1]:
                blocks.pop()
        for j in range(i, n):
            letter = a[j]
            held[j] = letter
            if letter == len(blocks):
                blocks.append([j + 1])
            else:
                blocks[letter].append(j + 1)
        yield SetPartition(tuple(map(tuple, blocks)))


def iter_set_partitions_of(elements: Iterable[int]) -> Iterator[SetPartition]:
    """All partitions of an arbitrary support: distinct positive integers,
    else InvalidPartitionError before the first partition."""
    labels = canonicalize([x] for x in elements).support
    for p in iter_set_partitions(len(labels)):
        yield SetPartition(
            tuple(tuple([labels[x - 1] for x in blk]) for blk in p.blocks)
        )


def random_partition(elements: Iterable[int], rng) -> SetPartition:
    """A random partition of the given support.

    Uniform over growth strings, not over partitions; good enough for
    spot checks on sparse supports.
    """
    blocks: list[list[int]] = []
    for x in sorted(set(elements)):
        j = rng.randrange(len(blocks) + 1)
        if j == len(blocks):
            blocks.append([x])
        else:
            blocks[j].append(x)
    return SetPartition(tuple(tuple(blk) for blk in blocks))


def iter_compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n (by cut-point bitmask, ascending)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for mask in range(1 << (n - 1)):
        parts = []
        size = 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        yield Composition(tuple(parts))


PAIR_SING_ADJ = "sing-adj"
PAIR_MU_NU = "mu-nu"


@dataclass(frozen=True)
class DistributionTable:
    """Joint counts of a statistic pair over all objects of one size."""

    n: int
    pair: str
    counts: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def is_symmetric(self) -> bool:
        return all(self.counts.get((t, s)) == c for (s, t), c in self.counts.items())


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
