"""Exhaustive enumeration of set partitions and compositions.

Set partitions of {1..n} are generated one per restricted growth string
(a_1 = 0, a_{i+1} <= 1 + max of the prefix) in lexicographic order, so an
enumeration splits into independent sub-ranges by fixing a prefix; the
shards cover the whole space exactly once and can run concurrently.
iter_set_partitions is the one walk over the strings; iter_rgs and the
shard keys of rgs_prefixes read theirs from it.  Each partition carries
its growth string, the form the partition kernels work on, as its rank
view (n, None, (0, a_1, ..., a_n)), and its block sizes, and nothing
more.  Lex order changes only a tail of the string (Knuth, TAOCP 4A,
7.2.1.5), so a step updates only the sizes of the blocks whose elements
it moves.  A partition builds its blocks only when they are read; which
tuple a block gets is decided in partition alone.  The (singletons,
adjacencies) distribution and the adjacency-free counts read one tally
of (blocks, singletons, adjacencies) over the walk, made once per n.
"""

from __future__ import annotations

from functools import lru_cache
import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .partition import (
    EMPTY,
    N_MAX_HARD,  # re-exported: the bound of the partition sweeps
    SetPartition,
    _lazy,
    _profile,
    canonicalize,
)

if TYPE_CHECKING:  # only the composition functions below load compositions
    from .compositions import Composition

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


def iter_rgs(n: int, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n extending prefix, in lex order:
    those of the partitions of iter_set_partitions(n, prefix)."""
    for p in iter_set_partitions(n, prefix):
        yield p._view[2][1:]


def rgs_prefixes(n: int, depth: int) -> list[tuple[int, ...]]:
    """All growth-string prefixes of the given depth (shard keys, lex order)."""
    if depth < 0:
        raise ValueError(f"prefix depth must be >= 0, got {depth}")
    return list(iter_rgs(min(depth, n)))


def iter_set_partitions(
    n: int, prefix: tuple[int, ...] = ()
) -> Iterator[SetPartition]:
    """All partitions of {1..n} (restricted to a growth-string prefix if given),
    one per growth string a, in lex order.

    The walk keeps one list a and bmax[i], the largest of a[0..i-1].
    After the first string it raises the last letter i, behind the prefix,
    that is below bmax[i] + 1, and resets the letters after it to 0; those
    were at their maxima, so elements i + 2..n each sat alone in one of
    the last blocks.  So a step drops those blocks, moves element i + 1
    from block a[i] - 1 to block a[i], and adds elements i + 2..n to
    block 0: it updates the block sizes so.  Each partition builds its
    blocks when they are read.
    """
    _check_prefix(n, prefix)
    if n == 0:
        yield EMPTY
        return
    plen = max(len(prefix), 1)  # a[0] is pinned to 0
    a = list(prefix) + [0] * (n - len(prefix))
    bmax = [0] * n
    run = a[0]
    for i in range(1, n):
        bmax[i] = run
        if a[i] > run:
            run = a[i]
    sizes = [a.count(k) for k in range(run + 1)]
    while True:
        yield _lazy((0, *a), sizes[:])
        i = n - 1
        while i >= plen and a[i] == bmax[i] + 1:
            i -= 1
        if i < plen:
            return
        c = a[i] = a[i] + 1
        j = len(sizes) + i + 1 - n  # the blocks of elements i + 2..n
        del sizes[j:]
        if c == j:
            sizes.append(0)
        sizes[c - 1] -= 1
        sizes[c] += 1
        sizes[0] += n - i - 1
        run = bmax[i] if bmax[i] >= c else c
        for j in range(i + 1, n):
            a[j] = 0
            bmax[j] = run


def iter_set_partitions_of(elements: Iterable[int]) -> Iterator[SetPartition]:
    """All partitions of an arbitrary support: distinct positive integers,
    else InvalidPartitionError before the first partition.  Each carries
    its rank view and block sizes, and builds its blocks when read."""
    support = canonicalize([x] for x in elements).support
    m = len(support)
    if not m or support[-1] == m:
        yield from iter_set_partitions(m)
        return
    labels = [0, *support]
    for p in iter_set_partitions(m):
        yield _lazy(p._view[2], p._sizes, labels)


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
    from .compositions import _composition

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


@lru_cache(maxsize=N_MAX_HARD + 1)
def _tally(n: int) -> Mapping[tuple[int, int, int], int]:
    """Counts of (blocks, singletons, adjacencies) over the partitions of
    {1..n}, each key first met in lex order of growth strings, read-only.
    One walk serves every caller for the same n; the cache keeps the
    tallies of N_MAX_HARD + 1 sizes, every n from 0 to N_MAX_HARD, each
    fewer than n^3 keys."""
    counts: dict[tuple[int, int, int], int] = {}
    for p in iter_set_partitions(n):
        sizes = p._sizes
        ini, _, sing = _profile(p._view[2], sizes)
        key = (len(sizes), len(sing), len(ini))
        counts[key] = counts.get(key, 0) + 1
    return MappingProxyType(counts)


def distribution(n: int, pair: str) -> DistributionTable:
    """Tabulate (singletons, adjacencies) over partitions of {1..n}, or
    (mu, nu) over compositions of n."""
    counts: dict[tuple[int, int], int] = {}
    if pair == PAIR_SING_ADJ:
        for (_, s, a), v in _tally(n).items():
            counts[s, a] = counts.get((s, a), 0) + v
    elif pair == PAIR_MU_NU:
        from .compositions import mu, nu

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
    return sum(v for (blocks, _, adj), v in _tally(n).items() if blocks == k and not adj)
