import importlib
from itertools import product
import math
import random

import pytest

from conjlab import (
    EMPTY,
    PAIR_MU_NU,
    PAIR_SING_ADJ,
    DistributionTable,
    InvalidPartitionError,
    SetPartition,
    adjacency_profile,
    bell_number,
    catalan_number,
    count_adjacency_free,
    distribution,
    iter_compositions,
    iter_set_partitions,
    iter_set_partitions_of,
    parse_partition,
    random_partition,
)
from conjlab.enumeration import N_MAX_HARD, _asymmetric_pair, _tally, iter_rgs, rgs_prefixes

enumeration_module = importlib.import_module("conjlab.enumeration")

# Frozen reference values (partition and noncrossing-partition counts).
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


class TestCountingFunctions:
    @pytest.mark.parametrize("n", range(0, 13))
    def test_bell_numbers(self, n):
        assert bell_number(n) == BELL[n]

    @pytest.mark.parametrize("n", range(0, 13))
    def test_catalan_numbers(self, n):
        assert catalan_number(n) == CATALAN[n]


class TestRgsEnumeration:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_equals_the_brute_force_list(self, n):
        assert list(iter_rgs(n)) == growth_strings(n)
        for prefix in rgs_prefixes(n, 3):
            assert list(iter_rgs(n, prefix)) == growth_strings(n, prefix)

    def test_hand_list_n3(self):
        assert list(iter_rgs(3)) == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (0, 1, 2),
        ]

    def test_partitions_n3_in_rgs_order(self):
        got = [str(p) for p in iter_set_partitions(3)]
        assert got == ["1 2 3", "1 2 - 3", "1 3 - 2", "1 - 2 3", "1 - 2 - 3"]

    @pytest.mark.parametrize("n", range(0, 9))
    def test_count_matches_bell(self, n):
        assert sum(1 for _ in iter_set_partitions(n)) == BELL[n]

    def test_partitions_are_distinct_and_canonical(self):
        seen = set()
        for p in iter_set_partitions(6):
            assert p.blocks not in seen
            seen.add(p.blocks)
            assert p.support == tuple(range(1, 7))

    def test_empty_ground_set(self):
        assert list(iter_set_partitions(0)) == [EMPTY]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_prefix_shards_cover_everything_once(self, depth):
        n = 6
        full = [p.blocks for p in iter_set_partitions(n)]
        sharded = []
        for prefix in rgs_prefixes(n, depth):
            sharded.extend(p.blocks for p in iter_set_partitions(n, prefix))
        assert sorted(sharded) == sorted(full)
        assert len(sharded) == len(full)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: list(iter_set_partitions(-1)),
            lambda: list(iter_rgs(-1)),
            lambda: rgs_prefixes(-1, 2),
        ],
        ids=["iter_set_partitions", "iter_rgs", "rgs_prefixes"],
    )
    def test_negative_n_rejected(self, call):
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            call()

    def test_negative_prefix_depth_rejected(self):
        with pytest.raises(ValueError, match=r"^prefix depth must be >= 0, got -1$"):
            rgs_prefixes(3, -1)


def growth_strings(n, prefix=()):
    """The restricted growth strings of length n extending prefix, in lex
    order, by brute force: of the words whose letter i (from 0) is at most
    i, those in which each letter is at most one more than the largest
    before it, and the first is 0."""
    out = []
    for tail in product(*(range(i + 1) for i in range(len(prefix), n))):
        top = -1
        for x in prefix + tail:
            if x > top + 1:
                break
            top = max(top, x)
        else:
            out.append(prefix + tail)
    return out


def blocks_of(a):
    """The blocks of the growth string a, each element appended to its block."""
    blocks: list[list[int]] = []
    for x, b in enumerate(a, 1):
        if b == len(blocks):
            blocks.append([x])
        else:
            blocks[b].append(x)
    return tuple(map(tuple, blocks))


def rebuilt(n, prefix=()):
    """(blocks, view) of each partition of [n] in the lex order of its
    growth strings, with its blocks made afresh from its growth string."""
    return [(blocks_of(a), (n, None, (0, *a))) for a in growth_strings(n, prefix)]


class TestSharedBlockTuples:
    """Over [n], n <= N_MAX_HARD, consecutive partitions share the tuples
    of the blocks whose letters did not change: both take them from the
    one table of shared blocks."""

    # Past N_MAX_HARD the step is the same and blocks are built afresh: a
    # few shards of n = 13..15 with long prefixes, so that each is small.
    SHARDS = (
        [(n, ()) for n in range(1, 10)]
        + [(9, pre) for pre in rgs_prefixes(9, 4)]
        + [
            (13, (0,) * 9),
            (13, (0, 1, 0, 2, 3, 3, 0, 4, 2)),
            (13, tuple(range(9))),
            (14, (0, 1, 1, 0, 0, 2, 2, 2, 3, 2)),
            (15, (0,) * 12),
            (15, tuple(range(12))),
        ]
    )

    def test_blocks_and_views_match_a_fresh_build(self):
        for n, prefix in self.SHARDS:
            got = [(p.blocks, p._view) for p in iter_set_partitions(n, prefix)]
            assert got == rebuilt(n, prefix), (n, prefix)

    def test_untouched_blocks_are_shared(self):
        shared = 0
        for n, prefix in self.SHARDS:
            if n > N_MAX_HARD:  # no table past it
                continue
            prev = None
            for p in iter_set_partitions(n, prefix):
                if prev is not None:
                    a, b = prev._view[2], p._view[2]
                    i = next(j for j in range(1, n + 1) if a[j] != b[j])
                    touched = {*a[i:], *b[i:]}
                    for k, blk in enumerate(p.blocks):
                        if k not in touched:
                            assert blk is prev.blocks[k], (n, prefix, str(p))
                            shared += 1
                prev = p
        assert shared > 100_000


class TestArbitrarySupports:
    def test_scattered_ground_set(self):
        got = sorted(str(p) for p in iter_set_partitions_of([7, 3, 8]))
        assert got == sorted(
            ["3 7 8", "3 7 - 8", "3 8 - 7", "3 - 7 8", "3 - 7 - 8"]
        )

    @pytest.mark.parametrize(
        "support, why",
        [
            ([1, 1], "appears more than once"),
            ([0, -1], "not a positive integer"),
            ([2, True], "not a positive integer"),
        ],
    )
    def test_bad_support_rejected_before_any_partition(self, support, why):
        parts = iter_set_partitions_of(support)
        with pytest.raises(InvalidPartitionError, match=why):
            next(parts)

    def test_random_partition_is_seed_deterministic(self):
        a = random_partition(range(1, 12), random.Random(5))
        b = random_partition(range(1, 12), random.Random(5))
        assert a == b
        assert a.support == tuple(range(1, 12))

    @pytest.mark.parametrize(
        "support, why",
        [
            ([0, -1, True, 1], "not a positive integer"),
            ([2, 2, 3], "appears more than once"),
        ],
    )
    def test_random_partition_rejects_bad_support(self, support, why):
        with pytest.raises(InvalidPartitionError, match=why):
            random_partition(support, random.Random(1))

    def test_random_partition_draws_as_a_growth_string(self):
        # One randrange per element in increasing order, the new block
        # last: the draws that the sparse verify trials are pinned on.
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            support = rng.sample(range(1, 80), 1 + seed)
            ref.sample(range(1, 80), 1 + seed)
            blocks = []
            for x in sorted(support):
                j = ref.randrange(len(blocks) + 1)
                if j == len(blocks):
                    blocks.append([x])
                else:
                    blocks[j].append(x)
            assert random_partition(support, rng).blocks == tuple(map(tuple, blocks))
            assert rng.getstate() == ref.getstate()


class TestCompositionsEnumeration:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_is_power_of_two(self, n):
        assert sum(1 for _ in iter_compositions(n)) == 2 ** (n - 1)

    def test_matches_bruteforce_cut_subsets(self):
        n = 7
        want = set()
        for mask in product([False, True], repeat=n - 1):
            parts, run = [], 1
            for cut in mask:
                if cut:
                    parts.append(run)
                    run = 1
                else:
                    run += 1
            parts.append(run)
            want.add(tuple(parts))
        got = {c.parts for c in iter_compositions(n)}
        assert got == want

    def test_order_is_deterministic(self):
        assert [c.parts for c in iter_compositions(3)] == [
            c.parts for c in iter_compositions(3)
        ]


class TestDistributions:
    def test_singleton_adjacency_n2(self):
        table = distribution(2, PAIR_SING_ADJ)
        assert table.counts == {(0, 2): 1, (2, 0): 1}
        assert table.is_symmetric()

    def test_mu_nu_n1(self):
        table = distribution(1, PAIR_MU_NU)
        assert table.counts == {(0, 1): 1}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_singleton_adjacency_symmetry(self, n):
        table = distribution(n, PAIR_SING_ADJ)
        assert table.is_symmetric()
        assert table.total == BELL[n]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_mu_nu_symmetry(self, n):
        table = distribution(n, PAIR_MU_NU)
        assert table.is_symmetric()
        assert table.total == 2 ** (n - 1)

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            distribution(3, "bogus")

    def test_symmetry_detector_sees_asymmetry(self):
        assert not DistributionTable(2, PAIR_SING_ADJ, {(0, 1): 1}).is_symmetric()

    def test_asymmetric_pair_is_the_least(self):
        counts = {(0, 1): 2, (1, 0): 2, (3, 0): 1, (1, 2): 3, (2, 1): 1, (2, 2): 5}
        assert _asymmetric_pair(counts) == (1, 2)
        del counts[1, 2], counts[2, 1]
        assert _asymmetric_pair(counts) == (3, 0)  # (0, 3) is missing: it counts 0
        assert _asymmetric_pair({(4, 1): 0}) is None
        assert _asymmetric_pair({}) is None

    @pytest.mark.parametrize("pair", [PAIR_SING_ADJ, PAIR_MU_NU])
    def test_asymmetric_pair_agrees_with_is_symmetric(self, pair):
        verdicts = []
        for n in range(0 if pair == PAIR_SING_ADJ else 1, 9):
            table = distribution(n, pair)
            counts = table.counts
            odd = [k for k, v in counts.items() if counts.get(k[::-1], 0) != v]
            assert _asymmetric_pair(counts) == min(odd, default=None)
            assert (not odd) == table.is_symmetric()
            verdicts.append(not odd)
        # mu-nu at n = 1 is the one asymmetric table: {(0, 1): 1}.
        assert verdicts.count(False) == (pair == PAIR_MU_NU)


class TestAdjacencyFreeCounts:
    def test_n3_by_hand(self):
        # Of the five partitions of {1,2,3} only 1 - 2 - 3 avoids
        # adjacencies, and it has three blocks.
        assert count_adjacency_free(3, 3) == 1
        assert count_adjacency_free(3, 2) == 0
        assert count_adjacency_free(3, 1) == 0

    def test_n4_total(self):
        assert sum(count_adjacency_free(4, k) for k in range(1, 5)) == 4

    def test_n4_members(self):
        def adjacency_free(p):
            block_of = {x: i for i, blk in enumerate(p.blocks) for x in blk}
            return all(block_of[x] != block_of[x % 4 + 1] for x in range(1, 5))

        free = [p for p in iter_set_partitions(4) if adjacency_free(p)]
        assert [str(p) for p in free] == [
            "1 3 - 2 4",
            "1 3 - 2 - 4",
            "1 - 2 4 - 3",
            "1 - 2 - 3 - 4",
        ]

    def test_one_element_is_never_adjacency_free(self):
        assert count_adjacency_free(1, 1) == 0


def chromatic_count(n, k):
    """k-block partitions of the cycle C_n into independent sets: the
    chromatic polynomial (x - 1)^n + (-1)^n (x - 1) of C_n in falling
    factorials of x, read at x^(k) / k!."""
    total = sum(
        (-1) ** (k - j) * math.comb(k, j) * ((j - 1) ** n + (-1) ** n * (j - 1))
        for j in range(k + 1)
    )
    assert total % math.factorial(k) == 0
    return total // math.factorial(k)


class TestTally:
    """distribution and count_adjacency_free read one (blocks, singletons,
    adjacencies) tally; a loop over adjacency_profile of the partitions of
    brute-force growth strings is its oracle."""

    @pytest.mark.parametrize("n", range(0, 10))
    def test_equals_a_loop_over_adjacency_profiles(self, n):
        dist: dict[tuple[int, int], int] = {}
        free = [0] * (n + 1)
        for a in growth_strings(n):
            p = SetPartition(blocks_of(a))
            prof = adjacency_profile(p)
            key = (len(prof.singletons), prof.adjacency_count)
            dist[key] = dist.get(key, 0) + 1
            free[len(p.blocks)] += not prof.adjacency_count
        # The same counts, in the same order of first appearance.
        assert list(distribution(n, PAIR_SING_ADJ).counts.items()) == list(dist.items())
        assert [count_adjacency_free(n, k) for k in range(n + 1)] == free

    @pytest.mark.parametrize("n", range(1, 10))
    def test_adjacency_free_counts_follow_the_chromatic_polynomial(self, n):
        for k in range(1, n + 1):
            assert count_adjacency_free(n, k) == chromatic_count(n, k), (n, k)

    def test_every_k_of_one_n_shares_one_walk(self, monkeypatch):
        walks = []
        walk = enumeration_module.iter_set_partitions

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(enumeration_module, "iter_set_partitions", counted)
        _tally.cache_clear()
        free = [count_adjacency_free(9, k) for k in range(1, 10)]
        assert free == [chromatic_count(9, k) for k in range(1, 10)]
        distribution(9, PAIR_SING_ADJ)
        assert walks == [(9,)]

    def test_the_shared_tally_is_read_only(self):
        with pytest.raises(TypeError):
            _tally(4)[4, 4, 0] = 0
        assert count_adjacency_free(4, 4) == 1


def test_partition_text_fixture():
    # Spot check that enumeration agrees with explicit parsing.
    got = {str(p) for p in iter_set_partitions(2)}
    assert got == {str(parse_partition("1 2")), str(parse_partition("1 - 2"))}
