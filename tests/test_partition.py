import pytest

from conjlab import (
    EMPTY,
    DomainError,
    InvalidPartitionError,
    ParseError,
    SetPartition,
    adjacency_profile,
    canonicalize,
    complement,
    format_partition,
    inferred_n,
    parse_partition,
)
from conjlab.partition import partition_to_blocks, ranks

from conftest import all_partitions


def naive_profile(p: SetPartition):
    """Independent adjacency scan: index-based cyclic successor."""
    supp = list(p.support)
    where = {x: i for i, blk in enumerate(p.blocks) for x in blk}
    initiators, terminators = set(), set()
    for i, x in enumerate(supp):
        succ = supp[(i + 1) % len(supp)]
        if where[x] == where[succ]:
            initiators.add(x)
            terminators.add(succ)
    singletons = {blk[0] for blk in p.blocks if len(blk) == 1}
    return initiators, terminators, singletons


class TestCanonicalForm:
    def test_blocks_sorted_inside_and_by_minimum(self):
        p = canonicalize([[12, 3, 5], [8, 4, 10], [7]])
        assert p.blocks == ((3, 5, 12), (4, 8, 10), (7,))
        assert format_partition(p) == "3 5 12 - 4 8 10 - 7"

    def test_input_order_irrelevant(self):
        assert canonicalize([[2], [1, 3]]) == canonicalize([[3, 1], [2]])

    def test_duplicate_element_rejected(self):
        with pytest.raises(InvalidPartitionError):
            canonicalize([[1, 2], [2, 3]])

    @pytest.mark.parametrize("raw", [[[1, 1], [2]], [[3, 3]]])
    def test_element_repeated_in_one_block_rejected(self, raw):
        with pytest.raises(InvalidPartitionError, match="appears more than once"):
            canonicalize(raw)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidPartitionError):
            canonicalize([[0, 1]])

    @pytest.mark.parametrize("raw", [[[True, 2], [3]], [[1, True]], [[False]]])
    def test_bool_rejected(self, raw):
        # bool is an int subclass: True would otherwise pass as the element 1.
        with pytest.raises(InvalidPartitionError, match="not a positive integer"):
            canonicalize(raw)

    def test_support_is_sorted_union(self):
        p = canonicalize([[9, 2], [5]])
        assert p.support == (2, 5, 9)

    def test_blocks_json_roundtrip(self):
        p = parse_partition("1 5 8 - 2 - 3 - 4 - 6 7")
        assert canonicalize(partition_to_blocks(p)) == p


class TestParseFormat:
    def test_empty_text_is_empty_partition(self):
        assert parse_partition("") is EMPTY or parse_partition("") == EMPTY
        assert format_partition(EMPTY) == ""

    def test_commas_allowed(self):
        assert parse_partition("1,3 - 2") == parse_partition("1 3 - 2")

    @pytest.mark.parametrize("bad", ["1 - - 2", "0", "-", "1 2 - 2", "x - 1"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_partition(bad)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_roundtrip_small(self, n):
        for p in all_partitions(n):
            assert parse_partition(format_partition(p)) == p

    def test_roundtrip_sparse(self, sparse_samples):
        for p in sparse_samples:
            assert parse_partition(format_partition(p)) == p


class TestAdjacencyProfile:
    def test_hand_example(self):
        p = parse_partition("1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8")
        prof = adjacency_profile(p)
        assert prof.initiators == frozenset({11})
        assert prof.terminators == frozenset({12})
        assert prof.singletons == frozenset({1, 2})
        assert prof.adjacency_count == 1

    def test_single_block_of_two_has_two_adjacencies(self):
        prof = adjacency_profile(parse_partition("3 4"))
        assert prof.initiators == frozenset({3, 4})
        assert prof.terminators == frozenset({3, 4})
        assert prof.adjacency_count == 2

    def test_one_element_partition_counts_one_adjacency(self):
        # succ(a) = a on a singleton support, so the lone element is at
        # once initiator, terminator and singleton.
        for a in (1, 7, 60):
            prof = adjacency_profile(SetPartition(((a,),)))
            assert prof.initiators == frozenset({a})
            assert prof.terminators == frozenset({a})
            assert prof.singletons == frozenset({a})
            assert prof.adjacency_count == 1

    def test_empty_partition_profile(self):
        prof = adjacency_profile(EMPTY)
        assert prof.adjacency_count == 0
        assert prof.initiators == prof.terminators == prof.singletons == frozenset()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_naive_scan(self, n):
        for p in all_partitions(n):
            prof = adjacency_profile(p)
            ini, ter, sing = naive_profile(p)
            assert prof.initiators == ini
            assert prof.terminators == ter
            assert prof.singletons == sing
            assert prof.adjacency_count == len(ini) == len(ter)

    def test_against_naive_scan_sparse(self, sparse_samples):
        for p in sparse_samples:
            prof = adjacency_profile(p)
            ini, ter, sing = naive_profile(p)
            assert (prof.initiators, prof.terminators, prof.singletons) == (
                ini,
                ter,
                sing,
            )


class TestRankView:
    def test_rank_r_is_the_rth_element(self, sparse_samples):
        for p in [EMPTY, *all_partitions(5), *sparse_samples]:
            m, labels, bid = ranks(p.blocks)
            label = labels or range(m + 1)
            assert m == len(p.support)
            assert list(label[1:]) == list(p.support)
            assert (labels is None) == (p.support == tuple(range(1, m + 1)))
            for r in range(1, m + 1):
                assert label[r] in p.blocks[bid[r]]


class TestComplement:
    def test_hand_example(self):
        assert complement(parse_partition("1 2 - 3"), 3) == parse_partition("2 3 - 1")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_involution(self, n):
        for p in all_partitions(n):
            assert complement(complement(p, n), n) == p

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reverses_initiators_and_terminators(self, n):
        for p in all_partitions(n):
            prof = adjacency_profile(p)
            cprof = adjacency_profile(complement(p, n))
            m = n + 1
            assert cprof.initiators == frozenset(m - t for t in prof.terminators)
            assert cprof.terminators == frozenset(m - i for i in prof.initiators)
            assert cprof.singletons == frozenset(m - s for s in prof.singletons)

    def test_requires_full_support(self):
        with pytest.raises(DomainError):
            complement(parse_partition("2 - 3"), 2)
        with pytest.raises(DomainError):
            complement(EMPTY, 0)


class TestInferredN:
    def test_full_support(self):
        assert inferred_n(parse_partition("1 3 - 2")) == 3

    @pytest.mark.parametrize("text", ["2 - 3", "1 - 3", ""])
    def test_gaps_rejected(self, text):
        with pytest.raises(DomainError):
            inferred_n(parse_partition(text))
