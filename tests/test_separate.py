import random

import pytest

from conjlab import (
    EMPTY,
    CombineDomainError,
    ROLE_IS,
    ROLE_ST,
    SeparationRecord,
    SetPartition,
    combine_domain_ok,
    combine_is,
    combine_st,
    parse_partition,
    separate_is,
    separate_st,
)
from conjlab import separate as separate_module
from conjlab.separate import suppress

from conftest import all_partitions

P = parse_partition


def shuffled_combine(rec: SeparationRecord, with_succ: bool, rng) -> SetPartition:
    """Independent insertion oracle: one element at a time, random order."""
    universe = sorted(set(rec.rho.support) | rec.a_set | rec.b_set)
    succ = dict(zip(universe, universe[1:] + universe[:1]))
    pred = {y: x for x, y in succ.items()}
    parent = {x: x for x in universe}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for blk in rec.rho.blocks:
        for x in blk[1:]:
            parent[find(x)] = find(blk[0])
    merges = [(x, succ[x]) for x in rec.a_set] if with_succ else [
        (x, pred[x]) for x in rec.b_set
    ]
    rng.shuffle(merges)
    for x, y in merges:
        parent[find(x)] = find(y)
    groups = {}
    for x in universe:
        groups.setdefault(find(x), []).append(x)
    return SetPartition(tuple(sorted(tuple(g) for g in groups.values())))


class TestSuppress:
    def test_drops_elements_and_empty_blocks(self):
        assert suppress(P("1 2 - 3"), {3}) == P("1 2")
        assert suppress(P("1 2 - 3"), {1, 2, 3}) == EMPTY
        assert suppress(P("1 2 - 3"), set()) == P("1 2 - 3")


class TestSeparate:
    def test_strip_initiators_and_singletons(self):
        rec = separate_is(P("1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"))
        assert rec.rho == P("3 12 - 4 7 10 - 5 9 - 6 8")
        assert rec.a_set == frozenset({11})
        assert rec.b_set == frozenset({1, 2})
        assert rec.role == ROLE_IS

    def test_strip_singletons_and_terminators(self):
        rec = separate_st(P("1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"))
        assert rec.rho == P("3 11 - 4 7 10 - 5 9 - 6 8")
        assert rec.a_set == frozenset({1, 2})
        assert rec.b_set == frozenset({12})
        assert rec.role == ROLE_ST

    def test_record_text_form(self):
        rec = separate_is(P("1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"))
        assert str(rec) == "3 12 - 4 7 10 - 5 9 - 6 8 | A={11} | B={1,2} | role=IS"

    def test_empty_partition_separates_to_empty_record(self):
        rec = separate_is(EMPTY)
        assert rec.rho == EMPTY
        assert rec.a_set == rec.b_set == frozenset()


class TestCombineDomain:
    def test_one_element_form_accepted(self):
        rec = SeparationRecord(EMPTY, frozenset({5}), frozenset({5}), ROLE_IS)
        assert combine_domain_ok(rec)
        assert combine_is(rec) == SetPartition(((5,),))

    def test_overlap_rejected(self):
        rec = SeparationRecord(
            P("1 2"), frozenset({3, 4}), frozenset({4}), ROLE_IS
        )
        assert not combine_domain_ok(rec)
        with pytest.raises(CombineDomainError):
            combine_is(rec)

    def test_overlap_between_non_neighbours_rejected(self):
        # The cyclic-predecessor test alone would let 1 pass as both a
        # singleton and a terminator: its neighbours 2 and 3 are in neither.
        rec = SeparationRecord(P("2 3"), frozenset({1}), frozenset({1}), ROLE_ST)
        assert not combine_domain_ok(rec)

    def test_intersecting_support_rejected(self):
        rec = SeparationRecord(P("1 2"), frozenset({2}), frozenset(), ROLE_IS)
        assert not combine_domain_ok(rec)

    def test_successive_pair_rejected(self):
        # 3 in A with cyclic successor 4 in B cannot be re-inserted.
        rec = SeparationRecord(EMPTY, frozenset({3}), frozenset({4}), ROLE_ST)
        assert not combine_domain_ok(rec)
        with pytest.raises(CombineDomainError):
            combine_st(rec)

    def test_verdict_is_role_agnostic(self):
        for rho, a, b in [
            (EMPTY, {3}, {4}),
            (P("1 2"), {5}, {7}),
            (EMPTY, {5}, {5}),
            (P("2 3"), {2}, set()),
        ]:
            as_is = SeparationRecord(rho, frozenset(a), frozenset(b), ROLE_IS)
            as_st = SeparationRecord(rho, frozenset(a), frozenset(b), ROLE_ST)
            assert combine_domain_ok(as_is) == combine_domain_ok(as_st)

    def test_known_gap_record(self):
        # In the combine domain, yet produced by no separation: combining
        # gives "3 4", whose own separation strips both elements.
        rec = SeparationRecord(P("3 4"), frozenset(), frozenset(), ROLE_IS)
        assert combine_domain_ok(rec)
        combined = combine_is(rec)
        assert combined == P("3 4")
        assert separate_is(combined) != rec
        assert separate_is(combined).rho == EMPTY


class TestCombineGoldens:
    def test_insert_singletons_and_terminators(self):
        rec = SeparationRecord(
            P("3 10 - 4 7 - 12"), frozenset({11}), frozenset({1, 2}), ROLE_ST
        )
        assert combine_st(rec) == P("1 2 12 - 3 10 - 4 7 - 11")

    def test_insert_initiators_and_singletons(self):
        rec = SeparationRecord(
            P("3 12 - 4 7 10 - 5 9 - 6 8"),
            frozenset({11}),
            frozenset({1, 2}),
            ROLE_IS,
        )
        assert combine_is(rec) == P("1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8")


class TestRoundTrips:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_combine_inverts_separate(self, n):
        for p in all_partitions(n):
            assert combine_is(separate_is(p)) == p
            assert combine_st(separate_st(p)) == p

    def test_combine_inverts_separate_sparse(self, sparse_samples):
        for p in sparse_samples:
            assert combine_is(separate_is(p)) == p
            assert combine_st(separate_st(p)) == p

    @pytest.mark.parametrize("n", range(1, 7))
    def test_merge_order_irrelevant(self, n):
        rng = random.Random(99)
        for p in all_partitions(n):
            rec_is = separate_is(p)
            rec_st = separate_st(p)
            for _ in range(3):
                assert shuffled_combine(rec_is, True, rng) == p
                assert shuffled_combine(rec_st, False, rng) == p


def test_one_sorted_universe_per_combine(monkeypatch):
    # combine_is and combine_st sort the combined universe once, for the
    # domain test and the merge alike, also on a record they refuse.
    sorts = []

    def counted(items):
        sorts.append(items)
        return sorted(items)

    monkeypatch.setattr(separate_module, "sorted", counted, raising=False)
    refused = SeparationRecord(P("3"), frozenset({1}), frozenset({2}), ROLE_IS)
    calls = [(combine_is, separate_is(p)) for n in range(6) for p in all_partitions(n)]
    calls += [(combine_st, separate_st(p)) for n in range(6) for p in all_partitions(n)]
    calls += [(combine_is, refused), (combine_st, refused)]
    for combine, rec in calls:
        sorts.clear()
        try:
            combine(rec)
        except CombineDomainError:
            assert rec is refused
        universe = rec.a_set | rec.b_set | set(rec.rho.support)
        assert [set(items) for items in sorts].count(universe) == 1
