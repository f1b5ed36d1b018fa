import importlib
from itertools import product
import random
import tracemalloc
import types

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
from conjlab.enumeration import iter_set_partitions_of

from conftest import all_partitions
from record_oracle import (
    naive_combine,
    naive_separate_is,
    naive_separate_st,
    naive_universe,
    suppress,
)

phi_module = importlib.import_module("conjlab.phi")
verify_module = importlib.import_module("conjlab.verify")

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


def test_each_combine_works_out_its_universe_once(monkeypatch):
    # A universe of 1..N is placed by element, with no sort; one with gaps
    # is sorted once, for the domain test and the merge alike, also on a
    # record the combine refuses.
    sorts = []

    def counted(items):
        sorts.append(items)
        return sorted(items)

    monkeypatch.setattr(separate_module, "sorted", counted, raising=False)
    refused = SeparationRecord(P("3"), frozenset({1}), frozenset({2}), ROLE_IS)
    gapped = SeparationRecord(P("5"), frozenset({2}), frozenset({9}), ROLE_IS)
    samples = [p for n in range(6) for p in all_partitions(n)]
    samples += [P("2 5 - 9"), P("3 - 4 7"), P("1 - 1000000")]
    calls = [(combine_is, separate_is(p)) for p in samples]
    calls += [(combine_st, separate_st(p)) for p in samples]
    calls += [(combine_is, rec) for rec in (refused, gapped)]
    calls += [(combine_st, rec) for rec in (refused, gapped)]
    gaps = 0
    for combine, rec in calls:
        sorts.clear()
        try:
            combine(rec)
        except CombineDomainError:
            assert rec is refused
        universe = rec.a_set | rec.b_set | set(rec.rho.support)
        gapped = universe != set(range(1, len(universe) + 1))
        gaps += gapped
        assert [set(items) for items in sorts].count(universe) == gapped
    assert gaps >= 8


def records_by_role(ground):
    """Every record whose elements lie in ground: each element is left
    out, in rho, in a_set, in b_set or in both sets, and rho is any
    partition of its elements.  Overlaps, an a-element before a
    b-element and the one-element form are all among them."""
    for roles in product(range(5), repeat=len(ground)):
        own = tuple(x for x, r in zip(ground, roles) if r == 1)
        a_set = frozenset(x for x, r in zip(ground, roles) if r in (2, 4))
        b_set = frozenset(x for x, r in zip(ground, roles) if r in (3, 4))
        for rho in iter_set_partitions_of(own):
            yield SeparationRecord(rho, a_set, b_set, ROLE_IS)


class TestNaiveOracle:
    """The kernels, through the public adapters, give the records, combine
    results and domain verdicts of the naive record operations."""

    @staticmethod
    def check_record(rec):
        want = naive_universe(rec) is not None
        assert combine_domain_ok(rec) == want, rec
        assert combine_domain_ok(rec._replace(role=ROLE_ST)) == want, rec
        for combine, with_succ in ((combine_is, True), (combine_st, False)):
            expected = naive_combine(rec, with_succ)
            if expected is None:
                with pytest.raises(CombineDomainError):
                    combine(rec)
            else:
                got = combine(rec)
                assert got == expected and got.blocks == expected.blocks, (rec, with_succ)

    def check_partition(self, p):
        for separate, naive in ((separate_is, naive_separate_is), (separate_st, naive_separate_st)):
            rec, want = separate(p), naive(p)
            assert rec == want and rec.rho.blocks == want.rho.blocks, str(p)
            assert str(rec) == str(want)
            self.check_record(rec)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_every_partition(self, n):
        for p in all_partitions(n):
            self.check_partition(p)

    def test_sparse_samples(self, sparse_samples):
        for p in sparse_samples:
            self.check_partition(p)

    @pytest.mark.parametrize("ground", [(1, 2, 3, 4), (2, 5, 9, 10), (1, 3, 4)])
    def test_hand_made_records(self, ground):
        refused = 0
        for rec in records_by_role(ground):
            self.check_record(rec)
            refused += naive_universe(rec) is None
        assert refused > 0

    @pytest.mark.parametrize(
        "rho, a, b",
        [
            ("1 2", {2}, set()),  # a_set meets rho
            ("1 2", {3, 4}, {4}),  # a_set meets b_set
            ("2 3", {1}, {1}),  # the one-element form needs an empty rho
            ("", {3}, {4}),  # 3 in a_set comes right before 4 in b_set
            ("2", {5}, {1}),  # ... and cyclically, 5 before 1
            ("4 9", {20}, {2}),  # ... also over a universe with gaps
            ("", {1}, {1}),  # the one-element form
            ("", {60}, {60}),
        ],
    )
    def test_named_records(self, rho, a, b):
        self.check_record(SeparationRecord(P(rho), frozenset(a), frozenset(b), ROLE_IS))


def test_memory_follows_the_support_not_the_labels():
    # A sparse support with a huge label: the record operations allocate by
    # its size, never by the value of a label.
    huge = 10**15
    records = [
        SeparationRecord(P(f"1 - {huge}"), frozenset(), frozenset(), ROLE_IS),
        SeparationRecord(P("1"), frozenset({huge}), frozenset(), ROLE_ST),
        SeparationRecord(EMPTY, frozenset({huge}), frozenset({huge}), ROLE_IS),
    ]
    for p in (P(f"1 - {huge}"), P(f"1 {huge}")):
        for run in (
            lambda: combine_is(separate_is(p)),
            lambda: combine_st(separate_st(p)),
            *(lambda rec=rec: (combine_is(rec), combine_st(rec)) for rec in records),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, peak


def code_names(code: types.CodeType) -> set[str]:
    """The global and attribute names that code and its nested code read."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= code_names(const)
    return names


def module_functions(module) -> list[types.FunctionType]:
    """The functions defined in module, methods and properties included."""
    out = []
    for value in vars(module).values():
        for f in vars(value).values() if isinstance(value, type) else [value]:
            f = getattr(f, "fget", f)
            if isinstance(f, types.FunctionType) and f.__module__ == module.__name__:
                out.append(f)
    return out


def test_kernels_name_no_phi_kernel():
    # The record path is a reference for phi's strip and transfer only while
    # it shares no code with them.
    banned = {"_strip", "_transfer", "_phi_growth", "_worklist"}
    callers = module_functions(phi_module) + module_functions(verify_module)
    assert banned <= set().union(*(code_names(f.__code__) for f in callers))
    functions = module_functions(separate_module)
    assert {"_separate", "_combine", "_trace", "phi_trace", "core"} <= {
        f.__name__ for f in functions
    }
    for f in functions:
        assert not code_names(f.__code__) & banned, f.__qualname__
