import importlib

import pytest

from conjlab import (
    EMPTY,
    DomainError,
    SetPartition,
    adjacency_profile,
    conjugate,
    kreweras_complement,
    parse_partition,
    phi,
    phi_inverse,
    phi_trace,
    reduce_core,
)
from conjlab.separate import ROLE_IS, SeparationRecord

from conftest import all_partitions

P = parse_partition
phi_module = importlib.import_module("conjlab.phi")

WORKED = P("1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8")
WORKED_FORWARD = [
    (1, "3 12 - 4 7 10 - 5 9 - 6 8", {11}, {1, 2}),
    (2, "3 - 4 7 10 - 5 9 - 6 8", {12}, set()),
    (3, "4 7 10 - 5 9 - 6 8", set(), {3}),
    (4, "4 7 - 5 9 - 6 8", {10}, set()),
]
WORKED_REVERSE = [
    (4, "4 7 - 5 9 - 6 8"),
    (3, "4 7 - 5 9 - 6 8 - 10"),
    (2, "3 10 - 4 7 - 5 9 - 6 8"),
    (1, "3 10 - 4 7 - 5 9 - 6 8 - 12"),
    (0, "1 2 12 - 3 10 - 4 7 - 5 9 - 6 8 - 11"),
]


class TestWorkedExample:
    def test_result(self):
        assert phi(WORKED) == P("1 2 12 - 3 10 - 4 7 - 5 9 - 6 8 - 11")

    def test_core(self):
        assert reduce_core(WORKED) == P("4 7 - 5 9 - 6 8")

    def test_trace_forward_rows(self):
        trace = phi_trace(WORKED)
        assert trace.k == 4
        got = [
            (r.j, str(r.rho), set(r.initiators), set(r.singletons))
            for r in trace.forward_rows
        ]
        want = [(j, rho, i, s) for j, rho, i, s in WORKED_FORWARD]
        assert got == want

    def test_trace_reverse_rows(self):
        trace = phi_trace(WORKED)
        got = [(r.j, str(r.tau)) for r in trace.reverse_rows]
        assert got == WORKED_REVERSE

    def test_trace_endpoints(self):
        trace = phi_trace(WORKED)
        assert trace.core == reduce_core(WORKED)
        assert trace.result == phi(WORKED)

    def test_inverse_returns_input(self):
        assert phi_inverse(phi(WORKED)) == WORKED


class TestSmallCases:
    def test_empty_partition_is_fixed(self):
        assert phi(EMPTY) == EMPTY
        assert phi_inverse(EMPTY) == EMPTY
        assert reduce_core(EMPTY) == EMPTY

    def test_one_element_is_fixed(self):
        for a in (1, 4, 33):
            p = SetPartition(((a,),))
            assert phi(p) == p
            assert phi_inverse(p) == p

    def test_two_elements_swap(self):
        assert phi(P("1 2")) == P("1 - 2")
        assert phi(P("1 - 2")) == P("1 2")

    def test_conjugate_figure(self):
        p = P("1 5 8 - 2 - 3 - 4 - 6 7")
        assert conjugate(p, 8) == P("1 - 2 4 - 3 - 5 6 7 8")

    def test_conjugate_needs_full_support(self):
        with pytest.raises(DomainError):
            conjugate(P("2 - 3"), 2)


def assert_interchange(p, q):
    prof, qprof = adjacency_profile(p), adjacency_profile(q)
    assert qprof.singletons == prof.initiators
    assert qprof.terminators == prof.singletons


class TestExhaustiveSmall:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_fast_path_agrees_with_trace(self, n):
        for p in all_partitions(n):
            assert phi(p) == phi_trace(p).result

    @pytest.mark.parametrize("n", range(1, 8))
    def test_support_preserved_and_inverse(self, n):
        for p in all_partitions(n):
            q = phi(p)
            assert q.support == p.support
            assert phi_inverse(q) == p

    @pytest.mark.parametrize("n", range(1, 8))
    def test_statistic_interchange(self, n):
        for p in all_partitions(n):
            assert_interchange(p, phi(p))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_injective(self, n):
        images = {phi(p).blocks for p in all_partitions(n)}
        assert len(images) == len(all_partitions(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conjugate_involution_and_interchange(self, n):
        for p in all_partitions(n):
            cq = conjugate(p, n)
            assert conjugate(cq, n) == p
            prof, cprof = adjacency_profile(p), adjacency_profile(cq)
            assert len(cprof.singletons) == prof.adjacency_count
            assert cprof.adjacency_count == len(prof.singletons)


class TestSparseSupports:
    def test_phi_on_scattered_supports(self, sparse_samples):
        for p in sparse_samples:
            q = phi(p)
            assert q.support == p.support
            assert q == phi_trace(p).result
            assert phi_inverse(q) == p
            assert_interchange(p, q)

    def test_hand_checked_scattered_example(self):
        # support {2,5,9}: 2 initiates the adjacency (2,5); 9 is a singleton.
        p = P("2 5 - 9")
        q = phi(p)
        assert adjacency_profile(q).singletons == frozenset({2})
        assert adjacency_profile(q).terminators == frozenset({9})
        assert phi_inverse(q) == p


class TestTraceRecords:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_forward_rows_shrink_support(self, n):
        for p in all_partitions(n):
            trace = phi_trace(p)
            sizes = [len(p.support)] + [len(r.rho.support) for r in trace.forward_rows]
            assert all(a > b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_core_has_no_initiators_or_singletons(self, n):
        for p in all_partitions(n):
            prof = adjacency_profile(phi_trace(p).core)
            assert not prof.initiators and not prof.singletons

    def test_stalled_strip_step_raises(self, monkeypatch):
        # A record that strips something yet keeps rho whole would loop for
        # ever; the check must hold under python -O too, so no assert.
        def stalled(rho):
            return SeparationRecord(rho, frozenset(rho.support[:1]), frozenset(), ROLE_IS)

        monkeypatch.setattr(phi_module, "separate_is", stalled)
        with pytest.raises(RuntimeError, match="no progress"):
            phi_trace(P("1 3 - 2"))


def rainbow(n: int, core=()) -> SetPartition:
    """The nested pairs {i, n+1-i} around the blocks of core, which sit in
    the middle of [n] and are given relative to it."""
    mid = len({x for blk in core for x in blk})
    k = (n - mid) // 2
    blocks = [(i, n + 1 - i) for i in range(1, k + 1)]
    blocks += [tuple(k + x for x in blk) for blk in core]
    return SetPartition(tuple(sorted(blocks)))


@pytest.fixture
def worklist_calls(monkeypatch):
    """Counts the strips that reach the worklist."""
    calls = []
    inner = phi_module._worklist

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(phi_module, "_worklist", counted)
    return calls


class TestWorklist:
    """The strip moves to its worklist once its full scans pass a budget;
    a budget of 0 sends every strip there from the first step."""

    def check(self, p):
        trace = phi_trace(p)
        assert phi(p) == trace.result
        assert phi_inverse(trace.result) == p
        assert reduce_core(p) == trace.core

    @pytest.mark.parametrize("n", range(1, 8))
    def test_worklist_only_agrees_with_trace(self, monkeypatch, worklist_calls, n):
        monkeypatch.setattr(phi_module, "_SCAN_PASSES", 0)
        for p in all_partitions(n):
            self.check(p)
        assert len(worklist_calls) == 3 * len(all_partitions(n))

    def test_worklist_only_on_scattered_supports(
        self, monkeypatch, worklist_calls, sparse_samples
    ):
        monkeypatch.setattr(phi_module, "_SCAN_PASSES", 0)
        for p in sparse_samples:
            self.check(p)
        assert len(worklist_calls) == 3 * len(sparse_samples)

    def test_deep_rainbow_is_kreweras(self, worklist_calls):
        p = rainbow(2000)
        q = phi(p)
        assert q == kreweras_complement(p)
        assert phi_inverse(q) == p
        assert len(worklist_calls) == 2

    def test_rainbow_around_a_crossing_core(self, worklist_calls):
        p = rainbow(150, core=[(1, 3), (2, 4)])
        assert reduce_core(p) == P("74 76 - 75 77")
        worklist_calls.clear()
        self.check(p)
        assert len(worklist_calls) == 3

    def test_default_budget_keeps_small_strips_scanning(self, worklist_calls):
        for p in all_partitions(7):
            phi(p)
            phi_inverse(p)
        assert len(worklist_calls) < len(all_partitions(7)) // 100
