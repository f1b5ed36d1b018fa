from contextlib import contextmanager
import hashlib
import importlib
import random
import signal

import pytest

from conjlab import (
    EMPTY,
    DomainError,
    SetPartition,
    adjacency_profile,
    complement,
    conjugate,
    iter_set_partitions,
    kreweras_complement,
    parse_partition,
    phi,
    phi_inverse,
    phi_trace,
    reduce_core,
)
from conjlab.partition import _lazy, ranks

from conftest import all_partitions, source_mutant

P = parse_partition
phi_module = importlib.import_module("conjlab.phi")
separate_module = importlib.import_module("conjlab.separate")

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


def phi_and_core(p):
    """(phi(p), reduce_core(p)) from the one strip of the array kernel."""
    _, labels, bid = ranks(p.blocks)
    grown, core = phi_module._phi_growth(bid, list(map(len, p.blocks)))
    return _lazy(*grown, labels), phi_module._core(core, bid, labels)


class TestPhiAndCore:
    """verify takes the growth string of phi(p) and the core of p from one strip."""

    def test_small_partitions(self):
        for n in range(9):
            for p in all_partitions(n):
                assert phi_and_core(p) == (phi(p), reduce_core(p))

    def test_scattered_supports(self, sparse_samples):
        for p in sparse_samples:
            assert phi_and_core(p) == (phi(p), reduce_core(p))


class TestGrowthStringKernels:
    """The strip and transfer on a handed-over growth string give what phi,
    phi_inverse and reduce_core give on a copy without one, and what the
    record-based phi_trace gives."""

    def test_kernels_agree_with_the_public_functions(self, kernel_inputs):
        for p in kernel_inputs:
            g = p._view[2]
            sizes = list(map(len, p.blocks))
            bare = SetPartition(p.blocks)
            trace = phi_trace(bare)
            (qg, qsizes), core = phi_module._phi_growth(g, sizes)
            q = phi(bare)
            assert _lazy(qg, qsizes) == q == trace.result
            assert qg == tuple(ranks(q.blocks)[2])
            assert phi_module._core(core, g) == reduce_core(bare) == trace.core
            (ig, isizes), _ = phi_module._phi_growth(g, sizes, True)
            assert _lazy(ig, isizes) == phi_inverse(bare)
            assert phi(_lazy(ig, isizes)) == bare

    def test_results_hand_their_growth_string_on(self, sparse_samples):
        for p in sparse_samples:
            for q in (phi(p), phi_inverse(p)):
                m, labels, g = q._view
                assert (m, labels, list(g)) == ranks(q.blocks)


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
        def stalled(rho, st, prof=None):
            return rho, [*rho.support[:1]], []

        monkeypatch.setattr(separate_module, "_separate", stalled)
        with pytest.raises(RuntimeError, match="no progress"):
            phi_trace(P("1 3 - 2"))


# sha256 of the sorted lines "n invert growth-string-hex" of the 76
# strips of n <= 10 that reach the worklist at the default budget.
SAME_76 = "889c5f66dab0dbc02f459b386586f68b7e68af232ee9613517759bdd3f4c2172"


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

    def test_phi_and_core_from_one_strip_on_a_deep_rainbow(self, worklist_calls):
        p = rainbow(300, core=[(1, 3), (2, 4)])
        assert phi_and_core(p) == (phi(p), reduce_core(p))
        assert len(worklist_calls) == 3

    def test_default_budget_keeps_small_strips_scanning(self, worklist_calls):
        for p in all_partitions(7):
            phi(p)
            phi_inverse(p)
        assert len(worklist_calls) < len(all_partitions(7)) // 100

    def test_default_budget_sends_the_same_76_strips_of_n_le_10_to_the_worklist(
        self, worklist_calls
    ):
        # No strip of n <= 12 has 32 live ranks, so none hands off on its
        # kill rate: the strips that reach the worklist are those that the
        # budget alone sent there before the rate rule, named by digest.
        reached = []
        strips = 0
        for n in range(1, 11):
            for p in iter_set_partitions(n):
                for invert, f in ((0, phi), (1, phi_inverse)):
                    before = len(worklist_calls)
                    f(p)
                    strips += 1
                    if len(worklist_calls) > before:
                        reached.append(f"{n} {invert} {bytes(p._view[2][1:]).hex()}\n")
        assert (len(reached), strips) == (76, 284_834)
        digest = hashlib.sha256("".join(sorted(reached)).encode()).hexdigest()
        assert digest == SAME_76


def deep_nested(rng: random.Random, n: int, core=()) -> SetPartition:
    """A seeded partition of [n] nested about n/2.2 deep around the blocks
    of core, given relative to the middle of [n], so that phi strips one
    level per step.  Working inwards from both ends, a level is a pair
    {lo, hi}, a triple {lo, lo+1, hi} or {lo, hi-1, hi}, or a singleton
    {lo}, at the fixed shares 12 : 3 : 3 : 2."""
    mid = len({x for blk in core for x in blk})
    shapes = ["pair"] * 12 + ["left"] * 3 + ["right"] * 3 + ["single"] * 2
    shapes *= n // len(shapes) + 1  # a level takes at least one element
    rng.shuffle(shapes)
    blocks = []
    lo, hi = 1, n - mid
    for shape in shapes:
        if lo > hi:
            break
        if lo == hi or shape == "single":
            blocks.append((lo,))
            lo += 1
        elif hi - lo < 2 or shape == "pair":
            blocks.append((lo, hi))
            lo, hi = lo + 1, hi - 1
        elif shape == "left":
            blocks.append((lo, lo + 1, hi))
            lo, hi = lo + 2, hi - 1
        else:
            blocks.append((lo, hi - 1, hi))
            lo, hi = lo + 1, hi - 2
    # lo is the first element past the innermost level: the core goes there.
    blocks = [tuple(x + mid * (x >= lo) for x in blk) for blk in blocks]
    blocks += [tuple(lo - 1 + x for x in blk) for blk in core]
    return SetPartition(tuple(sorted(blocks)))


DEEP_SIZES = (50, 77, 100, 101, 150, 200, 250, 300, 333, 400, 450, 500, 550, 600)

# Strip budgets: every strip on the worklist from the start, after one or
# two passes, the default, and full scans only.  The kill rate that hands a
# strip off follows the budget: 1/4, 1/8 and 1/16 of the ranks a scan
# leaves, and none at 10**9.
BUDGETS = (0, 1, 2, 4, 10**9)


@pytest.fixture(scope="module")
def deep_family():
    """(p, phi_trace(p)) for a seeded deep_nested partition of each size,
    noncrossing and around a crossing core in turn."""
    rng = random.Random(4242)
    cores = [(), [(1, 3), (2, 4)]]
    family = [deep_nested(rng, n, cores[i % 2]) for i, n in enumerate(DEEP_SIZES)]
    return [(p, phi_trace(p)) for p in family]


def check_deep_family(monkeypatch, family):
    """At every strip budget, phi, phi_inverse, reduce_core and conjugate
    agree with the record-based trace on each (p, trace) of family, and
    phi_inverse(p), which has no trace, is the same and inverts phi."""
    inverses = []
    for passes in BUDGETS:
        # _strip reads the budget from its own globals, which a mutant of
        # _strip compiled by source_mutant keeps apart from the module's.
        monkeypatch.setitem(phi_module._strip.__globals__, "_SCAN_PASSES", passes)
        inverse = []
        for p, trace in family:
            n = len(p.support)
            assert phi(p) == trace.result, (passes, n)
            assert phi_inverse(trace.result) == p, (passes, n)
            assert reduce_core(p) == trace.core, (passes, n)
            assert conjugate(p, n) == complement(trace.result, n), (passes, n)
            inverse.append(phi_inverse(p))
            assert phi(inverse[-1]) == p, (passes, n)
        inverses.append(inverse)
    assert all(inverse == inverses[0] for inverse in inverses)


# Sizes about the 32 live ranks below which a strip never hands off on its
# kill rate: at the default budget, a deep_nested strip's second scan has
# 32 live ranks or more from about 40 elements.
EDGE_SIZES = (31, 32, 33, 47, 48, 64)


@pytest.fixture(scope="module")
def edge_family():
    """(p, phi_trace(p)) for a seeded deep_nested partition of each
    EDGE_SIZES size, without and with a crossing core."""
    rng = random.Random(3232)
    cores = [(), [(1, 3), (2, 4)]]
    family = [deep_nested(rng, n, core) for n in EDGE_SIZES for core in cores]
    return [(p, phi_trace(p)) for p in family]


def scanned_at_hand_off(trace, m: int, passes: int = 4):
    """The live ranks of the phi strip's last full scan before it hands
    off, by the rule of _strip, read off the step sizes of trace; None if
    it ends on full scans."""
    live = m
    budget = (passes - 1) * m
    for row in trace.forward_rows:
        rest = live - len(row.initiators | row.singletons)
        budget -= rest
        if budget < 0 or (live >= 32 and 4 * passes * (live - rest) < rest):
            return live
        live = rest
    return None


def shallow(rng: random.Random, n: int) -> SetPartition:
    """n elements of [4n] dealt into n/4 blocks at random: few singletons
    or adjacencies, so a strip ends in a step or two."""
    support = sorted(rng.sample(range(1, 4 * n + 1), n))
    blocks: list[list[int]] = [[] for _ in range(n // 4)]
    for x in support:
        blocks[rng.randrange(len(blocks))].append(x)
    return SetPartition(tuple(sorted(tuple(blk) for blk in blocks if blk)))


def grown_noncrossing(rng: random.Random, n: int) -> SetPartition:
    """A noncrossing partition of [n] grown left to right: each element
    closes some open blocks, then joins the innermost open block or opens
    a new one.  Its strips kill a large share per step."""
    stack: list[list[int]] = []
    blocks = []
    for x in range(1, n + 1):
        while stack and rng.random() < 0.3:
            stack.pop()
        if stack and rng.random() < 0.6:
            stack[-1].append(x)
        else:
            blocks.append([x])
            stack.append(blocks[-1])
    return SetPartition(tuple(tuple(blk) for blk in blocks))


def staggered_nests(scale: int) -> SetPartition:
    """Rainbows side by side, round(scale x (16/17)^(2d)) of depth d for
    each d.  A rainbow of depth d kills one rank per step for 2d steps, so
    the kill count holds for two steps while the live count falls, and the
    nests that end keep the kill rate near 1/16: the steps alternate
    between more and fewer than 1/16 of their live ranks, and the budget,
    not the rate, ends the scans."""
    blocks = []
    lo = 1
    for d in range(1, 80):
        for _ in range(round(scale * (16 / 17) ** (2 * d))):
            blocks += [(lo + i, lo + 2 * d - 1 - i) for i in range(d)]
            lo += 2 * d
    return SetPartition(tuple(sorted(blocks)))


class CountedReads(tuple):
    """A growth string that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def read_bound_inputs():
    rng = random.Random(2024)
    for n in (40, 300, 2000):
        yield pytest.param(deep_nested(rng, n), id=f"deep-{n}")
        yield pytest.param(deep_nested(rng, n, [(1, 3), (2, 4)]), id=f"deep-core-{n}")
        yield pytest.param(shallow(rng, n), id=f"shallow-{n}")
        yield pytest.param(grown_noncrossing(rng, n), id=f"noncrossing-{n}")
    yield pytest.param(staggered_nests(20), id="staggered")


@pytest.mark.parametrize("p", read_bound_inputs())
def test_strip_reads_the_growth_string_o_m_times(monkeypatch, p):
    # _strip's docstring argues the bound; every finite budget keeps it.
    _, _, bid = p._view
    m = len(bid) - 1
    q = phi(p)
    for passes in BUDGETS[:-1]:
        monkeypatch.setattr(phi_module, "_SCAN_PASSES", passes)
        for g, sizes, invert in ((bid, p._sizes, False), (q._view[2], q._sizes, True)):
            counted = CountedReads(g)
            phi_module._strip(counted, sizes, invert)
            assert counted.reads <= (passes + 8) * m + 1, (passes, invert)


class Looped(Exception):
    """A strip ran past its time limit."""


@contextmanager
def ends_within(seconds: float):
    """Raise Looped in the block once it has run for seconds."""

    def stop(signum, frame):
        raise Looped(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestDeepFamily:
    """Seeded deep nested inputs of 50 to 600 elements, whose strips take
    about n/2 steps and so end on the worklist."""

    def test_maps_agree_across_budgets_and_with_the_trace(self, monkeypatch, deep_family):
        check_deep_family(monkeypatch, deep_family)

    def test_maps_agree_about_the_rate_rules_floor(self, monkeypatch, edge_family, worklist_calls):
        # At the default budget the phi strips of 47 or more elements hand
        # off on their rate, after their second scan; the smaller ones
        # reach the worklist on the budget, with fewer than 32 live ranks.
        for p, trace in edge_family:
            worklist_calls.clear()
            phi(p)
            handed = [len(args[0]) for args in worklist_calls]
            assert handed == [scanned_at_hand_off(trace, len(p.support))]
            assert (handed[0] >= 32) == (len(p.support) >= 47)
        check_deep_family(monkeypatch, edge_family)

    def test_default_budget_reaches_the_worklist(self, deep_family, worklist_calls):
        for p, _ in deep_family:
            m = len(p.support)
            if m >= 100:
                worklist_calls.clear()
                phi(p)
                phi_inverse(p)
                assert len(worklist_calls) == 2
                # Each strip hands over the list of its first or second
                # full scan: all m ranks, or those its first step left.
                prof = adjacency_profile(p)
                first = [prof.initiators | prof.singletons, prof.terminators | prof.singletons]
                for args, killed in zip(worklist_calls, first):
                    assert len(args[0]) in (m, m - len(killed)), m

    def test_the_budget_alone_selects_the_path(self, monkeypatch, deep_family, worklist_calls):
        # Full scans only at 10**9, the kill rate included; the worklist
        # from the first step, with every rank, at 0.
        monkeypatch.setattr(phi_module, "_SCAN_PASSES", 10**9)
        for p, _ in deep_family:
            phi(p)
            phi_inverse(p)
        assert worklist_calls == []
        monkeypatch.setattr(phi_module, "_SCAN_PASSES", 0)
        for p, _ in deep_family:
            phi(p)
            phi_inverse(p)
        handed = [len(args[0]) for args in worklist_calls]
        assert handed == [len(p.support) for p, _ in deep_family for _ in "ab"]

    def test_a_step_kills_at_most_one_rank_per_run_the_last_step_killed(self, deep_family):
        # The bound that lets one slow scan stand for two, on the traces.
        traces = [phi_trace(p) for n in range(1, 9) for p in all_partitions(n)]
        for trace in traces + [trace for _, trace in deep_family]:
            rows = trace.forward_rows
            for before, row in zip(rows, rows[1:]):
                dead = before.initiators | before.singletons
                order = sorted(dead.union(before.rho.support))
                runs = sum(y in dead and x not in dead for x, y in zip(order[-1:] + order, order))
                assert len(row.initiators | row.singletons) <= runs

    @pytest.mark.parametrize(
        "name, old, new",
        [
            pytest.param(
                "_worklist",
                "                elif bid[nxt[x]] == b:\n                    dead[x] = True\n",
                "                elif bid[nxt[x]] == b:\n",
                id="taken-predecessor-not-marked-dead",
            ),
            pytest.param(
                "_worklist",
                "            if not dead[p]:\n                cands.append(p)\n",
                "            if not dead[p]:\n                cands.append(q)\n",
                id="predecessor-left-out-of-starts",
            ),
            pytest.param(
                "_worklist",
                "                if not dead[q]:\n                    cands.append(q)\n",
                "",
                id="lone-block-not-offered-as-singleton",
            ),
            pytest.param(
                "_worklist",
                "gap = dead[live[-1]]",
                "gap = False",
                id="wrapped-run-predecessor-not-handed-over",
            ),
        ],
    )
    def test_worklist_mutant_fails(self, monkeypatch, deep_family, name, old, new):
        monkeypatch.setattr(phi_module, name, source_mutant(phi_module, name, old, new))
        with ends_within(30), pytest.raises(AssertionError):
            check_deep_family(monkeypatch, deep_family)

    def test_all_ranks_start_is_a_passing_control(self, monkeypatch, deep_family):
        # Handing the worklist every live rank, as a budget spent before
        # any scan does, is slower but right.
        old = "_worklist(live, rest, [],"
        new = "_worklist(rest, rest, rest[:],"
        monkeypatch.setattr(phi_module, "_strip", source_mutant(phi_module, "_strip", old, new))
        with ends_within(30):
            check_deep_family(monkeypatch, deep_family)
