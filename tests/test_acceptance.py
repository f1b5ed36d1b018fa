"""Acceptance gate: one test per numbered criterion.

Each test prints a single `criterion N: PASS ...` line (visible with
pytest -s; under plain pytest the PASSED/FAILED status line of the
correspondingly named test carries the verdict).  Bounds and tolerances
are asserted exactly as stated.

Wall-clock bounds are in reference-host seconds, the unit of the
benchmark (perfbench/calibrate.py): the time the code would take on the
reference host (2 vCPU Xeon, CPython 3.11.7) in a fast phase.  A shared
host's speed drifts by up to 1.7x within a minute, so a raw time says as
much about the host's phase as about the program.  Timed code therefore
runs in spans (a sweep in batches of SWEEP_BATCH items); between spans,
outside the timed time, the benchmark's fixed calibration kernel runs,
and each span's raw time is scaled by REF_S over the median kernel time
around it.  The bounds keep the numbers they always had.  On a host
faster than the reference the check is stricter than a raw-seconds one.
Verdicts and failure messages give both raw and reference-host seconds.
"""

import hashlib
import importlib.util
import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import combinations
from pathlib import Path
from statistics import median

import pytest

from conjlab import (
    EMPTY,
    ROLE_IS,
    ROLE_ST,
    SeparationRecord,
    adjacency_profile,
    bell_number,
    catalan_number,
    combine_domain_ok,
    combine_is,
    combine_st,
    complement,
    conjugate,
    conjugate_composition,
    flip_path,
    graphical_conjugate,
    is_noncrossing,
    iter_compositions,
    iter_set_partitions,
    kreweras_complement,
    mu,
    mu_path,
    nu,
    nu_path,
    parse_composition,
    parse_partition,
    path_to_composition,
    phi,
    phi_trace,
    reduce_core,
    separate_is,
    sort_rank,
    strip_conjugate,
    to_path,
    to_subset,
    verify_suite,
)
from conjlab.enumeration import rgs_prefixes

P = parse_partition
C = parse_composition

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]

WORKED = "1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"
FIGURE = "1 5 8 - 2 - 3 - 4 - 6 7"


def _load_calibration():
    """perfbench/calibrate.py, loaded by path: its kernel and REF_S."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "calibrate.py"
    spec = importlib.util.spec_from_file_location("perfbench_calibrate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CALIBRATION = _load_calibration()
KERNEL_RUNS = 3  # calibration kernel runs in each gap between spans
SWEEP_BATCH = 5000  # items per timed span of a sweep


class ReferenceClock:
    """Times code in spans and reports reference-host seconds.

    start() and stop() bound a span; lap() is stop() then start().  Each
    stop(), and the constructor, runs the calibration kernel KERNEL_RUNS
    times outside any span.  A span's reference time is its raw time
    times REF_S over the median kernel time of the gaps on both sides.
    """

    def __init__(self) -> None:
        self.raw_spans: list[float] = []
        self.gaps = [self._probe()]
        self._t0 = 0.0

    @staticmethod
    def _probe() -> list[float]:
        times = []
        for _ in range(KERNEL_RUNS):
            t0 = time.perf_counter()
            CALIBRATION.kernel()
            times.append(time.perf_counter() - t0)
        return times

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.raw_spans.append(time.perf_counter() - self._t0)
        self.gaps.append(self._probe())

    def lap(self) -> None:
        self.stop()
        self.start()

    @property
    def ref_spans(self) -> list[float]:
        return [
            raw * CALIBRATION.REF_S / median(before + after)
            for raw, before, after in zip(self.raw_spans, self.gaps, self.gaps[1:])
        ]

    @property
    def raw(self) -> float:
        return sum(self.raw_spans)

    @property
    def ref(self) -> float:
        return sum(self.ref_spans)


def verdict(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS — {detail}")


def naive_is_crossing(blocks) -> bool:
    """Independent quadruple filter used to cross-check the stack scan."""
    for b1, b2 in combinations(blocks, 2):
        for a, c in combinations(b1, 2):
            for b, d in combinations(b2, 2):
                if a < b < c < d or b < a < d < c:
                    return True
    return False


@pytest.fixture(scope="module")
def census():
    """One enumeration pass per n = 1..12 shared by criteria 5 and 9.

    Collects the partition count, the noncrossing count by the stack
    filter, the core-characterization verdict (n <= 10), and a recount of
    the noncrossing partitions by the quadruple filter (n <= 8).
    """
    data = {}
    for n in range(1, 13):
        total = nc = nc_quad = 0
        core_equiv_ok = True
        check_core = n <= 10
        check_quad = n <= 8
        for p in iter_set_partitions(n):
            total += 1
            flag = is_noncrossing(p)
            nc += flag
            if check_core and (reduce_core(p) == EMPTY) != flag:
                core_equiv_ok = False
            if check_quad and not naive_is_crossing(p.blocks):
                nc_quad += 1
        data[n] = {
            "total": total,
            "nc": nc,
            "core_equiv_ok": core_equiv_ok,
            "nc_quad": nc_quad if check_quad else None,
        }
    return data


def test_criterion_01_worked_trace_rows_exact_and_fast():
    p = P(WORKED)
    clock = ReferenceClock()
    for _ in range(5):
        clock.start()
        trace = phi_trace(p)
        clock.stop()
    elapsed = min(clock.ref_spans)
    raw = min(clock.raw_spans)

    forward = [
        (r.j, str(r.rho), set(r.initiators), set(r.singletons))
        for r in trace.forward_rows
    ]
    assert forward == [
        (1, "3 12 - 4 7 10 - 5 9 - 6 8", {11}, {1, 2}),
        (2, "3 - 4 7 10 - 5 9 - 6 8", {12}, set()),
        (3, "4 7 10 - 5 9 - 6 8", set(), {3}),
        (4, "4 7 - 5 9 - 6 8", {10}, set()),
    ]
    reverse = [(r.j, str(r.tau)) for r in trace.reverse_rows]
    assert reverse == [
        (4, "4 7 - 5 9 - 6 8"),
        (3, "4 7 - 5 9 - 6 8 - 10"),
        (2, "3 10 - 4 7 - 5 9 - 6 8"),
        (1, "3 10 - 4 7 - 5 9 - 6 8 - 12"),
        (0, "1 2 12 - 3 10 - 4 7 - 5 9 - 6 8 - 11"),
    ]
    took = f"{elapsed * 1e6:.0f} us reference-host ({raw * 1e6:.0f} us raw)"
    assert elapsed < 1e-3, f"trace took {took}"
    verdict(1, f"both tables row-for-row, {took}")


def test_criterion_02_reverse_insertion_golden():
    rec = SeparationRecord(
        P("3 10 - 4 7 - 12"), frozenset({11}), frozenset({1, 2}), ROLE_ST
    )
    assert combine_st(rec) == P("1 2 12 - 3 10 - 4 7 - 11")
    verdict(2, "combine_st golden exact")


def test_criterion_03_figure_via_both_algorithms():
    p = P(FIGURE)
    want_phi = P("1 2 3 4 - 5 7 - 6 - 8")
    want_conj = P("1 - 2 4 - 3 - 5 6 7 8")
    assert phi(p) == want_phi
    assert conjugate(p, 8) == want_conj
    assert kreweras_complement(p) == want_phi
    assert graphical_conjugate(p) == want_conj
    verdict(3, "phi and conjugate match by both computations")


def test_criterion_04_exhaustive_theorems_to_n10():
    clock = ReferenceClock()
    clock.start()
    swept = 0
    for n in range(1, 11):
        image = set()
        pairs = {}
        count = 0
        for p in iter_set_partitions(n):
            count += 1
            swept += 1
            if swept % SWEEP_BATCH == 0:
                clock.lap()
            q = phi(p)
            prof = adjacency_profile(p)
            qprof = adjacency_profile(q)
            assert qprof.singletons == prof.initiators
            assert qprof.terminators == prof.singletons
            image.add(q.blocks)
            pairs[p.blocks] = complement(q, n).blocks
        assert count == BELL[n]
        assert len(image) == count  # phi injective, hence bijective
        for blocks, conj_blocks in pairs.items():
            assert pairs[conj_blocks] == blocks  # conjugate involution
    clock.stop()
    elapsed = clock.ref
    took = f"{elapsed:.2f} s reference-host ({clock.raw:.2f} s raw)"
    assert elapsed < 5.0, f"sweep took {took}"
    verdict(4, f"142,417 partitions checked in {took}")


def headline_shard(n: int, prefix: tuple[int, ...]) -> tuple[int, int]:
    """(partitions, failures) over one RGS-prefix shard of [n]: phi keeps
    the support and interchanges the statistics, and conjugation is an
    involution (which certifies bijectivity)."""
    full = tuple(range(1, n + 1))
    count = fails = 0
    for p in iter_set_partitions(n, prefix):
        count += 1
        prof = adjacency_profile(p)
        q = phi(p)
        qprof = adjacency_profile(q)
        ok = (
            q.support == full
            and qprof.singletons == prof.initiators
            and qprof.terminators == prof.singletons
            and conjugate(complement(q, n), n) == p
        )
        fails += not ok
    return count, fails


@pytest.mark.skipif(
    not os.environ.get("CONJLAB_N12"),
    reason="set CONJLAB_N12=1 to run the 4,213,597-partition sweep",
)
def test_criterion_04_optin_n12_sweep():
    t0 = time.perf_counter()
    prefixes = rgs_prefixes(12, 4)
    workers = os.cpu_count() or 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(partial(headline_shard, 12), prefixes))
    else:
        shards = [headline_shard(12, prefix) for prefix in prefixes]
    count = sum(c for c, _ in shards)
    fails = sum(f for _, f in shards)
    elapsed = time.perf_counter() - t0
    assert count == 4213597
    assert fails == 0
    assert elapsed < 120.0, f"n=12 sweep took {elapsed:.1f} s"
    verdict(4, f"opt-in n=12: {count} partitions in {elapsed:.1f} s")


# SHA-256 of the stdout of `conjlab verify --n-max 12 --comp-n-max 16
# --jobs 2`: every invariant over all 4,213,597 partitions of [12].
N12_REPORT_SHA256 = "3e65ade5566b315f30d93ea81d545ee41e5cdc3562adb96d719dbc696c0fec4d"


@pytest.mark.skipif(
    not os.environ.get("CONJLAB_N12"),
    reason="set CONJLAB_N12=1 to run the n=12 verify report (about 6 minutes on 2 cores)",
)
def test_criterion_04_optin_n12_report():
    report = verify_suite(n_max=12, comp_n_max=16, jobs=2)
    assert report.ok
    assert hashlib.sha256((report.render() + "\n").encode()).hexdigest() == N12_REPORT_SHA256
    verdict(4, f"opt-in n=12 verify report: {report.total_items} items, pinned bytes")


def test_criterion_05_noncrossing_characterization_and_counts(census):
    for n in range(1, 11):
        assert census[n]["core_equiv_ok"]
    for n in range(1, 13):
        assert census[n]["nc"] == CATALAN[n] == catalan_number(n)
    for n in range(1, 9):
        assert census[n]["nc_quad"] == census[n]["nc"]
    verdict(5, "core characterization to n=10; Catalan counts to n=12")


def test_criterion_06_statistic_interchange_all_compositions():
    clock = ReferenceClock()
    clock.start()
    count = 0
    for n in range(2, 17):
        for c in iter_compositions(n):
            d = conjugate_composition(c)
            assert mu(d) == nu(c)
            assert nu(d) == mu(c)
            count += 1
            if count % SWEEP_BATCH == 0:
                clock.lap()
    clock.stop()
    elapsed = clock.ref
    took = f"{elapsed:.2f} s reference-host ({clock.raw:.2f} s raw)"
    assert count == sum(2 ** (n - 1) for n in range(2, 17))
    assert elapsed < 2.0, f"sweep took {took}"

    one = C("1")
    assert (mu(one), nu(one)) == (0, 1)
    assert conjugate_composition(one) == one  # fixed, yet (0,1) != (1,0)
    verdict(6, f"{count} compositions in {took}; n=1 exception holds")


def test_criterion_07_composition_goldens():
    c = C("2,1,2,3")
    assert to_subset(c) == frozenset({2, 3, 5})
    assert to_path(c) == "ENNENEE"
    assert conjugate_composition(c).parts == (1, 3, 2, 1, 1)

    d = C("3,1,1,4,2")
    assert (mu(d), nu(d)) == (9, 6)
    path = to_path(d)
    assert (mu_path(path), nu_path(path)) == (9, 6)

    assert strip_conjugate(C("4,2,1,2,1,1,1,3")).parts == (1, 1, 1, 2, 3, 5, 1, 1)

    ordered = sorted(iter_compositions(4), key=sort_rank)
    assert [x.parts for x in ordered] == [
        (4,),
        (1, 3),
        (2, 2),
        (3, 1),
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    for left, right in zip(ordered, reversed(ordered)):
        assert conjugate_composition(left) == right
    verdict(7, "worked chain, statistics, strip transfer, sorted display")


def test_criterion_08_differential_implementations():
    for n in range(1, 17):
        for c in iter_compositions(n):
            assert strip_conjugate(c).parts == conjugate_composition(c).parts
            assert (
                path_to_composition(flip_path(to_path(c))).parts
                == conjugate_composition(c).parts
            )
    checked = 0
    for n in range(1, 11):
        for p in iter_set_partitions(n):
            if is_noncrossing(p):
                assert kreweras_complement(p).blocks == phi(p).blocks
                checked += 1
    assert checked == sum(CATALAN[n] for n in range(1, 11))
    verdict(8, f"strip==flip to n=16; graphical==iterative on {checked} inputs")


def test_criterion_09_enumeration_counts(census):
    for n in range(1, 13):
        assert census[n]["total"] == BELL[n] == bell_number(n)
    for n in range(1, 17):
        assert sum(1 for _ in iter_compositions(n)) == 2 ** (n - 1)
    verdict(9, "Bell counts to n=12; composition counts to n=16")


def test_criterion_10_combine_domain_gap_and_trace_inverse():
    gap = SeparationRecord(P("3 4"), frozenset(), frozenset(), ROLE_IS)
    assert combine_domain_ok(gap)
    assert combine_is(gap) == P("3 4")
    assert separate_is(combine_is(gap)) != gap  # combine is not injective-ranged

    for n in range(1, 10):
        for p in iter_set_partitions(n):
            for row in phi_trace(p).forward_rows:
                rec = SeparationRecord(
                    row.rho, row.initiators, row.singletons, ROLE_IS
                )
                back = separate_is(combine_is(rec))
                assert (back.rho, back.a_set, back.b_set) == (
                    rec.rho,
                    rec.a_set,
                    rec.b_set,
                )
    verdict(10, "gap record documented; trace-level inverse exact to n=9")
