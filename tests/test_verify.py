from concurrent.futures import Future
import hashlib
import importlib
import json
import multiprocessing
from pathlib import Path

import pytest

from conjlab import DomainError, verify_suite
from conjlab.cli import main
from conjlab.compositions import Composition, conjugate_composition, mu
from conjlab.separate import _combine

phi_module = importlib.import_module("conjlab.phi")
verify_module = importlib.import_module("conjlab.verify")

# Pinned outputs of the benchmark, read-only here.
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def corrupted_combine_st(rec):
    # Wrong direction: merges the b-elements with their successors, the
    # behaviour of the initiator-side insertion.
    return _combine(rec.rho, rec.a_set, rec.b_set, with_succ=True)


def reversed_conjugate_composition(c):
    # Right up to reversal, so the involution and length laws still hold.
    return Composition(conjugate_composition(c).parts[::-1])


def mu_off_at_n1(c):
    return mu(c) + (c.n == 1)


class TestSuitePasses:
    def test_small_run_is_green(self):
        report = verify_suite(n_max=5, comp_n_max=8)
        assert report.ok
        assert report.first_failure() is None
        assert len(report.results) == 41
        assert all(r.ok for r in report.results)
        assert all(r.items >= 1 for r in report.results)

    def test_render_layout(self):
        report = verify_suite(n_max=4, comp_n_max=6)
        text = report.render()
        lines = text.splitlines()
        assert lines[0] == "verification suite: partitions n <= 4, compositions n <= 6"
        assert sum(1 for ln in lines if ln.startswith("[PASS]")) == 41
        assert lines[-1].startswith("result: PASS (41 invariants, ")

    def test_structured_records(self):
        report = verify_suite(n_max=4, comp_n_max=6)
        records = report.to_records()
        assert len(records) == 41
        for rec in records:
            assert set(rec) == {
                "invariant",
                "scope",
                "items",
                "status",
                "failures",
                "counterexample",
            }
            assert rec["status"] == "pass"
            assert rec["failures"] == 0
            assert rec["counterexample"] is None

    def test_bounds_validated(self):
        with pytest.raises(DomainError):
            verify_suite(n_max=13)
        with pytest.raises(DomainError):
            verify_suite(n_max=4, comp_n_max=21)
        with pytest.raises(DomainError):
            verify_suite(n_max=0)


def assert_pinned_tiny_report(jobs):
    tiny = json.loads(EXPECTED.read_text())["verify"]["tiny"]
    report = verify_suite(tiny["n_max"], tiny["comp_n_max"], jobs=jobs)
    digest = hashlib.sha256((report.render() + "\n").encode()).hexdigest()
    assert digest == tiny["sha256"]


class TestPinnedReport:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_tiny_report_bytes(self, jobs):
        assert_pinned_tiny_report(jobs)


class InlinePool:
    """Stands in for ProcessPoolExecutor without starting a process: runs
    each task when it is submitted and records max_workers in built."""

    def __init__(self, built, max_workers):
        built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestJobsCap:
    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            verify_module, "ProcessPoolExecutor", lambda max_workers: InlinePool(built, max_workers)
        )
        return built

    @pytest.mark.parametrize("jobs", [0, verify_module.JOBS_MAX_HARD + 1, 100000])
    def test_out_of_range_is_refused_before_any_pool(self, built, jobs):
        with pytest.raises(DomainError, match=str(verify_module.JOBS_MAX_HARD)):
            verify_suite(n_max=2, comp_n_max=2, jobs=jobs)
        assert built == []

    def test_cli_exits_two(self, built, capsys):
        code = main(["verify", "--n-max", "2", "--comp-n-max", "2", "--jobs", "100000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("conjlab: error:")
        assert built == []

    def test_cap_gives_the_pinned_report(self, built):
        assert_pinned_tiny_report(verify_module.JOBS_MAX_HARD)
        assert built == [verify_module.JOBS_MAX_HARD]


class TestSharding:
    def test_parallel_report_is_identical(self):
        solo = verify_suite(n_max=6, comp_n_max=8, jobs=1)
        multi = verify_suite(n_max=6, comp_n_max=8, jobs=3)
        assert solo.to_records() == multi.to_records()
        assert solo.render() == multi.render()


class TestMutationDetection:
    def test_corrupted_reverse_insertion_is_caught(self, monkeypatch):
        # A deliberately wrong combine_st (merge with successor instead of
        # predecessor) must be detected even at tiny sizes.
        monkeypatch.setattr(phi_module, "combine_st", corrupted_combine_st)
        report = verify_suite(n_max=3, comp_n_max=2, jobs=1)
        assert not report.ok
        failure = report.first_failure()
        assert failure is not None
        assert failure.invariant in {
            "phi-trace-agreement",
            "trace-record-inverse",
            "reverse-phase-exactness",
        }
        assert failure.counterexample
        assert failure.failures >= 1
        if multiprocessing.get_start_method() == "fork":
            # Only forked workers inherit the patched module.
            multi = verify_suite(n_max=3, comp_n_max=2, jobs=3)
            assert multi.to_records() == report.to_records()
        text = report.render()
        assert "[FAIL]" in text
        assert "counterexample:" in text
        assert text.splitlines()[-1].startswith("result: FAIL")

    @pytest.mark.parametrize(
        "name, mutant, caught",
        [
            (
                "conjugate_composition",
                reversed_conjugate_composition,
                {"comp-strip-agreement", "comp-sorted-palindrome"},
            ),
            ("mu", mu_off_at_n1, {"mu-nu-n1-exception"}),
        ],
    )
    def test_pooled_tail_failures_match_serial(self, monkeypatch, name, mutant, caught):
        # Composition sweeps and the fixed checks run in workers too; their
        # failures must reach the report exactly as in a one-job run.
        monkeypatch.setattr(verify_module, name, mutant)
        report = verify_suite(n_max=3, comp_n_max=6, jobs=1)
        assert {r.invariant for r in report.results if not r.ok} == caught
        if multiprocessing.get_start_method() == "fork":
            multi = verify_suite(n_max=3, comp_n_max=6, jobs=3)
            assert multi.to_records() == report.to_records()
