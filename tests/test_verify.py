import ast
from collections import Counter
import concurrent.futures
from concurrent.futures import Future
import hashlib
import importlib
import json
import multiprocessing
from pathlib import Path

import pytest

from conjlab import DomainError, SetPartition, verify_suite
from conjlab.cli import main
from conjlab.compositions import Composition, conjugate_composition, mu
from conjlab.enumeration import rgs_prefixes
from conjlab.noncrossing import find_crossing
from conjlab.partition import _grow, _lazy
from conjlab.separate import _combine

from conftest import source_mutant

compositions_module = importlib.import_module("conjlab.compositions")
noncrossing_module = importlib.import_module("conjlab.noncrossing")
partition_module = importlib.import_module("conjlab.partition")
phi_module = importlib.import_module("conjlab.phi")
separate_module = importlib.import_module("conjlab.separate")
verify_module = importlib.import_module("conjlab.verify")

# Pinned outputs of the benchmark, read-only here.
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def corrupted_reinsert(tau, a, b):
    # Wrong direction: merges the b-elements with their successors, the
    # behaviour of the initiator-side insertion.
    return _combine(tau, a, b, with_succ=True)


def separate_in_ranks(p, st, prof=None):
    # Right on [n]; on a sparse support it reports the stripped elements
    # by rank, not by label.
    rho, a, b = separate_module._separate(p, st, prof)
    rank = {x: r for r, x in enumerate(p.support, 1)}
    return rho, [*map(rank.get, a)], [*map(rank.get, b)]


def reversed_conjugate_composition(c):
    # Right up to reversal, so the involution and length laws still hold.
    return Composition(conjugate_composition(c).parts[::-1])


def mu_off_at_n1(c):
    return mu(c) + (c.n == 1)


def failing(report):
    """{invariant: counterexample} over the failed rows of a report."""
    return {r.invariant: r.counterexample for r in report.results if not r.ok}


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

    def test_every_failing_id_is_a_report_row(self):
        # The report reads failures only under its own row ids, so a
        # check that names an undeclared id would be dropped unseen.
        named = set()
        for node in ast.walk(ast.parse(Path(verify_module.__file__).read_text())):
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["row"]:
                value = node.value
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_fail":
                value = node.args[1]
            else:
                continue
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                named.add(value.value)
        rows = [r.invariant for r in verify_suite(1, 1).results]
        assert len(rows) == len(set(rows)) == 41
        assert named == set(rows)

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
        # verify_suite imports the pool class from concurrent.futures when it runs.
        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            lambda max_workers: InlinePool(built, max_workers),
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
        # A deliberately wrong re-insertion of the trace (merge with
        # successor instead of predecessor) must be detected even at tiny
        # sizes.
        for module in (separate_module, verify_module):
            monkeypatch.setattr(module, "_reinsert", corrupted_reinsert)
        report = verify_suite(n_max=3, comp_n_max=2, jobs=1)
        assert not report.ok
        failure = report.first_failure()
        assert failure is not None
        assert failure.invariant in {
            "phi-trace-agreement",
            "trace-record-inverse",
            "reverse-phase-exactness",
        }
        assert failure.failures >= 1
        assert failing(report) == {
            "phi-trace-agreement": "n=2 p=1 2",
            "reverse-phase-exactness": "n=2 p=1 2 j=1",
        }
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
                {
                    "comp-strip-agreement": "n=3 c=1,2 strip=2,1 flip=1,2",
                    "comp-sorted-palindrome": "n=3 position=1 c=1,2",
                },
            ),
            ("mu", mu_off_at_n1, {"mu-nu-n1-exception": "stats=(1, 1) conj_stats=(1, 1)"}),
        ],
    )
    def test_pooled_tail_failures_match_serial(self, monkeypatch, name, mutant, caught):
        # Composition sweeps and the fixed checks run in workers too; their
        # failures must reach the report exactly as in a one-job run.
        monkeypatch.setattr(verify_module, name, mutant)
        report = verify_suite(n_max=3, comp_n_max=6, jobs=1)
        assert failing(report) == caught
        if multiprocessing.get_start_method() == "fork":
            multi = verify_suite(n_max=3, comp_n_max=6, jobs=3)
            assert multi.to_records() == report.to_records()

    def test_raising_composition_check_is_a_failure(self, monkeypatch, capsys):
        # A composition check that raises fails its row, in the loop and
        # in the tail checks, and the run still reports and exits 3.
        def raises(c):
            raise IndexError(c)

        monkeypatch.setattr(verify_module, "conjugate_composition", raises)
        report = verify_suite(n_max=2, comp_n_max=3, jobs=1)
        assert {r.invariant: (r.failures, r.counterexample) for r in report.results if not r.ok} == {
            "comp-conjugate-involution": (7, "n=1 c=1 raised IndexError"),
            "comp-sorted-palindrome": (3, "n=1 raised IndexError"),
            "mu-nu-n1-exception": (1, "raised IndexError"),
        }
        if multiprocessing.get_start_method() == "fork":
            multi = verify_suite(n_max=2, comp_n_max=3, jobs=3)
            assert multi.to_records() == report.to_records()
        assert main(["verify", "--n-max", "2", "--comp-n-max", "3"]) == 3
        out, err = capsys.readouterr()
        assert out == report.render() + "\n"
        assert err == ""


class TestCounterexampleText:
    def test_built_only_on_failure(self, monkeypatch):
        calls = []
        for name in ("format_partition", "format_composition"):

            def counted(x, real=getattr(verify_module, name), name=name):
                calls.append(name)
                return real(x)

            monkeypatch.setattr(verify_module, name, counted)
        assert verify_suite(n_max=6, comp_n_max=8).ok
        assert calls == []
        # The counters see the text of a failing run.
        monkeypatch.setattr(verify_module, "conjugate_composition", reversed_conjugate_composition)
        assert not verify_suite(n_max=1, comp_n_max=3).ok
        assert "format_composition" in calls


class TestRecordPrimitiveMutants:
    """Mutants of the record-based combine must fail a small verify run."""

    def test_domain_without_set_disjointness(self, monkeypatch):
        # Records that separate makes never repeat an element in both
        # sets, so only the one-element-convention probe sees this one.
        # The domain test of combine_domain_ok and of both combines: b_set
        # may meet a_set, though still not rho.
        mutant = source_mutant(separate_module, "_combine", " or in_b[i]", "")
        for module in (separate_module, verify_module):
            monkeypatch.setattr(module, "_combine", mutant)
        report = verify_suite(n_max=4, comp_n_max=2)
        assert failing(report) == {"one-element-convention": "a=1"}

    def test_combine_neighbour_off_by_one(self, monkeypatch):
        mutant = source_mutant(separate_module, "_combine", "(i + step)", "(i + step + 1)")
        for module in (separate_module, verify_module):
            monkeypatch.setattr(module, "_combine", mutant)
        report = verify_suite(n_max=4, comp_n_max=2)
        assert failing(report)["separate-combine-roundtrip"] == "n=2 p=1 2"
        assert "subset-support-roundtrip" in failing(report)


class TestArrayShard:
    """partition_shard runs its map invariants on growth strings: with the
    object-level maps made to raise, a shard gives the same tallies."""

    OBJECT_MAPS = (
        "phi",
        "phi_inverse",
        "_complement",
        "complement",
        "conjugate",
        "reduce_core",
        "is_noncrossing",
        "kreweras_complement",
        "rotate_partition",
        "find_crossing",
        # The record path runs on its kernels too.
        "separate_is",
        "separate_st",
        "combine_is",
        "combine_st",
        "combine_domain_ok",
        "phi_trace",
    )

    def test_object_maps_stay_off_the_hot_path(self, monkeypatch):
        want = verify_module.partition_shard(10, (0, 1, 0, 2))

        def refuse(*args):
            raise AssertionError("an object-level map ran in partition_shard")

        modules = (verify_module, phi_module, partition_module, noncrossing_module, separate_module)
        for module in modules:
            for name in self.OBJECT_MAPS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        got = verify_module.partition_shard(10, (0, 1, 0, 2))
        assert got["fails"] == want["fails"] == {}
        assert (got["count"], got["nc"], got["dist"]) == (want["count"], want["nc"], want["dist"])
        assert got["image"] == want["image"] and len(got["image"]) == got["count"]

    def test_no_block_is_built(self, monkeypatch):
        # Past the text round trip (n <= 8), the record-based rows and the
        # trace run on views too: the builder of blocks never runs.
        builds = []
        built = vars(SetPartition)["blocks"]
        inner = built.func
        monkeypatch.setattr(built, "func", lambda p: builds.append(p) or inner(p))
        out = verify_module.partition_shard(9, (0, 1, 0, 2))
        assert out["fails"] == {} and out["count"] > 1000
        assert builds == []


class TestCompositionSweepBuildsOnce:
    def test_no_validating_constructor(self, monkeypatch):
        # Every composition of the sweep is one the library made itself.
        def refuse(self, parts):
            raise AssertionError(f"Composition({parts!r}) validated in composition_sweep")

        monkeypatch.setattr(Composition, "__init__", refuse)
        out = verify_module.composition_sweep(8)
        assert (out["count"], out["fails"]) == (128, {})


class TestMapFaultIsAFailure:
    """A faulty map fails invariants in the report; no support check on
    what the sweep derives turns it into a DomainError."""

    @staticmethod
    def patch_relabel(monkeypatch, new):
        # The one relabel kernel, wherever it is imported.
        mutant = source_mutant(partition_module, "_relabel", "g[:0:-1]", new)
        for module in (partition_module, phi_module, verify_module):
            monkeypatch.setattr(module, "_relabel", mutant)

    def test_complement_off_by_one(self, monkeypatch, capsys):
        # Reads rank m - r for r, and the pad for rank m.
        self.patch_relabel(monkeypatch, "g[-2::-1]")
        report = verify_suite(n_max=4, comp_n_max=2)
        assert failing(report) == {
            "complement-involution": "n=2 p=1 - 2",
            "complement-role-swap": "n=2 p=1 - 2",
            "conjugate-involution": "n=2 p=1 - 2 conj(p)=1 2",
            "conjugate-interchange": "n=2 p=1 2",
            "nc-conjugation-involution": "n=2 p=1 2",
        }
        assert main(["verify", "--n-max", "4", "--comp-n-max", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == report.render() + "\n"
        assert err == ""

    def test_zero_part_conjugate_is_a_failure(self, monkeypatch, capsys):
        # The last part one short: the library's own constructor does not
        # validate, so a zero part reaches the checks and fails them.
        mutant = source_mutant(
            compositions_module,
            "conjugate_composition",
            "parts.append(size)\n    return",
            "parts.append(size - 1)\n    return",
        )
        monkeypatch.setattr(verify_module, "conjugate_composition", mutant)
        assert main(["verify", "--n-max", "2", "--comp-n-max", "4"]) == 3
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[-1].startswith("result: FAIL")
        rows = [line.split("counterexample: ") for line in out.splitlines()]
        assert {row[0].split()[1]: row[1] for row in rows if row[0].startswith("[FAIL]")} == {
            "comp-conjugate-involution": "n=1 c=1",
            "comp-strip-agreement": "n=1 c=1 strip=1 flip=0",
            "comp-mu-nu-interchange": "n=2 c=2",
            "comp-sorted-palindrome": "n=1 position=0 c=1",
            "mu-nu-n1-exception": "stats=(0, 1) conj_stats=(0, 2)",
        }

    def test_identity_relabel_fails_its_definition(self, monkeypatch):
        # An involution, so only the comparison with the reversed growth
        # string fails complement-involution.
        self.patch_relabel(monkeypatch, "g[1:]")
        assert failing(verify_suite(n_max=4, comp_n_max=2)) == {
            "complement-involution": "n=3 p=1 2 - 3",
            "complement-role-swap": "n=3 p=1 2 - 3",
            "conjugate-involution": "n=3 p=1 2 - 3 conj(p)=1 - 2 3",
            "nc-conjugation-involution": "n=3 p=1 2 - 3",
        }


    def test_dropped_rank_is_a_failure(self, monkeypatch, capsys):
        # A transfer that loses its last root: the result's builder gets
        # ranks it cannot place and raises.  The rows whose checks raise
        # fail, naming the partition and the exception type, and the run
        # still reports and exits 3.
        mutant = source_mutant(phi_module, "_transfer", "    return link\n", "    return link[:-1]\n")
        monkeypatch.setattr(phi_module, "_transfer", mutant)
        report = verify_suite(n_max=4, comp_n_max=2)
        caught = failing(report)
        assert caught.pop("sparse-random-spot").endswith(" raised IndexError")
        assert caught == {
            "phi-support-preserved": "n=1 p=1",
            "phi-statistic-interchange": "n=1 p=1 phi(p)=",
            "phi-inverse-identity": "n=1 p=1",
            "phi-injective-image": "n=2 image=1 of 2",
            "phi-trace-agreement": "n=1 p=1",
            "conjugate-involution": "n=1 p=1 conj(p)=",
            "conjugate-interchange": "n=1 p=1",
            "nc-graphical-phi": "n=1 p=1 gaps=1",
            "nc-graphical-conjugate": "n=1 p=1",
            "nc-conjugation-involution": "n=1 p=1",
            "subset-support-roundtrip": "support=(1,) p=1",
            "one-element-convention": "a=1",
        }
        # In a shard the check that raised fails, and the counts stay whole.
        shard = verify_module.partition_shard(3)
        assert shard["fails"]["phi-inverse-identity"] == [4, "n=3 p=1 2 3 raised IndexError"]
        assert (shard["count"], shard["nc"]) == (5, 5)
        assert main(["verify", "--n-max", "4", "--comp-n-max", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == report.render() + "\n"
        assert err == ""


# The first failing sparse trial of verify_suite: the same for every
# mutant of a kernel that phi runs.
SPARSE_SPOT = (
    "support=(2, 4, 7, 12, 13, 16, 18, 19, 22, 23, 25, 26, 31, 32, 37, 38, 39, 40, 42, 43, "
    "45, 48, 51, 52, 53, 54, 55, 56, 58, 59, 60) p=2 12 16 18 19 26 51 - 4 7 13 22 32 40 54 "
    "- 23 25 31 55 - 37 39 42 43 45 - 38 58 59 - 48 53 56 60 - 52"
)


@pytest.mark.parametrize(
    "modules, name, old, new, caught",
    [
        pytest.param(
            (phi_module,),
            "_transfer",
            "link[x] = rep.setdefault(bid[x], x)",
            "link[x] = x",
            {
                "phi-statistic-interchange": "n=4 p=1 3 - 2 4 phi(p)=1 - 2 - 3 - 4",
                "phi-inverse-identity": "n=4 p=1 3 - 2 4",
                "phi-injective-image": "n=4 image=14 of 15",
                "phi-trace-agreement": "n=4 p=1 3 - 2 4",
                "conjugate-involution": "n=4 p=1 3 - 2 4 conj(p)=1 - 2 - 3 - 4",
                "conjugate-interchange": "n=4 p=1 3 - 2 4",
                "subset-support-roundtrip": "support=(1, 2, 3, 4) p=1 3 - 2 4",
                "sparse-random-spot": SPARSE_SPOT,
            },
            id="missing-core-merge",
        ),
        pytest.param(
            (phi_module,),
            "_strip",
            "prev = live[-1]",
            "prev = live[0]",
            {
                "phi-statistic-interchange": "n=3 p=1 - 2 3 phi(p)=1 - 2 - 3",
                "phi-inverse-identity": "n=3 p=1 3 - 2",
                "phi-injective-image": "n=3 image=4 of 5",
                "phi-trace-agreement": "n=3 p=1 - 2 3",
                "conjugate-involution": "n=3 p=1 3 - 2 conj(p)=1 - 2 3",
                "conjugate-interchange": "n=3 p=1 - 2 3",
                "nc-core-characterization": "n=4 p=1 3 - 2 4 core=",
                "nc-graphical-phi": "n=3 p=1 - 2 3 gaps=1 3 - 2",
                "nc-graphical-conjugate": "n=3 p=1 - 2 3",
                "nc-conjugation-involution": "n=3 p=1 3 - 2",
                "subset-support-roundtrip": "support=(1, 2, 3) p=1 3 - 2",
                "sparse-random-spot": SPARSE_SPOT,
            },
            id="off-by-one-cyclic-neighbour",
        ),
        pytest.param(
            (phi_module,),
            "_strip",
            "ends.append(prev)",
            "ends.append(x)",
            {
                "phi-statistic-interchange": "n=4 p=1 2 - 3 4 phi(p)=1 3 - 2 - 4",
                "phi-inverse-identity": "n=4 p=1 2 - 3 4",
                "phi-injective-image": "n=5 image=47 of 52",
                "phi-trace-agreement": "n=4 p=1 2 - 3 4",
                "conjugate-involution": "n=4 p=1 2 - 3 4 conj(p)=1 - 2 4 - 3",
                "conjugate-interchange": "n=5 p=1 2 - 3 4 - 5",
                "nc-graphical-phi": "n=4 p=1 2 - 3 4 gaps=1 - 2 4 - 3",
                "nc-graphical-conjugate": "n=4 p=1 2 - 3 4",
                "nc-conjugation-involution": "n=4 p=1 2 - 3 4",
                "subset-support-roundtrip": "support=(1, 2, 3, 4) p=1 2 - 3 4",
                "sparse-random-spot": SPARSE_SPOT,
            },
            id="wrong-kill-set",
        ),
        pytest.param(
            (noncrossing_module, verify_module),
            "_scan",
            "        if not left[b]:\n"
            "            stack.pop()\n"
            "        if pockets is not None:\n"
            "            pockets.append(last[stack[-1]] if stack else 0)\n",
            "        if pockets is not None:\n"
            "            pockets.append(last[stack[-1]] if stack else 0)\n"
            "        if not left[b]:\n"
            "            stack.pop()\n",
            {
                "nc-graphical-phi": "n=2 p=1 - 2 gaps=1 - 2",
                "nc-graphical-conjugate": "n=2 p=1 - 2",
                "kreweras-double-rotation": "n=2 p=1 2",
                "kreweras-union-maximal": "n=2 p=1 - 2 gap blocks (2,) and (4,) merge without crossing",
            },
            id="block-popped-late",
        ),
    ],
)
def test_kernel_mutant_is_caught(monkeypatch, capsys, modules, name, old, new, caught):
    # Each mutant of a kernel fails its pinned rows by n = 5, and the run
    # reports them and exits 3.
    mutant = source_mutant(modules[0], name, old, new)
    for module in modules:
        monkeypatch.setattr(module, name, mutant)
    report = verify_suite(n_max=5, comp_n_max=2)
    assert failing(report) == caught
    assert main(["verify", "--n-max", "5", "--comp-n-max", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == report.render() + "\n"
    assert out.splitlines()[-1].startswith("result: FAIL")
    assert err == ""


TRACE_ROWS = ("phi-trace-agreement", "trace-record-inverse", "reverse-phase-exactness")


def trace_fails(n, prefix=()):
    """The trace rows of partition_shard(n, prefix), computed as one
    phi_trace per partition with every row checked by verify's bindings
    of the kernels: the per-partition loop that the shard's cache
    replaces."""
    v = verify_module

    def separates(rho, a_set, b_set, st, got):
        """Whether got separates into the record (rho, a_set, b_set)."""
        if got is None:
            return False
        back, a, b = v._separate(got, st)
        return (back, set(a), set(b)) == (rho, a_set, b_set)

    fails = {}
    for p in v.iter_set_partitions(n, prefix):
        text = f"n={n} p={v.format_partition(p)}"
        trace = separate_module.phi_trace(p)
        if trace.result != phi_module.phi(p):
            v._fail(fails, "phi-trace-agreement", text)
        rows = trace.reverse_rows  # j = k .. 0
        fwd = trace.forward_rows
        for j, rho, a_set, b_set in fwd:
            if not separates(rho, a_set, b_set, False, v._combine(rho, a_set, b_set, True)):
                v._fail(fails, "trace-record-inverse", f"{text} j={j}")
                break
        for idx in range(len(rows) - 1):
            tau_j, tau_prev, j = rows[idx].tau, rows[idx + 1].tau, rows[idx].j
            if not separates(tau_j, *fwd[j - 1][2:], True, tau_prev):
                v._fail(fails, "reverse-phase-exactness", f"{text} j={j}")
                break
    return fails


def shard_trace_fails(n, prefix=()):
    fails = verify_module.partition_shard(n, prefix)["fails"]
    return {inv: fail for inv, fail in fails.items() if inv in TRACE_ROWS}


class TestTraceTailCache:
    """partition_shard checks the trace of each strip remainder once per
    shard and shifts its verdicts by one step: the same failures, counts
    and counterexamples as checking every phi_trace(p) row by row."""

    SHARDS = [(n, ()) for n in range(1, 8)] + [(8, prefix) for prefix in rgs_prefixes(8, 4)]

    @staticmethod
    def mutants():
        """(name, [(module, binding, replacement)]) for each mutant."""
        both = (separate_module, verify_module)
        off_by_one = source_mutant(separate_module, "_combine", "(i + step)", "(i + step + 1)")
        # separate_st leaves the singletons in rho.
        keeps_singletons = source_mutant(
            separate_module, "_separate", "[0, *a, *b]", "([0, *b] if st else [0, *a, *b])"
        )
        return [
            ("_reinsert", [(m, "_reinsert", corrupted_reinsert) for m in both]),
            ("_combine", [(m, "_combine", off_by_one) for m in both]),
            ("_separate", [(m, "_separate", keeps_singletons) for m in both]),
            # In verify only: wrong on the sparse rows j >= 2 alone.
            ("_separate in ranks", [(verify_module, "_separate", separate_in_ranks)]),
        ]

    def test_unmutated_shards_pass(self):
        for n, prefix in self.SHARDS:
            assert shard_trace_fails(n, prefix) == trace_fails(n, prefix) == {}

    def test_mutants_fail_as_the_per_partition_loop(self, monkeypatch):
        deepest = Counter()  # the largest j of a first counterexample, per row
        for name, patches in self.mutants():
            with monkeypatch.context() as patch:
                for module, binding, new in patches:
                    patch.setattr(module, binding, new)
                caught = False
                for n, prefix in self.SHARDS:
                    got = shard_trace_fails(n, prefix)
                    assert got == trace_fails(n, prefix), (name, n, prefix)
                    caught = caught or bool(got)
                    for inv, (_, ce) in got.items():
                        if " j=" in ce:
                            deepest[inv] = max(deepest[inv], int(ce.rsplit(" j=", 1)[1]))
                assert caught, name
        # A first counterexample beyond row 1 comes from a cached tail.
        assert min(deepest["trace-record-inverse"], deepest["reverse-phase-exactness"]) >= 2

    def test_each_remainder_is_traced_once(self, monkeypatch):
        v = verify_module
        calls = {"parts": [], "_separate": [], "_combine": [], "_trace": []}

        def wrap(name, real):
            def counted(*args):
                out = real(*args)
                calls[name].append((args, out))
                return out

            monkeypatch.setattr(v, name, counted)

        def enumerate_parts(*args, real=v.iter_set_partitions):
            for p in real(*args):
                calls["parts"].append(p)
                yield p

        for name in ("_separate", "_combine", "_trace"):
            wrap(name, getattr(v, name))
        monkeypatch.setattr(v, "iter_set_partitions", enumerate_parts)
        for n, prefix in [(7, ()), (8, (0, 1, 0, 2)), (9, (0, 1, 2, 3))]:
            for log in calls.values():
                log.clear()
            v.partition_shard(n, prefix)
            parts = calls["parts"]
            ids = {id(p) for p in parts}
            assert len(ids) == len(parts) == len(set(parts))
            # The separate_is step once per partition on p itself.
            firsts = [(args, out) for args, out in calls["_separate"] if id(args[0]) in ids]
            firsts = [(args[0], out) for args, out in firsts if not args[1]]
            assert Counter(id(p) for p, _ in firsts) == Counter(ids)
            # Its combine_is at most once per partition.
            rhos = {id(step[0]) for _, step in firsts}
            on_rho = Counter(id(args[0]) for args, _ in calls["_combine"] if args[3])
            assert max(on_rho[r] for r in rhos) == 1
            # The trace once per distinct remainder of a first step.
            traced = [args[0].blocks for args, _ in calls["_trace"]]
            steps = map(separate_module.separate_is, parts)
            remainders = {r.rho.blocks for r in steps if r.a_set or r.b_set}
            assert len(traced) == len(remainders) < len(parts)
            assert set(traced) == remainders

    def test_no_stale_combine_is_reuse(self, monkeypatch):
        # With the ST-direction combine refusing every rho of two blocks, a
        # partition whose ST record has two blocks skips the round trip,
        # and one whose IS record has two blocks fails the role symmetry.
        # Each still checks its trace against its own combine_is: reusing
        # another partition's would fail trace-record-inverse.
        real = verify_module._combine

        def refuses_two_blocks(rho, a, b, with_succ):
            return None if not with_succ and len(rho.blocks) == 2 else real(rho, a, b, with_succ)

        monkeypatch.setattr(verify_module, "_combine", refuses_two_blocks)
        report = verify_suite(7, 2)
        want = {}
        for n in range(1, 8):
            for p in verify_module.iter_set_partitions(n):
                for inv, separate in (
                    ("separate-records-in-domain", separate_module.separate_st),
                    ("combine-domain-role-symmetry", separate_module.separate_is),
                ):
                    if len(separate(p).rho.blocks) == 2:
                        want.setdefault(inv, [0, f"n={n} p={p}"])[0] += 1
        assert want["separate-records-in-domain"] == [704, "n=4 p=1 2 - 3 4"]
        assert {r.invariant: [r.failures, r.counterexample] for r in report.results if not r.ok} == want


def object_union_maximal(p, gaps):
    """The interleaved-union check on SetPartitions, as verify ran it
    before it moved to growth strings: p on odd points 2i-1, the gap
    partition on even points 2i."""
    base = [tuple(2 * x - 1 for x in blk) for blk in p.blocks]
    kblocks = [tuple(2 * g for g in blk) for blk in gaps.blocks]
    union = SetPartition(tuple(sorted(base + kblocks)))
    if find_crossing(union) is not None:
        return False, "union crosses"
    for i in range(len(kblocks)):
        for j in range(i + 1, len(kblocks)):
            merged = tuple(sorted(kblocks[i] + kblocks[j]))
            rest = [b for t, b in enumerate(kblocks) if t != i and t != j]
            cand = SetPartition(tuple(sorted(base + rest + [merged])))
            if find_crossing(cand) is None:
                return False, (
                    f"gap blocks {kblocks[i]} and {kblocks[j]} merge without crossing"
                )
    return True, ""


class TestUnionMaximal:
    """kreweras-union-maximal scans the interleaved growth string: the same
    verdicts and texts as the object version, and a fault it catches."""

    def test_matches_the_object_version(self, union_inputs):
        verdicts = Counter()
        for p, kg, ksizes in union_inputs:
            got = verify_module._union_maximal(p._view[2], p._sizes, kg, ksizes)
            assert got == object_union_maximal(p, _lazy(kg, ksizes)), (str(p), kg)
            verdicts[got[1].split(" ", 1)[0]] += 1
        # Complements pass; split and merged gap blocks fail both ways.
        assert set(verdicts) == {"", "union", "gap"}

    def test_split_gap_block_fails(self, monkeypatch):
        real = verify_module._kreweras

        def split_last(bid, sizes):
            # Rank m leaves its gap block for a block of its own.
            kg, _ = real(bid, sizes)
            return _grow([*kg[1:-1], len(kg) - 1])

        monkeypatch.setattr(verify_module, "_kreweras", split_last)
        fails = failing(verify_suite(5, 2))
        assert fails["kreweras-union-maximal"] == (
            "n=2 p=1 - 2 gap blocks (2,) and (4,) merge without crossing"
        )
