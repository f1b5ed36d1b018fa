"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run print
exactly the metrics BENCHMARK.json names, each with its unit, and pass
every check; that a wrong expected output is counted as a failed check and
gives a nonzero exit; and that a traced run whose layer wrappers record
nothing fails too.  It checks that every per-layer metric is one that a
workload's traced run must report nonzero (its `reaches`), and that
without the conjlab sources the benchmark exits nonzero and prints no
result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# One deliberately wrong expectation per workload, applied before main().
MUTATIONS = {
    "exhaustive-n10": "workloads.BELL[4] += 1",
    "verify-n9-j2": "workloads.EXPECTED['verify']['tiny']['sha256'] = '0' * 64",
    "large-n": (
        "workloads.GENERATORS['deep'] = lambda SP, rng, n: "
        "SP(((1, 3), (2, 4)) + tuple((x,) for x in range(5, n + 1)))"
    ),
    "cli-oneshot": "workloads.EXPECTED['cli'][0]['stdout'] += 'x'",
}

# Layer wrappers that pass every call straight through, recording nothing.
UNWRAPPED = "spans.Tracer.wrap = lambda self, name, fn: fn"


def bench_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]


def run(argv: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=300, check=False,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run(["perfbench/run.py", *bench_args(workload, trace)])
            res = last_json(out)
            expect(rc == 0 and res is not None and res["correct"], f"{workload} trace={trace}: runs clean")
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace}: result keys")
            expect(res["attempted"] >= 1 and res["failed"] == 0, f"{workload} trace={trace}: checks counted")
            want = {m["name"]: m["unit"] for m in BENCH[kind]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: every {kind} metric with its unit")
            expect(
                all(isinstance(v.get("value"), float) for v in res["metrics"].values()),
                f"{workload} trace={trace}: numeric values",
            )

        cases = [(MUTATIONS[workload], 0, "a wrong expected output")]
        if workload != "cli-oneshot":  # its layer figures come from probes
            cases.append((UNWRAPPED, 1, "a traced run whose layers record nothing"))
        for mutation, trace, what in cases:
            code = "\n".join([
                "import sys",
                "sys.path.insert(0, 'perfbench')",
                "import run, spans, workloads",
                mutation,
                f"sys.exit(run.main({bench_args(workload, trace)!r}))",
            ])
            rc, out = run(["-c", code])
            res = last_json(out)
            expect(
                rc != 0 and res is not None and not res["correct"] and res["failed"] >= 1,
                f"{workload}: {what} is a failed check and a nonzero exit",
            )

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    reached = {name for cls in WORKLOADS.values() for name in cls(tiny=False).reaches}
    unchecked = sorted({m["name"] for m in BENCH["per_layer"]} - reached - {"trace.overhead_s"})
    expect(not unchecked, f"every per-layer metric is checked nonzero (not: {unchecked})")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    rc, out = run(["perfbench/run.py", *bench_args("large-n", 0)], cwd=bare)
    shutil.rmtree(bare)
    expect(rc != 0 and not out.strip(), "without the sources: nonzero exit, no result")

    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
