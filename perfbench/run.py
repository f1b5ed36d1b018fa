"""conjlab benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it uses the sources under src/ directly and
needs nothing beyond the standard library.  Workloads and metrics are
listed, with the reason for each workload, in BENCHMARK.json.

With --trace 0 the run repeats passes of the workload for about --seconds
(at least two passes), setting up (importing conjlab afresh and making the
inputs) a few times before each pass, and prints every end-to-end metric.
Every time is scaled to a reference host speed, measured by a fixed kernel
run between the ops (see calibrate.py), because the shared host's own
speed drifts by up to about 1.7x in phases of seconds to minutes.  wall_s
and cpu_s are medians over the passes of the sum of a pass's scaled op
times; op_p50_ms and op_p90_ms are percentiles, over the distinct ops of
a pass (a batch of 1,000 partitions, a large-n input, a CLI command line,
the verify call), of each op's median scaled time; setup_s is the median
of its scaled repetitions.  The raw times go to the result file too.

With --trace 1 it alternates an untraced pass, a traced pass and the
workload's probes for as long, and prints every per-layer metric; the
spans go to perfbench/out/.  Every output is checked; the last line of
stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted and failed count checks.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the benchmark cannot run
(for example without the conjlab sources), in which case no result is
printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

from calibrate import MIN_SAMPLES, Clock
from spans import Recorder, Spans, Tracer
from workloads import ROOT, WORKLOADS, Tally

OUT = ROOT / "perfbench" / "out"
SETUPS_PER_PASS = 3


def percentile(vals: list[float], q: float) -> float:
    """Linear interpolation between closest ranks of sorted values (q in [0, 1])."""
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def another(done: int, start: float, seconds: float, minimum: int) -> bool:
    """Whether to start another pass: always until `minimum` are done, then
    only while one more of average length ends within `seconds`."""
    elapsed = perf_counter() - start
    return done < minimum or elapsed * (done + 1) / done <= seconds


def setup(workload, seed: int):
    """Import the whole package afresh and make the inputs; returns when
    that started, the seconds it took, and the inputs.  The modules dropped
    for the fresh import are cyclic garbage; they are collected after the
    timing, so that no pass pays for an earlier set-up."""
    for mod in [m for m in sys.modules if m == "conjlab" or m.startswith("conjlab.")]:
        del sys.modules[mod]
    t0 = perf_counter()
    importlib.import_module("conjlab.cli")
    inputs = workload.make_inputs(seed)
    secs = perf_counter() - t0
    gc.collect()
    return t0, secs, inputs


def untraced_run(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    clock = Clock(during=workload.calibrate_during)
    clock.sample(MIN_SAMPLES)
    setups: list[tuple[float, float]] = []
    passes: list[tuple[int, Recorder]] = []
    start = perf_counter()
    try:
        while another(len(passes), start, seconds, minimum=2):
            # Set-up is repeated before every pass, so that its median
            # samples the whole run and not one moment of it.
            for _ in range(SETUPS_PER_PASS):
                clock.sample()
                t0, secs, inputs = setup(workload, seed)
                clock.sample()
                setups.append((t0, secs))
            rec = Recorder(clock)
            passes.append((workload.run_pass(inputs, tally, rec), rec))
    finally:
        clock.close()

    # Every time is scaled to the reference speed (see calibrate.py), once
    # the run is over and every op has kernel samples on both sides.
    walls, cpus, scaled_ops = [], [], []
    for _, rec in passes:
        scales = [clock.scale(t0, t0 + t) for t0, t in zip(rec.starts, rec.ops)]
        scaled = [t * k for t, k in zip(rec.ops, scales)]
        scaled_ops.append(scaled)
        walls.append(sum(scaled))
        cpus.append(sum(c * k for c, k in zip(rec.cpus, scales)))
    # Ops come in the same order on every pass: each op's median over the
    # passes, then percentiles over the distinct ops.
    ops = sorted(map(median, zip(*scaled_ops)))
    wall = median(walls)
    metrics = {
        "setup_s": median(secs * clock.scale(t0, t0 + secs) for t0, secs in setups),
        "wall_s": wall,
        "items_per_s": passes[0][0] / wall,
        "op_p50_ms": percentile(ops, 0.5) * 1e3,
        "op_p90_ms": percentile(ops, 0.9) * 1e3,
        "cpu_s": median(cpus),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "passes": len(passes),
        "ops": len(ops),
        "setups": len(setups),
        "scaled_pass_walls": walls,
        "raw_pass_walls": [sum(rec.ops) for _, rec in passes],
        "raw_setup_s": median(secs for _, secs in setups),
        "kernel_samples": len(clock.secs),
        "kernel_median_s": median(clock.secs),
        "gc_collections": [g["collections"] for g in gc.get_stats()],
    }
    return metrics, info


def traced_run(workload, inputs, seconds: float, tally: Tally, spans: Spans) -> tuple[dict, dict]:
    pass_id = spans.name_id("harness.pass")
    base_walls, traced_walls = [], []
    probes: dict[str, list] = defaultdict(list)
    start = perf_counter()
    while another(len(traced_walls), start, seconds, minimum=1):
        t0 = perf_counter()
        workload.traced_pass(inputs, tally, Recorder())
        base_walls.append(perf_counter() - t0)
        root = spans.open(pass_id)
        workload.traced_pass(inputs, tally, Tracer(spans, root))
        traced_walls.append(spans.close(root))
        for key, value in workload.probe(inputs, tally, spans).items():
            probes[key].append(value)
    iterations = len(traced_walls)

    errors = spans.nesting_errors()
    tally.count(1, 1 if errors else 0, "span nesting: " + "; ".join(errors[:3]))

    selfs = spans.self_times()
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    shard_max = 0.0
    for i, nid in enumerate(spans.name):
        name = spans.names[nid]
        if name.startswith("harness."):
            continue
        layer, _, family = name.partition("@")
        calls[layer] += 1
        busy[layer] += selfs[i]
        if family:
            busy[f"{layer}.{family}"] += selfs[i]
        if layer.startswith("verify.partition_shard."):
            calls["verify.partition_shard"] += 1
            shard_max = max(shard_max, spans.end[i] - spans.start[i])

    metrics: dict[str, float] = {}
    for layer, n in calls.items():
        metrics[f"{layer}.calls"] = n / iterations
    for layer, t in busy.items():
        metrics[f"{layer}.busy_s"] = t / iterations
    metrics["phi.rebuild_s"] = (busy["phi.phi"] - busy["phi.reduce_core"]) / iterations
    metrics["verify.partition_shard.max_s"] = shard_max
    # Everything verify_suite does outside the partition shards.
    metrics["verify.serial_tail_s"] = (
        busy["verify.verify_suite"] + busy["verify.composition_sweep"]
    ) / iterations
    for key, values in probes.items():
        metrics[key] = median(values)
    metrics["trace.overhead_s"] = median(traced_walls) - median(base_walls)

    # A layer the workload should reach but that recorded nothing means a
    # wrapper missed its calls: the figure would read 0, so it is a failed check.
    for name in workload.reaches:
        tally.check(metrics.get(name, 0.0) > 0, f"traced run has no {name}")
    return metrics, {"iterations": iterations, "spans": len(spans)}


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(ROOT / "src"),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _tree_sha256(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if not (ROOT / "src" / "conjlab" / "__init__.py").is_file():
        print(f"run.py: no conjlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    tally = Tally()
    spans = Spans()
    try:
        if args.trace:
            _, _, inputs = setup(workload, args.seed)
            found, info = traced_run(workload, inputs, args.seconds, tally, spans)
        else:
            found, info = untraced_run(workload, args.seed, args.seconds, tally)
    except Exception as exc:  # the program under test crashed: a failed check
        traceback.print_exc()
        tally.count(1, 1, f"run raised {exc!r}")
        found, info = {}, {"error": repr(exc)}
    if args.trace:
        spans.write(OUT / f"spans-{workload.name}")

    metrics = {
        name: {"value": float(found.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(args.seed),
        "run": info,
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "failures": tally.notes,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for note in tally.notes:
        print(f"run.py: check failed: {note}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "environment", "run", "fail_ratio")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
