"""The benchmark's workloads.

Each workload makes its inputs from the seed in `make_inputs`, and runs
them in passes.  A pass is one fixed unit of work: the whole n <= 10 sweep,
one `conjlab verify` call, every large-n input once, or the whole CLI mix
once.  A pass is written once, against a recorder (spans.Recorder for the
untraced passes that end-to-end metrics come from, spans.Tracer for the
traced run), so the traced and untraced passes do the same work and the
same checks.  `traced_pass` is `run_pass` except for verify, whose traced
pass runs the suite serially and in-process.  `probe` measures what the
pass itself cannot show, once per traced iteration.

Every library call goes through `conjlab` as imported at set-up time;
nothing here imports it at module level, because set-up re-imports it.

Which end-to-end metric each per-layer metric should move, and where:
  enumeration.iter_set_partitions          items_per_s on exhaustive-n10
  partition.adjacency_profile, .complement items_per_s on exhaustive-n10
  phi.phi / phi_inverse / conjugate        items_per_s on exhaustive-n10,
                                           op_p90_ms on large-n (deep tail)
  phi.reduce_core, phi.rebuild_s,
  phi.stripped_elems, phi.core_elems       op_p90_ms on large-n
  noncrossing.is_noncrossing,
  noncrossing.kreweras_complement          op_p50_ms on large-n
  verify.*                                 wall_s on verify-n9-j2
  cli.*                                    op_p50_ms on cli-oneshot, setup_s
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import children_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

# Bell numbers B(0..10).
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


class Tally:
    """Checks attempted and failed; the first few failures are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 10:
            self.notes.append(f"{what} ({failed} of {attempted})")


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_cli(argv, env) -> tuple[int, bytes, float]:
    """One `python -m conjlab` call; returns (exit code, stdout, seconds)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "conjlab", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return proc.returncode, proc.stdout, perf_counter() - t0


def _calls_and_busy(*layers: str) -> tuple[str, ...]:
    return tuple(f"{layer}.{stat}" for layer in layers for stat in ("calls", "busy_s"))


class Workload:
    name = ""
    # Per-layer metrics the traced run of this workload must report as
    # nonzero; a layer that records no spans is a failed check.
    reaches: tuple[str, ...] = ()
    # Whether the host speed is sampled during each op rather than
    # between ops (see calibrate.Clock).
    calibrate_during = False

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny

    def make_inputs(self, seed: int):
        raise NotImplementedError

    def run_pass(self, inputs, tally: Tally, rec) -> int:
        """One pass, timed per op by `rec` (a spans.Recorder or Tracer);
        returns the items it did.  Ops come in the same order on every
        pass."""
        raise NotImplementedError

    def traced_pass(self, inputs, tally: Tally, rec) -> None:
        """The pass the traced run measures, with `rec` a Tracer, and
        with a plain Recorder for its untraced twin."""
        self.run_pass(inputs, tally, rec)

    def probe(self, inputs, tally: Tally, spans) -> dict[str, float]:
        return {}


# --------------------------------------------------------------------------
# exhaustive-n10: acceptance criterion 4, in one process.


class Exhaustive(Workload):
    """All partitions of [n], n <= 10: phi, both profiles, the image set
    (bijectivity) and the complement pairing (involution).  The sweep is
    exhaustive, so the seed chooses nothing here.  An op is a batch of
    BATCH consecutive partitions: one partition takes about 40 us, and its
    90th percentile swung by 30% from run to run when timed on its own."""

    name = "exhaustive-n10"
    BATCH = 1000
    reaches = _calls_and_busy(
        "enumeration.iter_set_partitions",
        "partition.adjacency_profile",
        "partition.complement",
        "phi.phi",
        "phi.reduce_core",
    ) + ("phi.rebuild_s", "phi.stripped_elems", "phi.core_elems")

    def make_inputs(self, seed: int):
        return range(1, (6 if self.tiny else 10) + 1)

    def run_pass(self, ns, tally: Tally, rec) -> int:
        from conjlab.enumeration import iter_set_partitions
        from conjlab import partition
        from conjlab.phi import phi

        phi = rec.wrap("phi.phi", phi)
        adjacency_profile = rec.wrap("partition.adjacency_profile", partition.adjacency_profile)
        complement = rec.wrap("partition.complement", partition.complement)
        items = 0
        rec.begin(0)
        for n in ns:
            image: set = set()
            pairs: dict = {}
            count = bad = 0
            for p in rec.wrap_iter("enumeration.iter_set_partitions", iter_set_partitions(n)):
                count += 1
                q = phi(p)
                prof = adjacency_profile(p)
                qprof = adjacency_profile(q)
                if qprof.singletons != prof.initiators or qprof.terminators != prof.singletons:
                    bad += 1
                image.add(q.blocks)
                pairs[p.blocks] = complement(q, n).blocks
                if (items + count) % self.BATCH == 0:
                    rec.end()
                    rec.begin((items + count) // self.BATCH)
            _check_sweep(tally, n, count, bad, image, pairs)
            items += count
        rec.end()  # the last, partial batch
        return items

    def probe(self, ns, tally: Tally, spans) -> dict[str, float]:
        from conjlab.enumeration import iter_set_partitions

        return _probe_reduce_core(
            spans, ((n, p) for n in ns for p in iter_set_partitions(n))
        )


def _check_sweep(tally: Tally, n: int, count: int, bad: int, image: set, pairs: dict) -> None:
    tally.count(count, bad, f"n={n}: phi interchanges singletons and initiators")
    tally.check(count == BELL[n], f"n={n}: {count} partitions, Bell number {BELL[n]}")
    tally.check(len(image) == count, f"n={n}: phi image has {len(image)} of {count}")
    unpaired = sum(1 for blocks, conj in pairs.items() if pairs.get(conj) != blocks)
    tally.count(len(pairs), unpaired, f"n={n}: conjugate is an involution")


def _probe_reduce_core(spans, inputs) -> dict[str, float]:
    """reduce_core (the strip phase of phi alone) on every input, under its
    own root span; also counts the elements stripped and left in the core."""
    from conjlab.phi import reduce_core

    probe = spans.open(spans.name_id("harness.probe"))
    rc_id = spans.name_id("phi.reduce_core")
    stripped = core_elems = 0
    for size, p in inputs:
        t0 = perf_counter()
        core = reduce_core(p)
        spans.add(rc_id, t0, perf_counter(), probe, -1)
        left = sum(len(blk) for blk in core.blocks)
        core_elems += left
        stripped += size - left
    spans.close(probe)
    return {"phi.stripped_elems": stripped, "phi.core_elems": core_elems}


# --------------------------------------------------------------------------
# large-n: seeded inputs of size 200..2000 in three families.

FAMILIES = ("shallow", "noncrossing", "deep")


def _canonical(SetPartition, blocks):
    return SetPartition(tuple(sorted(tuple(blk) for blk in blocks if blk)))


def gen_shallow(SetPartition, rng: random.Random, n: int):
    """n elements drawn from [4n], dealt into n/4 blocks at random: almost
    no singletons or adjacencies, so phi strips a step or two."""
    support = sorted(rng.sample(range(1, 4 * n + 1), n))
    blocks: list[list[int]] = [[] for _ in range(max(2, n // 4))]
    for x in support:
        blocks[rng.randrange(len(blocks))].append(x)
    return _canonical(SetPartition, blocks)


def gen_noncrossing(SetPartition, rng: random.Random, n: int):
    """A noncrossing partition of [n] grown left to right: each element
    closes some open blocks, then joins the innermost open block or opens
    a new one, so blocks always nest."""
    stack: list[list[int]] = []
    blocks: list[list[int]] = []
    for x in range(1, n + 1):
        while stack and rng.random() < 0.3:
            stack.pop()
        if stack and rng.random() < 0.6:
            stack[-1].append(x)
        else:
            blk = [x]
            blocks.append(blk)
            stack.append(blk)
    return _canonical(SetPartition, blocks)


# Level shapes of the deep family and their fixed shares (out of 20).
DEEP_SHAPES = (("pair", 12), ("left", 3), ("right", 3), ("single", 2))


def gen_deep(SetPartition, rng: random.Random, n: int):
    """A rainbow {i, n+1-i} with triples {i, i+1, j} / {i, j-1, j} and
    singletons mixed in at fixed shares, in seeded order: noncrossing and
    nested about n/2.2 deep, so phi strips one level per step.  The fixed
    shares keep the cost of an input of size n nearly the same for every
    seed."""
    rounds = n // 44 + 1  # 20 levels cover 44 elements
    shapes = [shape for shape, share in DEEP_SHAPES for _ in range(share * rounds)]
    rng.shuffle(shapes)
    blocks = []
    lo, hi = 1, n
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
    return _canonical(SetPartition, blocks)


GENERATORS = {"shallow": gen_shallow, "noncrossing": gen_noncrossing, "deep": gen_deep}


class LargeN(Workload):
    """One op checks one input: phi_inverse(phi(p)) == p and the
    interchange; on [n] also the conjugate involution, and on the
    noncrossing families is_noncrossing and Kreweras == phi.  Sizes are a
    fixed grid so that seeds change structure, not cost."""

    name = "large-n"
    reaches = _calls_and_busy(
        "phi.phi_inverse",
        "phi.conjugate",
        "noncrossing.is_noncrossing",
        "noncrossing.kreweras_complement",
    ) + tuple(
        f"phi.{fn}.{fam}.busy_s"
        for fam in FAMILIES
        for fn in ("phi", "phi_inverse") + (("conjugate",) if fam != "shallow" else ())
    )

    def make_inputs(self, seed: int):
        from conjlab.partition import SetPartition

        sizes = (8, 16, 24) if self.tiny else tuple(range(200, 2001, 100))
        rng = random.Random(seed)
        return [
            (fam, n, GENERATORS[fam](SetPartition, rng, n))
            for n in sizes
            for fam in FAMILIES
        ]

    def run_pass(self, inputs, tally: Tally, rec) -> int:
        from conjlab import noncrossing, partition
        from conjlab.phi import conjugate, phi, phi_inverse

        phi = rec.wrap("phi.phi", phi)
        phi_inverse = rec.wrap("phi.phi_inverse", phi_inverse)
        conjugate = rec.wrap("phi.conjugate", conjugate)
        adjacency_profile = rec.wrap("partition.adjacency_profile", partition.adjacency_profile)
        is_noncrossing = rec.wrap("noncrossing.is_noncrossing", noncrossing.is_noncrossing)
        kreweras = rec.wrap("noncrossing.kreweras_complement", noncrossing.kreweras_complement)
        for op, (fam, n, p) in enumerate(inputs):
            rec.begin(op, fam)
            q = phi(p)
            back = phi_inverse(q)
            prof = adjacency_profile(p)
            qprof = adjacency_profile(q)
            checks = [
                back == p,
                qprof.singletons == prof.initiators and qprof.terminators == prof.singletons,
            ]
            if fam != "shallow":
                checks += [conjugate(conjugate(p, n), n) == p, is_noncrossing(p), kreweras(p) == q]
            rec.end()
            tally.count(len(checks), checks.count(False), f"{fam} n={n}")
        return sum(n for _, n, _ in inputs)

    def probe(self, inputs, tally: Tally, spans) -> dict[str, float]:
        return _probe_reduce_core(spans, ((n, p) for _, n, p in inputs))


# --------------------------------------------------------------------------
# verify-n9-j2: the main user command, as a subprocess.


class Verify(Workload):
    """`conjlab verify --n-max 9 --comp-n-max 16 --jobs 2`.  The report
    must match the seed commit's: exit 0, every invariant PASS, the item
    total, and the SHA-256 of the whole text report.  The command is fixed,
    so the seed chooses nothing here."""

    name = "verify-n9-j2"
    calibrate_during = True  # one long op with both CPUs busy

    @property
    def reaches(self) -> tuple[str, ...]:
        n_max = EXPECTED["verify"]["tiny" if self.tiny else "full"]["n_max"]
        return tuple(f"verify.partition_shard.n{n}.busy_s" for n in range(1, n_max + 1)) + (
            "verify.partition_shard.calls",
            "verify.partition_shard.max_s",
            "verify.composition_sweep.calls",
            "verify.composition_sweep.busy_s",
            "verify.serial_tail_s",
            "verify.pool_busy_ratio",
        )

    def make_inputs(self, seed: int):
        key = "tiny" if self.tiny else "full"
        return EXPECTED["verify"][key]

    def _check_report(self, tally: Tally, rc: int, text: bytes, want: dict) -> None:
        lines = text.decode("utf-8", "replace").splitlines()
        passes = sum(1 for line in lines if line.startswith("[PASS] "))
        tally.check(rc == 0, f"verify exit code {rc}")
        tally.check(passes == want["invariants"], f"{passes} PASS lines")
        tally.check(
            bool(lines) and lines[-1].endswith(f" {want['items']} items)"),
            "verify item total",
        )
        tally.check(hashlib.sha256(text).hexdigest() == want["sha256"], "verify report SHA-256")

    def run_pass(self, want, tally: Tally, rec) -> int:
        rec.begin(0)
        rc, out, _ = run_cli(want["argv"], cli_env())
        rec.end()
        self._check_report(tally, rc, out, want)
        return want["items"]

    def traced_pass(self, want, tally: Tally, rec) -> None:
        """verify_suite in-process with one job, so shards run serially,
        with partition_shard and composition_sweep replaced by counting
        wrappers.  Each must be called once per n, or the wrappers missed
        the calls and the verify figures are wrong: a failed check."""
        import conjlab.verify as verify

        shard_fn, sweep_fn = verify.partition_shard, verify.composition_sweep
        sweep = rec.wrap("verify.composition_sweep", sweep_fn)
        shards: list[int] = []
        sweeps: list[int] = []

        def counted_shard(n, prefix=()):
            shards.append(n)
            return rec.wrap(f"verify.partition_shard.n{n}", shard_fn)(n, prefix)

        def counted_sweep(n):
            sweeps.append(n)
            return sweep(n)

        verify.partition_shard, verify.composition_sweep = counted_shard, counted_sweep
        rec.begin(0, name="verify.verify_suite")
        try:
            report = verify.verify_suite(want["n_max"], want["comp_n_max"], jobs=1)
        finally:
            rec.end()
            verify.partition_shard, verify.composition_sweep = shard_fn, sweep_fn
        self._check_report(tally, 0 if report.ok else 3, (report.render() + "\n").encode(), want)
        tally.check(shards == list(range(1, want["n_max"] + 1)), f"partition_shard called for n in {shards}")
        tally.check(
            sweeps == list(range(1, want["comp_n_max"] + 1)), f"composition_sweep called for n in {sweeps}"
        )

    def probe(self, want, tally: Tally, spans) -> dict[str, float]:
        """The real two-job command once, for the pool busy ratio."""
        c0 = children_cpu()
        rc, out, secs = run_cli(want["argv"], cli_env())
        self._check_report(tally, rc, out, want)
        return {"verify.pool_busy_ratio": (children_cpu() - c0) / (2 * secs)}


# --------------------------------------------------------------------------
# cli-oneshot: one client, sequential `python -m conjlab` calls.


class CliOneshot(Workload):
    """A closed loop with one client over a fixed mix of commands on the
    paper's worked examples; each pass runs the mix once in a seeded order.
    Each call's stdout must equal the seed commit's bytes."""

    name = "cli-oneshot"
    REPEATS = 5  # samples per probe figure

    @property
    def reaches(self) -> tuple[str, ...]:
        return ("cli.interpreter_ms", "cli.import_ms") + tuple(
            f"cli.main.{cmd['name']}.ms" for cmd in EXPECTED["cli"]
        )

    def make_inputs(self, seed: int):
        mix = [(cmd["name"], cmd["argv"], cmd["stdout"].encode("utf-8")) for cmd in EXPECTED["cli"]]
        random.Random(seed).shuffle(mix)
        return mix

    def _check(self, tally: Tally, name: str, rc: int, out: bytes, want: bytes) -> None:
        tally.check(rc == 0, f"{name}: exit code {rc}")
        tally.check(out == want, f"{name}: stdout differs from the seed commit")

    def run_pass(self, mix, tally: Tally, rec) -> int:
        env = cli_env()
        for op, (name, argv, want) in enumerate(mix):
            rec.begin(op)
            rc, out, _ = run_cli(argv, env)
            rec.end()
            self._check(tally, name, rc, out, want)
        return len(mix)

    def probe(self, mix, tally: Tally, spans) -> dict[str, float]:
        """Interpreter start, package import, and in-process cli.main per
        command: where the time of one call goes."""
        from conjlab.cli import main

        env = cli_env()
        interp, imports = [], []
        for _ in range(self.REPEATS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
            interp.append(perf_counter() - t0)
            out = subprocess.run(
                [sys.executable, "-c", _IMPORT_TIMER],
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                check=True,
            ).stdout
            imports.append(float(out))
        found = {
            "cli.interpreter_ms": median(interp) * 1e3,
            "cli.import_ms": median(imports) * 1e3,
        }
        for name, argv, want in mix:
            times = []
            for _ in range(self.REPEATS):
                buf = StringIO()
                t0 = perf_counter()
                with redirect_stdout(buf):
                    rc = main(list(argv))
                times.append(perf_counter() - t0)
                self._check(tally, f"in-process {name}", rc, buf.getvalue().encode("utf-8"), want)
            found[f"cli.main.{name}.ms"] = median(times) * 1e3
        return found


_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import conjlab.cli; "
    "print(repr(time.perf_counter() - t))"
)


WORKLOADS = {w.name: w for w in (Exhaustive, Verify, LargeN, CliOneshot)}
