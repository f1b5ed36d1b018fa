"""Recorders for the benchmark's passes, and the in-memory span store.

A workload writes each pass once, against a recorder: it marks each op
with begin/end and gets the library functions it calls through wrap.
Recorder times the ops and wraps nothing, for the untraced passes;
Tracer records a span around each op and each wrapped call.

A span is (name, start, end, parent, op id).  Spans live in flat arrays
while the run lasts, so recording one costs a few appends, and are written
out once when the run ends.  Timestamps come from time.perf_counter.
"""

from __future__ import annotations

import json
import math
import resource
from array import array
from pathlib import Path
from time import perf_counter, process_time

NO_PARENT = -1
_END = object()


def children_cpu() -> float:
    """CPU seconds of the waited-for child processes so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cpu_now() -> float:
    """CPU seconds of this process plus its waited-for children."""
    return process_time() + children_cpu()


class Recorder:
    """Untraced: the seconds of each op, in order; library calls go direct.

    With a calibrate.Clock it also keeps each op's start and CPU seconds,
    and tells the clock as each op begins and ends, so that the host's
    speed is sampled around it and the op can be scaled to the reference
    speed."""

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.ops = array("d")
        self.starts = array("d")
        self.cpus = array("d")
        self._t0 = self._c0 = 0.0

    def begin(self, op: int, family: str = "", name: str = "harness.op") -> None:
        if self.clock:
            self.clock.before()
        self._c0 = cpu_now()
        self._t0 = perf_counter()

    def end(self) -> None:
        t1 = perf_counter()
        self.cpus.append(cpu_now() - self._c0)
        self.ops.append(t1 - self._t0)
        self.starts.append(self._t0)
        if self.clock:
            self.clock.after(t1 - self._t0)

    def wrap(self, name: str, fn):
        return fn

    def wrap_iter(self, name: str, it):
        return it


class Tracer(Recorder):
    """Traced: a span around each op, under `root`, and around each call
    of a wrapped function, under the open op.  Inside an op of a family
    the span names get "@family", so layers can be split by family."""

    def __init__(self, spans: "Spans", root: int) -> None:
        super().__init__()
        self.spans = spans
        self.root = self.cur = root
        self.op = -1
        self.family = ""
        self._ids: dict[tuple[str, str], int] = {}

    def _id(self, name: str) -> int:
        key = (name, self.family)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = self.spans.name_id(
                f"{name}@{self.family}" if self.family else name
            )
        return nid

    def begin(self, op: int, family: str = "", name: str = "harness.op") -> None:
        self.op, self.family = op, family
        self.cur = self.spans.open(self._id(name), self.root, op)

    def end(self) -> None:
        self.spans.close(self.cur)
        self.cur = self.root

    def wrap(self, name: str, fn):
        add = self.spans.add

        def timed(*args):
            t0 = perf_counter()
            out = fn(*args)
            add(self._id(name), t0, perf_counter(), self.cur, self.op)
            return out

        return timed

    def wrap_iter(self, name: str, it):
        """Yield from `it`, with a span around each next() on it."""
        add = self.spans.add
        it = iter(it)
        while True:
            t0 = perf_counter()
            item = next(it, _END)
            add(self._id(name), t0, perf_counter(), self.cur, self.op)
            if item is _END:
                return
            yield item


class Spans:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int, parent: int = NO_PARENT, op: int = -1) -> int:
        """Start a span whose children are recorded before it ends."""
        idx = len(self.name)
        self.add(name_id, perf_counter(), math.nan, parent, op)
        return idx

    def close(self, idx: int) -> float:
        """End an open span; returns its duration."""
        t = self.end[idx] = perf_counter()
        return t - self.start[idx]

    def add(self, name_id: int, t0: float, t1: float, parent: int, op: int) -> None:
        self.name.append(name_id)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.op.append(op)

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> array:
        """Duration of each span minus the time its children cover."""
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, par in enumerate(self.parent):
            if par != NO_PARENT:
                out[par] -= self.end[i] - self.start[i]
        return out

    def nesting_errors(self, slack: float = 1e-7) -> list[str]:
        """Spans that lie outside their parent or overlap an earlier sibling.

        With neither, the self times of a span's subtree add up exactly to
        its duration, so layer busy time plus harness time is the traced
        wall time by construction.
        """
        errors = []
        last_end: dict[int, float] = {}
        for i, par in enumerate(self.parent):
            s, e = self.start[i], self.end[i]
            if not e >= s:
                errors.append(f"span {i} ({self.names[self.name[i]]}) never closed")
                continue
            if par == NO_PARENT:
                continue
            if s < self.start[par] - slack or e > self.end[par] + slack:
                errors.append(f"span {i} ({self.names[self.name[i]]}) outside its parent")
            if s < last_end.get(par, -math.inf) - slack:
                errors.append(f"span {i} ({self.names[self.name[i]]}) overlaps a sibling")
            last_end[par] = e
        return errors

    def write(self, path: Path) -> None:
        """Write the spans as <path>.json (names, layout) and <path>.bin (columns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "start", "end", "parent", "op")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        layout = {
            "count": len(self),
            "names": self.names,
            "columns": [[col, getattr(self, col).typecode] for col in columns],
            "clock": "time.perf_counter, seconds",
        }
        path.with_suffix(".json").write_text(json.dumps(layout, indent=1) + "\n")
