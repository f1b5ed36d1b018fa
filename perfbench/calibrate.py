"""Host-speed calibration for the untraced passes.

The shared host this benchmark runs on changes speed by up to about 1.7x
in phases of a second to a minute (measured on 2 vCPU Xeon, CPython
3.11.7: a fixed loop of sweep work took 41-113 ms within one minute).  A
run's raw times therefore say as much about the host's phase as about the
program.  So the harness runs a fixed kernel of its own, which never
changes with the program, between the ops it times, and reports each op's
time scaled to the kernel's reference speed:

    reported = raw * REF_S / (median kernel time near the op)

A change to the program moves the reported time as it moves the raw time;
a change in host speed moves the kernel too and mostly cancels.  The
kernel does the kind of work conjlab does (small tuples, sorting, dicts and
sets in pure Python), so that a slow phase slows both alike: in the
measurement above the ratio of sweep time to kernel time stayed within
+-5% while the raw time moved +-20%.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter, thread_time

# The kernel's time on the reference host in a fast phase (2 vCPU Xeon,
# CPython 3.11.7); it sets the scale of reported times, not their ratios.
REF_S = 0.0030
# Kernel samples within this many seconds of an op calibrate it ...
WINDOW_S = 0.5
# ... and at least this many, the nearest in order, when the window holds fewer.
MIN_SAMPLES = 5
# Kernel time taken after each op, as a share of the op's time.
SHARE = 0.05
# With Clock(during=True): seconds between kernel runs while an op is open.
PERIOD_S = 0.2


def kernel(n: int = 6, reps: int = 3) -> int:
    """Enumerate the set partitions of [n] by restricted growth strings,
    `reps` times, building each as sorted tuples with its singletons and
    adjacencies, and keep them in a set and a dict."""
    seen: set = set()
    info: dict = {}
    for _ in range(reps):
        a = [0] * n  # a[i]: block of element i+1
        b = [0] * n  # b[i]: largest block label among a[0..i]
        while True:
            blocks: dict[int, list[int]] = {}
            for i, x in enumerate(a):
                blocks.setdefault(x, []).append(i + 1)
            key = tuple(sorted(tuple(v) for v in blocks.values()))
            singletons = frozenset(v[0] for v in key if len(v) == 1)
            adjacencies = tuple((u, w) for v in key for u, w in zip(v, v[1:]) if w == u + 1)
            seen.add(key)
            info[key] = (singletons, adjacencies)
            i = n - 1
            while i > 0 and a[i] > b[i - 1]:
                i -= 1
            if i == 0:
                break
            a[i] += 1
            top = max(b[i - 1], a[i])
            b[i] = top
            for j in range(i + 1, n):
                a[j] = 0
                b[j] = top
    return len(seen)


class Clock:
    """Kernel times, each with the moment it ended.

    By default the kernel runs between ops: before each op and, after it,
    for SHARE of the op's time.  With during=True it runs instead on a
    thread every PERIOD_S while an op is open, timed in thread CPU time:
    for ops that wait on child processes keeping every CPU busy (the verify
    pool), where the host's speed must be caught during the op and the
    kernel waits for a CPU as often as it runs.  The thread is joined
    when the op ends."""

    def __init__(self, during: bool = False) -> None:
        self.at = array("d")
        self.secs = array("d")
        self.unit = REF_S
        self.during = during
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self, count: int = 1, clock=perf_counter) -> None:
        for _ in range(count):
            t0 = clock()
            kernel()
            self.unit = clock() - t0
            self.at.append(perf_counter())
            self.secs.append(self.unit)

    def before(self) -> None:
        """Called as an op begins."""
        if not self.during:
            self.sample()
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._probe, daemon=True)
        self._thread.start()

    def after(self, busy: float) -> None:
        """Called as an op of `busy` seconds has ended."""
        if not self.during:
            self.sample(max(1, min(1000, round(busy * SHARE / self.unit))))
            return
        self._stop.set()
        self._thread.join()

    def close(self) -> None:
        """Stop and join the thread of an op that never ended."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()

    def _probe(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.sample(clock=thread_time)

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the median kernel time near [t0, t1]: the factor that
        brings a time measured over that interval to the reference speed."""
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min((lo + hi - MIN_SAMPLES) // 2, len(self.at) - MIN_SAMPLES))
            hi = min(len(self.at), lo + MIN_SAMPLES)
        return REF_S / median(self.secs[lo:hi])
