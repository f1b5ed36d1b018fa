import inspect
import os
from pathlib import Path
import random
import textwrap

import pytest

import conjlab
from conjlab import SetPartition, iter_set_partitions, random_partition
from conjlab.enumeration import rgs_prefixes
from conjlab.noncrossing import _kreweras
from conjlab.partition import _grow


def child_env() -> dict[str, str]:
    """The environment for a child Python process: this one's, with the
    directory that holds the conjlab under test first on PYTHONPATH."""
    src = str(Path(conjlab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def all_partitions(n: int) -> list[SetPartition]:
    return list(iter_set_partitions(n))


def source_mutant(module, name, old, new):
    """module.name recompiled from its own source with the text old,
    which must occur exactly once, replaced by new."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1, f"{old!r} not once in {name}"
    namespace = dict(vars(module))
    exec(compile(src.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


@pytest.fixture(scope="session")
def sparse_samples() -> list[SetPartition]:
    """Seeded partitions over scattered supports (not of the form 1..n)."""
    rng = random.Random(1729)
    out = []
    for _ in range(80):
        size = rng.randint(1, 14)
        support = rng.sample(range(1, 80), size)
        out.append(random_partition(support, rng))
    return out


@pytest.fixture(scope="session")
def kernel_inputs() -> list[SetPartition]:
    """Every partition of [n] for 1 <= n <= 8, and every one of [9] as the
    depth-4 prefix shards of verify enumerate them, each with the growth
    string that the enumeration hands over."""
    out = [p for n in range(1, 9) for p in iter_set_partitions(n)]
    for prefix in rgs_prefixes(9, 4):
        out += iter_set_partitions(9, prefix)
    return out


@pytest.fixture(scope="session")
def union_inputs() -> list[tuple]:
    """(p, gap growth string, its block sizes) for every noncrossing
    partition p of [n], 1 <= n <= 8: its Kreweras complement, then that
    complement with one block split (the last rank of its first block of
    two or more moved to a block of its own) and with two blocks merged
    (block 1 into block 0), where the partition has such blocks."""
    out = []
    for n in range(1, 9):
        for p in iter_set_partitions(n):
            gaps = _kreweras(p._view[2], list(map(len, p.blocks)))
            if gaps is None:  # p crosses
                continue
            out.append((p, *gaps))
            keys = list(gaps[0][1:])
            big = [b for b in range(max(keys) + 1) if keys.count(b) > 1]
            if big:
                last = n - 1 - keys[::-1].index(big[0])
                out.append((p, *_grow(keys[:last] + [n] + keys[last + 1 :])))
            if max(keys) > 0:
                out.append((p, *_grow([b - (b == 1) for b in keys])))
    return out
