import random

import pytest

from conjlab import SetPartition, iter_set_partitions, random_partition
from conjlab.enumeration import rgs_prefixes


def all_partitions(n: int) -> list[SetPartition]:
    return list(iter_set_partitions(n))


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
