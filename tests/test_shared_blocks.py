"""Block tuples of partitions of [m], m <= N_MAX_HARD, come from one
bounded table (partition._BLOCKS), and sharing them changes no value."""

import gc
import pickle
import tracemalloc

import pytest

from conjlab import (
    DomainError,
    SetPartition,
    complement,
    conjugate,
    is_noncrossing,
    kreweras_complement,
    parse_partition,
    phi,
    phi_inverse,
    reduce_core,
    rotate_partition,
)
from conjlab.enumeration import N_MAX_HARD, iter_set_partitions, iter_set_partitions_of
from conjlab.partition import _BLOCKS
from conjlab.separate import combine_st, separate_is, separate_st


def fresh(p: SetPartition) -> SetPartition:
    """p built from block tuples of its own."""
    return SetPartition(tuple(tuple(list(b)) for b in p.blocks))


def maps_of(p: SetPartition, n: int) -> list[SetPartition]:
    """Every library map of a partition p of [n] whose result lies over [n]."""
    q = phi(p)
    out = [
        q,
        phi_inverse(p),
        complement(p, n),
        complement(q, n),
        conjugate(p, n),
        rotate_partition(p, 1),
        rotate_partition(p, -2),
        reduce_core(p),
    ]
    if is_noncrossing(p):
        out.append(kreweras_complement(p))
    return out


def assert_from_table(p: SetPartition) -> None:
    for blk in p.blocks:
        assert _BLOCKS.get(blk) is blk, (str(p), blk)


@pytest.mark.parametrize("n", range(1, 9))
def test_results_take_their_blocks_from_the_table(n):
    for p in iter_set_partitions(n):
        assert_from_table(p)
        for q in maps_of(p, n):
            assert_from_table(q)
        # A bare partition, ranked afresh, gives shared results too.
        for q in maps_of(fresh(p), n):
            assert_from_table(q)


def test_the_table_stays_bounded():
    big = SetPartition(tuple(tuple(range(r, 2001, 7)) for r in range(1, 8)))
    viewed = list(iter_set_partitions_of([3, 7, 9]))
    sparse = [*viewed, *map(fresh, viewed), parse_partition("3 7 - 9")]
    list(iter_set_partitions(3))  # iter_set_partitions_of([3, 7, 9]) walks [3]
    before = dict(_BLOCKS)
    for p in iter_set_partitions(13, tuple(range(9))):
        assert all(_BLOCKS.get(blk) is not blk for blk in p.blocks), str(p)
    for p in [big, *sparse]:
        results = [phi(p), phi_inverse(p), separate_is(p).rho, combine_st(separate_st(p))]
        if p is big:
            results.append(conjugate(p, 2000))
        else:
            with pytest.raises(DomainError):
                conjugate(p, 9)
        for q in results:
            assert all(_BLOCKS.get(blk) is not blk for blk in q.blocks), str(q)
    # Labelled supports and m > N_MAX_HARD never reach the table.
    assert _BLOCKS.keys() == before.keys()
    assert len(_BLOCKS) <= 2**N_MAX_HARD - 1
    for key, blk in _BLOCKS.items():
        assert key is blk
        assert blk and list(blk) == sorted(set(blk)), blk
        assert 1 <= blk[0] and blk[-1] <= N_MAX_HARD, blk


def retained(build) -> tuple[object, int]:
    """(build(), the bytes it allocated and still holds), under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def test_kept_results_share_their_blocks():
    # The acceptance sweep keeps the blocks of p, phi(p) and its complement;
    # with one tuple per block they hold under half the bytes of fresh ones.
    def sweep():
        out = []
        for p in iter_set_partitions(8):
            q = phi(p)
            out.append((p.blocks, q.blocks, complement(q, 8).blocks))
        return out

    kept, shared = retained(sweep)
    copies, unshared = retained(
        lambda: [tuple(tuple(tuple(list(b)) for b in bs) for bs in row) for row in kept]
    )
    assert copies == kept
    assert shared <= 0.5 * unshared, (shared, unshared)


@pytest.mark.parametrize("n", range(1, 7))
def test_shared_results_are_the_values_of_fresh_ones(n):
    results = []
    for p in iter_set_partitions(n):
        q = phi(p)
        results += [q, complement(q, n), conjugate(p, n)]
    for q in results:
        f = fresh(q)
        assert q == f and hash(q) == hash(f) and repr(q) == repr(f)
        assert pickle.dumps(q, 4) == pickle.dumps(f, 4)
    assert pickle.loads(pickle.dumps(results, 4)) == results
