"""A partition keeps the form it was built in (blocks, or a rank view with
block sizes) and builds the other only when it is read.  Both forms give
the same value: equality, hash, repr, text, support and pickle bytes."""

import pickle
import random

import pytest

from conjlab import (
    EMPTY,
    DomainError,
    SetPartition,
    adjacency_profile,
    complement,
    conjugate,
    find_crossing,
    is_noncrossing,
    kreweras_complement,
    phi,
    phi_inverse,
    reduce_core,
    rotate_partition,
)
from conjlab import partition
from conjlab.enumeration import iter_set_partitions

from conftest import all_partitions


def reader_chain(p: SetPartition) -> None:
    """Every public reader of a partition, one after the other; the maps
    defined only on [n] raise DomainError off it."""
    m = sum(map(len, p.blocks))
    phi(p)
    phi_inverse(p)
    reduce_core(p)
    adjacency_profile(p)
    is_noncrossing(p)
    find_crossing(p)
    for call in (
        lambda: kreweras_complement(p),
        lambda: rotate_partition(p, 1),
        lambda: complement(p, m),
        lambda: conjugate(p, m),
    ):
        try:
            call()
        except DomainError:
            pass


def test_a_bare_partition_is_ranked_at_most_once(monkeypatch, sparse_samples):
    calls = []
    inner = partition.ranks
    monkeypatch.setattr(partition, "ranks", lambda blocks: calls.append(blocks) or inner(blocks))
    bare = [SetPartition(p.blocks) for n in range(7) for p in all_partitions(n)]
    bare += [SetPartition(p.blocks) for p in sparse_samples]
    for p in bare:
        calls.clear()
        reader_chain(p)
        assert len(calls) <= 1, str(p)
    # A partition built from its view is never ranked.
    calls.clear()
    for n in range(1, 7):
        for p in iter_set_partitions(n):
            reader_chain(p)
            reader_chain(phi(p))
    assert calls == []


def view_built(p: SetPartition) -> SetPartition:
    """p built from its rank view and block sizes, as the enumeration and
    the maps build a partition."""
    _, labels, g = partition.ranks(p.blocks)
    return partition._lazy(tuple(g), [*map(len, p.blocks)], labels)


@pytest.mark.parametrize("name", ["blocks", "_view", "_sizes", "support"])
def test_each_kept_attribute_is_built_at_most_once(monkeypatch, sparse_samples, name):
    # Each is built on its first read, and never when the partition was
    # built with it.
    kept = vars(SetPartition)[name]
    inner = kept.func
    builds = []
    monkeypatch.setattr(kept, "func", lambda p: builds.append(p) or inner(p))
    viewed = [p for n in range(6) for p in iter_set_partitions(n)]
    viewed += [view_built(p) for p in sparse_samples]
    for p in viewed + [SetPartition(p.blocks) for p in viewed]:
        given = set(vars(p))
        builds.clear()
        for _ in range(2):
            for attr in ("blocks", "_view", "_sizes", "support"):
                getattr(p, attr)
        assert builds == ([] if name in given else [p]), (str(p), sorted(given))


def eager(p: SetPartition) -> SetPartition:
    """p built from blocks that its growth string gives, read by hand."""
    m, labels, g = p._view
    label = labels or range(m + 1)
    blocks = [[label[r] for r in range(1, m + 1) if g[r] == b] for b in range(max(g) + 1)]
    return SetPartition(tuple(tuple(blk) for blk in blocks if blk))


def big_inputs() -> list[SetPartition]:
    """Partitions of size 200 like the benchmark's large inputs: a sparse
    shallow one, a noncrossing one of [200] and a nested rainbow."""
    rng = random.Random(200)
    support = sorted(rng.sample(range(1, 801), 200))
    shallow: list[list[int]] = [[] for _ in range(50)]
    for x in support:
        shallow[rng.randrange(50)].append(x)
    stack: list[list[int]] = []
    nested: list[list[int]] = []
    for x in range(1, 201):
        while stack and rng.random() < 0.3:
            stack.pop()
        if stack and rng.random() < 0.6:
            stack[-1].append(x)
        else:
            stack.append([x])
            nested.append(stack[-1])
    rainbow = [[i, 201 - i] for i in range(1, 101)]
    return [
        SetPartition(tuple(sorted(tuple(blk) for blk in blocks if blk)))
        for blocks in (shallow, nested, rainbow)
    ]


def lazy_inputs() -> list[SetPartition]:
    """Partitions that hold only a view: those of [n], n <= 6, as the
    enumeration gives them, every map result on them, and the map results
    on the large inputs, each built afresh by its call."""
    makers = [lambda: phi(EMPTY), lambda: phi_inverse(EMPTY)]
    for n in range(1, 7):
        for p in iter_set_partitions(n):
            makers.append(lambda n=n, pre=p._view[2][1:]: next(iter_set_partitions(n, pre)))
            for f in (phi, phi_inverse, lambda q: rotate_partition(q, 2)):
                makers.append(lambda f=f, p=p: f(p))
            makers += [lambda p=p, n=n: complement(p, n), lambda p=p, n=n: conjugate(p, n)]
            if is_noncrossing(p):
                makers.append(lambda p=p: kreweras_complement(p))
    for p in big_inputs():
        makers += [lambda p=p: phi(p), lambda p=p: phi_inverse(p)]
        if p.support[-1] == 200:
            makers += [lambda p=p: conjugate(p, 200), lambda p=p: complement(p, 200)]
    return makers


@pytest.mark.parametrize("read_support", [False, True], ids=["bare", "support-read"])
def test_lazy_and_eager_partitions_agree(read_support):
    for make in lazy_inputs():
        lazy, twin = make(), make()
        assert "blocks" not in vars(lazy) and "blocks" not in vars(twin)
        want = eager(lazy)
        if read_support:
            assert lazy.support == want.support == tuple(sorted(x for b in want.blocks for x in b))
        # Pickle first: it reads the blocks, and a cached support only if read.
        data = pickle.dumps(lazy, 4)
        assert data == pickle.dumps(want, 4), str(want)
        back = pickle.loads(data)
        assert back == want and "_view" not in vars(back)
        assert ("support" in vars(back)) == read_support
        assert twin == lazy and lazy == want and want == twin
        assert hash(twin) == hash(want)
        assert repr(twin) == repr(want) and str(twin) == str(want)
        assert twin.support == want.support


def test_equality_reads_growth_strings_and_labels():
    # Views without labels compare growth strings; views with labels
    # compare labels too; a view against blocks compares blocks.
    ps = list(iter_set_partitions(4))
    for p in ps:
        for q in ps:
            assert (p == q) == (p._view[2] == q._view[2]) == (p.blocks == q.blocks)
    sparse = [phi(SetPartition(((2, 5), (3,)))), phi(SetPartition(((2, 5), (4,))))]
    assert sparse[0]._view[2] == sparse[1]._view[2]
    assert sparse[0] != sparse[1] and sparse[0] == SetPartition(((2, 3), (5,)))


def test_a_headline_sweep_builds_no_block(monkeypatch):
    # Profile, phi, complement, conjugate and equality over [8] read views
    # and sizes alone: the builder of blocks never runs.
    builds = []
    built = vars(SetPartition)["blocks"]
    inner = built.func
    monkeypatch.setattr(built, "func", lambda p: builds.append(p) or inner(p))
    n, full, count = 8, tuple(range(1, 9)), 0
    for p in iter_set_partitions(n):
        prof = adjacency_profile(p)
        q = phi(p)
        qprof = adjacency_profile(q)
        assert q.support == full
        assert qprof.singletons == prof.initiators and qprof.terminators == prof.singletons
        r = conjugate(complement(q, n), n)
        assert r == p
        assert not any("blocks" in vars(x) for x in (p, q, r))
        count += 1
    assert count == 4140 and builds == []
    p.blocks  # the counter sees a read
    assert builds == [p]
