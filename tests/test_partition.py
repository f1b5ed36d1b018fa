from collections import Counter
import importlib
import pickle
import subprocess
import sys

import pytest

from conjlab import (
    EMPTY,
    DomainError,
    InvalidPartitionError,
    ParseError,
    SetPartition,
    adjacency_profile,
    canonicalize,
    complement,
    conjugate,
    format_partition,
    inferred_n,
    kreweras_complement,
    noncrossing,
    parse_partition,
    phi,
    phi_inverse,
    rotate_partition,
)
from conjlab import partition as partition_module
from conjlab.enumeration import iter_set_partitions
from conjlab.partition import (
    _grow,
    _lazy,
    _profile,
    _relabel,
    partition_to_blocks,
    ranks,
)

from conftest import all_partitions, child_env

# conjlab.phi is the function; its module is imported by name.
phi_module = importlib.import_module("conjlab.phi")


def naive_profile(p: SetPartition):
    """Independent adjacency scan: index-based cyclic successor."""
    supp = list(p.support)
    where = {x: i for i, blk in enumerate(p.blocks) for x in blk}
    initiators, terminators = set(), set()
    for i, x in enumerate(supp):
        succ = supp[(i + 1) % len(supp)]
        if where[x] == where[succ]:
            initiators.add(x)
            terminators.add(succ)
    singletons = {blk[0] for blk in p.blocks if len(blk) == 1}
    return initiators, terminators, singletons


class TestCanonicalForm:
    def test_blocks_sorted_inside_and_by_minimum(self):
        p = canonicalize([[12, 3, 5], [8, 4, 10], [7]])
        assert p.blocks == ((3, 5, 12), (4, 8, 10), (7,))
        assert format_partition(p) == "3 5 12 - 4 8 10 - 7"

    def test_input_order_irrelevant(self):
        assert canonicalize([[2], [1, 3]]) == canonicalize([[3, 1], [2]])

    def test_duplicate_element_rejected(self):
        with pytest.raises(InvalidPartitionError):
            canonicalize([[1, 2], [2, 3]])

    @pytest.mark.parametrize("raw", [[[1, 1], [2]], [[3, 3]]])
    def test_element_repeated_in_one_block_rejected(self, raw):
        with pytest.raises(InvalidPartitionError, match="appears more than once"):
            canonicalize(raw)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidPartitionError):
            canonicalize([[0, 1]])

    @pytest.mark.parametrize("raw", [[[True, 2], [3]], [[1, True]], [[False]]])
    def test_bool_rejected(self, raw):
        # bool is an int subclass: True would otherwise pass as the element 1.
        with pytest.raises(InvalidPartitionError, match="not a positive integer"):
            canonicalize(raw)

    def test_support_is_sorted_union(self):
        p = canonicalize([[9, 2], [5]])
        assert p.support == (2, 5, 9)

    def test_support_is_computed_once(self, monkeypatch):
        calls = []
        cache = vars(SetPartition)["support"]
        inner = cache.func
        monkeypatch.setattr(cache, "func", lambda p: calls.append(p) or inner(p))
        p = parse_partition("3 - 1 2")
        assert p.support is p.support == (1, 2, 3)
        assert calls == [p]

    def test_cached_support_leaves_eq_hash_and_pickle_alone(self):
        blocks = ((1, 3), (2,))
        fresh, read = SetPartition(blocks), SetPartition(blocks)
        assert read.support == (1, 2, 3)
        assert fresh == read and hash(fresh) == hash(read) == hash(SetPartition(blocks))
        assert fresh != SetPartition(((1,), (2, 3)))
        # Protocol 4 bytes, as with functools.cached_property: the cached
        # support is pickled once it has been read.
        assert pickle.dumps(fresh, 4) == (
            b"\x80\x04\x95B\x00\x00\x00\x00\x00\x00\x00\x8c\x11conjlab.partition\x94"
            b"\x8c\x0cSetPartition\x94\x93\x94)\x81\x94}\x94"
            b"\x8c\x06blocks\x94K\x01K\x03\x86\x94K\x02\x85\x94\x86\x94sb."
        )
        assert pickle.dumps(read, 4) == (
            b"\x80\x04\x95U\x00\x00\x00\x00\x00\x00\x00\x8c\x11conjlab.partition\x94"
            b"\x8c\x0cSetPartition\x94\x93\x94)\x81\x94}\x94("
            b"\x8c\x06blocks\x94K\x01K\x03\x86\x94K\x02\x85\x94\x86\x94"
            b"\x8c\x07support\x94K\x01K\x02K\x03\x87\x94ub."
        )
        for p in (fresh, read):
            back = pickle.loads(pickle.dumps(p))
            assert back == p and back.support == (1, 2, 3)

    def test_empty_pickles_the_same_before_and_after_its_support_is_read(self):
        # In a fresh interpreter, since this one has read EMPTY.support.
        code = (
            "import pickle; from conjlab import EMPTY; fresh = pickle.dumps(EMPTY, 4); "
            "assert EMPTY.support == (); print(fresh == pickle.dumps(EMPTY, 4))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout == "True\n"

    def test_blocks_json_roundtrip(self):
        p = parse_partition("1 5 8 - 2 - 3 - 4 - 6 7")
        assert canonicalize(partition_to_blocks(p)) == p


class TestParseFormat:
    def test_empty_text_is_empty_partition(self):
        assert parse_partition("") is EMPTY or parse_partition("") == EMPTY
        assert format_partition(EMPTY) == ""

    def test_commas_allowed(self):
        assert parse_partition("1,3 - 2") == parse_partition("1 3 - 2")

    @pytest.mark.parametrize("bad", ["1 - - 2", "0", "-", "1 2 - 2", "x - 1"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_partition(bad)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_roundtrip_small(self, n):
        for p in all_partitions(n):
            assert parse_partition(format_partition(p)) == p

    def test_roundtrip_sparse(self, sparse_samples):
        for p in sparse_samples:
            assert parse_partition(format_partition(p)) == p


class TestAdjacencyProfile:
    def test_hand_example(self):
        p = parse_partition("1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8")
        prof = adjacency_profile(p)
        assert prof.initiators == frozenset({11})
        assert prof.terminators == frozenset({12})
        assert prof.singletons == frozenset({1, 2})
        assert prof.adjacency_count == 1

    def test_single_block_of_two_has_two_adjacencies(self):
        prof = adjacency_profile(parse_partition("3 4"))
        assert prof.initiators == frozenset({3, 4})
        assert prof.terminators == frozenset({3, 4})
        assert prof.adjacency_count == 2

    def test_one_element_partition_counts_one_adjacency(self):
        # succ(a) = a on a singleton support, so the lone element is at
        # once initiator, terminator and singleton.
        for a in (1, 7, 60):
            prof = adjacency_profile(SetPartition(((a,),)))
            assert prof.initiators == frozenset({a})
            assert prof.terminators == frozenset({a})
            assert prof.singletons == frozenset({a})
            assert prof.adjacency_count == 1

    def test_empty_partition_profile(self):
        prof = adjacency_profile(EMPTY)
        assert prof.adjacency_count == 0
        assert prof.initiators == prof.terminators == prof.singletons == frozenset()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_naive_scan(self, n):
        for p in all_partitions(n):
            prof = adjacency_profile(p)
            ini, ter, sing = naive_profile(p)
            assert prof.initiators == ini
            assert prof.terminators == ter
            assert prof.singletons == sing
            assert prof.adjacency_count == len(ini) == len(ter)

    def test_against_naive_scan_sparse(self, sparse_samples):
        for p in sparse_samples:
            prof = adjacency_profile(p)
            ini, ter, sing = naive_profile(p)
            assert (prof.initiators, prof.terminators, prof.singletons) == (
                ini,
                ter,
                sing,
            )


class TestRankView:
    def test_rank_r_is_the_rth_element(self, sparse_samples):
        for p in [EMPTY, *all_partitions(5), *sparse_samples]:
            m, labels, bid = ranks(p.blocks)
            label = labels or range(m + 1)
            assert m == len(p.support)
            assert list(label[1:]) == list(p.support)
            assert (labels is None) == (p.support == tuple(range(1, m + 1)))
            for r in range(1, m + 1):
                assert label[r] in p.blocks[bid[r]]


class TestHandedOverView:
    """iter_set_partitions hands each partition its growth string; the
    kernels that read it agree with the public functions, which build
    the rank view from the blocks of a copy without one."""

    def test_view_is_the_rank_view(self, kernel_inputs):
        for p in kernel_inputs:
            m, labels, g = p._view
            assert (m, labels, list(g)) == ranks(p.blocks)
            assert "_view" not in vars(SetPartition(p.blocks))

    def test_relabel_kernel(self, kernel_inputs):
        for p in kernel_inputs:
            n, _, g = p._view
            want = canonicalize([n + 1 - x for x in blk] for blk in p.blocks)
            got = _lazy(*_relabel(g))
            assert got == want == complement(SetPartition(p.blocks), n)
            assert got._view[2] == tuple(ranks(want.blocks)[2])

    def test_profile_kernel(self, kernel_inputs):
        for p in kernel_inputs:
            ini, ter, sing = _profile(p._view[2], list(map(len, p.blocks)))
            assert ini == sorted(ini) and ter == sorted(ter) and sing == sorted(sing)
            prof = adjacency_profile(SetPartition(p.blocks))
            assert prof == (frozenset(ini), frozenset(ter), frozenset(sing), len(ini))
            assert (prof.initiators, prof.terminators, prof.singletons) == naive_profile(p)

    def test_view_stays_out_of_pickles(self):
        # The bytes of test_cached_support_leaves_eq_hash_and_pickle_alone,
        # with and without a cached support.
        for p in [*iter_set_partitions(5), *list(iter_set_partitions(9, (0, 1, 0, 2)))[::29]]:
            bare = SetPartition(p.blocks)
            assert pickle.dumps(p, 4) == pickle.dumps(bare, 4)
            assert p.support == bare.support
            assert pickle.dumps(p, 4) == pickle.dumps(bare, 4)
            back = pickle.loads(pickle.dumps(p))
            assert back == p and "_view" not in vars(back) and "_view" in vars(p)


def is_growth_string(g) -> bool:
    """Whether g is the pad 0 and then a growth string: each block number
    at most one above the largest before it, from 0."""
    top = -1
    for b in g[1:]:
        if b > top + 1:
            return False
        top = max(top, b)
    return g[:1] == (0,)


class TestKernelResults:
    """Each growth-string kernel returns (g, sizes): g a growth string
    with its pad, sizes its block counts, and _lazy of them the public
    map.  partition_shard trusts those sizes and works none out again."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_partition(self, n):
        for p in all_partitions(n):
            g, sizes = p._view[2], p._sizes
            bare = SetPartition(p.blocks)
            results = [(_relabel(g), complement(bare, n))]
            for shift in (-1, 1, n // 2):
                results.append((noncrossing._rotate(g, shift), rotate_partition(bare, shift)))
            results.append((phi_module._phi_growth(g, sizes)[0], phi(bare)))
            results.append((phi_module._phi_growth(g, sizes, True)[0], phi_inverse(bare)))
            gaps = noncrossing._kreweras(g, sizes)
            assert (gaps is None) != noncrossing.is_noncrossing(bare)
            if gaps is not None:
                results.append((gaps, kreweras_complement(bare)))
            for (qg, qsizes), want in results:
                assert is_growth_string(qg) and len(qg) == n + 1, (str(p), qg)
                assert Counter(qg[1:]) == dict(enumerate(qsizes)), (str(p), qg, qsizes)
                assert _lazy(qg, qsizes) == want, str(p)


def two_pass_partition(keys, labels=None):
    """(blocks, view) of the partition whose blocks are the ranks with
    equal keys, built in two passes: the growth string of _grow, then a
    walk over it that appends each rank to its block."""
    g = _grow(keys)[0]
    blocks: list[list[int]] = []
    for r in range(1, len(g)):
        if g[r] < len(blocks):
            blocks[g[r]].append(r)
        else:
            blocks.append([r])
    if labels is not None:
        blocks = [[labels[r] for r in blk] for blk in blocks]
    return tuple(map(tuple, blocks)), (len(g) - 1, labels, g)


def phi_roots(p, invert):
    """The raw roots of phi, or phi_inverse, on p: its transfer's result."""
    bid = p._view[2]
    return phi_module._transfer(bid, phi_module._strip(bid, p._sizes, invert), invert)[1:]


def builder_keys(p):
    """The keys that the kernels of the public maps hand to _grow for p, a
    partition of [n] with its growth string: the roots of phi and of
    phi_inverse, the reversed string (complement), three rotations and,
    for noncrossing p, the Kreweras pockets."""
    n, _, g = p._view
    sizes = list(map(len, p.blocks))
    out = [phi_roots(p, invert) for invert in (False, True)]
    out.append(g[:0:-1])
    for shift in (-1, 1, n // 2):
        cut = len(g) - shift % n
        out.append(g[cut:] + g[1:cut])
    pockets: list[int] = []
    return out if noncrossing._scan(g, sizes, pockets) else [*out, pockets]


class TestOnePassBuilder:
    """_lazy(*_grow(keys), labels) builds a result from the keys of a
    kernel in one pass; the two-pass builder it replaced is the oracle."""

    def test_equals_the_two_pass_builder(self, kernel_inputs):
        builds = 0
        for p in kernel_inputs:
            n = p._view[0]
            sparse = list(range(0, 3 * n + 1, 3))  # rank r is 3r
            for keys in builder_keys(p):
                for labels in (None, sparse):
                    q = _lazy(*_grow(keys), labels)
                    assert (q.blocks, q._view) == two_pass_partition(keys, labels)
                    builds += 1
        assert builds > 300_000

    def test_sparse_phi_roots(self, sparse_samples):
        for p in sparse_samples:
            for invert in (False, True):
                keys, labels = phi_roots(p, invert), p._view[1]
                q = _lazy(*_grow(keys), labels)
                assert (q.blocks, q._view) == two_pass_partition(keys, labels)
                assert q == (phi_inverse(p) if invert else phi(p))

    def test_public_maps_grow_once(self, monkeypatch):
        # Each map numbers its result's blocks in one _grow call, wherever
        # its kernel finds _grow, and the results stay the same.
        grown = []
        grow = partition_module._grow

        def counted(keys, top=None):
            grown.append(keys)
            return grow(keys, top)

        p = parse_partition("1 5 8 - 2 - 3 - 4 - 6 7")
        nc = parse_partition("1 4 - 2 3 - 5")
        calls = [
            lambda: phi(p),
            lambda: phi_inverse(p),
            lambda: complement(p, 8),
            lambda: conjugate(p, 8),
            lambda: kreweras_complement(nc),
            lambda: rotate_partition(p, 3),
        ]
        want = [call() for call in calls]
        for module in (partition_module, phi_module, noncrossing):
            monkeypatch.setattr(module, "_grow", counted)
        for call, q in zip(calls, want):
            grown.clear()
            assert call() == q
            assert len(grown) == 1


class TestComplement:
    def test_hand_example(self):
        assert complement(parse_partition("1 2 - 3"), 3) == parse_partition("2 3 - 1")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_involution(self, n):
        for p in all_partitions(n):
            assert complement(complement(p, n), n) == p

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reverses_initiators_and_terminators(self, n):
        for p in all_partitions(n):
            prof = adjacency_profile(p)
            cprof = adjacency_profile(complement(p, n))
            m = n + 1
            assert cprof.initiators == frozenset(m - t for t in prof.terminators)
            assert cprof.terminators == frozenset(m - i for i in prof.initiators)
            assert cprof.singletons == frozenset(m - s for s in prof.singletons)

    def test_requires_full_support(self):
        with pytest.raises(DomainError):
            complement(parse_partition("2 - 3"), 2)
        with pytest.raises(DomainError):
            complement(EMPTY, 0)


class TestInferredN:
    def test_full_support(self):
        assert inferred_n(parse_partition("1 3 - 2")) == 3

    @pytest.mark.parametrize("text", ["2 - 3", "1 - 3", ""])
    def test_gaps_rejected(self, text):
        with pytest.raises(DomainError):
            inferred_n(parse_partition(text))
