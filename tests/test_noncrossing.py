from itertools import combinations

import pytest

from conjlab import (
    EMPTY,
    DomainError,
    SetPartition,
    canonicalize,
    catalan_number,
    conjugate,
    find_crossing,
    format_gaps,
    graphical_conjugate,
    is_noncrossing,
    kreweras_complement,
    parse_partition,
    phi,
    reduce_core,
    rotate_partition,
)

from conjlab import noncrossing as noncrossing_module
from conftest import all_partitions

P = parse_partition

FIGURE = P("1 5 8 - 2 - 3 - 4 - 6 7")


def naive_is_crossing(blocks) -> bool:
    """Quadruple scan: a < b < c < d with a, c and b, d in distinct blocks."""
    for b1, b2 in combinations(blocks, 2):
        for a, c in combinations(sorted(b1), 2):
            for b, d in combinations(sorted(b2), 2):
                if a < b < c < d or b < a < d < c:
                    return True
    return False


def block_of(p: SetPartition) -> dict[int, int]:
    """Element -> index of its block within p.blocks."""
    return {x: i for i, blk in enumerate(p.blocks) for x in blk}


def refines(fine: SetPartition, coarse: SetPartition) -> bool:
    cover = block_of(coarse)
    return all(len({cover[x] for x in blk}) == 1 for blk in fine.blocks)


def interleaved_ok(p: SetPartition, gaps: SetPartition) -> bool:
    """Noncrossing test for elements at odd and gaps at even circle spots."""
    blocks = [tuple(2 * x - 1 for x in blk) for blk in p.blocks]
    blocks += [tuple(2 * x for x in blk) for blk in gaps.blocks]
    return not naive_is_crossing(blocks)


class TestCrossingDetection:
    def test_canonical_crossing(self):
        assert find_crossing(P("1 3 - 2 4")) == (1, 2, 3, 4)

    def test_noncrossing_examples(self):
        for text in ["", "1 2 3", "1 4 - 2 3", "1 5 8 - 2 - 3 - 4 - 6 7"]:
            assert find_crossing(P(text)) is None

    def test_witness_is_a_real_crossing(self):
        for n in range(1, 8):
            for p in all_partitions(n):
                quad = find_crossing(p)
                if quad is not None:
                    a, b, c, d = quad
                    assert a < b < c < d
                    bid = block_of(p)
                    assert bid[a] == bid[c] != bid[b] == bid[d]

    def test_sparse_supports_against_naive_quadruple_scan(self, sparse_samples):
        crossing = 0
        for p in sparse_samples:
            assert is_noncrossing(p) == (not naive_is_crossing(p.blocks))
            quad = find_crossing(p)
            if quad is not None:
                crossing += 1
                a, b, c, d = quad
                assert a < b < c < d
                bid = block_of(p)
                assert bid[a] == bid[c] != bid[b] == bid[d]
        assert 0 < crossing < len(sparse_samples)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_naive_quadruple_scan(self, n):
        for p in all_partitions(n):
            assert is_noncrossing(p) == (not naive_is_crossing(p.blocks))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_noncrossing_count_is_catalan(self, n):
        count = sum(1 for p in all_partitions(n) if is_noncrossing(p))
        assert count == catalan_number(n)

    def test_order_isomorphism_only(self):
        # Only the relative order of the support matters.
        assert not is_noncrossing(P("10 30 - 20 40"))
        assert is_noncrossing(P("10 40 - 20 30"))


class TestKrewerasComplement:
    def test_figure_example(self):
        k = kreweras_complement(FIGURE)
        assert k == P("1 2 3 4 - 5 7 - 6 - 8")
        assert format_gaps(k) == "1' 2' 3' 4' - 5' 7' - 6' - 8'"

    def test_crossing_input_rejected(self):
        with pytest.raises(DomainError):
            kreweras_complement(P("1 3 - 2 4"))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rejects_exactly_the_crossing_partitions(self, n):
        for p in all_partitions(n):
            quad = find_crossing(p)
            if quad is None:
                kreweras_complement(p)
            else:
                with pytest.raises(DomainError) as err:
                    kreweras_complement(p)
                assert str(err.value) == f"partition is crossing: quadruple {quad}"

    def test_one_scan_without_find_crossing(self, monkeypatch):
        # The complement meets crossings in its own scan; find_crossing
        # runs only to name the witness of a crossing input.
        def refuse(p):
            raise AssertionError(f"find_crossing called on {p}")

        expected = {
            p: kreweras_complement(p)
            for n in range(1, 7)
            for p in all_partitions(n)
            if is_noncrossing(p)
        }
        monkeypatch.setattr(noncrossing_module, "find_crossing", refuse)
        for p, k in expected.items():
            assert kreweras_complement(p) == k
        with pytest.raises(AssertionError, match="find_crossing called"):
            kreweras_complement(P("1 3 - 2 4"))

    def test_partial_support_rejected(self):
        with pytest.raises(DomainError):
            kreweras_complement(P("2 - 3"))

    def test_empty_partition(self):
        assert kreweras_complement(EMPTY) == EMPTY

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_the_coarsest_compatible_gap_partition(self, n):
        # Oracle: a gap partition interleaves with p without crossings
        # exactly when it is itself noncrossing and refines the complement.
        for p in all_partitions(n):
            if not is_noncrossing(p):
                continue
            k = kreweras_complement(p)
            assert interleaved_ok(p, k)
            for sigma in all_partitions(n):
                compatible = is_noncrossing(sigma) and refines(sigma, k)
                assert interleaved_ok(p, sigma) == compatible

    @pytest.mark.parametrize("n", range(1, 9))
    def test_double_complement_is_backward_rotation(self, n):
        for p in all_partitions(n):
            if is_noncrossing(p):
                assert kreweras_complement(
                    kreweras_complement(p)
                ) == rotate_partition(p, -1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complement_is_noncrossing(self, n):
        for p in all_partitions(n):
            if is_noncrossing(p):
                assert is_noncrossing(kreweras_complement(p))


class TestGraphicalForms:
    def test_figure_phi_and_conjugate(self):
        assert kreweras_complement(FIGURE) == P("1 2 3 4 - 5 7 - 6 - 8")
        assert graphical_conjugate(FIGURE) == P("1 - 2 4 - 3 - 5 6 7 8")

    def test_single_block(self):
        assert graphical_conjugate(P("1 2 3")) == P("1 - 2 - 3")

    @pytest.mark.parametrize("n", range(1, 9))
    def test_agree_with_iterative_forms(self, n):
        for p in all_partitions(n):
            if is_noncrossing(p):
                assert kreweras_complement(p) == phi(p)
                assert graphical_conjugate(p) == conjugate(p, n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_core_empty_exactly_on_noncrossing(self, n):
        for p in all_partitions(n):
            assert is_noncrossing(p) == (reduce_core(p) == EMPTY)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_phi_preserves_noncrossing(self, n):
        for p in all_partitions(n):
            if is_noncrossing(p):
                assert is_noncrossing(phi(p))


class TestRotation:
    def test_hand_example(self):
        assert rotate_partition(P("1 2 - 3"), 1) == P("2 3 - 1")

    def test_full_turn_is_identity(self):
        for n in range(1, 7):
            for p in all_partitions(n):
                assert rotate_partition(p, n) == p

    def test_inverse_shifts_cancel(self):
        p = P("1 5 8 - 2 - 3 - 4 - 6 7")
        assert rotate_partition(rotate_partition(p, 3), -3) == p


class TestUnionWithComplement:
    def test_union_is_noncrossing_and_maximal(self):
        # Doubling the labels interleaves elements and gaps on one circle;
        # the union stays noncrossing, and merging any two complement
        # blocks breaks that.
        p = FIGURE
        k = kreweras_complement(p)
        assert interleaved_ok(p, k)
        kblocks = list(k.blocks)
        for i in range(len(kblocks)):
            for j in range(i + 1, len(kblocks)):
                merged = kblocks[:i] + kblocks[i + 1 : j] + kblocks[j + 1 :]
                merged.append(tuple(sorted(kblocks[i] + kblocks[j])))
                assert not interleaved_ok(p, canonicalize(merged))
