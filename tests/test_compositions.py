import pickle

import pytest

from conjlab import (
    Composition,
    DomainError,
    ParseError,
    conjugate_composition,
    flip_path,
    format_composition,
    from_subset,
    iter_compositions,
    mu,
    mu_path,
    nu,
    nu_path,
    parse_composition,
    path_to_composition,
    sort_rank,
    strip_conjugate,
    to_path,
    to_subset,
)

C = Composition


def naive_mu(c: Composition) -> int:
    # Independent form: everything not in a 1-part.
    return c.n - sum(1 for part in c.parts if part == 1)


def naive_nu(c: Composition) -> int:
    # Independent form: 1-parts, plus each side of a boundary next to a
    # part of size >= 2.
    total = sum(1 for part in c.parts if part == 1)
    for left, right in zip(c.parts, c.parts[1:]):
        total += (left >= 2) + (right >= 2)
    return total


def naive_path(c: Composition) -> str:
    return "N".join("E" * (part - 1) for part in c.parts)


def mask_compositions(n: int) -> list[tuple[int, ...]]:
    # The parts of each composition of n, bit by bit of the cut mask
    # (bit i cuts after i + 1), masks ascending.
    out = []
    for mask in range(1 << (n - 1)):
        parts = []
        size = 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        out.append(tuple(parts))
    return out


def neighbour_nu(c: Composition) -> int:
    # nu counted part by part: 1-parts, and each big part's neighbours.
    parts = c.parts
    k = len(parts)
    total = sum(1 for part in parts if part == 1)
    for i, part in enumerate(parts):
        if part >= 2:
            total += (i > 0) + (i < k - 1)
    return total


def strips_conjugate(c: Composition) -> tuple[int, ...]:
    # Strip transfer on an explicit list of [kind, size] strips.
    strips: list[list] = []
    for part in c.parts:
        if part == 1:
            if strips and strips[-1][0] == "H":
                strips[-1][1] += 1
            else:
                strips.append(["H", 1])
        else:
            strips.append(["V", part])
    seq: list[list] = []
    for strip in strips:
        if seq and seq[-1][0] == "V" and strip[0] == "V":
            seq.append(["H", 0])
        seq.append(strip)
    for i, strip in enumerate(seq):
        if strip[0] == "H":
            for j in (i - 1, i + 1):
                if 0 <= j < len(seq) and seq[j][0] == "V":
                    seq[j][1] -= 1
                    strip[1] += 1
    parts: list[int] = []
    for kind, size in seq:
        if kind == "V":
            parts.extend([1] * size)
        else:
            parts.append(size)
    return tuple(parts)


class TestCompositionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Composition(())
        with pytest.raises(ValueError):
            Composition((2, 0))
        with pytest.raises(ValueError):
            Composition((-1,))

    @pytest.mark.parametrize("parts", [(True, 2), (2, True), (False,)])
    def test_bool_part_rejected(self, parts):
        # bool is an int subclass: True would otherwise format as "True,2".
        with pytest.raises(ValueError, match="positive integers"):
            Composition(parts)

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((), "composition needs at least one part"),
            ((0,), "parts must be positive integers: (0,)"),
            ((True, 2), "parts must be positive integers: (True, 2)"),
            ((1.0,), "parts must be positive integers: (1.0,)"),
            (("a",), "parts must be positive integers: ('a',)"),
        ],
    )
    def test_refusal_messages(self, parts, message):
        with pytest.raises(ValueError) as err:
            Composition(parts)
        assert str(err.value) == message

    def test_int_subclass_part_accepted(self):
        class Part(int):
            pass

        c = Composition((Part(2), 1))
        assert c == C((2, 1)) and c.n == 3

    def test_n_and_str(self):
        c = C((2, 1, 2, 3))
        assert c.n == 8
        assert str(c) == "2,1,2,3"

    def test_parse_format(self):
        assert parse_composition("2,1,2,3") == C((2, 1, 2, 3))
        assert parse_composition("2 1 2 3") == C((2, 1, 2, 3))
        assert format_composition(C((1, 3, 2, 1, 1))) == "1,3,2,1,1"
        with pytest.raises(ParseError):
            parse_composition("")
        with pytest.raises(ParseError):
            parse_composition("2,0,1")


class TestBuiltCompositions:
    """iter_compositions, conjugate_composition and strip_conjugate skip
    the validating constructor: the same values as the loops they replace
    and as Composition(parts)."""

    N = range(1, 15)

    def test_iter_compositions_is_the_mask_loop(self):
        for n in self.N:
            assert [c.parts for c in iter_compositions(n)] == mask_compositions(n)

    def test_strip_conjugate_and_nu_as_counted_before(self):
        for n in self.N:
            for c in iter_compositions(n):
                assert strip_conjugate(c).parts == strips_conjugate(c)
                assert nu(c) == neighbour_nu(c)

    def test_same_value_as_the_public_constructor(self):
        for n in self.N:
            for c in iter_compositions(n):
                for built in (c, conjugate_composition(c), strip_conjugate(c)):
                    public = C(built.parts)
                    assert type(built) is Composition and built == public
                    assert hash(built) == hash(public)
                    assert pickle.dumps(built) == pickle.dumps(public)


class TestSubsetAndPath:
    def test_worked_chain(self):
        c = C((2, 1, 2, 3))
        assert to_subset(c) == frozenset({2, 3, 5})
        assert to_path(c) == "ENNENEE"
        assert flip_path("ENNENEE") == "NEENENN"
        assert path_to_composition("NEENENN") == C((1, 3, 2, 1, 1))
        assert to_subset(C((1, 3, 2, 1, 1))) == frozenset({1, 4, 6, 7})
        assert conjugate_composition(c) == C((1, 3, 2, 1, 1))

    def test_subset_roundtrip(self):
        for n in range(1, 11):
            for c in iter_compositions(n):
                assert from_subset(to_subset(c), n) == c

    def test_path_roundtrip(self):
        for n in range(1, 11):
            for c in iter_compositions(n):
                path = to_path(c)
                assert path == naive_path(c)
                assert len(path) == n - 1
                assert path_to_composition(path, n) == c

    def test_path_validation(self):
        with pytest.raises(ParseError):
            path_to_composition("EXE")
        with pytest.raises(DomainError):
            path_to_composition("EN", 5)

    def test_flip_is_an_involution(self):
        assert flip_path(flip_path("ENNENEE")) == "ENNENEE"

    def test_bad_cut_points(self):
        with pytest.raises(DomainError):
            from_subset({5}, 4)
        with pytest.raises(DomainError):
            from_subset({0}, 4)


class TestConjugation:
    def test_involution(self):
        for n in range(1, 13):
            for c in iter_compositions(n):
                assert conjugate_composition(conjugate_composition(c)) == c

    def test_length_law(self):
        # A composition of n with k parts conjugates to one with n+1-k parts.
        for n in range(1, 13):
            for c in iter_compositions(n):
                assert len(conjugate_composition(c).parts) == n + 1 - len(c.parts)

    def test_equals_cut_set_complement(self):
        # The construction from the parts against the definition.
        for n in range(1, 15):
            for c in iter_compositions(n):
                cuts = to_subset(c)
                flipped = from_subset((i for i in range(1, n) if i not in cuts), n)
                assert conjugate_composition(c) == flipped

    def test_strip_transfer_agrees_with_path_flip(self):
        assert strip_conjugate(C((4, 2, 1, 2, 1, 1, 1, 3))) == C(
            (1, 1, 1, 2, 3, 5, 1, 1)
        )
        for n in range(1, 13):
            for c in iter_compositions(n):
                assert strip_conjugate(c) == conjugate_composition(c)


class TestStatistics:
    def test_worked_example(self):
        c = C((3, 1, 1, 4, 2))
        assert (mu(c), nu(c)) == (9, 6)
        path = to_path(c)
        assert (mu_path(path), nu_path(path)) == (9, 6)

    def test_strip_example_statistics(self):
        c = C((4, 2, 1, 2, 1, 1, 1, 3))
        assert (mu(c), nu(c)) == (11, 10)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_against_naive_forms(self, n):
        for c in iter_compositions(n):
            assert mu(c) == naive_mu(c)
            assert nu(c) == naive_nu(c)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_part_and_path_forms_agree(self, n):
        for c in iter_compositions(n):
            path = to_path(c)
            assert mu_path(path) == mu(c)
            assert nu_path(path) == nu(c)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_interchange_under_conjugation(self, n):
        for c in iter_compositions(n):
            d = conjugate_composition(c)
            assert mu(d) == nu(c)
            assert nu(d) == mu(c)

    def test_single_cell_exception(self):
        # The one composition where conjugation fixes the object but the
        # statistics differ: part form gives (0, 1), path form (0, 0).
        one = C((1,))
        assert conjugate_composition(one) == one
        assert (mu(one), nu(one)) == (0, 1)
        assert (mu_path(to_path(one)), nu_path(to_path(one))) == (0, 0)
        assert (mu(one), nu(one)) != (nu(one), mu(one))

    def test_path_statistics_on_flipped_path(self):
        for n in range(2, 11):
            for c in iter_compositions(n):
                path = to_path(c)
                assert mu_path(flip_path(path)) == nu_path(path)
                assert nu_path(flip_path(path)) == mu_path(path)


SORTED_N4 = [
    (4,),
    (1, 3),
    (2, 2),
    (3, 1),
    (1, 1, 2),
    (1, 2, 1),
    (2, 1, 1),
    (1, 1, 1, 1),
]


class TestSortedOrder:
    def test_n4_display_order(self):
        got = sorted(iter_compositions(4), key=sort_rank)
        assert [c.parts for c in got] == SORTED_N4

    @pytest.mark.parametrize("n", range(1, 11))
    def test_palindrome_property(self, n):
        # In length-then-lex order the i-th composition from the left is
        # the conjugate of the i-th from the right.
        ordered = sorted(iter_compositions(n), key=sort_rank)
        for left, right in zip(ordered, reversed(ordered)):
            assert conjugate_composition(left) == right
