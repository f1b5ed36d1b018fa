"""Integer compositions, their lattice paths, and the conjugate.

A composition (c_1, ..., c_k) of n corresponds to the subset of cut
points {c_1, c_1+c_2, ...} inside {1..n-1}, and to the word of n-1 steps
over {E, N} whose i-th step is N exactly when i is a cut point.  The
conjugate flips every step (equivalently complements the cut set); it is
an involution and len(c) + len(conjugate(c)) = n + 1.

Statistics: mu = sum of the big parts (>= 2); nu = number of parts equal
to 1 plus the total number of neighbouring positions of big parts (an
interior part has two neighbours, an end part one, a sole part none).
Conjugation interchanges mu and nu for every n >= 2; the one composition
of n = 1 is the single exception, carrying (mu, nu) = (0, 1) while its
path form is empty and scores (0, 0).

The public constructor Composition(parts) validates its parts.  Results
the library makes itself (iter_compositions, conjugate_composition,
strip_conjugate) have positive parts by construction and go through
_composition, which skips the check.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable

from .errors import DomainError, ParseError
from .partition import _Frozen, _new, parse_positive

# The path alphabet; a path is a plain str over it.
STEP_EAST = "E"
STEP_NORTH = "N"
_FLIP = str.maketrans("EN", "NE")


class Composition(_Frozen):
    """An ordered tuple of positive parts."""

    _field = "parts"

    def __init__(self, parts: tuple[int, ...]):
        if not parts:
            raise ValueError("composition needs at least one part")
        # bool is an int subclass; other subclasses are accepted
        if any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in parts):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return format_composition(self)


def _composition(parts: tuple[int, ...]) -> Composition:
    """Composition(parts) without the check, for parts the library made."""
    c = _new(Composition)
    c.__dict__["parts"] = parts
    return c


def to_subset(c: Composition) -> frozenset[int]:
    """Cut points: proper partial sums of the parts, a subset of 1..n-1."""
    return frozenset(accumulate(c.parts[:-1]))


def from_subset(cuts: Iterable[int], n: int) -> Composition:
    """Composition of n with the given cut points."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    cut_list = sorted(set(cuts))
    if cut_list and not (1 <= cut_list[0] and cut_list[-1] <= n - 1):
        raise DomainError(f"cut points {cut_list} not inside 1..{n - 1}")
    parts = []
    prev = 0
    for cut in cut_list:
        parts.append(cut - prev)
        prev = cut
    parts.append(n - prev)
    return Composition(tuple(parts))


def to_path(c: Composition) -> str:
    """The n-1 step E/N word of c (step i is N iff i is a cut point)."""
    steps = [STEP_EAST] * (c.n - 1)
    for cut in to_subset(c):
        steps[cut - 1] = STEP_NORTH
    return "".join(steps)


def path_to_composition(path: str, n: int | None = None) -> Composition:
    """Composition whose path is the given word; n defaults to len(path)+1."""
    if any(ch not in "EN" for ch in path):
        raise ParseError(f"path may only contain E and N: {path!r}")
    if n is None:
        n = len(path) + 1
    elif n != len(path) + 1:
        raise DomainError(f"path of {len(path)} steps needs n = {len(path) + 1}")
    cuts = [i for i, ch in enumerate(path, start=1) if ch == STEP_NORTH]
    return from_subset(cuts, n)


def flip_path(path: str) -> str:
    """Swap E and N at every position."""
    return path.translate(_FLIP)


def conjugate_composition(c: Composition) -> Composition:
    """Complement the cut set inside 1..n-1 (= flip every path step).

    Built from the parts: the path of c is E^(c_1 - 1) N E^(c_2 - 1) ...,
    so the flipped path is N^(c_1 - 1) E N^(c_2 - 1) ..., and each N in
    it closes a part whose size counts the Es since the N before.
    """
    parts = []
    size = 0
    for part in c.parts:
        size += 1  # the E before this run, or the start
        if part > 1:
            parts.append(size)
            parts += [1] * (part - 2)
            size = 1
    parts.append(size)
    return _composition(tuple(parts))


def mu(c: Composition) -> int:
    """Sum of the big parts (parts >= 2)."""
    return sum(part for part in c.parts if part >= 2)


def nu(c: Composition) -> int:
    """Number of 1-parts plus the total neighbour count of the big parts.

    Each big part has two neighbours, less one at each end of c.
    """
    parts = c.parts
    ones = parts.count(1)
    return 2 * len(parts) - ones - (parts[0] > 1) - (parts[-1] > 1)


def mu_path(path: str) -> int:
    """Path form of mu: #E + #EN + [path ends with E]; empty path -> 0."""
    if not path:
        return 0
    return path.count("E") + path.count("EN") + (path[-1] == "E")


def nu_path(path: str) -> int:
    """Path form of nu: #N + #EN + [path starts with N]; empty path -> 0."""
    if not path:
        return 0
    return path.count("N") + path.count("EN") + (path[0] == "N")


def strip_conjugate(c: Composition) -> Composition:
    """Conjugate by strip transfer; equals conjugate_composition.

    The parts become alternating strips: each big part a vertical strip,
    each maximal run of 1s a horizontal strip, with an empty horizontal
    strip inserted between adjacent vertical ones.  Every horizontal strip
    then absorbs one square from each neighbouring vertical strip, emptied
    vertical strips are erased, and the whole picture is rotated a quarter
    turn (vertical strips of height h become h parts of 1; horizontal
    strips of width w become a part w).
    """
    parts: list[int] = []
    k = len(c.parts)
    width = 0  # the open horizontal strip: its 1s and its absorbed squares
    for i, part in enumerate(c.parts):
        if part == 1:
            width += 1
            continue
        # A vertical strip, with a horizontal strip (maybe empty) on each
        # side that is not an end of c.  The one before it absorbs a
        # square and closes; the one after it opens with another.
        if i:
            parts.append(width + 1)
        parts += [1] * (part - (i > 0) - (i < k - 1))
        width = 1
    if c.parts[-1] == 1:
        parts.append(width)
    return _composition(tuple(parts))


def sort_rank(c: Composition) -> tuple[int, tuple[int, ...]]:
    """Sort key: length first, then lexicographic on the parts.

    In the resulting order of all compositions of n, the i-th from the
    left is the conjugate of the i-th from the right.
    """
    return (len(c.parts), c.parts)


def format_composition(c: Composition) -> str:
    return ",".join(str(part) for part in c.parts)


def parse_composition(text: str) -> Composition:
    """Parse comma- or space-separated positive parts."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty composition")
    return Composition(tuple(parse_positive(tok, "part") for tok in tokens))
