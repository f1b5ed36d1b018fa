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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, ParseError
from .partition import parse_positive

# The path alphabet; a path is a plain str over it.
STEP_EAST = "E"
STEP_NORTH = "N"
_FLIP = str.maketrans("EN", "NE")


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composition needs at least one part")
        if any(not isinstance(x, int) or x < 1 for x in self.parts):
            raise ValueError(f"parts must be positive integers: {self.parts!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return format_composition(self)


def to_subset(c: Composition) -> frozenset[int]:
    """Cut points: proper partial sums of the parts, a subset of 1..n-1."""
    cuts = []
    total = 0
    for part in c.parts[:-1]:
        total += part
        cuts.append(total)
    return frozenset(cuts)


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
    cuts = to_subset(c)
    return "".join(STEP_NORTH if i in cuts else STEP_EAST for i in range(1, c.n))


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
    """Complement the cut set inside 1..n-1 (= flip every path step)."""
    n = c.n
    cuts = to_subset(c)
    return from_subset((i for i in range(1, n) if i not in cuts), n)


def mu(c: Composition) -> int:
    """Sum of the big parts (parts >= 2)."""
    return sum(part for part in c.parts if part >= 2)


def nu(c: Composition) -> int:
    """Number of 1-parts plus the total neighbour count of the big parts."""
    parts = c.parts
    k = len(parts)
    total = sum(1 for part in parts if part == 1)
    for i, part in enumerate(parts):
        if part >= 2:
            total += (i > 0) + (i < k - 1)
    return total


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
    strips: list[list] = []  # [kind, size], kind "V" or "H"
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
            parts.extend([1] * size)  # erased automatically when size == 0
        else:
            parts.append(size)
    return Composition(tuple(parts))


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
