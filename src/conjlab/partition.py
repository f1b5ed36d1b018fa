"""Set partitions over finite supports of positive integers.

Canonical form everywhere: elements increase within a block, blocks are
ordered by their smallest element.  Adjacency is cyclic *within the
support of the partition itself*: the successor of the largest element
wraps around to the smallest, so a one-element support has succ(a) = a
and the lone element counts as one adjacency.

Only the order of the support matters to adjacencies, crossings and the
strip of phi, so their kernels work on the rank view (m, labels, bid)
of ranks(): bid[r] is the block of rank r, blocks numbered by least
element, so bid is the restricted growth string of a partition of [m]
(after a pad).  The kernels take and return growth strings; the public
functions are adapters that take a partition's view and build their
result in one pass with _partition: from the keys a kernel gives (the
transfer's roots, a reversed or rotated growth string) it makes blocks
and their growth string, which it hands on as the result's view.
The maps defined only on partitions of exactly [n] (cyclic adjacency
mod n) take their input's growth string from require_full_support, the
one check of that support; nothing passes a size past it.

Every block tuple of a partition of [m], m <= N_MAX_HARD, that the
library builds without labels is the one entry of _BLOCKS equal to it:
_shared makes the blocks of _partition's results and of phi's core, and
the enumeration of [n] looks up each block it rebuilds.  So results kept
over an exhaustive sweep share one tuple per block.  _BLOCKS maps each
such block to itself and holds at most 2^12 - 1 = 4,095 entries, the
nonempty subsets of [12], in about 0.5 MB when full.  Labelled supports,
m > N_MAX_HARD, and the partitions of canonicalize and parse_partition
build their own tuples.

Text form: blocks joined by " - ", elements by single spaces; the empty
partition is the empty string.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import DomainError, InvalidPartitionError, ParseError

# Largest n of an exhaustive sweep (B(12) = 4,213,597 partitions of [12]),
# and of the supports [n] whose blocks _BLOCKS shares.
N_MAX_HARD = 12

# Each block over [m], m <= N_MAX_HARD, that the library has built, keyed
# by itself: _share(blk, blk) is the one tuple equal to blk.  Only _shared
# and the enumeration of [n], n <= N_MAX_HARD, add to it.
_BLOCKS: dict[tuple[int, ...], tuple[int, ...]] = {}
_share = _BLOCKS.setdefault


class _Frozen:
    """A value of one field, named in _field, set by object.__setattr__."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return getattr(self, self._field) == getattr(other, self._field)

    def __hash__(self):
        return hash((getattr(self, self._field),))

    def __repr__(self):
        return f"{type(self).__name__}({self._field}={getattr(self, self._field)!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SetPartition(_Frozen):
    """A canonical set partition.

    Construct through canonicalize() or parse_partition() unless the block
    data is already canonical (sorted within blocks, blocks sorted by
    minimum, pairwise disjoint).  _view is a rank view handed over with
    the blocks, if any; it stays out of equality, hash, repr and pickles.
    """

    _field = "blocks"
    _view = None

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "blocks", blocks)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_view"}

    @cached_property
    def support(self) -> tuple[int, ...]:
        """All elements of the partition, increasing."""
        return tuple(sorted(x for blk in self.blocks for x in blk))

    def __str__(self) -> str:
        return format_partition(self)


EMPTY = SetPartition(())

_new = object.__new__


def _viewed(blocks, view) -> SetPartition:
    """SetPartition(blocks) carrying the rank view view of its blocks."""
    p = _new(SetPartition)
    p.__dict__["blocks"], p.__dict__["_view"] = blocks, view
    return p


class AdjacencyProfile(NamedTuple):
    """Initiators, terminators and singletons of one partition.

    An adjacency is an ordered pair (a, succ(a)) lying in one block; a is
    its initiator, succ(a) its terminator.  adjacency_count == number of
    initiators == number of terminators.
    """

    initiators: frozenset[int]
    terminators: frozenset[int]
    singletons: frozenset[int]
    adjacency_count: int


_EMPTY_PROFILE = AdjacencyProfile(frozenset(), frozenset(), frozenset(), 0)

_last = itemgetter(-1)


def support_size(blocks) -> tuple[int, bool]:
    """(m, full): the number of elements of canonical blocks, and whether
    they are exactly {1..m}.  O(#blocks): m distinct positive integers
    whose largest is m are 1..m."""
    m = sum(map(len, blocks))
    return m, not m or max(map(_last, blocks)) == m


def ranks(blocks):
    """(m, labels, bid): the rank view of canonical blocks over a support
    of size m.  labels[r] is the element of rank r, 1 <= r <= m (None when
    the support is {1..m}, so a rank is its element), and bid[r] the index
    of the block holding rank r."""
    m, full = support_size(blocks)
    if full:
        bid = [0] * (m + 1)
        for i, blk in enumerate(blocks):
            for x in blk:
                bid[x] = i
        return m, None, bid
    index = {x: i for i, blk in enumerate(blocks) for x in blk}
    ranked = sorted(index)
    return m, [0, *ranked], [0, *map(index.__getitem__, ranked)]


def _ranks_of(p: SetPartition):
    """The rank view of p: the one handed over, else ranks(p.blocks)."""
    return p._view or ranks(p.blocks)


def _renumber(keys) -> tuple[int, ...]:
    """The growth string of the partition of [m] whose blocks are the ranks
    with equal keys, keys[r - 1] in 0..m the key of rank r."""
    new = [-1] * (len(keys) + 1)
    out = [0]
    fresh = 0
    for k in keys:
        b = new[k]
        if b < 0:
            b = new[k] = fresh
            fresh += 1
        out.append(b)
    return tuple(out)


def _partition(keys, labels=None) -> SetPartition:
    """The partition whose blocks are the ranks with equal keys, read
    through labels (None: rank r is r), keys as for _renumber; it carries
    (m, labels, g) as its view, g = _renumber(keys) made in the same pass.
    Without labels its blocks are _shared."""
    new = [-1] * (len(keys) + 1)
    blocks: list[list[int]] = []
    g = [0]
    r = 0
    for k in keys:
        r += 1
        b = new[k]
        if b < 0:
            b = new[k] = len(blocks)
            blocks.append([r])
        else:
            blocks[b].append(r)
        g.append(b)
    view = (r, labels, tuple(g))
    if labels is None:
        return _viewed(_shared(map(tuple, blocks), r), view)
    return _viewed(tuple([tuple(map(labels.__getitem__, blk)) for blk in blocks]), view)


def _shared(blocks, m: int) -> tuple[tuple[int, ...], ...]:
    """The block tuples blocks of a partition of [m] as one tuple, each
    the entry of _BLOCKS equal to it when m <= N_MAX_HARD."""
    if m > N_MAX_HARD:
        return tuple(blocks)
    return tuple([_share(b, b) for b in blocks])


def _profile(bid, sizes) -> tuple[list[int], list[int], list[int]]:
    """(initiators, terminators, singletons) of the growth string bid with
    block sizes sizes, as increasing rank lists; rank r terminates when its
    cyclic predecessor, r - 1 or m for r = 1, shares its block."""
    m = len(bid) - 1
    initiators = []
    terminators = []
    singletons = []
    before = bid[m]
    for r in range(1, m + 1):
        b = bid[r]
        if b == before:
            initiators.append(r - 1)
            terminators.append(r)
        if sizes[b] == 1:
            singletons.append(r)
        before = b
    if terminators and terminators[0] == 1:  # the pair (m, 1)
        del initiators[0]
        initiators.append(m)
    return initiators, terminators, singletons


def adjacency_profile(p: SetPartition) -> AdjacencyProfile:
    """Pair each element with its cyclic successor: an adapter over _profile."""
    blocks = p.blocks
    if not blocks:
        return _EMPTY_PROFILE
    _, labels, bid = _ranks_of(p)
    ini, ter, sing = _profile(bid, list(map(len, blocks)))
    count = len(ini)
    if labels is not None:
        label = labels.__getitem__
        ini, ter, sing = map(label, ini), map(label, ter), map(label, sing)
    return AdjacencyProfile(frozenset(ini), frozenset(ter), frozenset(sing), count)


def canonicalize(raw_blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Validate raw blocks and sort them into canonical form."""
    blocks = []
    seen: set[int] = set()
    for raw in raw_blocks:
        blk = tuple(raw)
        if not blk:
            raise InvalidPartitionError("empty block")
        for x in blk:
            if isinstance(x, bool) or not isinstance(x, int) or x < 1:
                raise InvalidPartitionError(f"element {x!r} is not a positive integer")
            if x in seen:
                raise InvalidPartitionError(f"element {x} appears more than once")
            seen.add(x)
        blocks.append(tuple(sorted(blk)))
    blocks.sort()
    return SetPartition(tuple(blocks))


def require_full_support(p: SetPartition, n: int):
    """The growth string of p, a partition of {1, ..., n}; DomainError
    unless that is its support: n ranks whose labels, if any, end at n."""
    m, labels, bid = _ranks_of(p)
    if n < 1 or m != n or labels is not None and labels[-1] != n:
        got = format_partition(p) or "(empty)"
        raise DomainError(f"support of {got!r} is not 1..{n}")
    return bid


def inferred_n(p: SetPartition) -> int:
    """The n with supp(p) = {1..n}; DomainError if the support has gaps.
    n is the number of elements, and require_full_support decides."""
    n = sum(map(len, p.blocks))
    require_full_support(p, n)
    return n


def complement(p: SetPartition, n: int) -> SetPartition:
    """Relabel every element x of a partition of {1..n} as n + 1 - x.

    An involution; it reverses the cyclic order, so initiators and
    terminators trade places while singleton status is preserved.
    """
    return _relabel(require_full_support(p, n), _partition)


def _complement(k: SetPartition) -> SetPartition:
    """The complement of a Kreweras complement k, which carries the view
    of a partition of [n] (or is empty): no support to check."""
    return _relabel(_ranks_of(k)[2], _partition)


def _relabel(g, build=_renumber):
    """The growth string of x -> m + 1 - x on the growth string g of a
    partition of [m]: g read from rank m down to 1, renumbered by build
    (with _partition, the partition itself)."""
    return build(g[:0:-1])


def format_partition(p: SetPartition) -> str:
    """Dash notation: "3 5 12 - 4 8 10 - 7"; empty partition -> ""."""
    return " - ".join(" ".join(str(x) for x in blk) for blk in p.blocks)


# Longest accepted number token.  int() refuses strings longer than
# sys.get_int_max_str_digits() (4300 digits by default, never below 640
# unless unlimited), so longer tokens are turned away before conversion.
MAX_TOKEN_DIGITS = 100


def parse_positive(tok: str, what: str) -> int:
    """A positive integer written in ASCII digits; ParseError otherwise."""
    if len(tok) > MAX_TOKEN_DIGITS:
        raise ParseError(f"{what} of {len(tok)} characters exceeds {MAX_TOKEN_DIGITS} digits")
    if not (tok.isascii() and tok.isdigit()) or int(tok) < 1:
        raise ParseError(f"bad {what} {tok!r}")
    return int(tok)


def parse_partition(text: str) -> SetPartition:
    """Parse dash notation; elements may be space- or comma-separated."""
    if not text.strip():
        return EMPTY
    blocks = []
    seen: set[int] = set()
    for chunk in text.split("-"):
        tokens = chunk.replace(",", " ").split()
        if not tokens:
            raise ParseError(f"empty block in {text!r}")
        blk = []
        for tok in tokens:
            x = parse_positive(tok, "element")
            if x in seen:
                raise ParseError(f"duplicate element {x}")
            seen.add(x)
            blk.append(x)
        blk.sort()
        blocks.append(tuple(blk))
    blocks.sort()
    return SetPartition(tuple(blocks))


def partition_to_blocks(p: SetPartition) -> list[list[int]]:
    """Structured form used by the JSON output mode; canonicalize reads it back."""
    return [list(blk) for blk in p.blocks]

