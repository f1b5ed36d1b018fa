"""Set partitions over finite supports of positive integers.

Canonical form everywhere: elements increase within a block, blocks are
ordered by their smallest element.  Adjacency is cyclic *within the
support of the partition itself*: the successor of the largest element
wraps around to the smallest, so a one-element support has succ(a) = a
and the lone element counts as one adjacency.

Only the order of the support matters to adjacencies, crossings and the
strip of phi, so their kernels work on the rank view (m, labels, g) of
ranks(): g[r] is the block of rank r, blocks numbered by least element,
so g is the restricted growth string of a partition of [m] (after a
pad).  A SetPartition keeps the form it was built in, its blocks or its
view with block sizes; its blocks, _view, _sizes and support are kept
attributes (_Kept), each made from that form on its first read.  The
readers here and in phi and noncrossing take p._view and p._sizes, never
the blocks.  Every growth-string kernel (the relabel here, the transfer
of phi, the Kreweras complement and the rotation) returns what _grow
returns for the keys it makes, the result's growth string and block
sizes, and the public maps wrap that pair with _lazy; _grow is the one
place that numbers blocks.  The maps defined only on partitions of
exactly [n] take their input's growth string from require_full_support,
the one check of that support.

Every block tuple of a partition of [m], m <= N_MAX_HARD, that the
library builds without labels is the entry of _BY_MASK for its mask of
ranks, so results kept over an exhaustive sweep share one tuple per
block.  _BY_MASK, the one table that decides which tuple a block gets,
holds at most 2^12 - 1 = 4,095 entries, the nonempty subsets of [12], in
about 0.5 MB when full.  Only this module reads it: SetPartition.blocks
for a view, and _core for the core blocks of phi's strip; the
enumeration hands over only growth strings and sizes.

Text form: blocks joined by " - ", elements by single spaces; the empty
partition is the empty string.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import DomainError, InvalidPartitionError, ParseError

# Largest n of an exhaustive sweep (B(12) = 4,213,597 partitions of [12]),
# and of the supports [n] whose blocks _BY_MASK shares.
N_MAX_HARD = 12

# The mask of a block of ranks is the sum of _BITS[r] over its ranks r;
# the pad of a growth string, rank 0, adds nothing.
_BITS = (0, *(1 << r for r in range(1, N_MAX_HARD + 1)))


class _ByMask(dict):
    """The one tuple of each block over [m], m <= N_MAX_HARD, by its mask;
    a mask is added, with its block, on its first lookup."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        blk = self[mask] = tuple([r for r in range(1, mask.bit_length()) if mask >> r & 1])
        return blk


_BY_MASK = _ByMask()


class _Kept:
    """An attribute that func makes on its first read; the object keeps it."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


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
    minimum, pairwise disjoint).  A partition is built from its blocks,
    or by _lazy from a growth string g with its block sizes: its rank
    view _view is then (m, labels, g), m = len(g) - 1, and its block
    sizes _sizes.  blocks, _view, _sizes and support are kept
    attributes, each made from the other form on its first read.  _view
    and _sizes stay out of hash, repr and pickles.
    """

    _field = "blocks"

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "blocks", blocks)

    @_Kept
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks of a partition built from its view.  Over [m],
        m <= N_MAX_HARD, without labels they are the _BY_MASK entries of
        the block masks read from g."""
        m, labels, g = self._view
        if labels is None and 0 < m <= N_MAX_HARD:
            masks = [0] * len(self._sizes)
            for bit, b in zip(_BITS, g):
                masks[b] += bit
            return tuple(map(_BY_MASK.__getitem__, masks))
        lists: list[list[int]] = [[] for _ in self._sizes]
        ranked = zip(labels or range(m + 1), g)
        next(ranked)  # the pad
        for x, b in ranked:
            lists[b].append(x)
        return tuple(map(tuple, lists))

    @_Kept
    def _view(self):
        m, labels, bid = ranks(self.blocks)
        return m, labels, tuple(bid)

    @_Kept
    def _sizes(self) -> list[int]:
        return [*map(len, self.blocks)]

    @_Kept
    def support(self) -> tuple[int, ...]:
        """All elements of the partition, increasing."""
        if "_view" not in self.__dict__:
            return tuple(sorted(x for blk in self.blocks for x in blk))
        m, labels, _ = self._view
        return tuple(range(1, m + 1)) if labels is None else tuple(labels[1:])

    def __eq__(self, other):
        if other.__class__ is not SetPartition:
            return NotImplemented
        # Views over the same labels (or none) are equal when their growth strings are.
        a, b = self.__dict__.get("_view"), other.__dict__.get("_view")
        if a is None or b is None or (a[1] is None) != (b[1] is None):
            return self.blocks == other.blocks
        return a[2] == b[2] and (a[1] is None or a[1][1:] == b[1][1:])

    __hash__ = _Frozen.__hash__

    def __getstate__(self):  # the __dict__ of a partition built from blocks
        return {"blocks": self.blocks, **{k: v for k, v in vars(self).items() if k == "support"}}

    def __str__(self) -> str:
        return format_partition(self)


EMPTY = SetPartition(())
# Kept from the start, so EMPTY pickles the same whatever read it before.
EMPTY.__dict__["support"] = ()

_new = object.__new__


def _lazy(g, sizes, labels=None) -> SetPartition:
    """The partition of the growth string g, with block sizes sizes and
    its ranks read through labels (None: rank r is r); it builds its
    blocks when they are read."""
    p = _new(SetPartition)
    d = p.__dict__
    d["_view"], d["_sizes"] = (len(g) - 1, labels, g), sizes
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
_tuple_new = tuple.__new__  # builds a profile without the Python-level __new__

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


def _grow(keys, top=None) -> tuple[tuple[int, ...], list[int]]:
    """(g, sizes): the growth string of the partition of [m] whose blocks
    are the ranks with equal keys, keys[r - 1] in 0..top (m if None) the
    key of rank r, and its block sizes, in one pass."""
    new = [-1] * ((len(keys) if top is None else top) + 1)
    g = [0]
    sizes: list[int] = []
    for k in keys:
        b = new[k]
        if b < 0:
            b = new[k] = len(sizes)
            sizes.append(1)
        else:
            sizes[b] += 1
        g.append(b)
    return tuple(g), sizes


def _core(core, bid, labels=None) -> SetPartition:
    """The core blocks of a forward strip of phi: its core ranks, which
    it lists increasing, by block of bid; over [m], m <= N_MAX_HARD,
    without labels each is the _BY_MASK entry of its mask."""
    groups: dict[int, list[int]] = {}
    for r in core:
        groups.setdefault(bid[r], []).append(r if labels is None else labels[r])
    blocks = map(tuple, groups.values())
    if labels is None and len(bid) <= N_MAX_HARD + 1:
        blocks = [_BY_MASK[sum(map(_BITS.__getitem__, b))] for b in groups.values()]
    return SetPartition(tuple(blocks))


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
    sizes = p._sizes
    if not sizes:
        return _EMPTY_PROFILE
    _, labels, bid = p._view
    ini, ter, sing = _profile(bid, sizes)
    count = len(ini)
    if labels is not None:
        label = labels.__getitem__
        ini, ter, sing = map(label, ini), map(label, ter), map(label, sing)
    return _tuple_new(AdjacencyProfile, (frozenset(ini), frozenset(ter), frozenset(sing), count))


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
    m, labels, bid = p._view
    if n < 1 or m != n or labels is not None and labels[-1] != n:
        got = format_partition(p) or "(empty)"
        raise DomainError(f"support of {got!r} is not 1..{n}")
    return bid


def inferred_n(p: SetPartition) -> int:
    """The n with supp(p) = {1..n}; DomainError if the support has gaps.
    n is the number of elements, and require_full_support decides."""
    n = p._view[0]
    require_full_support(p, n)
    return n


def complement(p: SetPartition, n: int) -> SetPartition:
    """Relabel every element x of a partition of {1..n} as n + 1 - x.

    An involution; it reverses the cyclic order, so initiators and
    terminators trade places while singleton status is preserved.
    """
    return _lazy(*_relabel(require_full_support(p, n)))


def _complement(k: SetPartition) -> SetPartition:
    """The complement of a Kreweras complement k, which carries the view
    of a partition of [n] (or is empty): no support to check."""
    return _lazy(*_relabel(k._view[2]))


def _relabel(g):
    """(g, sizes) of x -> m + 1 - x on the growth string g of a partition
    of [m]: g read from rank m down to 1, renumbered by _grow."""
    return _grow(g[:0:-1])


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

