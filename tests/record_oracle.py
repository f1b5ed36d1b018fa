"""The record operations written on blocks and sets, as the library had
them before its kernels on growth strings: the oracle that the kernels,
through the public adapters, are compared against."""

from conjlab import EMPTY, ROLE_IS, ROLE_ST, SeparationRecord, SetPartition, adjacency_profile


def suppress(p: SetPartition, kill) -> SetPartition:
    """Delete the given elements from p, dropping any block that empties."""
    if not kill:
        return p
    blocks = [tuple([x for x in blk if x not in kill]) for blk in p.blocks]
    return SetPartition(tuple(sorted(filter(None, blocks))))


def naive_separate_is(p: SetPartition) -> SeparationRecord:
    prof = adjacency_profile(p)
    rho = suppress(p, prof.initiators | prof.singletons)
    return SeparationRecord(rho, prof.initiators, prof.singletons, ROLE_IS)


def naive_separate_st(p: SetPartition) -> SeparationRecord:
    prof = adjacency_profile(p)
    rho = suppress(p, prof.singletons | prof.terminators)
    return SeparationRecord(rho, prof.singletons, prof.terminators, ROLE_ST)


def naive_universe(rec: SeparationRecord) -> list[int] | None:
    """The sorted combined universe of rec, or None when rec is outside
    the combine domain."""
    supp = set(rec.rho.support)
    a_set, b_set = set(rec.a_set), set(rec.b_set)
    universe = sorted(supp | a_set | b_set)
    if not rec.rho.blocks and a_set == b_set and len(a_set) == 1:
        return universe
    if supp & a_set or supp & b_set or a_set & b_set:
        return None
    prev = universe[-1] if universe else None
    for x in universe:
        if prev in a_set and x in b_set:
            return None
        prev = x
    return universe


def naive_combine(rec: SeparationRecord, with_succ: bool) -> SetPartition | None:
    """Union-find over the sorted universe, indexed by a dict; None off
    the domain.  with_succ: a_set joins its successors' blocks (combine_is);
    otherwise b_set joins its predecessors' blocks (combine_st)."""
    universe = naive_universe(rec)
    if universe is None:
        return None
    if not universe:
        return EMPTY
    index = {x: i for i, x in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for blk in rec.rho.blocks:
        for x in blk[1:]:
            parent[find(index[x])] = find(index[blk[0]])
    moving, step = (rec.a_set, 1) if with_succ else (rec.b_set, -1)
    for x in moving:
        i = index[x]
        parent[find(i)] = find((i + step) % len(universe))
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(universe):
        groups.setdefault(find(i), []).append(x)
    return SetPartition(tuple(sorted(map(tuple, groups.values()))))
