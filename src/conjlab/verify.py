"""Exhaustive verification harness.

Runs every library invariant over complete enumerations: all set
partitions of [n] up to a bound (via restricted growth strings), all
compositions of n up to a second bound, plus fixed small cases that pin
conventions (one-element supports, the n=1 composition exception, sparse
random supports).

The work is a list of pure tasks returning plain dicts: the partition
shards (all partitions of one n, or with several jobs one
restricted-growth-string prefix of them), one composition sweep per n,
and the fixed checks.  With several jobs every task goes to one process
pool, costliest first.  Reports are byte-identical regardless of the job
count: results are merged in task order (shards in prefix order), and
the first counterexample in enumeration order is kept.

A partition shard runs every invariant on the growth strings that the
enumeration hands over, through the array kernels of partition, phi and
noncrossing, and those of separate for the record-based reference path
(separate/combine and the trace); for n <= IMAGE_CAP it returns its phi
images as a sorted list of distinct byte keys, which the parent counts
by merging the shards' lists, so it holds no image set.  A shard reads
no partition's blocks but for counterexample text.  The union of p and
its Kreweras complement is one block-id array too, on the interleaved
ranks 1..2n; the crossing scan reads it once, and once per pair of gap
blocks merged.  complement-involution also checks the relabel kernel
against its definition, written out without it.  The trace of p is its
first strip step and the trace of the remainder, which many partitions
share, so each distinct remainder is traced once per shard.

Each family (partitions, compositions, fixed cases) has one invariant
table of (id, scope, largest n or cases, check) rows in report order;
the scope string and the examined-item count of every row derive from
it.  A check is a function of one context: a partition or a composition
(the item rows), the totals of one n (the per-n rows), or a fixed case.
It returns None on a pass, else the suffix of its counterexample, and
its docstring states the claim.  _run runs the checks of one context in
table order: a check that raises fails its own row, naming the
exception type, and skips the context's later checks.  The item contexts
are __slots__ objects that the checks fill as they go, so a check reads
what an earlier one computed.  Adding an invariant takes one table row
and its check function.
"""

from __future__ import annotations

from collections import Counter
import heapq
from itertools import chain, combinations, groupby
import random
from typing import NamedTuple

from .compositions import (
    Composition,
    conjugate_composition,
    flip_path,
    format_composition,
    mu,
    mu_path,
    nu,
    nu_path,
    sort_rank,
    strip_conjugate,
    to_path,
    to_subset,
)
from .enumeration import (
    COMP_N_MAX_HARD,
    N_MAX_HARD,
    _asymmetric_pair,
    bell_number,
    catalan_number,
    iter_compositions,
    iter_set_partitions,
    iter_set_partitions_of,
    random_partition,
    rgs_prefixes,
)
from .errors import DomainError
from .noncrossing import _kreweras, _rotate, _scan, kreweras_complement
from .partition import (
    EMPTY,
    SetPartition,
    _core,
    _lazy,
    _profile,
    _relabel,
    adjacency_profile,
    format_partition,
    parse_partition,
)
from .phi import _phi_growth, conjugate, phi, phi_inverse, reduce_core
from .separate import (
    ROLE_IS,
    SeparationRecord,
    _combine,
    _reinsert,
    _separate,
    _trace,
    combine_domain_ok,
    combine_is,
    combine_st,
    separate_is,
    separate_st,
)

# Caps above which individual checks switch off (the costly ones have
# their own exhaustive budgets).
PARSE_CAP = 8  # text round-trip
TRACE_CAP = 9  # record-based trace checks (exactness, record inverse)
IMAGE_CAP = 10  # counting distinct phi images, as bytes keys (a letter is <= n)
UNION_CAP = 10  # interleaved-union maximality
PALINDROME_CAP = 14
SUBSET_LEX_CAP = 12
# Most worker processes a run may ask for.  The pool forks all of them at
# once, and n_max = N_MAX_HARD makes at most 145 tasks, so more would only
# cost processes.
JOBS_MAX_HARD = 32
SPARSE_TRIALS = 120
SPARSE_SEED = 20240811
_SHARD_DEPTH = 4  # RGS prefix length for parallel shards


class CheckResult(NamedTuple):
    """Outcome of one invariant over its whole scope."""

    invariant: str
    scope: str
    items: int
    failures: int  # failing items; 0 on pass
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


class VerifyReport(NamedTuple):
    n_max: int
    comp_n_max: int
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def total_items(self) -> int:
        return sum(r.items for r in self.results)

    def first_failure(self) -> CheckResult | None:
        return next((r for r in self.results if not r.ok), None)

    def to_records(self) -> list[dict]:
        return [
            {
                "invariant": r.invariant,
                "scope": r.scope,
                "items": r.items,
                "status": "pass" if r.ok else "fail",
                "failures": r.failures,
                "counterexample": r.counterexample,
            }
            for r in self.results
        ]

    def render(self) -> str:
        lines = [
            f"verification suite: partitions n <= {self.n_max}, "
            f"compositions n <= {self.comp_n_max}"
        ]
        width = max(len(r.invariant) for r in self.results)
        swidth = max(len(r.scope) for r in self.results)
        for r in self.results:
            mark = "PASS" if r.ok else "FAIL"
            line = f"[{mark}] {r.invariant:<{width}}  {r.scope:<{swidth}}  items={r.items}"
            if r.counterexample:
                line += f"  counterexample: {r.counterexample}"
            lines.append(line)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"result: {verdict} ({len(self.results)} invariants, "
            f"{self.total_items} items)"
        )
        return "\n".join(lines)


def _fail(fails: dict, inv: str, ce: str | None, count: int = 1) -> None:
    """Tally count failures of inv, keeping the first counterexample."""
    fails.setdefault(inv, [0, ce])[0] += count


def _raised(exc: Exception) -> str:
    """What a counterexample says of a check that raised exc."""
    return f" raised {type(exc).__name__}"


def _run(checks, x, fails: dict, text) -> bool:
    """Run checks, (id, check) pairs, in order on the context x.

    A check returns None on a pass, else what the counterexample text(x)
    lacks (a fixed case may have no text, so the join is stripped).  A
    check that raises fails its own id, naming the exception type, and
    skips the later checks: False then.
    """
    for inv, check in checks:
        try:
            why = check(x)
        except Exception as exc:
            _fail(fails, inv, (text(x) + _raised(exc)).lstrip())
            return False
        if why is not None:
            _fail(fails, inv, (text(x) + why).lstrip() or None)
    return True


def _checks(table, n: int, at: str) -> list:
    """(id, check) for each row of table whose scope reads at ("item", "nc"
    or "n") and whose scope and cap cover n, in table order."""
    return [
        (inv, check) for inv, (*_, least, lv), cap, check in table if lv == at and least <= n <= cap
    ]


def _text(g, sizes) -> str:
    """A growth string with its block sizes in dash notation, for
    counterexample text."""
    return format_partition(_lazy(g, sizes))


def _item_text(x) -> str:
    return f"n={x.n} p={format_partition(x.p)}"


def _comp_text(x) -> str:
    return f"n={x.n} c={format_composition(x.c)}"


def _n_text(totals) -> str:
    return f"n={totals['n']}"


def _case_text(case) -> str:
    """A fixed case's fields, its partition p in dash notation."""
    return " ".join(f"{k}={format_partition(v) if k == 'p' else v}" for k, v in case.items())


def _with_step(tail: tuple, step: tuple, back, tau, source=None) -> tuple:
    """The trace verdict (tau_0, first failing trace-record-inverse row,
    last failing reverse-phase-exactness row; 0 for none) of a partition
    whose first strip step is step, (rho, I, S) from _separate, from tail,
    the verdict of rho, whose rows shift up by one.  back is the combine_is
    of step (None off the domain), tau is tau_0; source, if given, is the
    partition whose _separate here gave step, so a back equal to it
    separates into step again."""
    tau_1, inverse, exact = tail
    if back is None or back != source and _separate(back, False) != step:
        inverse = 1
    elif inverse:
        inverse += 1
    if exact:
        exact += 1
    elif _separate(tau, True) != (tau_1, *step[1:]):
        exact = 1
    return tau, inverse, exact


def _trace_tail(rho: SetPartition) -> tuple:
    """The trace verdict of rho (see _with_step), from its trace."""
    steps, taus = _trace(rho)
    verdict = (taus[0], 0, 0)
    for step, tau in zip(reversed(steps), taus[1:]):
        verdict = _with_step(verdict, step, _combine(*step, True), tau)
    return verdict


class _Item:
    """What the checks of one partition p of [n] read, filled eagerly.

    The shard sets n, the trace-tail cache, the phi image set (None
    above IMAGE_CAP) and filed, the number of images filed in it, once.
    Per partition it sets p, its growth string g and block sizes, its
    profile (initiators, terminators, singletons) and whether it is
    noncrossing (nc).  Each check sets what a later one reads, a partition
    as a (growth string, block sizes) pair: comp, the complement; step,
    the separate_is record, with back and back_st, the combines of both
    records; phi and the core of its strip; verdict, the trace verdict of
    _with_step; conj, the conjugate, involutive and swaps, its two laws;
    gaps, the Kreweras complement of a noncrossing p.
    """

    __slots__ = ("n", "tails", "image", "filed", "p", "g", "sizes", "profile", "nc", "comp", "step",
                 "back", "back_st", "phi", "core", "verdict", "conj", "involutive", "swaps", "gaps")


def _balance(x) -> str | None:
    """Every partition has as many adjacency initiators as terminators (§1)."""
    return "" if len(x.profile[0]) != len(x.profile[1]) else None


def _parse_format_roundtrip(x) -> str | None:
    """Parsing the dash notation of p gives p back."""
    return "" if parse_partition(str(x.p)) != x.p else None


def _complement_involution(x) -> str | None:
    """The complement x -> n + 1 - x is an involution, and the relabel kernel meets its definition.

    The definition, written without the relabel kernel: the growth string
    read backwards, blocks renumbered by first occurrence.
    """
    g = x.g
    x.comp = cg, _ = _relabel(g)
    rev = g[:0:-1]
    first = {b: i for i, b in enumerate(dict.fromkeys(rev))}
    return "" if _relabel(cg)[0] != g or cg != (0, *map(first.__getitem__, rev)) else None


def _complement_role_swap(x) -> str | None:
    """The complement swaps initiators with terminators and keeps singletons."""
    m = x.n + 1
    ini, ter, sing = x.profile
    want = [m - t for t in ter[::-1]], [m - i for i in ini[::-1]], [m - s for s in sing[::-1]]
    return "" if _profile(*x.comp) != want else None


def _separate_records_in_domain(x) -> str | None:
    """separate_is and separate_st give records in their combines' domains (§1)."""
    p = x.p
    x.step = step = _separate(p, False, x.profile)  # (rho, I, S)
    x.back = back = _combine(*step, True)
    rec_st = _separate(p, True, x.profile)
    x.back_st = back_st = None if back is None else _combine(*rec_st, False)
    return "" if back_st is None else None


def _separate_combine_roundtrip(x) -> str | None:
    """combine_is undoes separate_is, and combine_st undoes separate_st (§1).

    Vacuous off the combine domain, which the row before fails.
    """
    return "" if x.back_st is not None and (x.back != x.p or x.back_st != x.p) else None


def _combine_domain_role_symmetry(x) -> str | None:
    """The separate_is record is in combine_st's domain exactly when in combine_is's."""
    return "" if (_combine(*x.step, False) is None) != (x.back is None) else None


def _phi_support_preserved(x) -> str | None:
    """phi(p) is a partition of the support of p (§1).

    Also files the growth string of phi(p) in the shard's image set.
    """
    x.phi, x.core = _phi_growth(x.g, x.sizes)
    qg = x.phi[0]
    if x.image is not None:
        x.image.add(bytes(qg))
        x.filed += 1
    return "" if len(qg) != x.n + 1 else None


def _phi_statistic_interchange(x) -> str | None:
    """phi(p)'s singletons are p's initiators, and its terminators p's singletons (§1)."""
    ini, _, sing = x.profile
    _, qter, qsing = _profile(*x.phi)
    return None if qsing == ini and qter == sing else f" phi(p)={_text(*x.phi)}"


def _phi_inverse_identity(x) -> str | None:
    """phi_inverse(phi(p)) = p (§1)."""
    return "" if _phi_growth(*x.phi, True)[0][0] != x.g else None


def _phi_trace_agreement(x) -> str | None:
    """The record-based trace, separate_is down to the core and combine_st back, ends at phi(p).

    The trace of p takes its first step, then traces the remainder, whose
    verdict the shard computes once.
    """
    rho, a, b = step = x.step
    if a or b:
        key = rho.support, rho._view[2]
        tail = x.tails.get(key)
        if tail is None:
            tail = x.tails[key] = _trace_tail(rho)
        x.verdict = _with_step(tail, step, x.back, _reinsert(tail[0], a, b), x.p)
    else:
        x.verdict = (x.p, 0, 0)  # no step: no rows
    return "" if x.verdict[0] != _lazy(*x.phi) else None


def _reverse_phase_exactness(x) -> str | None:
    """Each trace step back, combine_st, separates by separate_st into that step's record."""
    return f" j={x.verdict[2]}" if x.verdict[2] else None


def _trace_record_inverse(x) -> str | None:
    """Each forward record of the trace combines by combine_is and separates back into itself."""
    return f" j={x.verdict[1]}" if x.verdict[1] else None


def _conjugate_involution(x) -> str | None:
    """conjugate, phi then the complement, is an involution on the partitions of [n] (§1)."""
    x.conj = cq, cqsizes = _relabel(x.phi[0])
    x.involutive = _relabel(_phi_growth(cq, cqsizes)[0][0])[0] == x.g
    return None if x.involutive else f" conj(p)={_text(cq, cqsizes)}"


def _conjugate_interchange(x) -> str | None:
    """conjugate interchanges the number of singletons with the number of adjacencies (§1)."""
    ini, _, sing = x.profile
    cqini, _, cqsing = _profile(*x.conj)
    x.swaps = len(cqsing) == len(ini) and len(cqini) == len(sing)
    return None if x.swaps else ""


def _nc_core_characterization(x) -> str | None:
    """p is noncrossing exactly when the strip of phi leaves no core."""
    return f" core={format_partition(_core(x.core, x.g))}" if x.nc == bool(x.core) else None


def _nc_closure(x) -> str | None:
    """phi and conjugate map noncrossing partitions to noncrossing partitions."""
    return None if _scan(*x.phi) is None and _scan(*x.conj) is None else ""


def _nc_graphical_phi(x) -> str | None:
    """On a noncrossing partition, phi is the Kreweras complement."""
    x.gaps = kg, ksizes = _kreweras(x.g, x.sizes)
    return f" gaps={_text(kg, ksizes)}" if kg != x.phi[0] else None


def _nc_graphical_conjugate(x) -> str | None:
    """On a noncrossing partition, conjugate is the complement of the Kreweras complement."""
    return "" if _relabel(x.gaps[0])[0] != x.conj[0] else None


def _nc_conjugation_involution(x) -> str | None:
    """On noncrossing partitions, conjugate is an involution swapping singletons and adjacencies."""
    return None if x.involutive and x.swaps else ""


def _kreweras_double_rotation(x) -> str | None:
    """The Kreweras complement taken twice rotates the labels back by one."""
    return "" if _kreweras(*x.gaps) != _rotate(x.g, -1) else None


def _kreweras_union_maximal(x) -> str | None:
    """p and its Kreweras complement interleave noncrossing, and no two gap blocks can merge."""
    ok, why = _union_maximal(x.g, x.sizes, *x.gaps)
    return None if ok else f" {why}"


def _union_maximal(g, sizes, kg, ksizes) -> tuple[bool, str]:
    """p (growth string g, block sizes sizes) on the odd ranks 2x - 1 of
    [2n], its gap partition (growth string kg, block sizes ksizes) on the
    even ranks 2x, gap block b as block k + b after the k blocks of p.

    The union must be noncrossing on the interleaved cycle, and merging
    any two gap blocks must create a crossing (the complement is the
    largest disjoint completion).
    """
    k = len(sizes)
    union = [0] * (2 * len(g) - 1)
    union[1::2] = g[1:]
    union[2::2] = [k + b for b in kg[1:]]
    sizes = [*sizes, *ksizes]
    if _scan(union, sizes):
        return False, "union crosses"
    for i in range(k, len(sizes)):
        for j in range(i + 1, len(sizes)):
            merged = [i if b == j else b for b in union]
            if _scan(merged, [*sizes[:i], sizes[i] + sizes[j], *sizes[i + 1 :]]) is None:
                gaps = [tuple(2 * x for x in blk) for blk in _lazy(kg, ksizes).blocks]
                return False, f"gap blocks {gaps[i - k]} and {gaps[j - k]} merge without crossing"
    return True, ""


def _phi_injective_image(t) -> str | None:
    """phi is injective: the partitions of [n] have B(n) distinct images (§1).

    The distinct images are compared with the images filed, not with the
    partitions: a partition whose check raised before phi's row has no
    image, and fails that row alone.  Each shard's keys are sorted and
    distinct: merged, equal keys from different shards sit next to each
    other.
    """
    image = sum(1 for _ in groupby(heapq.merge(*t["images"])))
    return f" image={image} of {t['filed']}" if image != t["filed"] else None


def _sing_adj_distribution_symmetric(t) -> str | None:
    """Singletons and adjacencies are symmetrically distributed over the partitions of [n] (§1)."""
    dist = t["dist"]
    asym = _asymmetric_pair(dist)
    return None if asym is None else f" pair {asym}: {dist[asym]} vs {dist[asym[1], asym[0]]}"


def _enum_bell_count(t) -> str | None:
    """The enumeration gives the Bell number B(n) of partitions of [n]."""
    want = bell_number(t["n"])
    return f" count={t['count']} expected={want}" if t["count"] != want else None


def _enum_catalan_count(t) -> str | None:
    """Exactly C(n), the Catalan number, of the partitions of [n] are noncrossing."""
    want = catalan_number(t["n"])
    return f" count={t['nc']} expected={want}" if t["nc"] != want else None


def partition_shard(n: int, prefix: tuple[int, ...] = ()) -> dict:
    """Run every per-partition invariant over one RGS-prefix shard of [n].

    Returns a plain dict (picklable) with counts, failures keyed by
    invariant id, the phi images as a sorted list of distinct byte keys
    (bytes of the growth string; None above IMAGE_CAP) with filed, the
    number of partitions whose image was filed, and the
    singleton/adjacency distribution tally.  The profile and the crossing
    scan that the tallies read come before any check, and a raise there
    fails the first row; the noncrossing rows run on noncrossing
    partitions alone.
    """
    fails: dict[str, list] = {}
    dist: dict[tuple[int, int], int] = {}
    count = nc_count = 0
    checks = _checks(_PARTITION_TABLE, n, "item")
    nc_checks = _checks(_PARTITION_TABLE, n, "nc")
    image = set() if n <= IMAGE_CAP else None
    x = _Item()
    # tails: remainder (support, view) -> its verdict
    x.n, x.tails, x.image, x.filed = n, {}, image, 0
    for p in iter_set_partitions(n, prefix):
        count += 1
        x.p = p
        g = x.g = p._view[2]  # the growth string of p
        sizes = x.sizes = p._sizes
        try:
            ini, _, sing = x.profile = _profile(g, sizes)
            x.nc = nc = _scan(g, sizes) is None
        except Exception as exc:
            _fail(fails, checks[0][0], _item_text(x) + _raised(exc))
            continue
        key = len(sing), len(ini)
        dist[key] = dist.get(key, 0) + 1
        nc_count += nc
        if _run(checks, x, fails, _item_text) and nc:
            _run(nc_checks, x, fails, _item_text)
    image = None if image is None else sorted(image)
    return {"count": count, "nc": nc_count, "fails": fails, "dist": dist, "image": image,
            "filed": x.filed}


class _Comp:
    """What the checks of one composition c of n read, filled eagerly: the
    sweep sets n once, and c with its mu and nu per composition; each
    check sets what a later one reads."""

    __slots__ = ("n", "c", "mu", "nu", "cc", "path")


def _comp_conjugate_involution(x) -> str | None:
    """Conjugation of compositions is an involution."""
    x.cc = cc = conjugate_composition(x.c)
    return "" if conjugate_composition(cc) != x.c else None


def _comp_length_law(x) -> str | None:
    """A composition of n and its conjugate have n + 1 parts between them."""
    return "" if len(x.c.parts) + len(x.cc.parts) != x.n + 1 else None


def _comp_strip_agreement(x) -> str | None:
    """The strip-transfer conjugate equals the lattice-path flip."""
    strip = strip_conjugate(x.c)
    if strip != x.cc:
        return f" strip={format_composition(strip)} flip={format_composition(x.cc)}"
    return None


def _comp_mu_nu_interchange(x) -> str | None:
    """Conjugation interchanges mu and nu, for n >= 2."""
    return "" if mu(x.cc) != x.nu or nu(x.cc) != x.mu else None


def _comp_path_agreement(x) -> str | None:
    """mu and nu read off the lattice path equal mu and nu of the parts."""
    x.path = path = to_path(x.c)
    return "" if mu_path(path) != x.mu or nu_path(path) != x.nu else None


def _comp_path_flip_duality(x) -> str | None:
    """mu of the flipped lattice path is nu of the path."""
    return "" if mu_path(flip_path(x.path)) != nu_path(x.path) else None


def _comp_sorted_palindrome(t) -> str | None:
    """Sorted by sort_rank, the compositions of n are their conjugates in reverse order."""
    ordered = sorted(t["comps"], key=sort_rank)
    for i, c in enumerate(ordered):
        if conjugate_composition(c) != ordered[len(ordered) - 1 - i]:
            return f" position={i} c={format_composition(c)}"
    return None


def _comp_subset_lex_order(t) -> str | None:
    """Among compositions of one length, lex order on parts is order on partial-sum sets."""
    by_len: dict[int, list[Composition]] = {}
    for c in t["comps"]:
        by_len.setdefault(len(c.parts), []).append(c)
    for length, group in sorted(by_len.items()):
        in_lex = sorted(group, key=lambda c: c.parts)
        subsets = sorted(tuple(sorted(to_subset(c))) for c in group)
        for c, subset in zip(in_lex, subsets):
            if tuple(sorted(to_subset(c))) != subset:
                return f" length={length} c={format_composition(c)}"
    return None


def _mu_nu_distribution_symmetric(t) -> str | None:
    """(mu, nu) has a symmetric joint distribution over the compositions of n >= 2."""
    return "" if _asymmetric_pair(t["dist"]) is not None else None


def _enum_composition_count(t) -> str | None:
    """The enumeration gives the 2^(n-1) compositions of n."""
    return f" count={t['count']}" if t["count"] != 2 ** (t["n"] - 1) else None


def composition_sweep(n: int) -> dict:
    """All composition invariants for one n (fast; never sharded).

    As in partition_shard, the (mu, nu) tally is taken before any check,
    and a raise there fails the first row.  The per-n rows then run on the
    sweep's totals.
    """
    fails: dict[str, list] = {}
    dist: dict[tuple[int, int], int] = {}
    count = 0
    comps = []
    keep = n <= max(PALINDROME_CAP, SUBSET_LEX_CAP)
    checks = _checks(_COMPOSITION_TABLE, n, "item")
    x = _Comp()
    x.n = n
    for c in iter_compositions(n):
        count += 1
        if keep:
            comps.append(c)
        x.c = c
        try:
            key = x.mu, x.nu = mu(c), nu(c)
        except Exception as exc:
            _fail(fails, checks[0][0], _comp_text(x) + _raised(exc))
            continue
        dist[key] = dist.get(key, 0) + 1
        _run(checks, x, fails, _comp_text)
    totals = {"n": n, "count": count, "dist": dist, "comps": comps}
    _run(_checks(_COMPOSITION_TABLE, n, "n"), totals, fails, _n_text)
    return {"count": count, "fails": fails, "dist": dist}


def _subset_support_roundtrip(case) -> str | None:
    """separate/combine and phi round-trip every partition of a sparse support, keeping it."""
    p = case["p"]
    ok = combine_is(separate_is(p)) == p and combine_st(separate_st(p)) == p
    return None if ok and phi_inverse(q := phi(p)) == p and q.support == p.support else ""


def _sparse_random_spot(case) -> str | None:
    """Balance, phi's interchange, its support and its inverse hold on random sparse supports."""
    p = case["p"]
    ok = len((prof := adjacency_profile(p)).initiators) == len(prof.terminators)
    ok = ok and (qprof := adjacency_profile(q := phi(p))).singletons == prof.initiators
    ok = ok and qprof.terminators == prof.singletons and q.support == p.support
    return None if ok and phi_inverse(q) == p else ""


def _one_element_convention(case) -> str | None:
    """A lone element is initiator, terminator and singleton, with one adjacency.

    The combine domain takes an element as both only while it is the
    whole universe.
    """
    a = case["a"]
    p = SetPartition(((a,),))
    one = frozenset({a})
    prof = adjacency_profile(p)
    ok = prof.initiators == prof.terminators == prof.singletons == one
    ok = ok and prof.adjacency_count == 1 and phi(p) == p
    beside = SetPartition(((a + 1,),))
    ok = ok and not combine_domain_ok(SeparationRecord(beside, one, one, ROLE_IS))
    return None if ok and (a != 1 or conjugate(p, 1) == p) else ""


def _mu_nu_n1_exception(case) -> str | None:
    """The composition 1 has (mu, nu) = (0, 1), and conjugation fixes it rather than swapping."""
    c1 = Composition((1,))
    cc = conjugate_composition(c1)
    stats = (mu(c1), nu(c1)), (mu(cc), nu(cc))
    if stats == ((0, 1), (0, 1)) and cc == c1:
        if (mu_path(path := to_path(c1)), nu_path(path)) == (0, 0):
            return None
    return " stats={} conj_stats={}".format(*stats)


def _empty_partition_fixed_point(case) -> str | None:
    """The empty partition is a fixed point of every map that accepts it."""
    ok = all(f(EMPTY) == EMPTY for f in (phi, phi_inverse, reduce_core, kreweras_complement))
    ok = ok and not (prof := adjacency_profile(EMPTY)).initiators and not prof.singletons
    ok = ok and prof.adjacency_count == 0 and str(EMPTY) == ""
    return None if ok and parse_partition("") == EMPTY else ""


def _small_supports():
    """Every partition of every support within [8] of at most 6 elements."""
    for supp in chain.from_iterable(combinations(range(1, 9), k) for k in range(7)):
        for p in iter_set_partitions_of(supp):
            yield {"support": supp, "p": p}


def _sparse_supports():
    """SPARSE_TRIALS random partitions of supports within [60], seeded."""
    rng = random.Random(SPARSE_SEED)
    for _ in range(SPARSE_TRIALS):
        size = rng.randint(1, 60)
        supp = tuple(sorted(rng.sample(range(1, 61), size)))
        yield {"support": supp, "p": random_partition(supp, rng)}


def _fixed_checks() -> dict:
    """Each row of _FIXED_TABLE on each of its cases: small pinned cases
    that do not scale with the sweep bounds.

    A pure task like a shard: returns its failures and its
    (id, scope, items) rows.
    """
    fails: dict[str, list] = {}
    rows = []
    for inv, scope, cases, check in _FIXED_TABLE:
        items = 0
        for case in cases():
            items += 1
            _run(((inv, check),), case, fails, _case_text)
        rows.append((inv, scope, items))
    return {"fails": fails, "rows": rows}


# Scopes: (text before the bound, per-n tally that each n adds to the
# item count, least n, what the check reads).  A None tally counts the n
# itself.  A check reads one item's context ("item"), one noncrossing
# partition's ("nc"), or the totals of one n ("n").
_PARTITIONS = ("partitions of [n], ", "count", 1, "item")
_NONCROSSING = ("noncrossing partitions, ", "nc", 1, "nc")
_PARTITION_SET = ("partitions of [n], ", "count", 1, "n")
_COMPOSITIONS = ("compositions of ", "count", 1, "item")
_COMPOSITIONS_2 = ("compositions of ", "count", 2, "item")
_COMPOSITION_SET = ("compositions of ", "count", 1, "n")
_EACH = ("each ", None, 1, "n")
_EACH_2 = ("each ", None, 2, "n")

# (invariant id, scope, largest n, check) in report order.  The shard
# runs the item rows in this order, and the noncrossing rows after them.
_PARTITION_TABLE = (
    ("balance", _PARTITIONS, N_MAX_HARD, _balance),
    ("parse-format-roundtrip", _PARTITIONS, PARSE_CAP, _parse_format_roundtrip),
    ("complement-involution", _PARTITIONS, N_MAX_HARD, _complement_involution),
    ("complement-role-swap", _PARTITIONS, N_MAX_HARD, _complement_role_swap),
    ("separate-records-in-domain", _PARTITIONS, N_MAX_HARD, _separate_records_in_domain),
    ("separate-combine-roundtrip", _PARTITIONS, N_MAX_HARD, _separate_combine_roundtrip),
    ("combine-domain-role-symmetry", _PARTITIONS, N_MAX_HARD, _combine_domain_role_symmetry),
    ("phi-support-preserved", _PARTITIONS, N_MAX_HARD, _phi_support_preserved),
    ("phi-statistic-interchange", _PARTITIONS, N_MAX_HARD, _phi_statistic_interchange),
    ("phi-inverse-identity", _PARTITIONS, N_MAX_HARD, _phi_inverse_identity),
    ("phi-injective-image", _PARTITION_SET, IMAGE_CAP, _phi_injective_image),
    ("phi-trace-agreement", _PARTITIONS, TRACE_CAP, _phi_trace_agreement),
    ("reverse-phase-exactness", _PARTITIONS, TRACE_CAP, _reverse_phase_exactness),
    ("trace-record-inverse", _PARTITIONS, TRACE_CAP, _trace_record_inverse),
    ("conjugate-involution", _PARTITIONS, N_MAX_HARD, _conjugate_involution),
    ("conjugate-interchange", _PARTITIONS, N_MAX_HARD, _conjugate_interchange),
    ("nc-core-characterization", _PARTITIONS, N_MAX_HARD, _nc_core_characterization),
    ("nc-closure", _NONCROSSING, N_MAX_HARD, _nc_closure),
    ("nc-graphical-phi", _NONCROSSING, N_MAX_HARD, _nc_graphical_phi),
    ("nc-graphical-conjugate", _NONCROSSING, N_MAX_HARD, _nc_graphical_conjugate),
    ("nc-conjugation-involution", _NONCROSSING, N_MAX_HARD, _nc_conjugation_involution),
    ("kreweras-double-rotation", _NONCROSSING, N_MAX_HARD, _kreweras_double_rotation),
    ("kreweras-union-maximal", _NONCROSSING, UNION_CAP, _kreweras_union_maximal),
    ("sing-adj-distribution-symmetric", _EACH, N_MAX_HARD, _sing_adj_distribution_symmetric),
    ("enum-bell-count", _EACH, N_MAX_HARD, _enum_bell_count),
    ("enum-catalan-count", _EACH, N_MAX_HARD, _enum_catalan_count),
)

_COMPOSITION_TABLE = (
    ("comp-conjugate-involution", _COMPOSITIONS, COMP_N_MAX_HARD, _comp_conjugate_involution),
    ("comp-length-law", _COMPOSITIONS, COMP_N_MAX_HARD, _comp_length_law),
    ("comp-strip-agreement", _COMPOSITIONS, COMP_N_MAX_HARD, _comp_strip_agreement),
    ("comp-mu-nu-interchange", _COMPOSITIONS_2, COMP_N_MAX_HARD, _comp_mu_nu_interchange),
    ("comp-path-agreement", _COMPOSITIONS_2, COMP_N_MAX_HARD, _comp_path_agreement),
    ("comp-path-flip-duality", _COMPOSITIONS_2, COMP_N_MAX_HARD, _comp_path_flip_duality),
    ("comp-sorted-palindrome", _COMPOSITION_SET, PALINDROME_CAP, _comp_sorted_palindrome),
    ("comp-subset-lex-order", _COMPOSITION_SET, SUBSET_LEX_CAP, _comp_subset_lex_order),
    ("mu-nu-distribution-symmetric", _EACH_2, COMP_N_MAX_HARD, _mu_nu_distribution_symmetric),
    ("enum-composition-count", _EACH, COMP_N_MAX_HARD, _enum_composition_count),
)

# (invariant id, scope, cases, check) in report order: each case is a
# dict of the fields that its counterexample names.
_FIXED_TABLE = (
    ("subset-support-roundtrip", "partitions of every support within [8], size <= 6",
     _small_supports, _subset_support_roundtrip),
    ("sparse-random-spot", f"{SPARSE_TRIALS} random partitions, supports within [60]",
     _sparse_supports, _sparse_random_spot),
    ("one-element-convention", "supports {1}, {7}, {60}",
     lambda: ({"a": a} for a in (1, 7, 60)), _one_element_convention),
    ("mu-nu-n1-exception", "the single composition of 1",
     lambda: ({},), _mu_nu_n1_exception),
    ("empty-partition-fixed-point", "the empty partition",
     lambda: ({},), _empty_partition_fixed_point),
)  # fmt: skip


def _table_rows(table, tallies: dict[int, dict], n_max: int) -> list[tuple[str, str, int]]:
    """(id, scope string, items) for each row of an invariant table;
    tallies maps each n to its sweep totals."""
    rows = []
    for inv, (text, tally, least, _), cap, _ in table:
        hi = min(n_max, cap)
        low = f"{least} <= " if least > 1 else ""
        items = sum(tallies[n][tally] if tally else 1 for n in range(least, hi + 1))
        rows.append((inv, f"{text}{low}n <= {hi}", items))
    return rows


def _shards_for(n: int, jobs: int) -> list[tuple[int, ...]]:
    if jobs <= 1 or n <= _SHARD_DEPTH:
        return [()]
    return rgs_prefixes(n, _SHARD_DEPTH)


def verify_suite(n_max: int = 10, comp_n_max: int = 16, jobs: int = 1) -> VerifyReport:
    """Run every invariant for all n <= n_max (partitions) and all
    n <= comp_n_max (compositions), plus the fixed cases.

    jobs > 1 runs the partition shards, the composition sweeps and the
    fixed checks in one pool of worker processes; the merged report is
    byte-identical to a single-job run.
    """
    if n_max < 1 or n_max > N_MAX_HARD:
        raise DomainError(f"n_max must be between 1 and {N_MAX_HARD}, got {n_max}")
    if comp_n_max < 1 or comp_n_max > COMP_N_MAX_HARD:
        raise DomainError(
            f"comp_n_max must be between 1 and {COMP_N_MAX_HARD}, got {comp_n_max}"
        )
    if jobs < 1 or jobs > JOBS_MAX_HARD:
        raise DomainError(f"jobs must be between 1 and {JOBS_MAX_HARD}, got {jobs}")

    # Tasks are (cost rank, function, args) in merge order.  The pool
    # starts them costliest first (Graham's longest-processing-time rule),
    # so no large task is left running alone at the end.  One rank step is
    # about a doubling of single-core time: composition_sweep(m) ranks m,
    # a partition shard of n ranks 2n - 6 plus the number of blocks its
    # prefix opens (its completions grow with them), the fixed checks 16;
    # ties keep task order.  Alone on a 2 vCPU Xeon (CPython 3.11): the n=9
    # shard (0,1,2,3) 0.9-1.5 s (rank 16), composition_sweep(16) 0.5-0.75 s,
    # the fixed checks 0.85-1.1 s, the n=9 shards opening three blocks
    # 0.4-0.65 s (rank 15).
    shards = [(n, prefix) for n in range(1, n_max + 1) for prefix in _shards_for(n, jobs)]
    tasks = [(2 * n - 6 + len(set(prefix)), partition_shard, (n, prefix)) for n, prefix in shards]
    tasks += [(m, composition_sweep, (m,)) for m in range(1, comp_n_max + 1)]
    tasks.append((16, _fixed_checks, ()))
    if jobs > 1:
        # Imported here: it pulls in multiprocessing, which a serial run
        # and every other command would pay for at start-up.
        from concurrent.futures import ProcessPoolExecutor

        by_cost = sorted(range(len(tasks)), key=lambda i: -tasks[i][0])
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {i: pool.submit(tasks[i][1], *tasks[i][2]) for i in by_cost}
        outs = [futures[i].result() for i in range(len(tasks))]
    else:
        outs = [fn(*args) for _, fn, args in tasks]
    shard_outs, comp_outs, fixed = outs[: len(shards)], outs[len(shards) : -1], outs[-1]

    # Merge shards per n, in task order (= RGS prefix order).
    fails: dict[str, list] = {}
    per_n: dict[int, dict] = {}
    for (n, _prefix), out in zip(shards, shard_outs):
        totals = per_n.setdefault(
            n, {"n": n, "count": 0, "nc": 0, "dist": Counter(), "images": [], "filed": 0}
        )
        totals["count"] += out["count"]
        totals["filed"] += out["filed"]
        totals["nc"] += out["nc"]
        totals["dist"].update(out["dist"])
        totals["images"].append(out["image"] or ())
        for inv, (cnt, ce) in out["fails"].items():
            _fail(fails, inv, ce, cnt)
    for n, totals in per_n.items():
        _run(_checks(_PARTITION_TABLE, n, "n"), totals, fails, _n_text)
    for out in comp_outs + [fixed]:
        for inv, (cnt, ce) in out["fails"].items():
            _fail(fails, inv, ce, cnt)

    rows = (
        _table_rows(_PARTITION_TABLE, per_n, n_max)
        + _table_rows(_COMPOSITION_TABLE, dict(enumerate(comp_outs, 1)), comp_n_max)
        + fixed["rows"]
    )
    results = tuple(
        CheckResult(inv, scope, items, *fails.get(inv, (0, None))) for inv, scope, items in rows
    )
    return VerifyReport(n_max, comp_n_max, results)
