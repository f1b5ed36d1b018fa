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
share, so each distinct remainder is traced once per shard.  A check
that raises inside a shard, a composition sweep or the fixed checks
fails its row, and its counterexample names the exception type.

Each family (partitions, compositions) has one invariant table listing
(id, scope, largest n) rows in report order; the scope string and the
examined-item count of every row derive from it.  Adding an invariant
takes one table row plus its check (a _fail call in the sweep).
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


def _outcome(check) -> str | None:
    """None when check() is true; else what a counterexample adds: "" if
    check() is false, what it raised if it raised."""
    try:
        return None if check() else ""
    except Exception as exc:
        return _raised(exc)


def _text(g, sizes) -> str:
    """A growth string with its block sizes in dash notation, for
    counterexample text."""
    return format_partition(_lazy(g, sizes))


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


def partition_shard(n: int, prefix: tuple[int, ...] = ()) -> dict:
    """Run every per-partition invariant over one RGS-prefix shard of [n].

    Returns a plain dict (picklable) with counts, failures keyed by
    invariant id, the phi images as a sorted list of distinct byte keys
    (bytes of the growth string; None above IMAGE_CAP), and the
    singleton/adjacency distribution tally.  A check that raises fails
    its row (the one named in row when it raised), and the partition's
    later checks are skipped.
    """
    fails: dict[str, list] = {}
    dist: dict[tuple[int, int], int] = {}
    image: set | None = set() if n <= IMAGE_CAP else None
    count = 0
    nc_count = 0
    trace_on = n <= TRACE_CAP
    parse_on = n <= PARSE_CAP
    union_on = n <= UNION_CAP
    tails: dict[tuple, tuple] = {}  # remainder (support, view) -> its trace verdict
    m = n + 1

    def text() -> str:  # the counterexample: built only on failure
        return f"n={n} p={format_partition(p)}"

    for p in iter_set_partitions(n, prefix):
        count += 1
        row = "balance"
        try:
            g = p._view[2]  # the growth string of p
            sizes = p._sizes
            ini, ter, sing = _profile(g, sizes)
            nsing, nadj = len(sing), len(ini)
            dist[nsing, nadj] = dist.get((nsing, nadj), 0) + 1
            if nadj != len(ter):
                _fail(fails, row, text())
            row = "nc-core-characterization"
            nc = _scan(g, sizes) is None
            nc_count += nc
            row = "parse-format-roundtrip"
            if parse_on and parse_partition(str(p)) != p:
                _fail(fails, row, text())
            row = "complement-involution"
            cg, csizes = _relabel(g)  # the complement of p
            # The relabel by its definition, without the kernel: g reversed,
            # blocks renumbered by first occurrence.
            rev = g[:0:-1]
            first = {b: i for i, b in enumerate(dict.fromkeys(rev))}
            if _relabel(cg)[0] != g or cg != (0, *map(first.__getitem__, rev)):
                _fail(fails, row, text())
            row = "complement-role-swap"
            cini, cter, csing = _profile(cg, csizes)
            if (
                cini != [m - t for t in reversed(ter)]
                or cter != [m - i for i in reversed(ini)]
                or csing != [m - s for s in reversed(sing)]
            ):
                _fail(fails, row, text())
            row = "separate-records-in-domain"
            step = _separate(p, False, (ini, ter, sing))  # (rho, I, S)
            back = _combine(*step, True)
            rec_st = _separate(p, True, (ini, ter, sing))
            if back is None or (back_st := _combine(*rec_st, False)) is None:
                _fail(fails, row, text())
            else:
                row = "separate-combine-roundtrip"
                if back != p or back_st != p:
                    _fail(fails, row, text())
            row = "combine-domain-role-symmetry"
            if (_combine(*step, False) is None) != (back is None):
                _fail(fails, row, text())
            row = "phi-support-preserved"
            (qg, qsizes), core = _phi_growth(g, sizes)
            if len(qg) != m:
                _fail(fails, row, text())
            row = "phi-statistic-interchange"
            _, qter, qsing = _profile(qg, qsizes)
            if not (qsing == ini and qter == sing):
                _fail(fails, row, f"{text()} phi(p)={_text(qg, qsizes)}")
            row = "phi-inverse-identity"
            if _phi_growth(qg, qsizes, True)[0][0] != g:
                _fail(fails, row, text())
            if image is not None:
                image.add(bytes(qg))
            row = "conjugate-involution"
            cq, cqsizes = _relabel(qg)  # the conjugate of p
            involution_ok = _relabel(_phi_growth(cq, cqsizes)[0][0])[0] == g
            if not involution_ok:
                _fail(fails, row, f"{text()} conj(p)={_text(cq, cqsizes)}")
            row = "conjugate-interchange"
            cqini, _, cqsing = _profile(cq, cqsizes)
            conj_interchange_ok = len(cqsing) == nadj and len(cqini) == nsing
            if not conj_interchange_ok:
                _fail(fails, row, text())
            if trace_on:
                # The trace of p takes the step, then traces the remainder.
                row = "phi-trace-agreement"
                verdict = (p, 0, 0)  # no step: no rows
                rho, a, b = step
                if a or b:
                    key = rho.support, rho._view[2]
                    tail = tails.get(key)
                    if tail is None:
                        tail = tails[key] = _trace_tail(rho)
                    verdict = _with_step(tail, step, back, _reinsert(tail[0], a, b), p)
                tau, inverse, exact = verdict
                if tau != _lazy(qg, qsizes):
                    _fail(fails, row, text())
                if inverse:
                    _fail(fails, "trace-record-inverse", f"{text()} j={inverse}")
                if exact:
                    _fail(fails, "reverse-phase-exactness", f"{text()} j={exact}")
            row = "nc-core-characterization"
            if nc == bool(core):
                _fail(fails, row, f"{text()} core={format_partition(_core(core, g))}")
            if not nc:
                continue
            row = "nc-closure"
            if not (_scan(qg, qsizes) is None and _scan(cq, cqsizes) is None):
                _fail(fails, row, text())
            row = "nc-graphical-phi"
            kg, ksizes = _kreweras(g, sizes)  # the gaps of p
            if kg != qg:
                _fail(fails, row, f"{text()} gaps={_text(kg, ksizes)}")
            row = "nc-graphical-conjugate"
            if _relabel(kg)[0] != cq:
                _fail(fails, row, text())
            row = "nc-conjugation-involution"
            if not (involution_ok and conj_interchange_ok):
                _fail(fails, row, text())
            row = "kreweras-double-rotation"
            if _kreweras(kg, ksizes) != _rotate(g, -1):
                _fail(fails, row, text())
            row = "kreweras-union-maximal"
            if union_on:
                ok, why = _union_maximal(g, sizes, kg, ksizes)
                if not ok:
                    _fail(fails, row, f"{text()} {why}")
        except Exception as exc:
            _fail(fails, row, text() + _raised(exc))
    return {
        "count": count,
        "nc": nc_count,
        "fails": fails,
        "dist": dist,
        "image": None if image is None else sorted(image),
    }


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


def composition_sweep(n: int) -> dict:
    """All composition invariants for one n (fast; never sharded).

    As in partition_shard, a check that raises fails its row (the one
    named in row when it raised): in the loop the composition's later
    checks are skipped, and in the tail the later tail checks.
    """
    fails: dict[str, list] = {}
    dist: dict[tuple[int, int], int] = {}
    count = 0
    comps = []
    keep = n <= max(PALINDROME_CAP, SUBSET_LEX_CAP)

    def text() -> str:  # the counterexample: built only on failure
        return f"n={n} c={format_composition(c)}"

    for c in iter_compositions(n):
        count += 1
        if keep:
            comps.append(c)
        row = "comp-conjugate-involution"
        try:
            cc = conjugate_composition(c)
            if conjugate_composition(cc) != c:
                _fail(fails, row, text())
            row = "comp-length-law"
            if len(c.parts) + len(cc.parts) != n + 1:
                _fail(fails, row, text())
            row = "comp-strip-agreement"
            if strip_conjugate(c) != cc:
                _fail(
                    fails,
                    row,
                    f"{text()} strip={format_composition(strip_conjugate(c))} "
                    f"flip={format_composition(cc)}",
                )
            row = "comp-mu-nu-interchange"
            mu_c, nu_c = mu(c), nu(c)
            dist[mu_c, nu_c] = dist.get((mu_c, nu_c), 0) + 1
            if n >= 2:
                if mu(cc) != nu_c or nu(cc) != mu_c:
                    _fail(fails, row, text())
                row = "comp-path-agreement"
                path = to_path(c)
                if mu_path(path) != mu_c or nu_path(path) != nu_c:
                    _fail(fails, row, text())
                row = "comp-path-flip-duality"
                if mu_path(flip_path(path)) != nu_path(path):
                    _fail(fails, row, text())
        except Exception as exc:
            _fail(fails, row, text() + _raised(exc))
    row = "enum-composition-count"
    try:
        if count != 2 ** (n - 1):
            _fail(fails, row, f"n={n} count={count}")
        row = "mu-nu-distribution-symmetric"
        if n >= 2 and _asymmetric_pair(dist) is not None:
            _fail(fails, row, f"n={n}")
        row = "comp-sorted-palindrome"
        if n <= PALINDROME_CAP:
            ordered = sorted(comps, key=sort_rank)
            for i, c in enumerate(ordered):
                if conjugate_composition(c) != ordered[len(ordered) - 1 - i]:
                    _fail(fails, row, f"n={n} position={i} c={format_composition(c)}")
                    break
        row = "comp-subset-lex-order"
        if n <= SUBSET_LEX_CAP:
            by_len: dict[int, list[Composition]] = {}
            for c in comps:
                by_len.setdefault(len(c.parts), []).append(c)
            for length, group in sorted(by_len.items()):
                in_lex = sorted(group, key=lambda c: c.parts)
                subsets = sorted(tuple(sorted(to_subset(c))) for c in group)
                for c, subset in zip(in_lex, subsets):
                    if tuple(sorted(to_subset(c))) != subset:
                        _fail(fails, row, f"n={n} length={length} c={format_composition(c)}")
                        break
    except Exception as exc:
        _fail(fails, row, f"n={n}" + _raised(exc))
    return {"count": count, "fails": fails, "dist": dist}


def _fixed_checks() -> dict:
    """Small pinned cases that do not scale with the sweep bounds.

    A pure task like a shard: returns its failures and its
    (id, scope, items) rows.
    """
    fails: dict[str, list] = {}
    # Round trips over every partition of every small sparse support.
    items = 0
    for supp in chain.from_iterable(combinations(range(1, 9), k) for k in range(7)):
        for p in iter_set_partitions_of(supp):
            items += 1
            why = _outcome(
                lambda: combine_is(separate_is(p)) == p
                and combine_st(separate_st(p)) == p
                and phi_inverse(q := phi(p)) == p
                and q.support == p.support
            )
            if why is not None:
                _fail(fails, "subset-support-roundtrip", f"support={supp} p={format_partition(p)}{why}")

    # Randomized sparse supports, deterministic seed.
    rng = random.Random(SPARSE_SEED)
    for _ in range(SPARSE_TRIALS):
        size = rng.randint(1, 60)
        supp = tuple(sorted(rng.sample(range(1, 61), size)))
        p = random_partition(supp, rng)
        why = _outcome(
            lambda: len((prof := adjacency_profile(p)).initiators) == len(prof.terminators)
            and (qprof := adjacency_profile(q := phi(p))).singletons == prof.initiators
            and qprof.terminators == prof.singletons
            and q.support == p.support
            and phi_inverse(q) == p
        )
        if why is not None:
            _fail(fails, "sparse-random-spot", f"support={supp} p={format_partition(p)}{why}")

    # One-element support: the element is initiator, terminator and
    # singleton at once, and counts one adjacency.  The combine domain
    # takes an element as both only while it is the whole universe.
    for a in (1, 7, 60):
        p = SetPartition(((a,),))
        one = frozenset({a})
        beside = SetPartition(((a + 1,),))
        why = _outcome(
            lambda: (prof := adjacency_profile(p)).initiators == one
            and prof.terminators == one
            and prof.singletons == one
            and prof.adjacency_count == 1
            and phi(p) == p
            and not combine_domain_ok(SeparationRecord(beside, one, one, ROLE_IS))
            and (a != 1 or conjugate(p, 1) == p)
        )
        if why is not None:
            _fail(fails, "one-element-convention", f"a={a}{why}")

    # n=1 composition: (mu, nu) = (0, 1) and conjugation does NOT swap.
    c1 = Composition((1,))

    def n1_stats():
        return (mu(c1), nu(c1)), (mu(conjugate_composition(c1)), nu(conjugate_composition(c1)))

    why = _outcome(
        lambda: n1_stats() == ((0, 1), (0, 1))
        and conjugate_composition(c1) == c1
        and (mu_path(to_path(c1)), nu_path(to_path(c1))) == (0, 0)
    )
    if why is not None:
        _fail(fails, "mu-nu-n1-exception", why[1:] or "stats={} conj_stats={}".format(*n1_stats()))

    # Empty partition is a fixed point everywhere it is legal.
    why = _outcome(
        lambda: phi(EMPTY) == EMPTY
        and phi_inverse(EMPTY) == EMPTY
        and reduce_core(EMPTY) == EMPTY
        and kreweras_complement(EMPTY) == EMPTY
        and not (prof := adjacency_profile(EMPTY)).initiators
        and not prof.singletons
        and prof.adjacency_count == 0
        and str(EMPTY) == ""
        and parse_partition("") == EMPTY
    )
    if why is not None:
        _fail(fails, "empty-partition-fixed-point", why[1:] or None)
    rows = [
        ("subset-support-roundtrip", "partitions of every support within [8], size <= 6", items),
        (
            "sparse-random-spot",
            f"{SPARSE_TRIALS} random partitions, supports within [60]",
            SPARSE_TRIALS,
        ),
        ("one-element-convention", "supports {1}, {7}, {60}", 3),
        ("mu-nu-n1-exception", "the single composition of 1", 1),
        ("empty-partition-fixed-point", "the empty partition", 1),
    ]
    return {"fails": fails, "rows": rows}


# Scopes: (text before the bound, per-n tally that each n adds to the
# item count, least n).  A None tally counts the n itself.
_PARTITIONS = ("partitions of [n], ", "count", 1)
_NONCROSSING = ("noncrossing partitions, ", "nc", 1)
_COMPOSITIONS = ("compositions of ", "count", 1)
_COMPOSITIONS_2 = ("compositions of ", "count", 2)
_EACH = ("each ", None, 1)
_EACH_2 = ("each ", None, 2)

# (invariant id, scope, largest n) in report order.
_PARTITION_TABLE = (
    ("balance", _PARTITIONS, N_MAX_HARD),
    ("parse-format-roundtrip", _PARTITIONS, PARSE_CAP),
    ("complement-involution", _PARTITIONS, N_MAX_HARD),
    ("complement-role-swap", _PARTITIONS, N_MAX_HARD),
    ("separate-records-in-domain", _PARTITIONS, N_MAX_HARD),
    ("separate-combine-roundtrip", _PARTITIONS, N_MAX_HARD),
    ("combine-domain-role-symmetry", _PARTITIONS, N_MAX_HARD),
    ("phi-support-preserved", _PARTITIONS, N_MAX_HARD),
    ("phi-statistic-interchange", _PARTITIONS, N_MAX_HARD),
    ("phi-inverse-identity", _PARTITIONS, N_MAX_HARD),
    ("phi-injective-image", _PARTITIONS, IMAGE_CAP),
    ("phi-trace-agreement", _PARTITIONS, TRACE_CAP),
    ("reverse-phase-exactness", _PARTITIONS, TRACE_CAP),
    ("trace-record-inverse", _PARTITIONS, TRACE_CAP),
    ("conjugate-involution", _PARTITIONS, N_MAX_HARD),
    ("conjugate-interchange", _PARTITIONS, N_MAX_HARD),
    ("nc-core-characterization", _PARTITIONS, N_MAX_HARD),
    ("nc-closure", _NONCROSSING, N_MAX_HARD),
    ("nc-graphical-phi", _NONCROSSING, N_MAX_HARD),
    ("nc-graphical-conjugate", _NONCROSSING, N_MAX_HARD),
    ("nc-conjugation-involution", _NONCROSSING, N_MAX_HARD),
    ("kreweras-double-rotation", _NONCROSSING, N_MAX_HARD),
    ("kreweras-union-maximal", _NONCROSSING, UNION_CAP),
    ("sing-adj-distribution-symmetric", _EACH, N_MAX_HARD),
    ("enum-bell-count", _EACH, N_MAX_HARD),
    ("enum-catalan-count", _EACH, N_MAX_HARD),
)

_COMPOSITION_TABLE = (
    ("comp-conjugate-involution", _COMPOSITIONS, COMP_N_MAX_HARD),
    ("comp-length-law", _COMPOSITIONS, COMP_N_MAX_HARD),
    ("comp-strip-agreement", _COMPOSITIONS, COMP_N_MAX_HARD),
    ("comp-mu-nu-interchange", _COMPOSITIONS_2, COMP_N_MAX_HARD),
    ("comp-path-agreement", _COMPOSITIONS_2, COMP_N_MAX_HARD),
    ("comp-path-flip-duality", _COMPOSITIONS_2, COMP_N_MAX_HARD),
    ("comp-sorted-palindrome", _COMPOSITIONS, PALINDROME_CAP),
    ("comp-subset-lex-order", _COMPOSITIONS, SUBSET_LEX_CAP),
    ("mu-nu-distribution-symmetric", _EACH_2, COMP_N_MAX_HARD),
    ("enum-composition-count", _EACH, COMP_N_MAX_HARD),
)


def _table_rows(table, tallies: dict[int, dict], n_max: int) -> list[tuple[str, str, int]]:
    """(id, scope string, items) for each row of an invariant table;
    tallies maps each n to its sweep totals."""
    rows = []
    for inv, (text, tally, least), cap in table:
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
        agg = per_n.setdefault(n, {"count": 0, "nc": 0, "dist": Counter(), "images": []})
        agg["count"] += out["count"]
        agg["nc"] += out["nc"]
        agg["dist"].update(out["dist"])
        agg["images"].append(out["image"] or ())
        for inv, (cnt, ce) in out["fails"].items():
            _fail(fails, inv, ce, cnt)

    for n, agg in per_n.items():
        if agg["count"] != bell_number(n):
            _fail(fails, "enum-bell-count", f"n={n} count={agg['count']} expected={bell_number(n)}")
        if agg["nc"] != catalan_number(n):
            _fail(
                fails, "enum-catalan-count", f"n={n} count={agg['nc']} expected={catalan_number(n)}"
            )
        if n <= IMAGE_CAP:
            # Each shard's keys are sorted and distinct: merged, equal
            # keys from different shards sit next to each other.
            image = sum(1 for _ in groupby(heapq.merge(*agg["images"])))
            if image != agg["count"]:
                _fail(fails, "phi-injective-image", f"n={n} image={image} of {agg['count']}")
        dist = agg["dist"]
        asym = _asymmetric_pair(dist)
        if asym is not None:
            _fail(
                fails,
                "sing-adj-distribution-symmetric",
                f"n={n} pair {asym}: {dist[asym]} vs {dist[asym[1], asym[0]]}",
            )

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
