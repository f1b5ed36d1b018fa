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

Each family (partitions, compositions) has one invariant table listing
(id, scope, largest n) rows in report order; the scope string and the
examined-item count of every row derive from it.  Adding an invariant
takes one table row plus its check (a _fail call in the sweep).
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import random

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
    bell_number,
    catalan_number,
    iter_compositions,
    iter_set_partitions,
    iter_set_partitions_of,
    random_partition,
    rgs_prefixes,
)
from .errors import DomainError
from .noncrossing import (
    find_crossing,
    is_noncrossing,
    kreweras_complement,
    rotate_partition,
)
from .partition import (
    EMPTY,
    SetPartition,
    adjacency_profile,
    complement,
    format_partition,
    parse_partition,
)
from .phi import conjugate, phi, phi_inverse, phi_trace, reduce_core
from .separate import (
    ROLE_IS,
    ROLE_ST,
    SeparationRecord,
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
IMAGE_CAP = 10  # collecting the full image set of phi
UNION_CAP = 10  # interleaved-union maximality
PALINDROME_CAP = 14
SUBSET_LEX_CAP = 12
N_MAX_HARD = 12
COMP_N_MAX_HARD = 20
# Most worker processes a run may ask for.  The pool forks all of them at
# once, and n_max = N_MAX_HARD makes at most 145 tasks, so more would only
# cost processes.
JOBS_MAX_HARD = 32
SPARSE_TRIALS = 120
SPARSE_SEED = 20240811
_SHARD_DEPTH = 4  # RGS prefix length for parallel shards


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant over its whole scope."""

    invariant: str
    scope: str
    items: int
    failures: int  # failing items; 0 on pass
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class VerifyReport:
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
        for r in self.results:
            if not r.ok:
                return r
        return None

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


def partition_shard(n: int, prefix: tuple[int, ...] = ()) -> dict:
    """Run every per-partition invariant over one RGS-prefix shard of [n].

    Returns a plain dict (picklable) with counts, failures keyed by
    invariant id, the phi image (when n is small enough), and the
    singleton/adjacency distribution tally.
    """
    fails: dict[str, list] = {}
    dist: dict[tuple[int, int], int] = {}
    image: set | None = set() if n <= IMAGE_CAP else None
    count = 0
    nc_count = 0
    trace_on = n <= TRACE_CAP
    parse_on = n <= PARSE_CAP
    union_on = n <= UNION_CAP
    full = tuple(range(1, n + 1))
    for p in iter_set_partitions(n, prefix):
        count += 1
        text = f"n={n} p={format_partition(p)}"
        prof = adjacency_profile(p)
        nsing = len(prof.singletons)
        dist_key = (nsing, prof.adjacency_count)
        dist[dist_key] = dist.get(dist_key, 0) + 1
        if len(prof.initiators) != len(prof.terminators):
            _fail(fails, "balance", text)
        if parse_on and parse_partition(format_partition(p)) != p:
            _fail(fails, "parse-format-roundtrip", text)
        cp = complement(p, n)
        if complement(cp, n) != p:
            _fail(fails, "complement-involution", text)
        cprof = adjacency_profile(cp)
        m = n + 1
        if (
            cprof.initiators != frozenset(m - t for t in prof.terminators)
            or cprof.terminators != frozenset(m - i for i in prof.initiators)
            or cprof.singletons != frozenset(m - s for s in prof.singletons)
        ):
            _fail(fails, "complement-role-swap", text)
        rec_is = separate_is(p)
        rec_st = separate_st(p)
        if not (combine_domain_ok(rec_is) and combine_domain_ok(rec_st)):
            _fail(fails, "separate-records-in-domain", text)
        else:
            if combine_is(rec_is) != p or combine_st(rec_st) != p:
                _fail(fails, "separate-combine-roundtrip", text)
        retagged = SeparationRecord(rec_is.rho, rec_is.a_set, rec_is.b_set, ROLE_ST)
        if combine_domain_ok(retagged) != combine_domain_ok(rec_is):
            _fail(fails, "combine-domain-role-symmetry", text)
        q = phi(p)
        if q.support != full:
            _fail(fails, "phi-support-preserved", text)
        qprof = adjacency_profile(q)
        interchange_ok = (
            qprof.singletons == prof.initiators
            and qprof.terminators == prof.singletons
        )
        if not interchange_ok:
            _fail(fails, "phi-statistic-interchange", f"{text} phi(p)={format_partition(q)}")
        if phi_inverse(q) != p:
            _fail(fails, "phi-inverse-identity", text)
        if image is not None:
            image.add(q.blocks)
        cq = complement(q, n)  # conjugate of p
        involution_ok = conjugate(cq, n) == p
        if not involution_ok:
            _fail(fails, "conjugate-involution", f"{text} conj(p)={format_partition(cq)}")
        cqprof = adjacency_profile(cq)
        conj_interchange_ok = (
            len(cqprof.singletons) == prof.adjacency_count
            and cqprof.adjacency_count == nsing
        )
        if not conj_interchange_ok:
            _fail(fails, "conjugate-interchange", text)
        if trace_on:
            trace = phi_trace(p)
            if trace.result != q:
                _fail(fails, "phi-trace-agreement", text)
            rows = trace.reverse_rows  # j = k .. 0
            fwd = trace.forward_rows
            for row in fwd:
                rec = SeparationRecord(row.rho, row.initiators, row.singletons, ROLE_IS)
                back = separate_is(combine_is(rec))
                if (back.rho, back.a_set, back.b_set) != (rec.rho, rec.a_set, rec.b_set):
                    _fail(fails, "trace-record-inverse", f"{text} j={row.j}")
                    break
            for idx in range(len(rows) - 1):
                tau_j = rows[idx].tau  # j = k - idx
                tau_prev = rows[idx + 1].tau  # j - 1
                j = rows[idx].j
                back = separate_st(tau_prev)
                frow = fwd[j - 1]
                if (
                    back.rho != tau_j
                    or back.a_set != frow.initiators
                    or back.b_set != frow.singletons
                ):
                    _fail(fails, "reverse-phase-exactness", f"{text} j={j}")
                    break
        nc = is_noncrossing(p)
        core = reduce_core(p)
        if nc != (core == EMPTY):
            _fail(fails, "nc-core-characterization", f"{text} core={format_partition(core)}")
        if nc:
            nc_count += 1
            if not (is_noncrossing(q) and is_noncrossing(cq)):
                _fail(fails, "nc-closure", text)
            gp = kreweras_complement(p)
            if gp != q:
                _fail(fails, "nc-graphical-phi", f"{text} gaps={format_partition(gp)}")
            if complement(gp, n) != cq:
                _fail(fails, "nc-graphical-conjugate", text)
            if not (involution_ok and conj_interchange_ok):
                _fail(fails, "nc-conjugation-involution", text)
            if kreweras_complement(gp) != rotate_partition(p, -1):
                _fail(fails, "kreweras-double-rotation", text)
            if union_on:
                ok, why = _union_maximal(p, gp)
                if not ok:
                    _fail(fails, "kreweras-union-maximal", f"{text} {why}")
    out = {
        "count": count,
        "nc": nc_count,
        "fails": fails,
        "dist": dist,
        "image": sorted(image) if image is not None else None,
    }
    return out


def _union_maximal(p: SetPartition, gaps: SetPartition) -> tuple[bool, str]:
    """p on odd points 2i-1, its gap partition on even points 2i.

    The union must be noncrossing on the interleaved cycle, and merging
    any two gap blocks must create a crossing (the complement is the
    largest disjoint completion).
    """
    base = [tuple(2 * x - 1 for x in blk) for blk in p.blocks]
    kblocks = [tuple(2 * g for g in blk) for blk in gaps.blocks]
    union = SetPartition(tuple(sorted(base + kblocks)))
    if find_crossing(union) is not None:
        return False, "union crosses"
    for i in range(len(kblocks)):
        for j in range(i + 1, len(kblocks)):
            merged = tuple(sorted(kblocks[i] + kblocks[j]))
            rest = [b for t, b in enumerate(kblocks) if t != i and t != j]
            cand = SetPartition(tuple(sorted(base + rest + [merged])))
            if find_crossing(cand) is None:
                return False, (
                    f"gap blocks {kblocks[i]} and {kblocks[j]} merge without crossing"
                )
    return True, ""


def composition_sweep(n: int) -> dict:
    """All composition invariants for one n (fast; never sharded)."""
    fails: dict[str, list] = {}
    dist: dict[tuple[int, int], int] = {}
    count = 0
    comps = []
    keep = n <= max(PALINDROME_CAP, SUBSET_LEX_CAP)
    for c in iter_compositions(n):
        count += 1
        text = f"n={n} c={format_composition(c)}"
        cc = conjugate_composition(c)
        if conjugate_composition(cc) != c:
            _fail(fails, "comp-conjugate-involution", text)
        if len(c.parts) + len(cc.parts) != n + 1:
            _fail(fails, "comp-length-law", text)
        if strip_conjugate(c) != cc:
            _fail(
                fails,
                "comp-strip-agreement",
                f"{text} strip={format_composition(strip_conjugate(c))} "
                f"flip={format_composition(cc)}",
            )
        mu_c, nu_c = mu(c), nu(c)
        dist_key = (mu_c, nu_c)
        dist[dist_key] = dist.get(dist_key, 0) + 1
        if n >= 2:
            if mu(cc) != nu_c or nu(cc) != mu_c:
                _fail(fails, "comp-mu-nu-interchange", text)
            path = to_path(c)
            if mu_path(path) != mu_c or nu_path(path) != nu_c:
                _fail(fails, "comp-path-agreement", text)
            if mu_path(flip_path(path)) != nu_path(path):
                _fail(fails, "comp-path-flip-duality", text)
        if keep:
            comps.append(c)
    if count != 2 ** (n - 1):
        _fail(fails, "enum-composition-count", f"n={n} count={count}")
    if n >= 2 and any(dist.get((t, s), 0) != v for (s, t), v in dist.items()):
        _fail(fails, "mu-nu-distribution-symmetric", f"n={n}")
    if n <= PALINDROME_CAP:
        ordered = sorted(comps, key=sort_rank)
        for i, c in enumerate(ordered):
            if conjugate_composition(c) != ordered[len(ordered) - 1 - i]:
                _fail(
                    fails,
                    "comp-sorted-palindrome",
                    f"n={n} position={i} c={format_composition(c)}",
                )
                break
    if n <= SUBSET_LEX_CAP:
        by_len: dict[int, list[Composition]] = {}
        for c in comps:
            by_len.setdefault(len(c.parts), []).append(c)
        for length, group in sorted(by_len.items()):
            in_lex = sorted(group, key=lambda c: c.parts)
            subsets = sorted(tuple(sorted(to_subset(c))) for c in group)
            for c, subset in zip(in_lex, subsets):
                if tuple(sorted(to_subset(c))) != subset:
                    _fail(
                        fails,
                        "comp-subset-lex-order",
                        f"n={n} length={length} c={format_composition(c)}",
                    )
                    break
    return {"count": count, "fails": fails, "dist": dist}


def _fixed_checks() -> dict:
    """Small pinned cases that do not scale with the sweep bounds.

    A pure task like a shard: returns its failures and its
    (id, scope, items) rows.
    """
    fails: dict[str, list] = {}
    # Round trips over every partition of every small sparse support.
    items = 0
    supports = [()]
    for x in range(1, 9):
        supports += [s + (x,) for s in supports if len(s) < 6]
    for supp in sorted(supports, key=lambda s: (len(s), s)):
        for p in iter_set_partitions_of(supp):
            items += 1
            ok = (
                combine_is(separate_is(p)) == p
                and combine_st(separate_st(p)) == p
                and phi_inverse(phi(p)) == p
                and phi(p).support == p.support
            )
            if not ok:
                _fail(fails, "subset-support-roundtrip", f"support={supp} p={format_partition(p)}")

    # Randomized sparse supports, deterministic seed.
    rng = random.Random(SPARSE_SEED)
    for _ in range(SPARSE_TRIALS):
        size = rng.randint(1, 60)
        supp = tuple(sorted(rng.sample(range(1, 61), size)))
        p = random_partition(supp, rng)
        prof = adjacency_profile(p)
        q = phi(p)
        qprof = adjacency_profile(q)
        ok = (
            len(prof.initiators) == len(prof.terminators)
            and qprof.singletons == prof.initiators
            and qprof.terminators == prof.singletons
            and q.support == p.support
            and phi_inverse(q) == p
        )
        if not ok:
            _fail(fails, "sparse-random-spot", f"support={supp} p={format_partition(p)}")

    # One-element support: the element is initiator, terminator and
    # singleton at once, and counts one adjacency.
    for a in (1, 7, 60):
        p = SetPartition(((a,),))
        prof = adjacency_profile(p)
        one = frozenset({a})
        ok = (
            prof.initiators == one
            and prof.terminators == one
            and prof.singletons == one
            and prof.adjacency_count == 1
            and phi(p) == p
        )
        if a == 1:
            ok = ok and conjugate(p, 1) == p
        if not ok:
            _fail(fails, "one-element-convention", f"a={a}")

    # n=1 composition: (mu, nu) = (0, 1) and conjugation does NOT swap.
    c1 = Composition((1,))
    stats = (mu(c1), nu(c1))
    conj_stats = (mu(conjugate_composition(c1)), nu(conjugate_composition(c1)))
    ok = (
        stats == (0, 1)
        and conjugate_composition(c1) == c1
        and conj_stats == (0, 1)
        and conj_stats != (stats[1], stats[0])
        and (mu_path(to_path(c1)), nu_path(to_path(c1))) == (0, 0)
    )
    if not ok:
        _fail(fails, "mu-nu-n1-exception", f"stats={stats} conj_stats={conj_stats}")

    # Empty partition is a fixed point everywhere it is legal.
    prof = adjacency_profile(EMPTY)
    ok = (
        phi(EMPTY) == EMPTY
        and phi_inverse(EMPTY) == EMPTY
        and reduce_core(EMPTY) == EMPTY
        and kreweras_complement(EMPTY) == EMPTY
        and not prof.initiators
        and not prof.singletons
        and prof.adjacency_count == 0
        and format_partition(EMPTY) == ""
        and parse_partition("") == EMPTY
    )
    if not ok:
        _fail(fails, "empty-partition-fixed-point", None)
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
    # prefix opens (its completions grow with them), the fixed checks 15;
    # ties keep task order.  Alone on a 2 vCPU Xeon (CPython 3.11): the n=9
    # shard (0,1,2,3) 2.5 s (rank 16), composition_sweep(16) 1.8 s, the
    # fixed checks 1.3 s, the n=9 shards opening three blocks 0.8-1.3 s.
    shards = [(n, prefix) for n in range(1, n_max + 1) for prefix in _shards_for(n, jobs)]
    tasks = [(2 * n - 6 + len(set(prefix)), partition_shard, (n, prefix)) for n, prefix in shards]
    tasks += [(m, composition_sweep, (m,)) for m in range(1, comp_n_max + 1)]
    tasks.append((15, _fixed_checks, ()))
    if jobs > 1:
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
        agg = per_n.setdefault(n, {"count": 0, "nc": 0, "dist": Counter(), "image": set()})
        agg["count"] += out["count"]
        agg["nc"] += out["nc"]
        agg["dist"].update(out["dist"])
        agg["image"].update(out["image"] or ())
        for inv, (cnt, ce) in out["fails"].items():
            _fail(fails, inv, ce, cnt)

    for n, agg in per_n.items():
        if agg["count"] != bell_number(n):
            _fail(fails, "enum-bell-count", f"n={n} count={agg['count']} expected={bell_number(n)}")
        if agg["nc"] != catalan_number(n):
            _fail(
                fails, "enum-catalan-count", f"n={n} count={agg['nc']} expected={catalan_number(n)}"
            )
        if n <= IMAGE_CAP and len(agg["image"]) != agg["count"]:
            _fail(
                fails, "phi-injective-image", f"n={n} image={len(agg['image'])} of {agg['count']}"
            )
        dist = agg["dist"]
        asym = next(((s, t) for (s, t), v in sorted(dist.items()) if dist[t, s] != v), None)
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
