"""The handlers of the commands other than phi, conjugate and complement,
and the caps on their inputs.

``cli.main`` imports this module only when one of these commands runs.
Without cached bytecode every module that a call imports is compiled on
that call, so a map command, which runs none of this code, does not pay
to compile it.  Each handler returns (exit code, payload, text) for
``cli.main`` to print.
"""

from __future__ import annotations

import sys

from .cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY
from .errors import DomainError
from .partition import (
    _complement,
    format_partition,
    inferred_n,
    parse_partition,
    partition_to_blocks,
)

# Largest --n of a plain Bell count.  B(n) takes O(n^2) big-integer
# additions, and str() refuses more than 4,300 digits (B(2500) has more);
# B(1000) has 1,928 digits.
ENUM_BELL_CAP = 1000
# Largest n of a composition given to comp and render path.  Their output
# grows with n: the path has n - 1 steps, and the dot diagram of (2, ..., 2)
# holds about n^2 / 8 characters (0.5 MB at the cap).
COMPOSITION_N_CAP = 2000
# Largest number of elements of a partition given to trace.  phi_trace
# keeps every row, so a nested input of m elements costs O(m^2) memory:
# a rainbow of 1,000 elements peaks near 75 MB and prints 4 MB.
TRACE_N_CAP = 1000


def cmd_trace(args) -> tuple:
    from .render import render_trace, trace_to_dict
    from .separate import phi_trace

    p = parse_partition(args.partition)
    m = sum(map(len, p.blocks))
    if m > TRACE_N_CAP:
        raise DomainError(f"partition of {m} elements is above the trace cap of {TRACE_N_CAP}")
    trace = phi_trace(p)
    payload = {"input": partition_to_blocks(p)}
    payload.update(trace_to_dict(trace))
    return EXIT_OK, payload, render_trace(trace)


def cmd_kreweras(args) -> tuple:
    from .noncrossing import format_gaps, kreweras_complement

    p = parse_partition(args.partition)
    kc = kreweras_complement(p)  # checks the support; DomainError names a crossing
    if not p.blocks:
        inferred_n(p)  # Kreweras maps the empty partition to itself; the command refuses it
    gc = _complement(kc)  # graphical_conjugate(p), reusing kc
    payload = {
        "input": partition_to_blocks(p),
        "kreweras": partition_to_blocks(kc),
        "kreweras_primed": format_gaps(kc),
        "phi": partition_to_blocks(kc),
        "conjugate": partition_to_blocks(gc),
    }
    text = "\n".join(
        [
            f"kreweras: {format_gaps(kc)}",
            f"phi: {format_partition(kc)}",
            f"conjugate: {format_partition(gc)}",
        ]
    )
    return EXIT_OK, payload, text


def _capped_composition(text: str):
    """Parse a composition and refuse one above COMPOSITION_N_CAP; the
    check costs one pass over the parts, before any O(n) work."""
    from .compositions import parse_composition

    c = parse_composition(text)
    if c.n > COMPOSITION_N_CAP:
        raise DomainError(
            f"composition of n={c.n} is above the cap n={COMPOSITION_N_CAP}"
        )
    return c


def cmd_comp(args) -> tuple:
    from .compositions import (
        conjugate_composition,
        format_composition,
        mu,
        mu_path,
        nu,
        nu_path,
        to_path,
    )

    c = _capped_composition(args.composition)
    if args.action == "conjugate":
        d = conjugate_composition(c)
        payload = {"input": list(c.parts), "conjugate": list(d.parts)}
        text = format_composition(d)
    elif args.action == "stats":
        path = to_path(c)
        m, v = mu(c), nu(c)
        pm, pv = mu_path(path), nu_path(path)
        lines = [f"mu={m} nu={v}", f"path: mu={pm} nu={pv}"]
        if c.n == 1:
            lines.append(
                "note: n=1 is the single case where part and path statistics"
                " disagree"
            )
        payload = {
            "parts": list(c.parts),
            "mu": m,
            "nu": v,
            "path": path,
            "path_mu": pm,
            "path_nu": pv,
            "n1_exception": c.n == 1,
        }
        text = "\n".join(lines)
    else:  # path
        from .render import render_path, render_path_ascii

        payload = {
            "parts": list(c.parts),
            "path": to_path(c),
            "diagram": render_path_ascii(c),
        }
        text = render_path(c)
    return EXIT_OK, payload, text


def _refuse_n_above(n: int, cap: int, what: str) -> None:
    """Refuse an enumerate --n above cap, where what, such as "Bell numbers
    are", names what is capped."""
    if n > cap:
        raise DomainError(f"{what} capped at n={cap}; rerun with --n {cap} or lower")


def _format_table(counts: dict) -> list[str]:
    return [f"  ({s},{t}): {c}" for (s, t), c in sorted(counts.items())]


def cmd_enumerate(args) -> tuple:
    from .enumeration import (
        COMP_N_MAX_HARD,
        N_MAX_HARD,
        PAIR_MU_NU,
        PAIR_SING_ADJ,
        bell_number,
        distribution,
        iter_set_partitions,
    )

    n = args.n
    if n < 1:
        print("conjlab enumerate: error: --n must be >= 1", file=sys.stderr)
        return EXIT_USAGE, None, None
    if args.noncrossing or args.table == PAIR_SING_ADJ:
        _refuse_n_above(n, N_MAX_HARD, "exhaustive partition enumeration is")
    if args.table != PAIR_MU_NU:
        _refuse_n_above(n, ENUM_BELL_CAP, "Bell numbers are")
    else:
        _refuse_n_above(n, COMP_N_MAX_HARD, "exhaustive composition enumeration is")

    payload: dict = {"n": n}
    lines: list[str] = []
    if args.table != PAIR_MU_NU:
        payload["partitions"] = bell = bell_number(n)
        lines.append(f"partitions of [{n}]: {bell}")
    if args.noncrossing:
        from .noncrossing import is_noncrossing

        nc = sum(1 for p in iter_set_partitions(n) if is_noncrossing(p))
        payload["noncrossing"] = nc
        lines.append(f"noncrossing partitions of [{n}]: {nc}")

    symmetric = True
    if args.table is not None:
        table = distribution(n, args.table)
        symmetric = table.is_symmetric()
        if args.table == PAIR_MU_NU:
            payload["compositions"] = table.total
            lines.append(f"compositions of {n}: {table.total}")
        head = "singletons/adjacencies" if args.table == PAIR_SING_ADJ else "mu/nu"
        lines.append(f"joint distribution of {head}:")
        lines.extend(_format_table(table.counts))
        lines.append(f"symmetric: {'yes' if symmetric else 'NO'}")
        payload["table"] = {
            "pair": table.pair,
            "counts": [[s, t, c] for (s, t), c in sorted(table.counts.items())],
            "total": table.total,
            "symmetric": symmetric,
        }

    return EXIT_OK if symmetric else EXIT_VERIFY, payload, "\n".join(lines)


def cmd_verify(args) -> tuple:
    if args.n_max < 1 or args.comp_n_max < 1 or args.jobs < 1:
        print(
            "conjlab verify: error: --n-max, --comp-n-max and --jobs must be >= 1",
            file=sys.stderr,
        )
        return EXIT_USAGE, None, None
    from .verify import verify_suite

    report = verify_suite(
        n_max=args.n_max, comp_n_max=args.comp_n_max, jobs=args.jobs
    )
    payload = {
        "n_max": report.n_max,
        "comp_n_max": report.comp_n_max,
        "ok": report.ok,
        "results": report.to_records(),
    }
    return EXIT_OK if report.ok else EXIT_VERIFY, payload, report.render()


def cmd_render(args) -> tuple:
    from .render import render_partition_svg, render_path

    if args.kind == "partition":
        p = parse_partition(args.text)
        content = render_partition_svg(p, inferred_n(p), ccw=args.ccw)
    else:  # path
        content = render_path(_capped_composition(args.text)) + "\n"
    if args.out is None:
        return EXIT_OK, {"content": content}, content.rstrip("\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(content)
    return EXIT_OK, {"out": args.out, "bytes": len(content)}, f"wrote {args.out}"
