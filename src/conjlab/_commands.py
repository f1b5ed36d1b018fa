"""The handlers of the commands other than phi, conjugate and complement.

``cli.main`` imports this module only when one of these commands runs.
Without cached bytecode every module that a call imports is compiled on
that call, so a map command, which runs none of this code, does not pay
to compile it.
"""

from __future__ import annotations

import sys

from .cli import (
    COMPOSITION_N_CAP,
    ENUM_BELL_CAP,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    TRACE_N_CAP,
    _emit,
)
from .errors import DomainError
from .partition import (
    _complement,
    format_partition,
    inferred_n,
    parse_partition,
    partition_to_blocks,
)


def cmd_trace(args, use_json: bool) -> int:
    from .render import render_trace, trace_to_dict
    from .separate import phi_trace

    p = parse_partition(args.partition)
    m = sum(map(len, p.blocks))
    if m > TRACE_N_CAP:
        raise DomainError(f"partition of {m} elements is above the trace cap of {TRACE_N_CAP}")
    trace = phi_trace(p)
    payload = {"input": partition_to_blocks(p)}
    payload.update(trace_to_dict(trace))
    _emit(use_json, payload, render_trace(trace))
    return EXIT_OK


def cmd_kreweras(args, use_json: bool) -> int:
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
    _emit(use_json, payload, text)
    return EXIT_OK


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


def cmd_comp(args, use_json: bool) -> int:
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
        _emit(
            use_json,
            {"input": list(c.parts), "conjugate": list(d.parts)},
            format_composition(d),
        )
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
        _emit(
            use_json,
            {
                "parts": list(c.parts),
                "mu": m,
                "nu": v,
                "path": path,
                "path_mu": pm,
                "path_nu": pv,
                "n1_exception": c.n == 1,
            },
            "\n".join(lines),
        )
    else:  # path
        from .render import render_path, render_path_ascii

        _emit(
            use_json,
            {
                "parts": list(c.parts),
                "path": to_path(c),
                "diagram": render_path_ascii(c),
            },
            render_path(c),
        )
    return EXIT_OK


def _format_table(counts: dict) -> list[str]:
    return [f"  ({s},{t}): {c}" for (s, t), c in sorted(counts.items())]


def cmd_enumerate(args, use_json: bool) -> int:
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
        return EXIT_USAGE
    needs_partitions = args.noncrossing or args.table == PAIR_SING_ADJ
    if needs_partitions and n > N_MAX_HARD:
        raise DomainError(
            f"exhaustive partition enumeration is capped at n={N_MAX_HARD}; "
            f"rerun with --n {N_MAX_HARD} or lower"
        )
    if args.table != PAIR_MU_NU and n > ENUM_BELL_CAP:
        raise DomainError(
            f"Bell numbers are capped at n={ENUM_BELL_CAP}; "
            f"rerun with --n {ENUM_BELL_CAP} or lower"
        )
    if args.table == PAIR_MU_NU and n > COMP_N_MAX_HARD:
        raise DomainError(
            f"exhaustive composition enumeration is capped at n={COMP_N_MAX_HARD}; "
            f"rerun with --n {COMP_N_MAX_HARD} or lower"
        )

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

    _emit(use_json, payload, "\n".join(lines))
    return EXIT_OK if symmetric else EXIT_VERIFY


def cmd_verify(args, use_json: bool) -> int:
    if args.n_max < 1 or args.comp_n_max < 1 or args.jobs < 1:
        print(
            "conjlab verify: error: --n-max, --comp-n-max and --jobs must be >= 1",
            file=sys.stderr,
        )
        return EXIT_USAGE
    from .verify import verify_suite

    report = verify_suite(
        n_max=args.n_max, comp_n_max=args.comp_n_max, jobs=args.jobs
    )
    _emit(
        use_json,
        {
            "n_max": report.n_max,
            "comp_n_max": report.comp_n_max,
            "ok": report.ok,
            "results": report.to_records(),
        },
        report.render(),
    )
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_render(args, use_json: bool) -> int:
    from .render import render_partition_svg, render_path

    if args.kind == "partition":
        p = parse_partition(args.text)
        content = render_partition_svg(p, inferred_n(p), ccw=args.ccw)
    else:  # path
        content = render_path(_capped_composition(args.text)) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(content)
        _emit(use_json, {"out": args.out, "bytes": len(content)}, f"wrote {args.out}")
    else:
        _emit(use_json, {"content": content}, content.rstrip("\n"))
    return EXIT_OK
