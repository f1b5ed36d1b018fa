"""Command-line surface for the library.

Commands::

    conjlab phi "1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"
    conjlab conjugate "1 5 8 - 2 - 3 - 4 - 6 7"
    conjlab complement "1 2 - 3"
    conjlab trace "1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"
    conjlab kreweras "1 5 8 - 2 - 3 - 4 - 6 7"
    conjlab comp conjugate 2,1,2,3
    conjlab comp stats 3,1,1,4,2
    conjlab comp path 2,1,2,3
    conjlab enumerate --n 4 --noncrossing
    conjlab enumerate --n 2 --table sing-adj
    conjlab verify --n-max 8 --jobs 2
    conjlab render partition "1 5 8 - 2 - 3 - 4 - 6 7" --out out.svg

Every command is deterministic: identical invocation gives byte-identical
output.  ``--json`` (global or per command) switches to structured output.

Exit codes: 0 success, 1 parse/usage error, 2 domain error (including an
input above its cap), 3 verification or symmetry failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DomainError, ParseError
from .partition import (
    _complement,
    complement,
    format_partition,
    inferred_n,
    parse_partition,
    partition_to_blocks,
)
from .phi import conjugate, phi

# Every other module is imported by the commands that use it, so that one
# call loads only what its command runs.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_IO = 4

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
# The --table choices, enumeration's PAIR_SING_ADJ and PAIR_MU_NU, spelled
# out so that building the parser does not import enumeration.
TABLE_PAIRS = ("sing-adj", "mu-nu")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    domain errors, so route usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(use_json: bool, payload: dict, text: str) -> None:
    if use_json:
        import json

        print(json.dumps(payload))
    else:
        print(text)


# The one-partition maps: each prints the image of its argument, and
# checks that its support is 1..n itself.
_MAPS = {
    "phi": phi,
    "conjugate": lambda p: conjugate(p, sum(map(len, p.blocks))),
    "complement": lambda p: complement(p, sum(map(len, p.blocks))),
}


def cmd_map(args, use_json: bool) -> int:
    p = parse_partition(args.partition)
    q = _MAPS[args.command](p)
    _emit(
        use_json,
        {"input": partition_to_blocks(p), "result": partition_to_blocks(q)},
        format_partition(q),
    )
    return EXIT_OK


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


def build_parser() -> _Parser:
    top = _Parser(
        prog="conjlab",
        description="Set-partition conjugation, Kreweras complements, and "
        "composition statistics.",
    )
    top.add_argument(
        "--json", action="store_true", help="emit structured JSON output"
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit structured JSON output",
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    for name, doc in (
        ("phi", "apply the conjugation bijection underlying conjugate"),
        ("conjugate", "conjugate a partition of 1..n"),
        ("complement", "relabel x -> n+1-x on a partition of 1..n"),
        ("trace", "print the forward/reverse tables of one phi computation"),
        ("kreweras", "Kreweras complement and graphical phi/conjugate"),
    ):
        sp = sub.add_parser(name, parents=[common], help=doc)
        sp.add_argument("partition", help='dash notation, e.g. "1 3 - 2"')

    comp = sub.add_parser(
        "comp", parents=[common], help="composition conjugate / statistics / path"
    )
    comp.add_argument("action", choices=["conjugate", "stats", "path"])
    comp.add_argument("composition", help='comma-separated parts, e.g. "2,1,2,3"')

    enum = sub.add_parser(
        "enumerate", parents=[common], help="exhaustive counts and joint tables"
    )
    enum.add_argument("--n", type=int, required=True, help="ground-set size")
    enum.add_argument(
        "--noncrossing",
        action="store_true",
        help="count noncrossing partitions by brute-force filtering",
    )
    enum.add_argument(
        "--table",
        choices=TABLE_PAIRS,
        help="print a joint statistic distribution and check its symmetry",
    )

    ver = sub.add_parser(
        "verify", parents=[common], help="run the full invariant suite"
    )
    ver.add_argument("--n-max", type=int, default=10, help="partition bound (<= 12)")
    ver.add_argument(
        "--comp-n-max", type=int, default=16, help="composition bound (<= 20)"
    )
    ver.add_argument("--jobs", type=int, default=1, help="parallel shards")

    ren = sub.add_parser(
        "render", parents=[common], help="deterministic SVG / ASCII diagrams"
    )
    ren.add_argument("kind", choices=["partition", "path"])
    ren.add_argument("text", help="partition or composition text")
    ren.add_argument("--out", help="write to this file instead of stdout")
    ren.add_argument(
        "--ccw",
        action="store_true",
        help="place circle labels counterclockwise (default clockwise)",
    )

    return top


_DISPATCH = {
    **dict.fromkeys(_MAPS, cmd_map),
    "trace": cmd_trace,
    "kreweras": cmd_kreweras,
    "comp": cmd_comp,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "render": cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    use_json = getattr(args, "json", False)
    try:
        return _DISPATCH[args.command](args, use_json)
    except ParseError as exc:
        print(f"conjlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"conjlab: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"conjlab: error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
