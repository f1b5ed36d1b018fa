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

A handler computes and prints nothing: it takes the parsed arguments and
returns (exit code, payload, text).  ``main`` alone prints, the payload
as JSON under ``--json`` and the text otherwise, so a failed write of
stdout is an I/O error like any other.  A usage error that a handler
finds prints its own message and returns (1, None, None), and ``main``
prints nothing more.

One call loads only what its command runs.  Importing this module loads
``conjlab``, ``errors``, ``partition`` and ``phi``, which is all that
phi, conjugate and complement need.  The other commands' handlers live in
``_commands``, which ``main`` imports only for them, and each handler
imports the modules it uses.  The reason is start-up time: without cached
bytecode every module that a call imports is compiled on that call, even
the code that the call never runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError, ParseError
from .partition import complement, format_partition, parse_partition, partition_to_blocks
from .phi import conjugate, phi

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_IO = 4

# The --table choices, enumeration's PAIR_SING_ADJ and PAIR_MU_NU, spelled
# out so that building the parser does not import enumeration.
TABLE_PAIRS = ("sing-adj", "mu-nu")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    domain errors, so route usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# The one-partition maps: each prints the image of its argument, and
# checks that its support is 1..n itself.
_MAPS = {
    "phi": phi,
    "conjugate": lambda p: conjugate(p, sum(map(len, p.blocks))),
    "complement": lambda p: complement(p, sum(map(len, p.blocks))),
}


def cmd_map(args) -> tuple:
    p = parse_partition(args.partition)
    q = _MAPS[args.command](p)
    return (
        EXIT_OK,
        {"input": partition_to_blocks(p), "result": partition_to_blocks(q)},
        format_partition(q),
    )


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


def _handler(command: str):
    """The function that runs command: cmd_map for the maps, and
    cmd_<command> of _commands, loaded here, for the rest."""
    if command in _MAPS:
        return cmd_map
    from . import _commands

    return getattr(_commands, f"cmd_{command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text = _handler(args.command)(args)
        if text is not None:
            if getattr(args, "json", False):
                import json

                text = json.dumps(payload)
            # Flushed here, so that a failed write is this try's OSError
            # even when stdout is buffered.
            print(text, flush=True)
        return code
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
    code = main(sys.argv[1:])
    if code == EXIT_IO:
        # A failed write leaves its bytes in stdout's buffer, and the
        # interpreter's flush at exit would fail on them again and exit
        # 120: they go to the null device instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(code)
