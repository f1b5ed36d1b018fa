"""Count the code lines of Python source files.

A code line holds at least one token other than a comment, a docstring or
whitespace.  A token that spans lines, such as a triple-quoted string that
is not a docstring, makes each line it spans a code line.  A docstring is
the string that opens a module, class or function body, as ``ast`` reads
it.  Wrapping a statement over more lines therefore adds code lines.

    python3 tools/code_lines.py                # every .py file under src/
    python3 tools/code_lines.py src/conjlab/cli.py src/conjlab/_commands.py

Prints one "count  path" line per file, then the total.  Standard library
only.
"""

from __future__ import annotations

import ast
import io
from pathlib import Path
import sys
import tokenize

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of source starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docs = docstring_starts(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP or tok.type == tokenize.STRING and tok.start in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    paths = [Path(a) for a in argv] or sorted((root / "src").rglob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
