"""Plain-text and SVG renderers: trace tables, circle diagrams, dot paths.

Everything here is deterministic — identical input yields byte-identical
output — so all renderings are golden-file testable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .partition import SetPartition, format_partition, partition_to_blocks, require_full_support

if TYPE_CHECKING:  # annotations only: render partition loads no composition or trace code
    from .compositions import Composition
    from .separate import PhiTrace


def _format_set(elems) -> str:
    return "{" + ",".join(str(x) for x in sorted(elems)) + "}"


def render_trace(trace: PhiTrace) -> str:
    """The two tables of one phi computation.

    Forward rows j = 1..k show the reduced partition rho_j with the
    initiator set I_j and singleton set S_j stripped at step j; reverse
    rows j = k..0 show tau_j with the sets re-inserted to build tau_{j-1}.
    """
    fwd_rows = [
        (str(row.j), format_partition(row.rho), _format_set(row.initiators),
         _format_set(row.singletons))
        for row in trace.forward_rows
    ]
    rev_rows = []
    for row in trace.reverse_rows:
        if row.j >= 1:
            frow = trace.forward_rows[row.j - 1]
            i_txt = _format_set(frow.initiators)
            s_txt = _format_set(frow.singletons)
        else:
            i_txt = s_txt = ""
        rev_rows.append((str(row.j), format_partition(row.tau), i_txt, s_txt))

    def table(title: str, head: str, rows) -> list[str]:
        headers = ("j", head, "I_j", "S_j")
        widths = [
            max(len(headers[col]), max((len(r[col]) for r in rows), default=0))
            for col in range(4)
        ]
        out = [title]
        out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
        for r in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return out

    lines = table("forward (strip initiators and singletons):", "rho_j", fwd_rows)
    lines.append("")
    lines += table(
        "reverse (insert as singletons and terminators):", "tau_j", rev_rows
    )
    return "\n".join(lines)


def trace_to_dict(trace: PhiTrace) -> dict:
    """Structured form of the trace for machine-readable output."""
    return {
        "k": trace.k,
        "forward": [
            {
                "j": row.j,
                "rho": partition_to_blocks(row.rho),
                "initiators": sorted(row.initiators),
                "singletons": sorted(row.singletons),
            }
            for row in trace.forward_rows
        ],
        "reverse": [
            {"j": row.j, "tau": partition_to_blocks(row.tau)}
            for row in trace.reverse_rows
        ],
        "core": partition_to_blocks(trace.core),
        "result": partition_to_blocks(trace.result),
    }


_SVG_SIZE = 400.0
_SVG_CENTER = 200.0
_SVG_RADIUS = 150.0
_SVG_LABEL_RADIUS = 172.0


def _vertex_angle(i: int, n: int, ccw: bool) -> float:
    """Angle (degrees) of label i on the circle.

    Default: clockwise placement starting in the top-right octant (label
    1 at 90 - 180/n degrees).  ccw mirrors across the vertical axis.
    """
    step = 360.0 / n
    if ccw:
        return 90.0 + step / 2.0 + step * (i - 1)
    return 90.0 - step / 2.0 - step * (i - 1)


def _point(angle_deg: float, radius: float) -> tuple[float, float]:
    rad = math.radians(angle_deg)
    # SVG y grows downward.
    return (
        _SVG_CENTER + radius * math.cos(rad),
        _SVG_CENTER - radius * math.sin(rad),
    )


def render_partition_svg(p: SetPartition, n: int, ccw: bool = False) -> str:
    """Circle diagram: n labelled points, each block joined into a cycle.

    Blocks of three or more elements appear as closed polygons, pairs as
    single chords, singletons as bare dots — the polygon diagram of a
    noncrossing partition has no crossing chords.  DomainError unless
    supp(p) = {1..n}.
    """
    require_full_support(p, n)
    pos = {i: _point(_vertex_angle(i, n, ccw), _SVG_RADIUS) for i in range(1, n + 1)}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_SIZE:.0f}" height="{_SVG_SIZE:.0f}" '
        f'viewBox="0 0 {_SVG_SIZE:.0f} {_SVG_SIZE:.0f}">',
        f'  <circle cx="{_SVG_CENTER:.2f}" cy="{_SVG_CENTER:.2f}" '
        f'r="{_SVG_RADIUS:.2f}" fill="none" stroke="#cccccc"/>',
    ]
    for blk in p.blocks:
        if len(blk) == 2:
            (x1, y1), (x2, y2) = pos[blk[0]], pos[blk[1]]
            lines.append(
                f'  <line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="#000000" stroke-width="1.5"/>'
            )
        elif len(blk) >= 3:
            points = " ".join(
                f"{pos[x][0]:.2f},{pos[x][1]:.2f}" for x in blk
            )
            lines.append(
                f'  <polygon points="{points}" fill="none" '
                f'stroke="#000000" stroke-width="1.5"/>'
            )
    for i in range(1, n + 1):
        x, y = pos[i]
        lines.append(f'  <circle cx="{x:.2f}" cy="{y:.2f}" r="3.00" fill="#000000"/>')
        lx, ly = _point(_vertex_angle(i, n, ccw), _SVG_LABEL_RADIUS)
        lines.append(
            f'  <text x="{lx:.2f}" y="{ly:.2f}" font-family="monospace" '
            f'font-size="14" text-anchor="middle" dominant-baseline="central">'
            f"{i}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_path_ascii(c: Composition) -> str:
    """Stacked dot rows: each part is a row of dots, each row starting
    in the column where its predecessor ended; printed top part last.
    """
    starts = []
    col = 0
    for part in c.parts:
        starts.append(col)
        col += part - 1
    lines = []
    for i in range(len(c.parts) - 1, -1, -1):
        lines.append(" " * starts[i] + "." * c.parts[i])
    return "\n".join(lines)


def render_path(c: Composition) -> str:
    """E/N step string plus the dot diagram."""
    from .compositions import to_path

    return to_path(c) + "\n" + render_path_ascii(c)
