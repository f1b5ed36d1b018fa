from pathlib import Path

import pytest

from conjlab import Composition, DomainError, parse_partition, phi_trace
from conjlab.render import (
    render_partition_svg,
    render_path,
    render_path_ascii,
    render_trace,
    trace_to_dict,
)

P = parse_partition
GOLDEN = Path(__file__).parent / "golden"

WORKED = P("1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8")
FIGURE = P("1 5 8 - 2 - 3 - 4 - 6 7")


class TestTraceTables:
    def test_worked_example_matches_golden(self):
        want = (GOLDEN / "worked_trace.txt").read_text()
        assert render_trace(phi_trace(WORKED)) + "\n" == want

    def test_forward_rows_carry_both_sets(self):
        text = render_trace(phi_trace(WORKED))
        fwd, rev = text.split("\n\n")
        assert fwd.splitlines()[0] == "forward (strip initiators and singletons):"
        assert "1  3 12 - 4 7 10 - 5 9 - 6 8  {11}  {1,2}" in fwd
        assert "4  4 7 - 5 9 - 6 8            {10}  {}" in fwd
        # The last reverse row shows only the final partition.
        assert rev.splitlines()[-1].startswith("0  1 2 12 - 3 10 - 4 7 - 5 9 - 6 8 - 11")
        assert rev.splitlines()[-1].rstrip() == rev.splitlines()[-1]

    def test_empty_partition_trace_renders(self):
        text = render_trace(phi_trace(P("")))
        assert "forward" in text and "reverse" in text

    def test_structured_form(self):
        d = trace_to_dict(phi_trace(WORKED))
        assert d["k"] == 4
        assert [row["j"] for row in d["forward"]] == [1, 2, 3, 4]
        assert [row["j"] for row in d["reverse"]] == [4, 3, 2, 1, 0]
        assert d["forward"][0]["initiators"] == [11]
        assert d["forward"][0]["singletons"] == [1, 2]
        assert d["core"] == [[4, 7], [5, 9], [6, 8]]
        assert d["result"] == [[1, 2, 12], [3, 10], [4, 7], [5, 9], [6, 8], [11]]


class TestSvg:
    def test_matches_golden_byte_for_byte(self):
        want = (GOLDEN / "figure_partition.svg").read_text()
        assert render_partition_svg(FIGURE, 8) == want

    def test_ccw_matches_its_golden_and_differs(self):
        want = (GOLDEN / "figure_partition_ccw.svg").read_text()
        assert render_partition_svg(FIGURE, 8, ccw=True) == want
        assert want != (GOLDEN / "figure_partition.svg").read_text()

    def test_repeated_calls_identical(self):
        a = render_partition_svg(FIGURE, 8)
        b = render_partition_svg(FIGURE, 8)
        assert a == b

    def test_block_shapes(self):
        svg = render_partition_svg(FIGURE, 8)
        # triangle {1,5,8} -> polygon, pair {6,7} -> line, singletons -> dots
        assert svg.count("<polygon") == 1
        assert svg.count("<line") == 1
        assert svg.count("<text") == 8
        triangle = render_partition_svg(P("1 2 3"), 3)
        assert triangle.count("<polygon") == 1
        assert triangle.count("<line") == 0

    def test_requires_full_support(self):
        with pytest.raises(DomainError) as err:
            render_partition_svg(P("2 - 3"), 3)
        assert str(err.value) == "support of '2 - 3' is not 1..3"

    def test_no_unstable_content(self):
        svg = render_partition_svg(FIGURE, 8)
        assert "date" not in svg.lower()
        assert svg.startswith('<?xml version="1.0"')
        assert svg.endswith("</svg>\n")


class TestPathDiagram:
    def test_worked_example(self):
        c = Composition((2, 1, 2, 3))
        assert render_path_ascii(c) == "  ...\n ..\n .\n.."
        assert render_path(c) == "ENNENEE\n  ...\n ..\n .\n.."

    def test_each_row_starts_where_predecessor_ends(self):
        c = Composition((3, 2, 4))
        # columns: part 3 at 0-2, part 2 at 2-3, part 4 at 3-6
        assert render_path_ascii(c) == "   ....\n  ..\n..."

    def test_single_cell(self):
        assert render_path_ascii(Composition((1,))) == "."
        assert render_path(Composition((1,))) == "\n."

    def test_all_ones_is_a_column(self):
        assert render_path_ascii(Composition((1, 1, 1))) == ".\n.\n."
