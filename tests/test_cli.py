from contextlib import redirect_stderr, redirect_stdout
import io
import json
from pathlib import Path
import subprocess
import sys

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from conjlab import ParseError, bell_number, canonicalize, parse_composition, parse_partition, phi
from conjlab._commands import COMPOSITION_N_CAP, ENUM_BELL_CAP, TRACE_N_CAP
from conjlab.cli import main

from conftest import child_env

# Pinned outputs of the benchmark, read-only here.
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConjugationCommands:
    def test_phi_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi", "1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"
        )
        assert code == 0
        assert out == "1 2 12 - 3 10 - 4 7 - 5 9 - 6 8 - 11\n"

    def test_phi_empty(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "")
        assert code == 0
        assert out == "\n"

    def test_conjugate_figure(self, capsys):
        code, out, _ = run_cli(capsys, "conjugate", "1 5 8 - 2 - 3 - 4 - 6 7")
        assert code == 0
        assert out == "1 - 2 4 - 3 - 5 6 7 8\n"

    def test_complement(self, capsys):
        code, out, _ = run_cli(capsys, "complement", "1 2 - 3")
        assert code == 0
        assert out == "1 - 2 3\n"

    def test_trace_contains_both_tables(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8")
        assert code == 0
        assert "forward (strip initiators and singletons):" in out
        assert "reverse (insert as singletons and terminators):" in out
        assert "0  1 2 12 - 3 10 - 4 7 - 5 9 - 6 8 - 11" in out

    def test_kreweras_three_lines(self, capsys):
        code, out, _ = run_cli(capsys, "kreweras", "1 5 8 - 2 - 3 - 4 - 6 7")
        assert code == 0
        assert out.splitlines() == [
            "kreweras: 1' 2' 3' 4' - 5' 7' - 6' - 8'",
            "phi: 1 2 3 4 - 5 7 - 6 - 8",
            "conjugate: 1 - 2 4 - 3 - 5 6 7 8",
        ]

    def test_kreweras_single_block(self, capsys):
        code, out, _ = run_cli(capsys, "kreweras", "1 2 3")
        assert code == 0
        assert "conjugate: 1 - 2 - 3" in out


class TestCompositionCommands:
    def test_conjugate(self, capsys):
        code, out, _ = run_cli(capsys, "comp", "conjugate", "2,1,2,3")
        assert code == 0
        assert out == "1,3,2,1,1\n"

    def test_stats(self, capsys):
        code, out, _ = run_cli(capsys, "comp", "stats", "3,1,1,4,2")
        assert code == 0
        assert out.splitlines()[0] == "mu=9 nu=6"
        assert out.splitlines()[1] == "path: mu=9 nu=6"

    def test_stats_flags_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "comp", "stats", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mu=0 nu=1"
        assert lines[1] == "path: mu=0 nu=0"
        assert "n=1" in lines[2]

    def test_path(self, capsys):
        code, out, _ = run_cli(capsys, "comp", "path", "2,1,2,3")
        assert code == 0
        assert out == "ENNENEE\n  ...\n ..\n .\n..\n"

    @pytest.mark.parametrize(
        "command", [["comp", "conjugate"], ["comp", "stats"], ["comp", "path"], ["render", "path"]]
    )
    def test_composition_cap_boundary(self, capsys, command):
        code, out, _ = run_cli(capsys, *command, f"1,{COMPOSITION_N_CAP - 1}")
        assert code == 0
        assert out
        for text in (f"1,{COMPOSITION_N_CAP}", "100000000"):
            code, out, err = run_cli(capsys, *command, text)
            assert code == 2
            assert out == ""
            assert err.startswith("conjlab: error:")

    def test_trace_cap(self, capsys):
        # A trace keeps every row, so a nested input costs memory quadratic
        # in its size: one above the cap is refused before it is traced.
        code, out, _ = run_cli(capsys, "trace", " - ".join(map(str, range(1, TRACE_N_CAP + 1))))
        assert code == 0 and out
        m = TRACE_N_CAP + 1
        rainbow = " - ".join(" ".join(map(str, {i, m + 1 - i})) for i in range(1, (m + 1) // 2 + 1))
        assert len(parse_partition(rainbow).support) == m
        code, out, err = run_cli(capsys, "trace", rainbow)
        assert code == 2
        assert out == ""
        assert err == (
            f"conjlab: error: partition of {m} elements is above the trace cap of {TRACE_N_CAP}\n"
        )

    @pytest.mark.parametrize(
        "case", json.loads(EXPECTED.read_text())["cli"], ids=lambda case: case["name"]
    )
    def test_worked_examples_keep_their_bytes(self, capsys, case):
        code, out, _ = run_cli(capsys, *case["argv"])
        assert code == 0
        assert out == case["stdout"]


class TestEnumerateCommand:
    def test_noncrossing_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--noncrossing")
        assert code == 0
        assert "partitions of [4]: 15" in out
        assert "noncrossing partitions of [4]: 14" in out

    def test_singleton_adjacency_table(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--table", "sing-adj")
        assert code == 0
        assert "  (0,2): 1" in out
        assert "  (2,0): 1" in out
        assert "symmetric: yes" in out

    def test_mu_nu_table(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--table", "mu-nu")
        assert code == 0
        assert "compositions of 4: 8" in out
        assert "symmetric: yes" in out

    def test_too_large_for_exhaustive_mode(self, capsys):
        for argv, err in [
            (
                ["--n", "13", "--noncrossing"],
                "exhaustive partition enumeration is capped at n=12; rerun with --n 12 or lower",
            ),
            (["--n", "1001"], "Bell numbers are capped at n=1000; rerun with --n 1000 or lower"),
            (
                ["--n", "21", "--table", "mu-nu"],
                "exhaustive composition enumeration is capped at n=20; rerun with --n 20 or lower",
            ),
        ]:
            assert run_cli(capsys, "enumerate", *argv) == (2, "", f"conjlab: error: {err}\n")

    def test_nonpositive_n(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "0")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_bell_cap(self, capsys, flags):
        code, out, _ = run_cli(capsys, *flags, "enumerate", "--n", str(ENUM_BELL_CAP))
        assert code == 0
        if flags:
            assert json.loads(out)["partitions"] == bell_number(ENUM_BELL_CAP)
        else:
            assert out == f"partitions of [{ENUM_BELL_CAP}]: {bell_number(ENUM_BELL_CAP)}\n"
        for n in (ENUM_BELL_CAP + 1, 2500):
            code, out, err = run_cli(capsys, *flags, "enumerate", "--n", str(n))
            assert code == 2
            assert out == ""
            assert err.startswith("conjlab: error:")


class TestVerifyCommand:
    def test_small_green_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-max", "4", "--comp-n-max", "5"
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("result: PASS")

    def test_zero_bound_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n-max", "0")
        assert code == 1
        assert "error" in err

    def test_overlarge_bound_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n-max", "13")
        assert code == 2
        assert "12" in err

    def test_failure_exits_three(self, capsys, monkeypatch):
        class FakeReport:
            n_max = 3
            comp_n_max = 3
            ok = False

            def render(self):
                return "result: FAIL"

            def to_records(self):
                return []

        import conjlab.verify as verify_module

        # cmd_verify imports verify_suite from conjlab.verify when it runs.
        monkeypatch.setattr(
            verify_module, "verify_suite", lambda **kw: FakeReport()
        )
        code, out, _ = run_cli(capsys, "verify", "--n-max", "3")
        assert code == 3
        assert "FAIL" in out


class TestRenderCommand:
    def test_svg_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "render", "partition", "1 2 3")
        assert code == 0
        assert out.startswith('<?xml version="1.0"')

    def test_svg_to_file_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        code1, out1, _ = run_cli(
            capsys, "render", "partition", "1 5 8 - 2 - 3 - 4 - 6 7", "--out", str(a)
        )
        code2, _, _ = run_cli(
            capsys, "render", "partition", "1 5 8 - 2 - 3 - 4 - 6 7", "--out", str(b)
        )
        assert code1 == code2 == 0
        assert out1 == f"wrote {a}\n"
        assert a.read_bytes() == b.read_bytes()

    def test_ccw_differs(self, capsys, tmp_path):
        a, b = tmp_path / "cw.svg", tmp_path / "ccw.svg"
        run_cli(capsys, "render", "partition", "1 2 - 3", "--out", str(a))
        run_cli(capsys, "render", "partition", "1 2 - 3", "--out", str(b), "--ccw")
        assert a.read_bytes() != b.read_bytes()

    def test_path_ascii(self, capsys):
        code, out, _ = run_cli(capsys, "render", "path", "2,1,2,3")
        assert code == 0
        assert "ENNENEE" in out
        assert ".." in out

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.svg"
        code, _, err = run_cli(
            capsys, "render", "partition", "1 2 3", "--out", str(target)
        )
        assert code == 4
        assert "error" in err


class TestErrorPaths:
    def test_unparsable_partition(self, capsys):
        code, _, err = run_cli(capsys, "phi", "1 - 1 2")
        assert code == 1
        assert "duplicate" in err

    def test_domain_error_on_partial_support(self, capsys):
        code, _, err = run_cli(capsys, "conjugate", "2 - 3")
        assert code == 2
        assert "support" in err

    def test_crossing_input_names_quadruple(self, capsys):
        code, _, err = run_cli(capsys, "kreweras", "1 3 - 2 4")
        assert code == 2
        assert "(1, 2, 3, 4)" in err

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 1

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phi"])
        assert exc.value.code == 1


# str.isdigit() accepts these, and int() rejects the first two and reads
# the last as 1.  int() also refuses more than 4300 digits by default.
NON_ASCII_DIGITS = [
    pytest.param(parse_partition, ["phi"], "1 \u00b2", id="phi-superscript"),
    pytest.param(parse_partition, ["phi"], "\u0661 - 2", id="phi-arabic-indic"),
    pytest.param(parse_composition, ["comp", "conjugate"], "2,\u00b3", id="comp-superscript"),
    pytest.param(parse_composition, ["comp", "conjugate"], "\u0661,2", id="comp-arabic-indic"),
    pytest.param(parse_partition, ["phi"], "1 " + "9" * 5000, id="phi-5000-digits"),
    pytest.param(parse_composition, ["comp", "path"], "9" * 5000, id="comp-5000-digits"),
]


class TestNonAsciiDigits:
    @pytest.mark.parametrize("parse, argv, text", NON_ASCII_DIGITS)
    def test_library_raises_parse_error(self, parse, argv, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("parse, argv, text", NON_ASCII_DIGITS)
    def test_cli_exits_one_without_traceback(self, parse, argv, text):
        proc = subprocess.run(
            [sys.executable, "-m", "conjlab", *argv, text],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("conjlab: error:")
        assert "Traceback" not in proc.stderr


TEXT_COMMANDS = [
    ["phi"],
    ["conjugate"],
    ["complement"],
    ["trace"],
    ["kreweras"],
    ["comp", "conjugate"],
    ["comp", "stats"],
    ["comp", "path"],
    ["render", "path"],
]
# Arbitrary text, and text over the characters the parsers look at, so
# that many inputs parse.
FUZZ_TEXT = st.text(max_size=20) | st.text(alphabet=" ,-0123456789\u00b2\u0661", max_size=40)


def exit_code(argv) -> int:
    """main's exit code, with argparse's SystemExit read as one; any other
    exception escapes."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(TEXT_COMMANDS), st.booleans(), FUZZ_TEXT)
    def test_text_argument(self, command, as_json, text):
        argv = (["--json"] if as_json else []) + command + [text]
        assert exit_code(argv) in {0, 1, 2, 3, 4}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-5, max_value=10**5), st.booleans())
    def test_enumerate_n(self, n, as_json):
        argv = (["--json"] if as_json else []) + ["enumerate", "--n", str(n)]
        assert exit_code(argv) in {0, 1, 2, 3, 4}


class TestJsonMode:
    def test_phi_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "phi", "1 3 - 2")
        assert code == 0
        data = json.loads(out)
        assert canonicalize(data["input"]) == parse_partition("1 3 - 2")
        assert canonicalize(data["result"]) == phi(parse_partition("1 3 - 2"))

    def test_flag_after_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--json", "1 3 - 2")
        assert code == 0
        assert json.loads(out)["result"] == [[1, 2], [3]]

    def test_trace_structure(self, capsys):
        _, out, _ = run_cli(
            capsys, "--json", "trace", "1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"
        )
        data = json.loads(out)
        assert data["k"] == 4
        assert len(data["forward"]) == 4
        assert len(data["reverse"]) == 5
        assert data["result"] == [[1, 2, 12], [3, 10], [4, 7], [5, 9], [6, 8], [11]]

    def test_kreweras_structure(self, capsys):
        _, out, _ = run_cli(capsys, "--json", "kreweras", "1 5 8 - 2 - 3 - 4 - 6 7")
        data = json.loads(out)
        assert data["kreweras"] == [[1, 2, 3, 4], [5, 7], [6], [8]]
        assert data["kreweras_primed"].startswith("1' 2' 3' 4'")
        assert data["conjugate"] == [[1], [2, 4], [3], [5, 6, 7, 8]]

    def test_comp_stats_structure(self, capsys):
        _, out, _ = run_cli(capsys, "--json", "comp", "stats", "3,1,1,4,2")
        data = json.loads(out)
        assert data == {
            "parts": [3, 1, 1, 4, 2],
            "mu": 9,
            "nu": 6,
            "path": "EENNNEEENE",
            "path_mu": 9,
            "path_nu": 6,
            "n1_exception": False,
        }

    def test_enumerate_structure(self, capsys):
        _, out, _ = run_cli(
            capsys, "--json", "enumerate", "--n", "2", "--table", "sing-adj"
        )
        data = json.loads(out)
        assert data["partitions"] == 2
        assert data["table"]["counts"] == [[0, 2, 1], [2, 0, 1]]
        assert data["table"]["symmetric"] is True

    def test_verify_structure(self, capsys):
        _, out, _ = run_cli(
            capsys, "--json", "verify", "--n-max", "3", "--comp-n-max", "3"
        )
        data = json.loads(out)
        assert data["ok"] is True
        assert len(data["results"]) == 41


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        runs = [
            run_cli(capsys, "verify", "--n-max", "5", "--comp-n-max", "6")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_jobs_do_not_change_output(self, capsys):
        solo = run_cli(capsys, "verify", "--n-max", "6", "--comp-n-max", "6")
        multi = run_cli(
            capsys, "verify", "--n-max", "6", "--comp-n-max", "6", "--jobs", "3"
        )
        assert solo == multi


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "conjlab", "phi", "1 3 - 2"],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1 2 - 3\n"

    def test_python_dash_m_error_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "conjlab", "conjugate", "2 - 3"],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
class TestStdoutWriteError:
    """A failed write of stdout is an I/O error, for a map command and a
    command of _commands, in text and JSON, with stdout buffered or not."""

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("argv", [["phi", "1 3 - 2"], ["enumerate", "--n", "4"]], ids=["phi", "enumerate"])
    def test_full_device_exits_four(self, argv, flags, buffered):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "conjlab", *flags, *argv],
                env=env,
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == 4
        assert proc.stderr.startswith("conjlab: error:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestDispatch:
    """main loads the handlers of the non-map commands only when one runs,
    so a subcommand without a handler would show only on its own call."""

    def test_every_subcommand_has_a_handler(self):
        from conjlab import _commands, cli

        commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert set(cli._MAPS) < set(commands.choices)
        for name in commands.choices:
            handler = cli._handler(name)
            assert callable(handler)
            if name in cli._MAPS:
                assert handler is cli.cmd_map
            else:
                assert handler is getattr(_commands, f"cmd_{name}")
                assert handler.__module__ == "conjlab._commands"
