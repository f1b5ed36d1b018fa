"""What one import or CLI call loads, and the package's public names.

Each check runs in a fresh interpreter, since this process has long since
imported every module.
"""

import ast
import json
import subprocess
import sys

import pytest

import conjlab

from conftest import child_env

# Modules that only verify, trace, render, enumerate, comp and kreweras need.
DEFERRED = (
    "conjlab.verify",
    "conjlab.separate",
    "conjlab.render",
    "conjlab.enumeration",
    "conjlab.compositions",
    "conjlab.noncrossing",
    "concurrent.futures.process",
    "multiprocessing",
)

# conjlab.__all__ as it stood when every submodule was imported eagerly.
PUBLIC = [
    "AdjacencyProfile",
    "CombineDomainError",
    "Composition",
    "DistributionTable",
    "DomainError",
    "EMPTY",
    "InvalidPartitionError",
    "PAIR_MU_NU",
    "PAIR_SING_ADJ",
    "ParseError",
    "PhiTrace",
    "ROLE_IS",
    "ROLE_ST",
    "SeparationRecord",
    "SetPartition",
    "VerifyReport",
    "adjacency_profile",
    "bell_number",
    "canonicalize",
    "catalan_number",
    "combine_domain_ok",
    "combine_is",
    "combine_st",
    "complement",
    "conjugate",
    "conjugate_composition",
    "count_adjacency_free",
    "distribution",
    "find_crossing",
    "flip_path",
    "format_composition",
    "format_gaps",
    "format_partition",
    "from_subset",
    "graphical_conjugate",
    "inferred_n",
    "is_noncrossing",
    "iter_compositions",
    "iter_set_partitions",
    "iter_set_partitions_of",
    "kreweras_complement",
    "mu",
    "mu_path",
    "nu",
    "nu_path",
    "parse_composition",
    "parse_partition",
    "path_to_composition",
    "phi",
    "phi_inverse",
    "phi_trace",
    "random_partition",
    "reduce_core",
    "rotate_partition",
    "separate_is",
    "separate_st",
    "sort_rank",
    "strip_conjugate",
    "to_path",
    "to_subset",
    "verify_suite",
]

SUBMODULES = (
    "compositions",
    "enumeration",
    "errors",
    "noncrossing",
    "partition",
    "phi",
    "separate",
    "verify",
)


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), capture_output=True, text=True, check=True
    )


def loaded_after(code: str) -> set[str]:
    """The modules loaded after running code, printed with repr on stderr
    so that neither json nor the code's own output enters the list."""
    out = run_python("-c", code + "\nimport sys; print(repr(sorted(sys.modules)), file=sys.stderr)")
    return set(ast.literal_eval(out.stderr.splitlines()[-1]))


def command_modules(argv: list[str]) -> set[str]:
    """The modules loaded by one run of python -m conjlab argv."""
    return loaded_after(
        "import runpy, sys\n"
        f"sys.argv = ['conjlab', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('conjlab', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "conjlab"}


# The commands of the benchmark's cli-oneshot mix, each with the package
# modules it loads beyond the start-up.  Every command but the three maps
# also loads _commands, which holds its handler.
ONESHOT = [
    (["phi", "1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"], set()),
    (["trace", "1 - 2 - 3 11 12 - 4 7 10 - 5 9 - 6 8"], {"_commands", "separate", "render"}),
    (["conjugate", "1 5 8 - 2 - 3 - 4 - 6 7"], set()),
    (["kreweras", "1 5 8 - 2 - 3 - 4 - 6 7"], {"_commands", "noncrossing"}),
    (["comp", "conjugate", "2,1,2,3"], {"_commands", "compositions"}),
    (["render", "path", "2,1,2,3"], {"_commands", "render", "compositions"}),
    (["enumerate", "--n", "6", "--table", "sing-adj"], {"_commands", "enumeration"}),
]


def command_id(argv: list[str]) -> str:
    return "-".join(argv[:2])


# cli-oneshot times this start-up, and without cached bytecode every module
# on it is compiled on each call: adding one shows there.
START_UP = {
    "conjlab",
    "conjlab.cli",
    "conjlab.errors",
    "conjlab.partition",
    "conjlab.phi",
}


class TestDeferredImports:
    def test_import_cli_loads_no_deferred_module(self):
        assert loaded_after("import conjlab.cli").isdisjoint(DEFERRED)

    def test_phi_command_loads_no_deferred_module(self):
        modules = command_modules(["phi", "1 3 - 2 4"])
        assert "conjlab.phi" in modules
        assert modules.isdisjoint(DEFERRED)

    def test_cli_start_up_loads_these_package_modules(self):
        # The three maps run nothing beyond the start-up, not even _commands.
        maps = [command_modules([name, "1 3 - 2 4"]) for name in ("phi", "conjugate", "complement")]
        for modules in (loaded_after("import conjlab.cli"), *maps):
            assert package_modules(modules) == START_UP

    # A command compiles only what it runs: the cli-oneshot mix, and two
    # commands that build no composition.
    COMMANDS = ONESHOT + [
        (["enumerate", "--noncrossing", "--n", "4"], {"_commands", "enumeration", "noncrossing"}),
        (["render", "partition", "1 3 - 2 4"], {"_commands", "render"}),
    ]

    @pytest.mark.parametrize("argv, extra", COMMANDS, ids=[command_id(a) for a, _ in COMMANDS])
    def test_command_loads_only_what_it_runs(self, argv, extra):
        want = START_UP | {f"conjlab.{name}" for name in extra}
        assert package_modules(command_modules(argv)) == want

    def test_table_choices_match_enumeration(self):
        from conjlab.cli import TABLE_PAIRS
        from conjlab.enumeration import PAIR_MU_NU, PAIR_SING_ADJ

        assert TABLE_PAIRS == (PAIR_SING_ADJ, PAIR_MU_NU)

    def test_verify_bound_help_matches_enumeration(self):
        from conjlab.cli import build_parser
        from conjlab.enumeration import COMP_N_MAX_HARD, N_MAX_HARD

        commands = next(a for a in build_parser()._actions if a.dest == "command")
        helps = {a.dest: a.help for a in commands.choices["verify"]._actions}
        assert helps["n_max"] == f"partition bound (<= {N_MAX_HARD})"
        assert helps["comp_n_max"] == f"composition bound (<= {COMP_N_MAX_HARD})"

    def test_serial_verify_starts_no_pool(self):
        modules = loaded_after(
            "from conjlab.cli import main\n"
            "assert main(['verify', '--n-max', '2', '--comp-n-max', '2']) == 0"
        )
        assert "conjlab.verify" in modules
        assert "concurrent.futures.process" not in modules
        assert "multiprocessing" not in modules


class TestHeavyStdlibModules:
    """No command loads dataclasses (which brings inspect, ast, dis and
    tokenize), and only --json loads json."""

    HEAVY = ("dataclasses", "inspect", "json")

    @pytest.mark.parametrize("argv", [argv for argv, _ in ONESHOT], ids=command_id)
    def test_command_loads_none(self, argv):
        assert command_modules(argv).isdisjoint(self.HEAVY)

    def test_json_flag_loads_json(self):
        modules = command_modules(["--json", "phi", "1 3 - 2 4"])
        assert "json" in modules
        assert "dataclasses" not in modules

    def test_verify_module_loads_no_dataclasses(self):
        modules = loaded_after("import conjlab.verify")
        assert "conjlab.verify" in modules
        assert modules.isdisjoint(("dataclasses", "inspect"))


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert sorted(conjlab.__all__) == PUBLIC

    def test_star_import_binds_each_name_to_its_source(self):
        # Every submodule that has a public name must hold the same object
        # as the star import, and each name must come from some submodule.
        code = (
            "import importlib, json\n"
            "from conjlab import *\n"
            "found, bad = set(), []\n"
            f"for sub in {SUBMODULES!r}:\n"
            "    module = importlib.import_module('conjlab.' + sub)\n"
            f"    for name in {PUBLIC!r}:\n"
            "        if hasattr(module, name):\n"
            "            found.add(name)\n"
            "            if getattr(module, name) is not globals()[name]:\n"
            "                bad.append(sub + '.' + name)\n"
            "print(json.dumps([bad, sorted(found)]))"
        )
        bad, found = json.loads(run_python("-c", code).stdout)
        assert bad == []
        assert found == PUBLIC

    def test_star_import_binds_every_public_name(self):
        code = "from conjlab import *\nprint(sorted(n for n in dir() if not n.startswith('__')))"
        out = run_python("-c", code)
        assert out.stdout.strip() == repr(PUBLIC)

    def test_phi_stays_the_function_after_importing_its_module(self):
        code = "import conjlab.phi\nimport conjlab\nprint(type(conjlab.phi).__name__)"
        assert run_python("-c", code).stdout.split() == ["function"]

    def test_lazy_name_and_submodule_resolve(self):
        code = "import conjlab as c\nprint(c.bell_number(5), c.mu.__module__, c.verify.__name__)"
        out = run_python("-c", code)
        assert out.stdout.split() == ["52", "conjlab.compositions", "conjlab.verify"]

    def test_submodule_from_import(self):
        code = "from conjlab import noncrossing, partition\nprint(noncrossing, partition)"
        out = run_python("-c", code).stdout
        assert "'conjlab.noncrossing'" in out and "'conjlab.partition'" in out

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            conjlab.no_such_name  # noqa: B018
        assert not hasattr(conjlab, "no_such_name")
