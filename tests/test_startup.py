"""Start-up cost: only the commands that build a table load the solver and
numpy, and only the commands that name a scripted strategy load
`mlcr.scripted`.  Each case runs in a fresh interpreter, since this test
process has long since imported all three."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import mlcr

SRC = Path(__file__).resolve().parent.parent / "src" / "mlcr"

GENERATE = ["generate", "grid", "-n", "4", "-o", "g.mlg"]

# the 4-vertex path, robber on the same edges: a tree robber layer
PATH4 = "MLG1 4 1 UNION\nLAYER 1 3\n0 1\n1 2\n2 3\n"
SOLVE_TREE = ["solve", "path4.mlg", "--allocation", "1"]
GENERATE_COPSBANE = ["--seed", "3", "generate", "copsbane", "-n", "8", "-o", "cb.mlg"]
GENERATE_SLICES = ["generate", "slices", "-k", "2", "-o", "s.mlg"]

# name: (CLI invocations run in order by one process, whether numpy must be loaded)
CASES = {
    "help": ([["--help"]], False),
    "generate": ([GENERATE], False),
    "bounds": ([GENERATE, ["bounds", "g.mlg"]], False),
    "experiment": ([["experiment", "-n", "16", "--seeds", "1,2"]], False),
    "verify-c07": ([["verify-paper", "--only", "c07"]], False),
    "verify-c08": ([["verify-paper", "--only", "c08"]], False),
    "simulate-greedy-random": (
        [GENERATE, ["simulate", "g.mlg", "--allocation", "1,1", "--cop-strategy", "greedy",
                    "--robber-strategy", "random", "--batch", "2"]],
        False,
    ),
    "import-only": (None, False),
    # the scripted robbers measure the cops with `bfs_dist` and build no table
    "simulate-copsbane": (
        [GENERATE_COPSBANE, ["simulate", "cb.mlg", "--allocation", "2,2", "--robber-strategy", "copsbane",
                             "--rounds", "10"]],
        False,
    ),
    "simulate-slices": (
        [GENERATE_SLICES, ["simulate", "s.mlg", "--allocation", "1,1", "--robber-strategy", "slices",
                           "--rounds", "10"]],
        False,
    ),
    "solve-tree": ([SOLVE_TREE], False),
    # the search driver lives in `core`: the tree path asks through it without numpy
    "solve-tree-cops": ([["solve", "path4.mlg", "--cops", "1"]], False),
    # positive controls: a state-graph solve and a table dump build a table
    "solve-state-graph": ([GENERATE, ["solve", "g.mlg", "--allocation", "2,0"]], True),
    "solve-tree-dump-table": ([SOLVE_TREE + ["--dump-table", "t.cwt"]], True),
}

# name: CLI invocations run in order by one process, the last a zero-cop solve.
# Its verdict (a robber win, exit 1) is settled before any table, so numpy stays unloaded.
ZERO_COP_CASES = {
    "solve-cops-zero": [GENERATE, ["solve", "g.mlg", "--cops", "0"]],
    "solve-allocation-zero": [GENERATE, ["solve", "g.mlg", "--allocation", "0,0"]],
    "solve-free-choice-zero": [GENERATE, ["solve", "g.mlg", "--free-choice", "0"]],
    "solve-tree-allocation-zero": [["solve", "path4.mlg", "--allocation", "0"]],
}

SIMULATE_GRID = ["simulate", "g.mlg", "--batch", "2", "--allocation"]

# name: (CLI invocations run in order by one process, whether mlcr.scripted must be loaded)
SCRIPTED_CASES = {
    "simulate-greedy-random": ([GENERATE, SIMULATE_GRID + ["1,1"]], False),
    "simulate-random-random": ([GENERATE, SIMULATE_GRID + ["1,1", "--cop-strategy", "random"]], False),
    "simulate-tablebase": (
        [GENERATE, SIMULATE_GRID + ["1,1", "--cop-strategy", "tablebase", "--robber-strategy", "tablebase"]],
        False,
    ),
    # positive controls: a construction strategy is named
    "simulate-grid-guard": (
        [GENERATE, SIMULATE_GRID + ["2,0", "--cop-strategy", "grid_guard", "--robber-strategy", "random"]],
        True,
    ),
    "simulate-copsbane": (
        [GENERATE_COPSBANE, ["simulate", "cb.mlg", "--allocation", "2,2", "--robber-strategy", "copsbane",
                             "--rounds", "10"]],
        True,
    ),
}

_CHILD = """
import contextlib, io, json, sys
runs = json.loads(sys.argv[1])
codes = []
if runs is None:
    import mlcr
else:
    from mlcr.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(args) for args in runs]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules, "scripted": "mlcr.scripted" in sys.modules}))
"""


def _fresh_run(runs, tmp_path, codes=None):
    """Run `runs` through `main` in a new interpreter, each exiting with its
    code in `codes` (by default 0); the modules it loaded."""

    (tmp_path / "path4.mlg").write_text(PATH4)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(runs)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == (codes or [0] * len(runs or [])), proc.stderr
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_numpy_loads_only_for_table_builds(name, tmp_path):
    runs, wants_numpy = CASES[name]
    assert _fresh_run(runs, tmp_path)["numpy"] is wants_numpy


@pytest.mark.parametrize("name", sorted(ZERO_COP_CASES))
def test_zero_cop_solves_load_no_numpy(name, tmp_path):
    runs = ZERO_COP_CASES[name]
    assert _fresh_run(runs, tmp_path, codes=[0] * (len(runs) - 1) + [1])["numpy"] is False


@pytest.mark.parametrize("name", sorted(SCRIPTED_CASES))
def test_scripted_strategies_load_only_when_named(name, tmp_path):
    runs, wants_scripted = SCRIPTED_CASES[name]
    assert _fresh_run(runs, tmp_path)["scripted"] is wants_scripted


def test_package_names_resolve_lazily():
    import mlcr.solver

    assert mlcr.build_copwin is mlcr.solver.build_copwin
    assert all(getattr(mlcr, name) is not None for name in mlcr.__all__)
    with pytest.raises(AttributeError):
        mlcr.no_such_name


def test_only_the_solver_imports_numpy_and_nothing_imports_the_solver_at_top():
    """`scripted` is loaded where it is first needed as well: the strategy
    factories and `cmd_play` import it in the branch that names its players.
    The solver's state layouts (`layouts`) import numpy too, and only the
    solver imports them."""

    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [("." * node.level) + (node.module or "")]
            else:
                continue
            for module in modules:
                if path.name not in ("solver.py", "layouts.py"):
                    assert module.split(".")[0] != "numpy", path.name
                if path.name != "solver.py":
                    assert module not in (".layouts", "mlcr.layouts"), path.name
                assert module not in (".solver", "mlcr.solver", ".scripted", "mlcr.scripted"), path.name
