"""Smoke tests for the example scripts in `scripts/`: each runs to the end
and prints the expected number of lines."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_random_layer_sweep_one_seed():
    lines = run_script("random_layer_sweep.py", "1")
    assert lines[0] == "n,p,tau,seed,delta,gamma_greedy,bound,mec_lb"
    # 3 sizes x 2 densities x 3 layer counts x 1 seed
    assert len(lines) == 1 + 18
    assert all(len(row.split(",")) == 8 for row in lines[1:])


def test_watch_match_grid():
    lines = run_script("watch_match.py")
    assert lines[0].startswith("MR1 graph=grid:5 alloc=0,2 cop=grid_cop_guard")
    # header, placement, 33 rounds of a cop and a robber ply, the capturing cop ply, outcome
    assert lines[-1] == "OUTCOME CAPTURE 34"
    assert len(lines) == 70


def test_watch_match_copsbane():
    lines = run_script("watch_match.py", "copsbane", "8")
    assert lines[0].startswith("MR1 graph=copsbane:8,3")


def test_statement_reach_names_the_branch_a_test_skips(tmp_path):
    import inspect
    import re

    from mlcr import treealgo

    test = tmp_path / "test_complete_robber.py"
    test.write_text(
        "from mlcr.core import MultiLayerGraph, RobberSpec\n"
        "from mlcr.treealgo import robber_tree_edges\n\n\n"
        "def test_a_complete_robber_layer_on_three_vertices_is_no_tree():\n"
        "    g = MultiLayerGraph(n=3, layers=((),), robber_spec=RobberSpec.COMPLETE)\n"
        "    assert robber_tree_edges(g) is None\n"
    )
    *missed, total = run_script("statement_reach.py", str(test))
    reached, count = map(int, re.fullmatch(r"REACHED (\d+)/(\d+)", total).groups())
    assert 0 < reached < count == reached + len(missed)
    assert all(re.fullmatch(r"src/mlcr/\w+\.py:\d+", line) for line in missed)
    source, first = inspect.getsourcelines(treealgo.robber_tree_edges)
    line_of = {text.strip(): first + i for i, text in enumerate(source)}
    assert f"src/mlcr/treealgo.py:{line_of['return None']}" not in missed
    assert f"src/mlcr/treealgo.py:{line_of['edges = g.robber_layer_edges()']}" in missed
