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
