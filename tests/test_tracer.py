"""The benchmark's tracer (`perfbench/tracer.py`) still finds what it wraps:
a traced run prints what the untraced run prints, and its spans name the
solver, strategy and criterion calls the per-layer metrics are read from."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from mlcr.core import write_mlg_file
from mlcr.generators import gen_grid

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.mark.parametrize(
    "args, spans",
    [
        (
            ["simulate", "{grid}", "--allocation", "1,1", "--cop-strategy", "tablebase",
             "--robber-strategy", "tablebase", "--batch", "1", "--rounds", "20"],
            {"solver.build_copwin", "solver.chase_cop_move", "sim.cop_move.TablebaseCops",
             "sim.robber_move.TablebaseRobber"},
        ),
        (["verify-paper", "--only", "c06"], {"verify.c06"}),
    ],
    ids=["simulate-tablebase", "verify-c06"],
)
def test_traced_run_prints_the_untraced_output_and_names_its_spans(args, spans, tmp_path):
    grid = tmp_path / "grid4.mlg"
    write_mlg_file(gen_grid(4)[0], grid)
    args = [a.format(grid=grid) for a in args]
    out = tmp_path / "spans.json"

    def run(*prefix):
        return subprocess.run([sys.executable, *prefix, *args], capture_output=True, timeout=120)

    plain = run("-m", "mlcr.cli")
    traced = run(str(TRACER), str(out), "0", "--")
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), traced.stderr.decode()
    assert plain.returncode == 0 and plain.stdout
    assert spans <= set(json.loads(out.read_text())["names"])
