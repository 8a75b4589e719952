import argparse
import subprocess
import sys

import pytest

from mlcr.cli import main
from mlcr.core import MlgError, parse_mlg_file, write_mlg_file
from mlcr.generators import gen_grid


@pytest.fixture()
def grid4_file(tmp_path):
    g, _ = gen_grid(4)
    path = tmp_path / "grid4.mlg"
    write_mlg_file(g, path)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- solve exit codes ------------------------------------------------------------------


def test_solve_cop_win_exit_zero(grid4_file, capsys):
    code, out, _ = run_cli(["solve", grid4_file, "--allocation", "2,0"], capsys)
    assert code == 0
    assert "VERDICT=COP" in out
    assert "PLACEMENT=" in out


def test_solve_robber_win_exit_one(grid4_file, capsys):
    code, out, _ = run_cli(["solve", grid4_file, "--allocation", "1,1"], capsys)
    assert code == 1
    assert "VERDICT=ROBBER" in out
    assert "SAFE_VERTEX=" in out


def test_solve_missing_file_exit_two(capsys):
    code, _, err = run_cli(["solve", "/nonexistent/graph.mlg", "--allocation", "1"], capsys)
    assert code == 2
    assert "error" in err


def test_solve_budget_exceeded_exit_three(grid4_file, capsys):
    code, _, err = run_cli(
        ["--state-budget", "100", "solve", grid4_file, "--allocation", "2,0"], capsys
    )
    assert code == 3
    assert "budget" in err


def test_solve_requires_exactly_one_mode(grid4_file, capsys):
    code, _, err = run_cli(["solve", grid4_file], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["solve", grid4_file, "--allocation", "2,0", "--cops", "2"], capsys
    )
    assert code == 2


def test_solve_choose_allocation(grid4_file, capsys):
    code, out, _ = run_cli(["solve", grid4_file, "--cops", "2"], capsys)
    assert code == 0
    assert "WINNING_ALLOCATION=2,0" in out


def test_solve_tree_fast_path(tmp_path, capsys):
    from mlcr.core import MultiLayerGraph, RobberSpec

    g = MultiLayerGraph(
        n=4,
        layers=(((0, 1), (1, 2), (2, 3)),),
        robber_spec=RobberSpec.EXPLICIT,
        robber_edges=((0, 3), (0, 1), (1, 2)),
    )
    path = tmp_path / "tree.mlg"
    write_mlg_file(g, path)
    code, out, _ = run_cli(["solve", str(path), "--allocation", "1"], capsys)
    assert code == 1
    assert "METHOD=tree" in out
    assert "ROBBERS_EDGE 0 3 ncops=1 dist=3" in out
    code, out, _ = run_cli(["solve", str(path), "--cops", "2"], capsys)
    assert code == 0 and "METHOD=tree" in out


@pytest.mark.parametrize("mode", [["--allocation", "1"], ["--cops", "1"], ["--free-choice", "1"]])
def test_solve_never_lists_a_complete_robber_layer(mode, tmp_path, capsys, monkeypatch):
    import mlcr.core
    from mlcr.core import MultiLayerGraph, RobberSpec

    # below the graph's size, listing the robber layer's edges raises MlgError (exit 2)
    monkeypatch.setattr(mlcr.core, "COMPLETE_MATERIALISE_LIMIT", 3)
    g = MultiLayerGraph(n=5, layers=(((0, 1), (1, 2), (2, 3), (3, 4)),), robber_spec=RobberSpec.COMPLETE)
    path = tmp_path / "k5.mlg"
    write_mlg_file(g, path)
    code, out, err = run_cli(["solve", str(path), *mode], capsys)
    assert code in (0, 1), err
    assert "VERDICT=" in out


@pytest.mark.parametrize("mode", [["--cops", "2"], ["--allocation", "1"]])
def test_solve_checks_a_tree_robber_layer_once(mode, tmp_path, capsys, monkeypatch):
    """`cmd_solve` and the tree path ask the graph, which builds its robber
    components once and answers every later tree check from them."""

    from mlcr.core import MultiLayerGraph, RobberSpec

    builds = []
    real = MultiLayerGraph.components

    def counted(self, layer):
        if layer is None and ("components", None) not in self._cache:
            builds.append(self.n)
        return real(self, layer)

    monkeypatch.setattr(MultiLayerGraph, "components", counted)
    path = tmp_path / "path4.mlg"
    write_mlg_file(MultiLayerGraph(n=4, layers=(((0, 1), (1, 2), (2, 3)),), robber_spec=RobberSpec.UNION), path)
    code, out, _ = run_cli(["solve", str(path), *mode], capsys)
    assert code in (0, 1) and "METHOD=tree" in out
    assert builds == [4]


# -- generate ---------------------------------------------------------------------------


def test_generate_round_trips(tmp_path, capsys):
    out_path = tmp_path / "g.mlg"
    rep_path = tmp_path / "g.report"
    code, out, _ = run_cli(
        ["generate", "grid", "-n", "5", "-o", str(out_path), "--report", str(rep_path)], capsys
    )
    assert code == 0
    g = parse_mlg_file(out_path)
    expected, _ = gen_grid(5)
    assert g.layers == expected.layers
    report = rep_path.read_text()
    assert "FAMILY grid" in report and "CHECK" in report


def test_generate_soifer_and_solve(tmp_path, capsys):
    out_path = tmp_path / "s.mlg"
    code, _, _ = run_cli(["generate", "soifer", "-n", "8", "--tau", "3", "-o", str(out_path)], capsys)
    assert code == 0
    g = parse_mlg_file(out_path)
    assert g.tau == 3


# -- bounds -----------------------------------------------------------------------------


def test_bounds_output_lines(tmp_path, capsys):
    from mlcr.core import MultiLayerGraph

    g = MultiLayerGraph(n=5, layers=(((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),))
    path = tmp_path / "c5.mlg"
    write_mlg_file(g, path)
    code, out, _ = run_cli(["bounds", str(path)], capsys)
    assert code == 0
    assert "LB_mec=1" in out
    assert "UB_domset=" in out
    assert "UB_treewidth=3" in out


# -- simulate ----------------------------------------------------------------------------


def test_simulate_batch_and_records(grid4_file, tmp_path, capsys):
    rec_path = tmp_path / "matches.mr1"
    code, out, _ = run_cli(
        [
            "simulate", grid4_file,
            "--allocation", "2,0",
            "--cop-strategy", "tablebase",
            "--robber-strategy", "tablebase",
            "--rounds", "100",
            "--batch", "3",
            "--record", str(rec_path),
        ],
        capsys,
    )
    assert code == 0
    assert out.count("MATCH") == 3
    assert "SUMMARY matches=3 captures=3" in out
    assert "MR1" in rec_path.read_text()


def test_simulate_stdout_deterministic(grid4_file, capsys):
    args = [
        "simulate", grid4_file, "--allocation", "1,1",
        "--cop-strategy", "greedy", "--robber-strategy", "random",
        "--rounds", "30", "--batch", "4",
    ]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


# -- experiment -------------------------------------------------------------------------


def test_experiment_csv_shape_and_determinism(capsys):
    args = ["experiment", "-n", "24", "--p", "0.4", "--tau", "2", "--seeds", "1,2,3"]
    code, out1, err = run_cli(args, capsys)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0].startswith("format,n,p,tau,seed,delta_mlg,gamma_greedy")
    assert len([l for l in lines if l.startswith("mlcr-experiment-v1")]) == 3
    assert lines[-1].startswith("summary,")
    assert "wall=" in err  # timings on stderr only
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


# -- play -------------------------------------------------------------------------------


def test_play_subprocess_quit(grid4_file):
    proc = subprocess.run(
        [sys.executable, "-m", "mlcr.cli", "play", grid4_file, "--allocation", "2,0", "--role", "robber"],
        input=b"quit\n",
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert b"OUTCOME=ABANDONED" in proc.stdout


# -- verify-paper -----------------------------------------------------------------------


def test_verify_paper_subset(capsys):
    code, out, err = run_cli(["verify-paper", "--only", "c01"], capsys)
    assert code == 0
    assert out.startswith("PASS c01-grid")
    assert "TOTAL 1/1 PASS" in out


def test_experiment_rows_respect_domination_bound(capsys):
    import math as _math

    code, out, _ = run_cli(
        ["experiment", "-n", "48", "--p", "0.5", "--tau", "2", "--seeds", "1,2,3,4"], capsys
    )
    assert code == 0
    for line in out.splitlines():
        if not line.startswith("mlcr-experiment-v1"):
            continue
        _, n, p, tau, seed, delta, gamma, bound, mec_k = line.split(",")
        if int(delta) >= int(tau) * (_math.e - 1):
            assert float(gamma) <= float(bound) + 1e-9


def test_verify_paper_reports_failures(capsys, monkeypatch):
    import mlcr.verify as verify

    def doomed(budget):
        return False, ["injected failure"]

    monkeypatch.setattr(verify, "_REGISTRY", [("c99-doomed", "always fails", doomed)])
    code, out, _ = run_cli(["verify-paper"], capsys)
    assert code == 1
    assert "FAIL c99-doomed" in out
    assert "injected failure" in out
    assert "TOTAL 0/1 PASS" in out


def test_verify_paper_prints_each_criterion_as_it_finishes(capsys, monkeypatch):
    """A criterion over its state budget after one that passed: the first
    one's lines are already out, and the run ends in exit 3 with one
    `error:` line."""

    import mlcr.verify as verify
    from mlcr.core import StateBudgetExceeded

    def broken(budget):
        raise StateBudgetExceeded(10, 5)

    monkeypatch.setattr(verify, "_REGISTRY", [
        ("c98-fine", "passes", lambda budget: (True, ["detail"])),
        ("c99-broken", "raises", broken),
    ])
    code, out, err = run_cli(["verify-paper"], capsys)
    assert code == 3
    assert out == "PASS c98-fine passes\n  detail\n"
    assert [line for line in err.splitlines() if not line.startswith("# c98-fine: ")] == [
        "error: state space needs 10 states, budget is 5"
    ]
    assert err.startswith("# c98-fine: ")


def test_verify_paper_fails_a_criterion_that_raises_and_runs_the_next(capsys, monkeypatch):
    import mlcr.verify as verify

    def broken(budget):
        raise MlgError("planted fault")

    monkeypatch.setattr(verify, "_REGISTRY", [
        ("c98-broken", "raises", broken),
        ("c99-fine", "passes", lambda budget: (True, ["detail"])),
    ])
    code, out, _ = run_cli(["verify-paper"], capsys)
    assert code == 1
    assert out == (
        "FAIL c98-broken raises\n  raised MlgError: planted fault\n"
        "PASS c99-fine passes\n  detail\nTOTAL 1/2 PASS\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "grid", "-n", "5"],
        ["generate", "mirror"],
        ["generate", "slices", "-k", "1"],
        ["generate", "cycle-matchings", "-n", "4"],
        ["generate", "soifer", "-n", "9", "--tau", "3"],
        ["generate", "domset-reduction", "-n", "6", "--p", "0.5"],
    ],
)
def test_generate_families_round_trip(args, tmp_path, capsys):
    out = tmp_path / "g.mlg"
    code, _, _ = run_cli(args + ["-o", str(out)], capsys)
    assert code == 0
    g = parse_mlg_file(out)
    assert g.n >= 2


def test_generate_seeded_families_cross_process_deterministic(tmp_path):
    for family, extra in (
        ("copsbane", ["-n", "8"]),
        ("random-layers", ["-n", "16", "--p", "0.4", "--tau", "2"]),
    ):
        blobs = []
        for run in range(2):
            out = tmp_path / f"{family}-{run}.mlg"
            proc = subprocess.run(
                [sys.executable, "-m", "mlcr.cli", "--seed", "9", "generate", family, *extra, "-o", str(out)],
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], family


def test_experiment_output_file_matches_stdout(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    args = ["experiment", "-n", "20", "--p", "0.3", "--tau", "2", "--seeds", "1,2", "-o", str(out_file)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out_file.read_text() == out


def test_experiment_complete_graph_edge_case(capsys):
    code, out, _ = run_cli(["experiment", "-n", "12", "--p", "1.0", "--tau", "1", "--seeds", "7"], capsys)
    assert code == 0
    row = [l for l in out.splitlines() if l.startswith("mlcr-experiment-v1")][0]
    _, n, p, tau, seed, delta, gamma, bound, mec_k = row.split(",")
    assert gamma == "1"  # one pair dominates a complete graph
    assert delta == "11"  # n-1, consistent with the summed-degree minimum


def _write(tmp_path, name, g):
    path = tmp_path / name
    write_mlg_file(g, path)
    return str(path)


def _reuse_cases(tmp_path):
    """(graph file, allocation, cop, robber, rounds, tag): every strategy the
    CLI accepts, each on a graph of its family."""

    from mlcr.bounds import treewidth_exact_small
    from mlcr.core import MultiLayerGraph, RobberSpec, flatten
    from mlcr.generators import gen_copsbane, gen_random_layers, gen_slices

    grid4 = _write(tmp_path, "grid4.mlg", gen_grid(4)[0])
    tree = _write(tmp_path, "tree.mlg", MultiLayerGraph(
        n=7,
        layers=(((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)), ((0, 3), (3, 6), (1, 4), (2, 5))),
        robber_spec=RobberSpec.EXPLICIT,
        robber_edges=((0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)),
    ))
    layered, _ = gen_random_layers(9, 0.5, 2, 1)  # both layers connected
    bags = treewidth_exact_small(flatten(layered), layered.n)[1].max_bag
    layered_file = _write(tmp_path, "layers.mlg", layered)
    slices = _write(tmp_path, "slices1.mlg", gen_slices(1)[0])
    copsbane = _write(tmp_path, "cb8.mlg", gen_copsbane(8, seed=3)[0])
    return [
        (grid4, "1,1", "greedy", "random", 30, None),
        (grid4, "1,1", "random", "tablebase", 30, None),
        (grid4, "2,0", "tablebase", "tablebase", 100, None),
        (grid4, "0,2", "grid_guard", "random", 100, None),
        (grid4, "1,1", "tablebase", "grid_corner", 30, None),
        (tree, "2,0", "tree_squeeze", "random", 100, None),
        (layered_file, f"{bags},0", "bagsweep", "random", 60, None),
        (slices, "1,0", "greedy", "slices", 50, "slices:1"),
        (copsbane, "1,1", "greedy", "copsbane", 100, "copsbane:8,3"),
    ]


def test_simulate_reuses_strategies_without_changing_matches(tmp_path, capsys, monkeypatch):
    """One strategy object per side for the whole batch gives the same stdout
    and records as fresh objects per seed, with one table build for any
    tablebase side and no cops-bane layout build (the robber reads the graph)."""

    import mlcr.generators
    import mlcr.solver
    from mlcr.core import AllocationPlan
    from mlcr.sim import cop_strategy_from_name, robber_strategy_from_name, run_match, table_source

    builds = {"table": 0, "layout": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            builds[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mlcr.solver, "build_copwin", counted("table", mlcr.solver.build_copwin))
    monkeypatch.setattr(
        mlcr.generators, "copsbane_layout", counted("layout", mlcr.generators.copsbane_layout)
    )
    for path, alloc, cop, robber, rounds, tag in _reuse_cases(tmp_path):
        g = parse_mlg_file(path)
        if tag:
            g.tag = tag
        plan = AllocationPlan(tuple(int(x) for x in alloc.split(",")))
        fresh = []
        for seed in range(3, 8):
            table = table_source(g, plan)
            fresh.append(run_match(
                g, plan, cop_strategy_from_name(cop, g, table), robber_strategy_from_name(robber, g, table),
                T=rounds, seed=seed,
            ))
        expected = ""
        for rec in fresh:
            expected += f"MATCH seed={rec.seed} outcome={rec.outcome}"
            expected += f" round={rec.capture_round}" if rec.capture_round is not None else ""
            expected += " tags=" + ",".join(rec.tags) if rec.tags else ""
            expected += "\n"
        captures = sum(rec.outcome == "CAPTURE" for rec in fresh)
        expected += f"SUMMARY matches=5 captures={captures}\n"

        builds.update(table=0, layout=0)
        record_path = tmp_path / "batch.mr1"
        args = [
            "--seed", "3", "simulate", path, "--allocation", alloc, "--cop-strategy", cop,
            "--robber-strategy", robber, "--rounds", str(rounds), "--batch", "5",
            "--record", str(record_path),
        ] + (["--tag", tag] if tag else [])
        code, out, _ = run_cli(args, capsys)
        case = (cop, robber)
        assert code == 0, case
        assert out == expected, case
        assert record_path.read_text() == "".join(rec.render() for rec in fresh), case
        assert builds == {"table": int("tablebase" in case), "layout": 0}, case


# -- scripted robbers take their construction from the graph ------------------------------


@pytest.fixture(scope="module")
def copsbane8_file(tmp_path_factory):
    from mlcr.generators import gen_copsbane

    path = tmp_path_factory.mktemp("copsbane") / "cb8.mlg"
    write_mlg_file(gen_copsbane(8, seed=3)[0], path)
    return str(path)


def _scripted_robber(capsys, graph, alloc, robber, tag):
    return run_cli(
        ["simulate", graph, "--allocation", alloc, "--cop-strategy", "greedy", "--robber-strategy", robber,
         "--batch", "2", "--rounds", "1000"] + (["--tag", tag] if tag else []),
        capsys,
    )


@pytest.mark.parametrize("tag", [None, "copsbane:8,4", "copsbane:12,3"])
def test_copsbane_robber_plays_the_same_whatever_the_tag(tag, copsbane8_file, capsys):
    code, expected, _ = _scripted_robber(capsys, copsbane8_file, "1,1", "copsbane", "copsbane:8,3")
    assert (code, expected.count("outcome=SURVIVED")) == (0, 2)
    code, out, err = _scripted_robber(capsys, copsbane8_file, "1,1", "copsbane", tag)
    assert code == 0, err
    assert out == expected


@pytest.mark.parametrize("tag", [None, "slices:2"])
def test_slices_robber_reads_k_from_the_vertex_count(tag, tmp_path, capsys):
    from mlcr.generators import gen_slices

    slices = _write(tmp_path, "slices1.mlg", gen_slices(1)[0])
    code, expected, _ = _scripted_robber(capsys, slices, "1,0", "slices", "slices:1")
    assert (code, expected.count("outcome=SURVIVED")) == (0, 2)
    code, out, err = _scripted_robber(capsys, slices, "1,0", "slices", tag)
    assert code == 0, err
    assert out == expected


def test_solve_dump_table_builds_once(grid4_file, tmp_path, capsys, monkeypatch):
    import mlcr.solver

    calls = []
    real = mlcr.solver.build_copwin

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mlcr.solver, "build_copwin", counted)
    table_path = tmp_path / "grid4.cwt"
    code, out, _ = run_cli(
        ["solve", grid4_file, "--allocation", "2,0", "--dump-table", str(table_path)], capsys
    )
    assert code == 0
    assert len(calls) == 1
    lines = out.splitlines()
    assert lines[:2] == [f"TABLE={table_path}", "METHOD=state-graph"]
    assert table_path.read_text() == mlcr.solver.dump_cwt(real(parse_mlg_file(grid4_file), (0, 0)))


# solve options on grid4 ("T" stands for a table file), the exit code and the
# retrograde BFS runs they need: one per table; the free choice's (2,0) wins
# on both robber layers
@pytest.mark.parametrize("options, exit_code, runs", [
    (["--allocation", "2,0"], 0, 1),
    (["--allocation", "2,0", "--dump-table", "T"], 0, 1),
    (["--allocation", "1,1", "--dump-table", "T"], 1, 1),
    (["--cops", "2"], 0, 1),
    (["--free-choice", "2"], 0, 2),
])
def test_solve_runs_one_retrograde_bfs_per_table(options, exit_code, runs, grid4_file, tmp_path, capsys,
                                                 monkeypatch):
    """Counted at `_retrograde`, which every table build (`build_copwin`,
    `build_copwin_batch`, `copwin_winners`) runs."""

    import mlcr.solver

    calls = []
    real = mlcr.solver._retrograde

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mlcr.solver, "_retrograde", counted)
    options = [str(tmp_path / "t.cwt") if o == "T" else o for o in options]
    code, _, _ = run_cli(["solve", grid4_file, *options], capsys)
    assert (code, len(calls)) == (exit_code, runs)


def _cap_address_space():
    """Cap the child's address space at 1.5 GB: past it, allocation fails
    with a MemoryError."""

    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1]))


# an allocation whose length is not the graph's layer count (grid: 2 layers)
WRONG_LENGTH_ALLOCATIONS = {
    "solve-allocation-too-short": ["solve", "{grid}", "--allocation", "3"],
    "simulate-tablebase-allocation-too-short": ["simulate", "{grid}", "--allocation", "3", "--cop-strategy", "tablebase"],
    "simulate-tablebase-allocation-too-short-small-budget": [
        "--state-budget", "1000", "simulate", "{grid}", "--allocation", "3", "--cop-strategy", "tablebase"
    ],
    "simulate-no-matches-allocation-too-short": ["simulate", "{grid}", "--allocation", "3", "--batch", "0"],
    "simulate-tablebase-allocation-too-long": [
        "simulate", "{grid}", "--allocation", "1,1,1", "--cop-strategy", "tablebase"
    ],
    "play-allocation-too-short": ["play", "{grid}", "--allocation", "3"],
    "play-allocation-too-short-small-budget": ["--state-budget", "1000", "play", "{grid}", "--allocation", "3"],
}


@pytest.mark.parametrize("args", WRONG_LENGTH_ALLOCATIONS.values(), ids=list(WRONG_LENGTH_ALLOCATIONS))
def test_a_wrong_length_allocation_is_refused_before_any_table_is_built(args, grid4_file, capsys, monkeypatch):
    import mlcr.solver

    calls = []
    real = mlcr.solver.build_copwin

    def counted(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(mlcr.solver, "build_copwin", counted)
    code, out, err = run_cli([a.format(grid=grid4_file) for a in args], capsys)
    entries = len(args[args.index("--allocation") + 1].split(","))
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, errors, calls, out) == (2, [f"error: allocation has {entries} entries, graph has 2 layers"], [], "")


@pytest.mark.parametrize(
    "args, code",
    [
        *((args, 2) for args in WRONG_LENGTH_ALLOCATIONS.values()),
        (["simulate", "{grid}", "--allocation", "2,0", "--cop-strategy", "bogus"], 2),
        # one cop on the path 0-1-2-3 leaves the tree edge 0-3 as a robber's edge
        (["simulate", "{tree}", "--allocation", "1", "--cop-strategy", "tree_squeeze"], 2),
        (["--state-budget", "10", "simulate", "{grid}", "--allocation", "2,0", "--cop-strategy", "tablebase"], 3),
        (["--state-budget", "10", "play", "{grid}", "--allocation", "2,0"], 3),
        (["solve", "{grid}", "--allocation", "2,x"], 2),
        (["simulate", "{grid}", "--allocation", "2,x"], 2),
        (["play", "{grid}", "--allocation", "2,x"], 2),
        (["solve", "{binary}", "--allocation", "1"], 2),
        (["experiment", "-n", "8", "--seeds", "a"], 2),
        (["experiment", "-n", "8", "--seeds", ","], 2),
        # the robber checks the graph, not the tag
        (["simulate", "{grid}", "--allocation", "1,1", "--robber-strategy", "copsbane", "--tag", "copsbane:8,3"], 2),
        # 10^11 vertices: no layer's adjacency lists fit in physical RAM
        (["bounds", "{huge}"], 3),
        (["simulate", "{huge}", "--allocation", "1"], 3),
        # the generators check the vertex count they will produce before any n-sized list
        (["generate", "grid", "-n", "1000000", "-o", "{out}"], 3),
        (["generate", "random-layers", "-n", "100000000000", "-o", "{out}"], 3),
        (["generate", "cycle-matchings", "-n", "100000000000", "-o", "{out}"], 3),
        (["experiment", "-n", "100000000000", "--seeds", "1"], 3),
        (["solve", "{tree}", "--cops", "-1"], 2),
        (["solve", "{grid}", "--cops", "-1"], 2),
        (["solve", "{tree}", "--free-choice", "-1"], 2),
        (["solve", "{grid}", "--free-choice", "-1"], 2),
        (["verify-paper", "--only", "c4"], 2),
    ],
    ids=[*WRONG_LENGTH_ALLOCATIONS, "unknown-strategy", "strategy-mismatch", "simulate-over-budget", "play-over-budget",
         "solve-bad-allocation", "simulate-bad-allocation", "play-bad-allocation",
         "solve-non-utf8-file", "experiment-bad-seeds", "experiment-empty-seeds", "copsbane-on-grid",
         "bounds-huge-graph", "simulate-huge-graph", "generate-huge-grid", "generate-huge-random-layers",
         "generate-huge-cycle-matchings", "experiment-huge-graph", "solve-tree-negative-cops",
         "solve-negative-cops", "free-choice-tree-negative-cops", "free-choice-negative-cops",
         "verify-only-matches-nothing"],
)
def test_errors_exit_with_their_code_and_one_error_line(args, code, grid4_file, tmp_path, request):
    from mlcr.core import MultiLayerGraph, RobberSpec

    tree = _write(tmp_path, "tree4.mlg", MultiLayerGraph(
        n=4,
        layers=(((0, 1), (1, 2), (2, 3)),),
        robber_spec=RobberSpec.EXPLICIT,
        robber_edges=((0, 3), (0, 1), (1, 2)),
    ))
    binary = tmp_path / "binary.mlg"
    binary.write_bytes(b"MLG1 2 1 UNION\nLAYER 1 1\n0 \xff1\n")
    huge = tmp_path / "huge.mlg"
    huge.write_text("MLG1 100000000000 1 UNION\nLAYER 1 0\n")
    out = tmp_path / "out.mlg"
    proc = subprocess.run(
        [sys.executable, "-m", "mlcr.cli",
         *(a.format(grid=grid4_file, tree=tree, binary=binary, huge=huge, out=out) for a in args)],
        input=b"",
        capture_output=True,
        timeout=120,
        # without the guard these children would allocate until the machine runs out
        preexec_fn=_cap_address_space if "-huge-" in request.node.callspec.id else None,
    )
    err = proc.stderr.decode()
    assert proc.returncode == code, err
    assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1, err
    assert "Traceback" not in err
    assert b"VERDICT=" not in proc.stdout and b"TOTAL" not in proc.stdout


# -- never a traceback: every integer option at -1 ------------------------------------

# (subcommand, option) -> (command line, exit code, text the output must contain).
# "" is the top-level parser; each option is set to -1 on the cheapest command
# that reads it.
NEGATIVE_OPTIONS = {
    ("", "--state-budget"): (["--state-budget", "-1", "solve", "{grid}", "--allocation", "1,0"], 3, "budget"),
    ("", "--seed"): (["--seed", "-1", "simulate", "{grid}", "--allocation", "1,0"], 0, "MATCH seed=-1"),
    ("solve", "--cops"): (["solve", "{grid}", "--cops", "-1"], 2, "cop count"),
    ("solve", "--free-choice"): (["solve", "{grid}", "--free-choice", "-1"], 2, "cop count"),
    ("generate", "-n"): (["generate", "grid", "-n", "-1", "-o", "{out}"], 2, "n >= 2"),
    ("generate", "-k"): (["generate", "slices", "-k", "-1", "-o", "{out}"], 2, "k >= 1"),
    ("generate", "--tau"): (["generate", "soifer", "-n", "8", "--tau", "-1", "-o", "{out}"], 2, "tau=-1"),
    ("generate", "--D"): (["generate", "copsbane", "-n", "8", "--D", "-1", "-o", "{out}"], 2, "D=-1"),
    ("bounds", "--max-k"): (["bounds", "{grid}", "--max-k", "-1"], 2, "--max-k"),
    ("simulate", "--rounds"): (["simulate", "{grid}", "--allocation", "1,0", "--rounds", "-1"], 2, "T >= 0"),
    ("simulate", "--batch"): (["simulate", "{grid}", "--allocation", "1,0", "--batch", "-1"], 2, "--batch"),
    ("experiment", "-n"): (["experiment", "-n", "-1", "--seeds", "1"], 2, "n=-1"),
    ("experiment", "--tau"): (["experiment", "-n", "8", "--tau", "-1", "--seeds", "1"], 2, "tau must be >= 1"),
}


def _integer_options():
    from mlcr.cli import build_parser

    parsers = {"": build_parser()}
    found = set()
    while parsers:
        name, parser = parsers.popitem()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.update(action.choices)
            elif action.type is int:
                found.add((name, action.option_strings[0]))
    return found


def test_every_integer_option_has_a_negative_case():
    assert _integer_options() == set(NEGATIVE_OPTIONS)


# cases that are not one integer option at -1, so the table above cannot key them
EDGE_CASES = {
    "play-empty-stdin": (["play", "{grid}", "--allocation", "1,0"], 0, "OUTCOME=ABANDONED"),
    "simulate--rounds-no-matches": (
        ["simulate", "{grid}", "--allocation", "1,0", "--batch", "0", "--rounds", "-1"], 2, "T >= 0"
    ),
    "verify-paper-zero-budget": (["--state-budget", "0", "verify-paper", "--only", "c01"], 3, "budget is 0"),
    "verify-paper-zero-budget-no-table": (["--state-budget", "0", "verify-paper", "--only", "c07"], 0, "PASS c07"),
    # only a state-graph --allocation of at least one cop has a table to dump
    "solve-dump-table-cops": (
        ["solve", "{grid}", "--cops", "2", "--dump-table", "{out}"], 2, "--dump-table needs --allocation with at least one cop"
    ),
    "solve-dump-table-free-choice": (
        ["solve", "{grid}", "--free-choice", "1", "--dump-table", "{out}"], 2, "--dump-table needs --allocation with at least one cop"
    ),
    "solve-dump-table-zero-cops": (
        ["solve", "{grid}", "--allocation", "0,0", "--dump-table", "{out}"], 2, "--dump-table needs --allocation with at least one cop"
    ),
    # a tablebase side needs a table, and a table at least one cop
    "simulate-tablebase-zero-cops": (
        ["simulate", "{grid}", "--allocation", "0,0", "--cop-strategy", "tablebase"], 2, "build_copwin needs at least one cop"
    ),
    "play-zero-cops": (["play", "{grid}", "--allocation", "0,0"], 2, "build_copwin needs at least one cop"),
    "simulate-unknown-robber-strategy": (
        ["simulate", "{grid}", "--allocation", "1,0", "--robber-strategy", "nope"], 2, "unknown robber strategy 'nope'"
    ),
    # no cop polices the path's vertices
    "solve-tree-zero-cops": (["solve", "{tree}", "--cops", "0"], 1, "VERDICT=ROBBER"),
    # the tree squeeze on the one-vertex tree, with no cop to place
    "simulate-tree-squeeze-zero-cops": (
        ["simulate", "{point}", "--allocation", "0", "--cop-strategy", "tree_squeeze"], 2,
        "find_robbers_edge needs at least one cop",
    ),
    **{
        f"generate-domset-reduction-p-{p}": (
            ["generate", "domset-reduction", "-n", "6", "--p", p, "-o", "{out}"], 2, f"p must be in [0, 1], got {p}"
        )
        for p in ("nan", "7", "-1")
    },
    **{
        f"generate-domset-reduction-p-{p}": (
            ["generate", "domset-reduction", "-n", "6", "--p", p, "-o", "{out}"], 0, "WROTE="
        )
        for p in ("0", "1")
    },
}


@pytest.mark.parametrize(
    "args, code, text",
    [*NEGATIVE_OPTIONS.values(), *EDGE_CASES.values()],
    ids=[f"{cmd or 'mlcr'}{opt}" for cmd, opt in NEGATIVE_OPTIONS] + list(EDGE_CASES),
)
def test_cli_never_ends_in_a_traceback(args, code, text, grid4_file, tmp_path):
    from mlcr.core import MultiLayerGraph, RobberSpec

    tree = _write(tmp_path, "path4.mlg", MultiLayerGraph(
        n=4, layers=(((0, 1),),), robber_spec=RobberSpec.EXPLICIT, robber_edges=((0, 1), (1, 2), (2, 3))
    ))
    point = _write(tmp_path, "point.mlg", MultiLayerGraph(n=1, layers=((),), robber_spec=RobberSpec.EXPLICIT, robber_edges=()))
    files = {"grid": grid4_file, "tree": tree, "point": point, "out": tmp_path / "o.mlg"}
    proc = subprocess.run(
        [sys.executable, "-m", "mlcr.cli", *(a.format(**files) for a in args)],
        input=b"",
        capture_output=True,
        timeout=120,
    )
    out, err = proc.stdout.decode(), proc.stderr.decode()
    assert "Traceback" not in err
    assert proc.returncode == code, err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (1 if code in (2, 3) else 0), err
    assert text in out + err


def test_verify_only_that_matches_nothing_names_the_filter(capsys):
    code, out, err = run_cli(["verify-paper", "--only", "c4"], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: no criterion id contains 'c4' (--only)"]


# -- process entry point -------------------------------------------------------------


def test_main_in_process_leaves_the_heap_unfrozen(grid4_file, capsys):
    """`main` in-process neither freezes the heap nor changes the collector's
    thresholds; only `run` does."""

    import gc

    before = gc.get_freeze_count(), gc.get_threshold()
    assert run_cli(["simulate", grid4_file, "--allocation", "2,0", "--cop-strategy", "tablebase",
                    "--robber-strategy", "tablebase"], capsys)[0] == 0
    assert run_cli(["solve", grid4_file, "--allocation", "2,x"], capsys)[0] == 2
    assert (gc.get_freeze_count(), gc.get_threshold()) == before


@pytest.mark.parametrize("code", [0, 3])
def test_run_freezes_after_main_returns_and_exits_with_its_code(code, monkeypatch):
    import gc

    import mlcr.cli

    calls = []
    monkeypatch.setattr(mlcr.cli, "main", lambda: calls.append("main") or code)
    monkeypatch.setattr(gc, "set_threshold", lambda *gens: calls.append(("threshold", gens)))
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(sys, "exit", lambda status: calls.append(("exit", status)))
    mlcr.cli.run()
    assert calls == [("threshold", (mlcr.cli.GC_GEN0_THRESHOLD,)), "main", "freeze", ("exit", code)]
    assert mlcr.cli.GC_GEN0_THRESHOLD > gc.get_threshold()[0]


def test_script_entry_point_is_run():
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["scripts"] == {"mlcr": "mlcr.cli:run"}
