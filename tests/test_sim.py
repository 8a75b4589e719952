import dataclasses
import itertools
import random
import re

import pytest

from mlcr.core import (
    INF,
    AllocationPlan,
    MlgError,
    MultiLayerGraph,
    RobberSpec,
    adjacency_lists,
    bfs_dist_adj,
    component_sets,
)
from mlcr.generators import gen_copsbane, gen_grid, gen_slices
from mlcr.solver import Winner, build_copwin
from mlcr.scripted import (
    BagsweepCops,
    CopsbaneRobber,
    GridCopGuard,
    GridRobberCorner,
    SlicesRobber,
    TreeSqueezeCops,
    interactive_play,
)
from mlcr.sim import (
    CopTeamStrategy,
    GreedyCops,
    IllegalMoveError,
    MatchView,
    RandomCops,
    RandomRobber,
    RobberStrategy,
    StrategyInvariantError,
    StrategyMismatchError,
    TablebaseCops,
    TablebaseRobber,
    referee_check,
    run_match,
)


def single(edges, n, spec=RobberSpec.UNION):
    return MultiLayerGraph(n=n, layers=(tuple(edges),), robber_spec=spec)


def cycle(n):
    return tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


def random_instance(rng, n_max=5):
    n = rng.randint(2, n_max)
    tau = rng.randint(1, 2)
    layers = tuple(
        tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5)
        for _ in range(tau)
    )
    return MultiLayerGraph(n=n, layers=layers, robber_spec=RobberSpec.UNION)


# -- runner basics -------------------------------------------------------------------------


def test_zero_round_match_decided_by_placement():
    g = single([(0, 1)], 2)
    rec = run_match(g, AllocationPlan((1,)), GreedyCops(), RandomRobber(), T=0, seed=1)
    assert rec.outcome in ("SURVIVED", "CAPTURE")
    assert len(rec.rows) == 1


def test_capture_at_placement():
    g = single([], 2)

    class Camp(CopTeamStrategy):
        name = "camp"

        def place(self):
            return (0, 1)

        def moves(self, view):
            return view.cops

    rec = run_match(g, AllocationPlan((2,)), Camp(), RandomRobber(), T=5, seed=1)
    assert rec.outcome == "CAPTURE" and rec.capture_round == 0


def test_illegal_move_aborts_with_diagnostic():
    g = single([(0, 1), (1, 2)], 3)

    class Teleporter(CopTeamStrategy):
        name = "teleporter"

        def place(self):
            return (0,)

        def moves(self, view):
            return (2,)  # 0 -> 2 is not an edge

    with pytest.raises(IllegalMoveError) as exc:
        run_match(g, AllocationPlan((1,)), Teleporter(), RandomRobber(), T=5, seed=1)
    assert "cop 1" in str(exc.value)
    assert exc.value.edge == (0, 2)


def _copy(rec):
    """A record whose rows can be tampered with without touching `rec`."""

    return dataclasses.replace(rec, rows=list(rec.rows))


def test_referee_rejects_tampered_records():
    g, _ = gen_grid(4)
    table = build_copwin(g, (0, 0))
    tc, tr = TablebaseCops(table), TablebaseRobber(table)
    rec = run_match(g, AllocationPlan((2, 0)), tc, tr, T=60, seed=9)
    assert referee_check(rec, g)[0]
    # robber teleports
    bad = _copy(rec)
    rnd, mover, robber, cops = bad.rows[-1]
    bad.rows[-1] = (rnd, mover, (robber + 5) % g.n, cops)
    ok, msg = referee_check(bad, g)
    assert not ok
    # outcome forged
    bad2 = dataclasses.replace(rec, outcome="SURVIVED")
    assert not referee_check(bad2, g)[0]


@pytest.fixture(scope="module")
def real_records():
    """Two records `run_match` made on the 4-grid: a tablebase capture in
    round 17 (T=60) and a random match that survives T=5."""

    g, _ = gen_grid(4)
    table = build_copwin(g, (0, 0))
    cap = run_match(g, AllocationPlan((2, 0)), TablebaseCops(table), TablebaseRobber(table), T=60, seed=9)
    survived = run_match(g, AllocationPlan((1, 1)), RandomCops(), RandomRobber(), T=5, seed=1)
    assert (cap.outcome, cap.capture_round, len(cap.rows)) == ("CAPTURE", 17, 34)
    assert (survived.outcome, survived.capture_round, len(survived.rows)) == ("SURVIVED", None, 11)
    return g, {"cap": cap, "survived": survived}


def _rows(rec, rows):
    return dataclasses.replace(rec, rows=rows)


def _row(rec, i, row):
    return _rows(rec, rec.rows[:i] + [row] + rec.rows[i + 1:])


# (record, tamper, the referee's message); the survived record's first rows
# are (0 P 8 2 6), (1 C 8 2 10), (1 R 12 2 10), the capture's last row is
# (17 C 12 12 8), and its round-14 robber row (14 R 12 15 4) is a stay
TAMPERED = {
    "no-rows": ("survived", lambda r: _rows(r, []), "missing placement row"),
    "placement-by-a-cop": ("survived", lambda r: _row(r, 0, (0, "C", 8, (2, 6))), "missing placement row"),
    "placement-in-round-1": ("survived", lambda r: _row(r, 0, (1, "P", 8, (2, 6))), "missing placement row"),
    "placement-off-the-graph": (
        "survived", lambda r: _row(r, 0, (0, "P", 16, (2, 6))), "placement does not fit the graph and allocation"
    ),
    # forged: the horizon lowered below the rounds played, or a row after the last one
    "horizon-lowered": (
        "survived", lambda r: dataclasses.replace(r, horizon=4), "10 rows after placement for horizon T=4"
    ),
    "capture-horizon-lowered": (
        "cap", lambda r: dataclasses.replace(r, horizon=16), "33 rows after placement for horizon T=16"
    ),
    "row-after-the-last": (
        "survived", lambda r: _rows(r, r.rows + [(6, "C", 14, (7, 2))]), "11 rows after placement for horizon T=5"
    ),
    "row-after-the-capture": ("cap", lambda r: _rows(r, r.rows + [(17, "R", 12, (12, 8))]), "row 34 follows the capture"),
    "capture-at-placement-then-rows": (
        "survived", lambda r: _row(r, 0, (0, "P", 2, (2, 6))), "row 1 follows the capture"
    ),
    # forged: every row renumbered to round 9
    "renumbered-round-9": (
        "survived",
        lambda r: _rows(r, r.rows[:1] + [(9, *row[1:]) for row in r.rows[1:]]),
        "row 1 is 9 C, not round 1's cop row",
    ),
    "unknown-mover": ("survived", lambda r: _row(r, 1, (1, "X", 8, (2, 10))), "row 1 is 1 X, not round 1's cop row"),
    # forged: two cop rows in a row (a robber's stay relabelled)
    "two-cop-rows": ("cap", lambda r: _row(r, 28, (14, "C", 12, (15, 4))), "row 28 is 14 C, not round 14's robber row"),
    "robber-moves-on-a-cop-row": (
        "survived", lambda r: _row(r, 1, (1, "C", 9, (2, 10))), "round 1: robber moved on a cop row"
    ),
    "three-cops-for-two": ("survived", lambda r: _row(r, 1, (1, "C", 8, (2, 10, 0))), "round 1: 3 cops on a row for 2"),
    "cop-off-its-layer": ("survived", lambda r: _row(r, 1, (1, "C", 8, (0, 10))), "round 1: cop 1 illegal 2->0"),
    "cops-move-on-a-robber-row": (
        "survived", lambda r: _row(r, 2, (1, "R", 12, (3, 10))), "round 1: cops moved on a robber row"
    ),
    "robber-off-its-layer": ("survived", lambda r: _row(r, 2, (1, "R", 0, (2, 10))), "round 1: robber illegal 8->0"),
    # forged: a record cut short
    "cut-short": ("survived", lambda r: _rows(r, r.rows[:-1]), "record ends after 9 rows, before round 5's robber row"),
    # forged: only the placement row, flagged CAPTURE 0 with no cop on the robber
    "placement-only-flagged-capture": (
        "cap",
        lambda r: dataclasses.replace(r, rows=r.rows[:1], horizon=0, capture_round=0),
        "outcome CAPTURE 0 where the rows show SURVIVED None",
    ),
    # forged: the outcome rewritten to BOGUS, or a capture round on a survived match
    "bogus-outcome": (
        "survived", lambda r: dataclasses.replace(r, outcome="BOGUS"), "outcome BOGUS None where the rows show SURVIVED None"
    ),
    "survived-with-a-capture-round": (
        "survived", lambda r: dataclasses.replace(r, capture_round=3), "outcome SURVIVED 3 where the rows show SURVIVED None"
    ),
    "capture-flag-without-overlap": (
        "survived",
        lambda r: dataclasses.replace(r, outcome="CAPTURE", capture_round=5),
        "outcome CAPTURE 5 where the rows show SURVIVED None",
    ),
    "capture-flagged-survived": (
        "cap",
        lambda r: dataclasses.replace(r, outcome="SURVIVED", capture_round=None),
        "outcome SURVIVED None where the rows show CAPTURE 17",
    ),
    "capture-round-off-by-one": (
        "cap", lambda r: dataclasses.replace(r, capture_round=16), "outcome CAPTURE 16 where the rows show CAPTURE 17"
    ),
}


@pytest.mark.parametrize("base, tamper, message", TAMPERED.values(), ids=TAMPERED.keys())
def test_referee_names_the_one_tamper_of_a_real_record(real_records, base, tamper, message):
    g, records = real_records
    rec = records[base]
    assert referee_check(rec, g) == (True, "ok")
    assert referee_check(tamper(rec), g) == (False, message)


def test_simulate_exits_2_on_a_record_the_referee_rejects(tmp_path, monkeypatch, capsys):
    import mlcr.sim
    from mlcr.cli import main
    from mlcr.core import write_mlg_file

    path = tmp_path / "grid4.mlg"
    write_mlg_file(gen_grid(4)[0], path)

    def forged(*args, _real=run_match, **kwargs):
        return dataclasses.replace(_real(*args, **kwargs), outcome="BOGUS")

    monkeypatch.setattr(mlcr.sim, "run_match", forged)
    code = main(["simulate", str(path), "--allocation", "1,1", "--rounds", "5", "--batch", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: referee rejected record: outcome BOGUS")


def test_table_runner_referee_and_human_read_the_same_move_rows(monkeypatch):
    """One move rule: the kernel, the table's policy queries, the runner, the
    referee and the human players all take the graph's cached rows."""

    from mlcr.scripted import HumanCops, HumanRobber

    seen: dict = {}

    def spy(self, layer, _real=MultiLayerGraph.moves):
        rows = _real(self, layer)
        seen.setdefault(layer, set()).add(id(rows))
        return rows

    monkeypatch.setattr(MultiLayerGraph, "moves", spy)
    for spec in (RobberSpec.UNION, RobberSpec.COMPLETE):
        g = MultiLayerGraph(n=9, layers=gen_grid(3)[0].layers, robber_spec=spec)
        seen.clear()
        table = build_copwin(g, (0, 1))
        tc, tr = TablebaseCops(table), TablebaseRobber(table)
        rec = run_match(g, AllocationPlan((1, 1)), tc, tr, T=20, seed=3)
        assert referee_check(rec, g) == (True, "ok")
        human_cops, human_robber = HumanCops(input, print), HumanRobber(input, print)
        human_cops.begin(g, (0, 1), random.Random(0))
        human_robber.begin(g, (0, 1), random.Random(0))
        rows = [g.moves(None), g.moves(0), g.moves(1)]
        assert set(seen) == {None, 0, 1} and all(len(ids) == 1 for ids in seen.values())
        assert all(a is b for a, b in zip(table._moves, rows))
        assert human_robber.robber_rows is rows[0]
        assert all(a is b for a, b in zip(human_cops.cop_rows, rows[1:]))
        # a move off the rows is refused by the referee
        bad = _copy(rec)
        _, _, robber, cops = bad.rows[0]
        off = next(v for v in range(g.n) if v not in rows[1][cops[0]])
        bad.rows[1] = (1, "C", robber, (off,) + cops[1:])
        assert referee_check(bad, g)[1].startswith("round 1: cop 1 illegal")


def test_referee_rejects_positions_that_do_not_fit_the_graph_or_the_cop_count():
    g, _ = gen_grid(3)
    rec = run_match(g, AllocationPlan((1, 1)), GreedyCops(), RandomRobber(), T=5, seed=1)
    for robber, cops in ((-1, rec.rows[0][3]), (rec.rows[0][2], (0, 9)), (rec.rows[0][2], (0,))):
        bad = _copy(rec)
        bad.rows[0] = (0, "P", robber, cops)
        assert referee_check(bad, g) == (False, "placement does not fit the graph and allocation")
    bad = _copy(rec)
    rnd, mover, robber, cops = bad.rows[1]
    bad.rows[1] = (rnd, mover, robber, cops + (0,))
    assert referee_check(bad, g) == (False, "round 1: 3 cops on a row for 2")


def test_simulate_batch_resolves_move_sets_once_per_match(tmp_path, monkeypatch, capsys):
    """`run_match` and `referee_check` each look up every layer's adjacency
    once per match or record, not once per move."""

    import mlcr.sim
    from mlcr.cli import main
    from mlcr.core import write_mlg_file

    g = gen_grid(4)[0]
    path = tmp_path / "grid4.mlg"
    write_mlg_file(g, path)
    lookups = []
    real = MultiLayerGraph.layer_view

    def counted(self, layer):
        lookups.append(layer)
        return real(self, layer)

    monkeypatch.setattr(MultiLayerGraph, "layer_view", counted)
    per_call = {"run_match": [], "referee_check": []}
    for name, counts in per_call.items():
        def measured(*args, _real=getattr(mlcr.sim, name), _counts=counts, **kwargs):
            start = len(lookups)
            out = _real(*args, **kwargs)
            _counts.append(len(lookups) - start)
            return out

        monkeypatch.setattr(mlcr.sim, name, measured)
    code = main([
        "simulate", str(path), "--allocation", "2,0", "--cop-strategy", "tablebase",
        "--robber-strategy", "tablebase", "--batch", "3",
    ])
    assert code == 0
    rounds = [int(r) for r in re.findall(r"round=(\d+)", capsys.readouterr().out)]
    # two cop moves a round and a robber move between rounds: more moves than lookups
    assert len(rounds) == 3 and min(rounds) >= 2
    assert all(len(counts) == 3 and max(counts) <= g.tau + 1 for counts in per_call.values()), per_call


def test_simulate_batch_runs_each_layer_bfs_once_per_graph(tmp_path, monkeypatch, capsys):
    """The cops' layer distances are cached in the graph (`bfs_dist`), not
    per match, so a batch searches each (layer, source) once."""

    import mlcr.core
    from mlcr.cli import main
    from mlcr.core import write_mlg_file

    path = tmp_path / "grid6.mlg"
    write_mlg_file(gen_grid(6)[0], path)
    searches = []
    real = mlcr.core.bfs_dist_adj

    def counted(adjacency, *sources, **kwargs):
        searches.append((id(adjacency), sources))
        return real(adjacency, *sources, **kwargs)

    monkeypatch.setattr(mlcr.core, "bfs_dist_adj", counted)
    code = main([
        "simulate", str(path), "--allocation", "1,0", "--cop-strategy", "greedy",
        "--robber-strategy", "random", "--rounds", "30", "--batch", "3",
    ])
    assert code == 0
    assert "SUMMARY matches=3" in capsys.readouterr().out
    # 14 distinct (layer, robber square) pairs over the three matches, each
    # searched once; the squares repeat across matches, and a per-match
    # cache searches them again (19 searches)
    assert len(searches) == len(set(searches)) == 14


def test_legality_fuzz_hundred_thousand_matches():
    """10^5 fuzzed matches: no illegal move slips through and the referee
    confirms every capture flag."""

    rng = random.Random(2024)
    graphs = [random_instance(rng) for _ in range(60)]
    matches = 0
    captures = 0
    while matches < 100_000:
        g = graphs[matches % len(graphs)]
        k = 1 + matches % 2
        counts = [0] * g.tau
        for i in range(k):
            counts[(matches + i) % g.tau] += 1
        rec = run_match(
            g,
            AllocationPlan(tuple(counts)),
            RandomCops(),
            RandomRobber(),
            T=6,
            seed=matches,
        )
        ok, msg = referee_check(rec, g)
        assert ok, msg
        captures += rec.outcome == "CAPTURE"
        matches += 1
    assert 0 < captures < matches


# -- tablebase strategies --------------------------------------------------------------------


def test_tablebase_capture_within_rank():
    g, _ = gen_grid(4)
    table = build_copwin(g, (1, 1))
    tc, tr = TablebaseCops(table), TablebaseRobber(table)
    rec = run_match(g, AllocationPlan((0, 2)), tc, tr, T=200, seed=4)
    assert rec.outcome == "CAPTURE"
    start_rank = table.rank[table.pack(rec.rows[0][2], rec.rows[0][3], 0)]
    assert rec.capture_round <= start_rank


def test_tablebase_robber_survives_split_cops():
    g, _ = gen_grid(4)
    table = build_copwin(g, (0, 1))
    rec = run_match(g, AllocationPlan((1, 1)), TablebaseCops(table), TablebaseRobber(table), T=200, seed=4)
    assert rec.outcome == "SURVIVED"


def test_tablebase_strategy_assignment_mismatch():
    g, _ = gen_grid(4)
    table = build_copwin(g, (0, 0))
    with pytest.raises(StrategyMismatchError):
        run_match(g, AllocationPlan((1, 1)), TablebaseCops(table), RandomRobber(), T=2, seed=0)


def _uncached_cop_move(table, robber, cops):
    """The cop policy walk straight from the table: cops move one at a time,
    rank-minimising on cop-win states and chasing otherwise."""

    cops = list(cops)
    state = table.pack(robber, cops, 0)
    for c in range(table.k):
        if robber in cops:
            break
        state = table.best_cop_move(state) if table.rank[state] >= 0 else table.chase_cop_move(state)
        cops[c] = table.unpack(state)[1][c]
    return tuple(cops)


@pytest.mark.parametrize(
    "make_graph, counts",
    [
        (lambda: gen_grid(3)[0], (1, 1)),
        (lambda: gen_grid(4)[0], (2, 0)),
        (lambda: gen_grid(4)[0], (1, 1)),
        (lambda: single(cycle(6), 6), (2,)),
        (lambda: random_instance(random.Random(11), n_max=6), None),
    ],
    ids=["grid3-1,1", "grid4-2,0", "grid4-1,1", "cycle6-2", "random"],
)
def test_tablebase_move_cache_matches_the_uncached_policy(make_graph, counts):
    """Every position a seeded batch visits, against optimal and random
    opponents: the answer the strategy remembered is the table's policy."""

    g = make_graph()
    plan = AllocationPlan(counts or (1,) * g.tau)
    table = build_copwin(g, plan.assignment())
    cops, robber = TablebaseCops(table), TablebaseRobber(table)
    for seed in range(6):
        run_match(g, plan, cops, robber, T=60, seed=seed)
        run_match(g, plan, cops, RandomRobber(), T=60, seed=seed)
        run_match(g, plan, RandomCops(), robber, T=60, seed=seed)
    assert table._cop_answers and table._robber_answers
    for (r, c), answer in table._cop_answers.items():
        assert answer == _uncached_cop_move(table, r, c), (r, c)
    for (r, c), answer in table._robber_answers.items():
        assert answer == table.unpack(table.best_robber_move(table.pack(r, c, table.k)))[0], (r, c)


def _policy_table(case):
    """Grid n=4 with the cops on layers `case`, or, for an int, a seeded
    random instance with one to three cops on random layers."""

    if isinstance(case, tuple):
        return build_copwin(gen_grid(4)[0], case)
    rng = random.Random(case)
    g = random_instance(rng, n_max=6)
    return build_copwin(g, tuple(rng.randrange(g.tau) for _ in range(rng.randint(1, 3))))


@pytest.mark.parametrize("case", [(0, 0), (0, 1), (0, 1, 1), *range(20)])
def test_table_moves_equal_the_policy_at_every_position(case):
    """`cop_moves` and `robber_move` at every position `(robber, cops)` equal
    the policy walked straight from the packed states."""

    table = _policy_table(case)
    for robber, *cops in itertools.product(range(table.n), repeat=table.k + 1):
        cops = tuple(cops)
        assert table.cop_moves(robber, cops) == _uncached_cop_move(table, robber, cops), (robber, cops)
        if robber not in cops:  # the robber never moves from a capture
            want = table.unpack(table.best_robber_move(table.pack(robber, cops, table.k)))[0]
            assert table.robber_move(robber, cops) == want, (robber, cops)


def test_tablebase_batch_queries_the_table_once_per_distinct_position(tmp_path, monkeypatch, capsys):
    """Grid n=6 with cops (1,1) for 4 x 1000 rounds: 8,000 policy answers
    from a few dozen distinct positions, each walked through the table once."""

    import mlcr.solver
    from mlcr.cli import main
    from mlcr.core import write_mlg_file

    path, records = tmp_path / "grid6.mlg", tmp_path / "matches.mr1"
    write_mlg_file(gen_grid(6)[0], path)
    calls = {"best_cop_move": [], "chase_cop_move": [], "best_robber_move": []}
    for name, states in calls.items():
        def counted(self, index, _real=getattr(mlcr.solver.CopWinTable, name), _states=states):
            _states.append((self, index))
            return _real(self, index)

        monkeypatch.setattr(mlcr.solver.CopWinTable, name, counted)
    code = main([
        "--seed", "1", "simulate", str(path), "--allocation", "1,1", "--cop-strategy", "tablebase",
        "--robber-strategy", "tablebase", "--batch", "4", "--rounds", "1000", "--record", str(records),
    ])
    assert code == 0
    assert capsys.readouterr().out.endswith("SUMMARY matches=4 captures=0\n")
    # the position each C and R row answered is the row before it
    asked = {"C": [], "R": []}
    for text in records.read_text().split("MR1 ")[1:]:
        rows = [line.split() for line in text.splitlines()[1:-1]]  # between the head and OUTCOME
        for before, row in zip(rows, rows[1:]):
            asked[row[1]].append((int(before[2]), tuple(map(int, before[3:]))))
    assert len(asked["C"]) == len(asked["R"]) == 4000
    table = calls["best_robber_move"][0][0]
    cop_states = calls["best_cop_move"] + calls["chase_cop_move"]
    assert all(tb is table for tb, _ in cop_states + calls["best_robber_move"])
    walks = sorted(table.unpack(state)[:2] for _, state in cop_states if table.unpack(state)[2] == 0)
    assert walks == sorted(set(asked["C"]))
    assert len(cop_states) <= table.k * len(walks)
    robber_states = sorted(table.unpack(state)[:2] for _, state in calls["best_robber_move"])
    assert robber_states == sorted(set(asked["R"]))
    assert len(walks) + len(robber_states) < 100


# -- scripted strategies ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("alloc", [(0, 2), (2, 0)])
def test_grid_guard_beats_optimal_robber(n, alloc):
    g, _ = gen_grid(n)
    tr = TablebaseRobber(build_copwin(g, AllocationPlan(alloc).assignment()))
    rec = run_match(g, AllocationPlan(alloc), GridCopGuard(n), tr, T=30 * n * n, seed=7)
    assert rec.outcome == "CAPTURE"
    assert referee_check(rec, g)[0]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_grid_corner_survives_optimal_cops(n):
    g, _ = gen_grid(n)
    tc = TablebaseCops(build_copwin(g, (0, 1)))
    rec = run_match(g, AllocationPlan((1, 1)), tc, GridRobberCorner(n), T=500, seed=8)
    assert rec.outcome == "SURVIVED"
    assert referee_check(rec, g)[0]


def test_grid_guard_rejects_wrong_graph_or_alloc():
    g, _ = gen_grid(4)
    with pytest.raises(StrategyMismatchError):
        run_match(g, AllocationPlan((1, 1)), GridCopGuard(4), RandomRobber(), T=2, seed=0)
    other = single(cycle(16), 16)
    other2 = MultiLayerGraph(n=16, layers=(cycle(16), cycle(16)))
    with pytest.raises(StrategyMismatchError):
        run_match(other2, AllocationPlan((0, 2)), GridCopGuard(4), RandomRobber(), T=2, seed=0)


def _old_step_is_threatened(g, assignment, cops, nxt):
    """The slices robber's former step rule: a cop on `nxt`, or `nxt` next to
    a cop in that cop's layer."""

    return nxt in cops or any(nxt in g.layer_view(assignment[c])[p] for c, p in enumerate(cops))


def test_slices_robber_drops_a_step_exactly_when_the_old_rule_did():
    """The robber replans (here: a spy `_make_plan` that finds no plan) when a
    cop is within one move of its next step, and keeps the step otherwise."""

    g, _ = gen_slices(2)
    rng = random.Random(11)
    seen = set()
    for alloc in ((1, 0), (0, 1), (1, 1), (2, 1)):
        assignment = AllocationPlan(alloc).assignment()
        robber = SlicesRobber(2)
        robber.begin(g, assignment, random.Random(0))
        replans = []
        robber._make_plan = lambda cops, cur: replans.append(cur) or []
        for _ in range(5):
            cops = tuple(rng.randrange(g.n) for _ in assignment)
            cur = rng.randrange(g.n)
            for nxt in range(g.n):
                replans.clear()
                robber.plan = [nxt]
                got = robber.move(MatchView(cops, cur, 1, []))
                old = _old_step_is_threatened(g, assignment, cops, nxt)
                assert bool(replans) is old, (alloc, cops, nxt)
                if not old:
                    assert got == nxt and robber.plan == []
                seen.add(old)
    assert seen == {False, True}


def _old_slices_place(robber, cops):
    """The slices robber's former placement: the free slice farthest from the
    cops' slices, or, with no free slice, the farthest of all 3k slices."""

    k = robber.k
    free = robber._free_slices(cops)
    if free:
        xr = max(free, key=lambda x: min((abs(x - s) for s in robber._cop_slices(cops)), default=0))
        return robber.index(xr, 1, 5 * k + 1)
    bad = robber._cop_slices(cops)
    xr = max(range(1, 3 * k + 1), key=lambda x: min(abs(x - s) for s in bad))
    return robber.index(xr, 1, 5 * k + 1)


def test_slices_robber_places_by_the_old_two_branch_rule():
    g, _ = gen_slices(2)
    rng = random.Random(5)
    robber = SlicesRobber(2)
    branches = set()
    for alloc in ((0, 0), (1, 0), (1, 1), (2, 1), (3, 2)):
        assignment = AllocationPlan(alloc).assignment()
        robber.begin(g, assignment, random.Random(0))
        cases = [tuple(rng.randrange(g.n) for _ in assignment) for _ in range(40)]
        if len(assignment) == 2:
            # every pair of cop slices; with slices 2 and 5, no slice of k=2 is free
            cases += [(robber.index(x, 1, 1), robber.index(y, 2, 3)) for x in range(1, 7) for y in range(1, 7)]
        for cops in cases:
            assert robber.place(cops) == _old_slices_place(robber, cops), (alloc, cops)
            branches.add(bool(robber._free_slices(cops)))
    assert branches == {False, True}


def test_slices_robber_survives_one_cop():
    g, _ = gen_slices(2)
    for alloc in ((1, 0), (0, 1)):
        table = build_copwin(g, AllocationPlan(alloc).assignment())
        rec = run_match(g, AllocationPlan(alloc), TablebaseCops(table), SlicesRobber(2), T=1000, seed=3)
        assert rec.outcome == "SURVIVED", alloc
        rec = run_match(g, AllocationPlan(alloc), GreedyCops(), SlicesRobber(2), T=1000, seed=3)
        assert rec.outcome == "SURVIVED", alloc


def test_tree_squeeze_captures_within_bound():
    from mlcr.core import allocation_plans, first_winning_plans
    from mlcr.treealgo import tree_verdicts

    rng = random.Random(321)
    checked = 0
    while checked < 25:
        n = rng.randint(3, 9)
        tree = tuple(sorted((rng.randrange(v), v) for v in range(1, n)))
        layers = tuple(
            tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5)
            for _ in range(rng.randint(1, 2))
        )
        g = MultiLayerGraph(n=n, layers=layers, robber_spec=RobberSpec.EXPLICIT, robber_edges=tree)
        question = ([g], allocation_plans(rng.randint(1, 2), g.tau))
        ((plan, verdict),) = first_winning_plans([question], tree_verdicts)
        if verdict.winner is not Winner.COP:
            continue
        table = build_copwin(g, plan.assignment())
        rec = run_match(g, plan, TreeSqueezeCops(), TablebaseRobber(table), T=n * (3 * n + 2), seed=checked)
        assert rec.outcome == "CAPTURE"
        assert rec.capture_round <= n * (3 * n + 2)
        checked += 1


def test_tree_squeeze_reinforces_a_guard_far_from_its_next_vertex(monkeypatch):
    # both cops start on u = 0; the guard is the only cop that reaches w = 1,
    # three steps away in its layer, so the other cop is given u first
    tree = ((0, 1), (0, 3), (1, 2), (3, 4))
    layers = (((0, 4), (1, 2), (2, 4)), ((0, 2), (0, 3), (0, 4), (3, 4)))
    g = MultiLayerGraph(n=5, layers=layers, robber_spec=RobberSpec.EXPLICIT, robber_edges=tree)
    plans = []
    real = TreeSqueezeCops._replan

    def replan(self, view):
        real(self, view)
        plans.append(list(self.tasks))

    monkeypatch.setattr(TreeSqueezeCops, "_replan", replan)
    rec = run_match(g, AllocationPlan((1, 1)), TreeSqueezeCops(), RandomRobber(), T=85, seed=2030)
    assert [(1, 0), (0, 1)] in plans  # helper to u, then guard to w
    assert rec.outcome == "CAPTURE"
    assert referee_check(rec, g)[0]


def test_tree_squeeze_refuses_robber_win_instances():
    g = MultiLayerGraph(
        n=4, layers=(((0, 1), (1, 2), (2, 3)),), robber_spec=RobberSpec.EXPLICIT,
        robber_edges=((0, 3), (0, 1), (1, 2)),
    )
    with pytest.raises(StrategyMismatchError):
        run_match(g, AllocationPlan((1,)), TreeSqueezeCops(), RandomRobber(), T=2, seed=0)


def test_bagsweep_needs_enough_cops_and_connected_layers():
    from mlcr.bounds import treewidth_exact_small

    path = ((0, 1), (1, 2), (2, 3))
    g = single(path, 4)
    _, decomp = treewidth_exact_small(path, 4)
    with pytest.raises(StrategyMismatchError):
        run_match(g, AllocationPlan((1,)), BagsweepCops(decomp), RandomRobber(), T=2, seed=0)
    rec = run_match(
        g, AllocationPlan((2,)), BagsweepCops(decomp),
        TablebaseRobber(build_copwin(g, (0, 0))), T=200, seed=0,
    )
    assert rec.outcome == "CAPTURE"


def test_bagsweep_parks_the_extra_cops_on_the_smallest_vertex_of_the_bag():
    from mlcr.bounds import treewidth_exact_small

    path = ((0, 1), (1, 2), (2, 3))
    g = single(path, 4)
    _, decomp = treewidth_exact_small(path, 4)
    cops = BagsweepCops(decomp)
    cops.begin(g, (0,) * 5, random.Random(0))
    bag = sorted(decomp.bags[0])
    assert len(bag) == 2
    assert cops.place() == (bag[0], bag[1], bag[0], bag[0], bag[0])
    assert cops.posts == dict(enumerate(cops.place()))


def _plays_like_fresh_objects(g, plan, make_cops, make_robber, T):
    """`begin` resets every per-match field: one object per side plays seeds
    0-5 exactly as a fresh pair of objects plays each of them."""

    def play(cops, robber, seed):
        try:
            return run_match(g, plan, cops, robber, T=T, seed=seed).render()
        except StrategyInvariantError as ex:
            return repr(ex)

    cops, robber = make_cops(), make_robber()
    return all(play(cops, robber, seed) == play(make_cops(), make_robber(), seed) for seed in range(6))


def test_bagsweep_reused_across_seeds_matches_fresh_instances():
    from mlcr.bounds import treewidth_exact_small
    from mlcr.core import flatten
    from mlcr.generators import gen_random_layers

    compared = 0
    for s in range(40):
        g, _ = gen_random_layers(9, 0.5, 2, s)
        if any(len(g.components(i)) != 1 for i in range(g.tau)):
            continue
        _, decomp = treewidth_exact_small(flatten(g), g.n)
        plan = AllocationPlan((decomp.max_bag, 0))
        assert _plays_like_fresh_objects(g, plan, lambda: BagsweepCops(decomp), RandomRobber, 60), s
        compared += 1
    assert compared == 17


def _reuse_case(name):
    """(graph, plan, cop factory, robber factory, horizon) for one strategy
    that keeps per-match state."""

    if name.startswith("grid_guard"):
        counts = (2, 0) if name.endswith("0,0") else (0, 2)
        return gen_grid(5)[0], AllocationPlan(counts), lambda: GridCopGuard(5), RandomRobber, 100
    if name == "grid_corner":
        return gen_grid(5)[0], AllocationPlan((1, 1)), RandomCops, lambda: GridRobberCorner(5), 60
    if name == "tree_squeeze":
        # three legs of five from vertex 0, where the cop starts: a task left
        # over from the last match would send it down the wrong leg
        spider = tuple((0 if v % 5 == 1 else v - 1, v) for v in range(1, 16))
        g = MultiLayerGraph(n=16, layers=(spider,), robber_spec=RobberSpec.EXPLICIT, robber_edges=spider)
        return g, AllocationPlan((1,)), TreeSqueezeCops, RandomRobber, 100
    if name == "slices":
        # k=2: a route left over from the last match would make an illegal move
        return gen_slices(2)[0], AllocationPlan((1, 0)), RandomCops, lambda: SlicesRobber(2), 60
    if name == "copsbane":
        # some of these matches are tagged DEGRADED and some are not
        return gen_copsbane(8, seed=3)[0], AllocationPlan((1, 0)), RandomCops, CopsbaneRobber, 60
    g = gen_grid(4)[0]
    table = build_copwin(g, (0, 1))
    return g, AllocationPlan((1, 1)), lambda: TablebaseCops(table), lambda: TablebaseRobber(table), 60


@pytest.mark.parametrize(
    "name", ["grid_guard-0,0", "grid_guard-1,1", "grid_corner", "tree_squeeze", "slices", "copsbane", "tablebase"]
)
def test_one_object_per_side_plays_a_batch_as_fresh_objects(name):
    assert _plays_like_fresh_objects(*_reuse_case(name))


def _copsbane_threat_closed_form(layout, assignment, cops):
    """Per core vertex, the fewest moves some cop needs to reach it, from the
    layout alone: 2D+1 from the hub; from arm offset a of leaf x (a = 0 on
    the core), 4D+2-a through the hub, or a plus the distance inside x's
    component of the cop's colour."""

    N, D = layout.N, layout.D
    threat = [INF] * N
    for c, p in enumerate(cops):
        colour = assignment[c]
        if p == N:
            threat = [min(t, 2 * D + 1) for t in threat]
            continue
        if p < N:
            leaf, a = p, 0
        else:
            leaf, i = divmod(p - N - 1, 2 * D)
            a = 2 * D - i
        mono = adjacency_lists(N, [e for e in layout.expander_edges if layout.coloring[e] == colour])
        inside = bfs_dist_adj(mono, leaf)
        threat = [min(t, 4 * D + 2 - a, a + inside[v]) for v, t in enumerate(threat)]
    return threat


def _copsbane_old_blocked_component(layout, colour, p):
    """The cops-bane robber's former rule: the core vertex whose arm holds
    `p` (p itself inside the core), then its component in the colour class."""

    N, D = layout.N, layout.D
    leaf = p if p < N else (p - N - 1) // (2 * D)
    mono = adjacency_lists(N, [e for e in layout.expander_edges if layout.coloring[e] == colour])
    return frozenset(next(c for c in component_sets(mono) if leaf in c))


@pytest.mark.parametrize("N", [8, 12])
def test_copsbane_blocked_components_match_the_colour_class_rule(N):
    g, _, layout = gen_copsbane(N, seed=3)
    robber = CopsbaneRobber()
    robber.begin(g, (0, 1), random.Random(0))
    for layer in (0, 1):
        for p in range(g.n):
            if p != N:
                assert robber.comp[layer][p] == _copsbane_old_blocked_component(layout, layer, p), (layer, p)


@pytest.mark.parametrize("N", [8, 12])
def test_copsbane_threat_matches_the_layout_closed_form(N):
    g, _, layout = gen_copsbane(N, seed=3)
    rng = random.Random(N)
    for alloc in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 1)):
        assignment = AllocationPlan(alloc).assignment()
        robber = CopsbaneRobber()
        robber.begin(g, assignment, random.Random(0))
        for _ in range(30):
            # the hub, a core vertex or any vertex (mostly an arm vertex)
            cops = tuple(rng.choice((N, rng.randrange(N), rng.randrange(g.n))) for _ in assignment)
            assert robber._threat(cops) == _copsbane_threat_closed_form(layout, assignment, cops), (alloc, cops)


def test_copsbane_robber_survives_and_flags_degraded_mode():
    g, _, _ = gen_copsbane(20, seed=3)
    rec = run_match(g, AllocationPlan((2, 2)), GreedyCops(), CopsbaneRobber(), T=300, seed=0)
    assert rec.outcome == "SURVIVED"
    assert referee_check(rec, g)[0]


# -- interactive play --------------------------------------------------------------------------


def _scripted_io(answers):
    answers = iter(answers)

    def fake_input(prompt):
        return next(answers)

    outputs = []
    return fake_input, outputs.append, outputs


def test_interactive_play_quit():
    g, _ = gen_grid(4)
    fake_input, sink, _ = _scripted_io(["quit"])
    rec = interactive_play(g, AllocationPlan((2, 0)), "robber", fake_input, sink)
    assert rec.outcome == "ABANDONED"


def test_interactive_play_robber_gets_captured():
    g = single(((0, 1), (1, 2)), 3)
    # engine cop chases; the human robber stands still at vertex 2 then walks in
    answers = ["2", "2", "2", "2", "2"]
    fake_input, sink, out = _scripted_io(answers)
    rec = interactive_play(g, AllocationPlan((1,)), "robber", fake_input, sink, max_rounds=5)
    assert rec.outcome == "CAPTURE"


def test_interactive_play_reprompts_on_illegal():
    g = single(((0, 1), (1, 2)), 3)
    # illegal then legal placement, then quit
    answers = ["9", "banana", "2", "quit"]
    fake_input, sink, out = _scripted_io(answers)
    rec = interactive_play(g, AllocationPlan((1,)), "robber", fake_input, sink, max_rounds=1)
    assert rec.outcome in ("ABANDONED", "SURVIVED", "CAPTURE")
    assert any("vertex" in line or "illegal" in line for line in out)


def test_interactive_play_human_cops_capture():
    g = single(((0, 1), (1, 2)), 3)
    # cop placed at 1 dominates the path; any robber placement loses at once
    answers = ["1", "0", "1", "2"]
    fake_input, sink, out = _scripted_io(answers)
    rec = interactive_play(g, AllocationPlan((1,)), "cops", fake_input, sink, max_rounds=4)
    assert rec.outcome == "CAPTURE"


def test_copsbane_robber_rejects_anything_but_the_construction():
    g, _, _ = gen_copsbane(8, seed=1)
    rec = run_match(g, AllocationPlan((1, 1)), GreedyCops(), CopsbaneRobber(), T=5, seed=0)
    assert rec.outcome in ("CAPTURE", "SURVIVED")
    star_edge = max(g.layers[0])
    core_edge = next(e for e in g.robber_edges if e not in g.layers[1])
    broken = [
        MultiLayerGraph(n=g.n, layers=(g.layers[0], g.layers[1] + (core_edge,)),
                        robber_spec=RobberSpec.EXPLICIT, robber_edges=g.robber_edges),
        MultiLayerGraph(n=g.n, layers=(tuple(e for e in g.layers[0] if e != star_edge), g.layers[1]),
                        robber_spec=RobberSpec.EXPLICIT, robber_edges=g.robber_edges),
        MultiLayerGraph(n=g.n + 1, layers=g.layers, robber_spec=RobberSpec.EXPLICIT, robber_edges=g.robber_edges),
        MultiLayerGraph(n=g.n, layers=(g.layers[0], g.layers[1], g.layers[1]),
                        robber_spec=RobberSpec.EXPLICIT, robber_edges=g.robber_edges),
        MultiLayerGraph(n=g.n, layers=g.layers, robber_spec=RobberSpec.UNION),
    ]
    for other in broken:
        with pytest.raises(StrategyMismatchError):
            run_match(other, AllocationPlan((1,) * other.tau), GreedyCops(), CopsbaneRobber(), T=5, seed=0)


# -- refusals of the runner and the scripted players ------------------------------------------


class _FixedCops(CopTeamStrategy):
    name = "fixed_cop"

    def __init__(self, start, step=None):
        self.start, self.step = start, step

    def place(self):
        return self.start

    def moves(self, view):
        return view.cops if self.step is None else self.step


class _FixedRobber(RobberStrategy):
    name = "fixed_robber"

    def __init__(self, start, step):
        self.start, self.step = start, step

    def place(self, cops):
        return self.start

    def move(self, view):
        return self.step


# (cops, robber, T, message) for one cop on the column layer of the 4-grid
RUNNER_REFUSALS = {
    "negative-horizon": (_FixedCops((0,)), _FixedRobber(15, 15), -1, "the match horizon needs T >= 0 robber moves, got -1"),
    "cop-placed-off-the-graph": (_FixedCops((16,)), _FixedRobber(15, 15), 5, "cop 1 placement: illegal move -1 -> 16"),
    "robber-placed-off-the-graph": (_FixedCops((0,)), _FixedRobber(-1, 15), 5, "robber placement: illegal move -1 -> -1"),
    "two-positions-for-one-cop": (_FixedCops((0,), (0, 4)), _FixedRobber(15, 15), 5, "cop strategy returned 2 positions for 1 cops"),
    "robber-jumps": (_FixedCops((0,)), _FixedRobber(15, 0), 5, "robber: illegal move 15 -> 0"),
}


@pytest.mark.parametrize("cops, robber, T, message", RUNNER_REFUSALS.values(), ids=RUNNER_REFUSALS.keys())
def test_run_match_refuses_what_no_match_can_record(cops, robber, T, message):
    g, _ = gen_grid(4)
    with pytest.raises(MlgError, match=re.escape(message)):
        run_match(g, AllocationPlan((0, 1)), cops, robber, T=T, seed=0)


def _path(n):
    return single([(i, i + 1) for i in range(n - 1)], n)


def _path_decomposition(n):
    from mlcr.bounds import treewidth_exact_small

    return treewidth_exact_small([(i, i + 1) for i in range(n - 1)], n)[1]


# (player, graph, assignment, message): graphs and assignments from outside
# the player's construction family
MISMATCHES = {
    "grid-guard-on-the-5-grid": (lambda: GridCopGuard(4), lambda: gen_grid(5)[0], (1, 1), "graph is not the 4-grid construction"),
    "grid-guard-split-cops": (lambda: GridCopGuard(4), lambda: gen_grid(4)[0], (0, 1), "grid guard needs both cops on the same layer"),
    "corner-dance-same-layer": (
        lambda: GridRobberCorner(4), lambda: gen_grid(4)[0], (0, 0), "corner dance needs exactly one cop per layer"
    ),
    "corner-dance-on-the-3-grid": (lambda: GridRobberCorner(3), lambda: gen_grid(3)[0], (0, 1), "corner dance needs n >= 4"),
    "slices-on-a-grid": (
        lambda: SlicesRobber(2), lambda: gen_grid(4)[0], (0, 1), "graph is not the slices construction for k=2"
    ),
    "copsbane-on-a-grid": (lambda: CopsbaneRobber(), lambda: gen_grid(4)[0], (0, 1), "graph is not a cops-bane construction"),
    "tree-squeeze-with-a-robbers-edge": (
        lambda: TreeSqueezeCops(),
        lambda: MultiLayerGraph(n=4, layers=(((0, 1),),), robber_spec=RobberSpec.EXPLICIT, robber_edges=((0, 1), (1, 2), (2, 3))),
        (0,),
        "instance has a robber's edge for this assignment",
    ),
    "bagsweep-decomposition-of-another-graph": (
        lambda: BagsweepCops(_path_decomposition(4)), lambda: single(cycle(4), 4), (0, 0, 0),
        "decomposition does not validate against the graph",
    ),
    "bagsweep-disconnected-layer": (
        lambda: BagsweepCops(_path_decomposition(4)),
        lambda: MultiLayerGraph(n=4, layers=(((0, 1), (1, 2), (2, 3)), ((0, 1),))),
        (0, 0),
        "bag sweep needs connected cop layers",
    ),
    "bagsweep-too-few-cops": (
        lambda: BagsweepCops(_path_decomposition(4)), lambda: _path(4), (0,), "need at least 2 cops, got 1"
    ),
}


@pytest.mark.parametrize("player, graph, assignment, message", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_scripted_players_refuse_graphs_outside_their_family(player, graph, assignment, message):
    with pytest.raises(StrategyMismatchError, match=re.escape(message)):
        player().begin(graph(), assignment, random.Random(0))


def _grid4(i, j):
    return (i - 1) * 4 + (j - 1)


def _bag_robber_without_cover():
    """A robber on the covered bag with both cops far away: `begin`'s cover
    has been lost."""

    decomp = _path_decomposition(6)
    robber = min(decomp.bags[0])
    far = 0 if robber > 2 else 5
    return MatchView((far, far), robber, 1, [])


# (player, graph, assignment, crafted view, message): positions the
# player's own moves never lead to
INVARIANTS = {
    "grid-blocker-off-its-column": (
        lambda: GridCopGuard(4), lambda: gen_grid(4)[0], (1, 1),
        MatchView((_grid4(2, 1), _grid4(3, 3)), _grid4(1, 4), 1, []), "blocker drifted off its column",
    ),
    "grid-blocker-off-the-robbers-row": (
        lambda: GridCopGuard(4), lambda: gen_grid(4)[0], (1, 1),
        MatchView((_grid4(2, 1), _grid4(4, 2)), _grid4(1, 4), 1, []), "blocker lost the robber's row",
    ),
    "corner-row-cop-too-close": (
        lambda: GridRobberCorner(4), lambda: gen_grid(4)[0], (0, 1),
        MatchView((_grid4(1, 2), _grid4(4, 4)), _grid4(1, 1), 1, []), "row cop too close on the robber's row",
    ),
    "corner-column-cop-too-close": (
        lambda: GridRobberCorner(4), lambda: gen_grid(4)[0], (0, 1),
        MatchView((_grid4(2, 4), _grid4(2, 1)), _grid4(1, 1), 1, []), "column cop too close on the robber's column",
    ),
    "corner-both-aligned-none-far": (
        lambda: GridRobberCorner(4), lambda: gen_grid(4)[0], (0, 1),
        MatchView((_grid4(1, 3), _grid4(3, 1)), _grid4(1, 1), 1, []), "both cops aligned without a far cop",
    ),
    "bagsweep-robber-inside-the-covered-bag": (
        lambda: BagsweepCops(_path_decomposition(6)), lambda: _path(6), (0, 0),
        _bag_robber_without_cover(), "robber is not on any side of the covered bag",
    ),
}


@pytest.mark.parametrize("player, graph, assignment, view, message", INVARIANTS.values(), ids=INVARIANTS.keys())
def test_scripted_players_detect_a_broken_invariant(player, graph, assignment, view, message):
    strategy = player()
    strategy.begin(graph(), assignment, random.Random(0))
    if isinstance(strategy, CopTeamStrategy):
        strategy.place()  # the bag sweep posts its cops here
        act = strategy.moves
    else:
        act = strategy.move
    with pytest.raises(StrategyInvariantError, match=re.escape(message)):
        act(view)


def test_interactive_play_refuses_an_unknown_role():
    g, _ = gen_grid(4)
    with pytest.raises(MlgError, match="human role must be 'robber' or 'cops', got 'judge'"):
        interactive_play(g, AllocationPlan((1, 1)), "judge", input, print)
