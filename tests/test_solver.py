import functools
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlcr.core import (
    AllocationPlan,
    MlgError,
    MultiLayerGraph,
    RobberSpec,
    allocation_plans,
    compositions,
    first_winning_plans,
)
from mlcr.generators import gen_cycle_matchings, gen_grid, gen_min_counterexample, petersen
from mlcr.oracles import naive_copwin_status
from mlcr.solver import (
    StateBudgetExceeded,
    Winner,
    allocated_verdicts,
    build_copwin,
    build_copwin_batch,
    copwin_verdicts,
    copwin_winners,
    dump_cwt,
    free_choice_question,
    multilayer_cop_number,
    single_layer_cop_number,
    state_space_size,
)
from reference_oracles import (
    full_table_free_layer_choice,
    naive_allocated_verdict,
    rank_violations,
    robber_layer_variants,
    simultaneous_move_verdict,
)


def single(edges, n, spec=RobberSpec.UNION):
    return MultiLayerGraph(n=n, layers=(tuple(edges),), robber_spec=spec)


def cycle(n):
    return tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


def random_instance(rng, n_max=5, tau_max=2):
    n = rng.randint(2, n_max)
    tau = rng.randint(1, tau_max)
    layers = tuple(
        tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
        for _ in range(tau)
    )
    spec = rng.choice(list(RobberSpec))
    redges = None
    if spec is RobberSpec.EXPLICIT:
        redges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5)
    return MultiLayerGraph(n=n, layers=layers, robber_spec=spec, robber_edges=redges)


def _start_ranks(table, cops):
    """The rank of each robber start against `cops`, cops to move, read from `table.rank`."""

    return [int(table.rank[table.pack(v, cops, 0)]) for v in range(table.n)]


def _winning_placements(table):
    """The placements (lex order) against which every robber start is cop-win."""

    return [cops for cops in product(range(table.n), repeat=table.k) if min(_start_ranks(table, cops)) >= 0]


def _safe_vertex(table, cops):
    """The smallest robber start that is robber-win against `cops`, else None."""

    return next((v for v, r in enumerate(_start_ranks(table, cops)) if r < 0), None)


def random_plan(rng, g, k):
    """k cops, each on a seeded layer of `g`."""

    counts = [0] * g.tau
    for _ in range(k):
        counts[rng.randrange(g.tau)] += 1
    return AllocationPlan(tuple(counts))


# -- table construction -----------------------------------------------------------------


def test_k2_all_robber_states_copwin():
    g = single([(0, 1)], 2)
    table = build_copwin(g, (0,))
    for p0 in range(2):
        for p1 in range(2):
            assert table.rank[table.pack(p0, (p1,), 1)] >= 0  # robber to move, cop adjacent everywhere


def test_c4_single_cop_is_robber_win():
    g = single(cycle(4), 4)
    table = build_copwin(g, (0,))
    assert table.allocated_verdict().winner is Winner.ROBBER
    # every cop placement leaves a safe robber start
    for p1 in range(4):
        assert _safe_vertex(table, (p1,)) is not None


def test_grid_both_layers_cop_win():
    g, _ = gen_grid(4)
    table = build_copwin(g, (1, 1))  # both cops on the column layer
    assert _winning_placements(table)


@pytest.mark.parametrize(
    "assignment, message", [((), "build_copwin needs at least one cop"), ((5,), r"layer index 5 out of range \(tau=2\)")]
)
def test_build_copwin_refuses_an_assignment_with_no_cop_or_a_layer_off_the_graph(assignment, message):
    g, _ = gen_grid(4)
    with pytest.raises(MlgError, match=message):
        build_copwin(g, assignment)


def test_a_layer_off_the_graph_is_refused_before_the_table_is_allocated():
    """The 3-cop grid-6 table would take megabytes; the bad layer is refused first."""

    import tracemalloc

    g, _ = gen_grid(6)
    tracemalloc.start()
    try:
        with pytest.raises(MlgError, match=r"layer index 5 out of range \(tau=2\)"):
            build_copwin(g, (0, 0, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_state_budget_guard():
    g = single(cycle(4), 4)
    with pytest.raises(StateBudgetExceeded) as exc:
        build_copwin(g, (0, 0), state_budget=10)
    assert exc.value.required == state_space_size(4, 2)


def test_state_budget_is_capped_by_physical_ram_before_allocating(monkeypatch):
    import tracemalloc

    import mlcr.solver

    g, _ = gen_grid(6)  # (0,0,1): 6,718,464 states, 13 MB of rank alone
    monkeypatch.setattr(mlcr.solver, "_physical_ram", lambda: 8 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(StateBudgetExceeded) as exc:
            build_copwin(g, (0, 0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.required == state_space_size(36, 3)
    # 2 B of rank per state plus a 1-B counter per robber-turn state (1 in 4),
    # after the batch work arrays
    work = mlcr.solver._BATCH * mlcr.solver._WORK_BYTES
    assert exc.value.budget == (8 * 2**20 - work) * 4 // 9
    assert peak < 10**6


def test_widening_rechecks_physical_ram_for_both_rank_copies(monkeypatch):
    import mlcr.solver

    g, _ = gen_grid(4)  # (0,0,1): 262,144 states, deepest rank well above 3
    size = state_space_size(16, 3)
    work = mlcr.solver._BATCH * mlcr.solver._WORK_BYTES
    # room for 3 B per state: enough for the int16 table, not for widening it
    monkeypatch.setattr(mlcr.solver, "_physical_ram", lambda: work + 3 * size)
    monkeypatch.setattr(mlcr.solver, "_RANK_MAX", 3)
    with pytest.raises(StateBudgetExceeded) as exc:
        build_copwin(g, (0, 0, 1))
    assert exc.value.required == size
    # int16 and int32 rank (6 B) plus the 1-B counter on one state in 4
    assert exc.value.budget == 3 * size * 4 // 25


def test_grid6_table_peak_memory():
    import tracemalloc

    g, _ = gen_grid(6)  # (0,0,1): 6,718,464 states, 15.1 MB of rank and counter
    tracemalloc.start()
    try:
        build_copwin(g, (0, 0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10**6  # 19.24 MB measured


def test_c02_three_cop_layer_game_peak_memory():
    """The level step frees each predecessor-sized array after its last use."""

    import tracemalloc

    g, _ = gen_min_counterexample()  # mirror layer 1, 3 cops: 521,284 states, 1.2 MB of rank and counter
    layer = MultiLayerGraph(n=g.n, layers=(g.layers[0],), robber_spec=RobberSpec.EXPLICIT, robber_edges=g.layers[0])
    tracemalloc.start()
    try:
        assert copwin_winners([(layer, (0, 0, 0))]) == [Winner.COP]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20  # 2.61 MiB measured


def test_single_vertex_is_cop_win():
    g = single([], 1)
    assert build_copwin(g, (0,)).allocated_verdict().winner is Winner.COP


# -- composition order and allocation choice ------------------------------------------------


def test_composition_order_packs_early_layers_first():
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(1, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _k_cops(g, k, decide=allocated_verdicts):
    """Whether k cops win on `g`, asked as `solve --cops` asks (by default
    with full tables): the answer plan and the last verdict."""

    ((plan, verdict),) = first_winning_plans([_allocation_question(g, k)], decide)
    return plan, verdict


def test_grid_choose_allocation():
    g, _ = gen_grid(4)
    plan, verdict = _k_cops(g, 2)
    assert verdict.winner is Winner.COP
    assert plan.counts == (2, 0)
    plan, verdict = _k_cops(g, 1)
    assert verdict.winner is Winner.ROBBER and plan is None


def test_cycle_matchings_two_cops_lose():
    g, _ = gen_cycle_matchings(3)
    _, verdict = _k_cops(g, 2)
    assert verdict.winner is Winner.ROBBER


def _free_choice(g, k):
    """Whether k cops win on `g` whatever layer the robber picks, asked as
    `solve --free-choice` asks: the answer plan and the last verdict."""

    ((plan, verdict),) = first_winning_plans([free_choice_question(g, k)], copwin_verdicts)
    return plan, verdict


def test_free_layer_choice_tree_single_layer():
    path = ((0, 1), (1, 2), (2, 3))
    g = MultiLayerGraph(n=4, layers=(path,))
    plan, verdict = _free_choice(g, 1)
    assert verdict.winner is Winner.COP
    assert plan.counts == (1,)


def test_free_layer_choice_reductions():
    from mlcr.generators import gen_domset_reduction

    k3 = ((0, 1), (0, 2), (1, 2))
    g, _ = gen_domset_reduction(k3, 3)
    assert _free_choice(g, 1)[1].winner is Winner.COP
    c5 = cycle(5)
    g, _ = gen_domset_reduction(c5, 5)
    assert _free_choice(g, 1)[1].winner is Winner.ROBBER
    assert _free_choice(g, 2)[1].winner is Winner.COP


# -- cop numbers ------------------------------------------------------------------------


def test_cop_numbers_small_families():
    assert single_layer_cop_number(((0, 1), (1, 2), (2, 3), (3, 4)), 5, 2) == 1  # path
    assert single_layer_cop_number(cycle(4), 4, 3) == 2
    assert single_layer_cop_number(petersen(), 10, 3) == 3


def test_mirror_graph_cop_numbers():
    g, _ = gen_min_counterexample()
    assert multilayer_cop_number(g, 2) == 2


def test_cop_number_monotone_in_k():
    rng = random.Random(31)
    for _ in range(40):
        g = random_instance(rng, n_max=5)
        _, v1 = _k_cops(g, 1)
        if v1.winner is Winner.COP:
            _, v2 = _k_cops(g, 2)
            assert v2.winner is Winner.COP


# -- oracle equivalence -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_status_matches_naive_oracle(seed):
    rng = random.Random(seed)
    g = random_instance(rng, n_max=5)
    k = rng.randint(1, 2)
    assignment = tuple(rng.randrange(g.tau) for _ in range(k))
    table = build_copwin(g, assignment)
    win = naive_copwin_status(g, assignment)
    for (p0, cops, t), w in win.items():
        assert bool(table.rank[table.pack(p0, cops, t)] >= 0) == w


def test_verdict_matches_naive_oracle():
    rng = random.Random(77)
    for _ in range(40):
        g = random_instance(rng, n_max=4)
        plan = random_plan(rng, g, rng.randint(0, 2))
        want = naive_allocated_verdict(g, plan)
        if plan.total == 0:  # `solve` settles zero cops without a table: a robber win
            assert want == "ROBBER"
        else:
            assert build_copwin(g, plan.assignment()).allocated_verdict().winner.value == want


def test_one_at_a_time_equals_simultaneous_moves():
    rng = random.Random(123)
    for _ in range(30):
        g = random_instance(rng, n_max=4)
        plan = random_plan(rng, g, rng.randint(1, 2))
        verdict = build_copwin(g, plan.assignment()).allocated_verdict()
        assert verdict.winner.value == simultaneous_move_verdict(g, plan)


# -- rank and strategy extraction ------------------------------------------------------------


def test_cop_policy_wins_within_rank_against_all_replies():
    g, _ = gen_grid(4)
    table = build_copwin(g, (1, 1))
    placement = _winning_placements(table)[0]
    assert all(table.rank[table.pack(p0, placement, 0)] >= 0 for p0 in range(g.n))
    # the certified rank drops along every robber reply from a cop-win state;
    # if the policy move drops it too, the cops capture within rank(start)
    # agent moves from anywhere, whatever the robber does
    _assert_certified(table)
    for state in np.flatnonzero(table.rank > 0).tolist():
        if state % (table.k + 1) < table.k:
            assert table.rank[table.best_cop_move(state)] == table.rank[state] - 1


def test_robber_policy_never_enters_a_copwin_state():
    g = single(cycle(4), 4)
    table = build_copwin(g, (0,))
    rng = random.Random(11)
    for trial in range(50):
        cop = rng.randrange(4)
        robber = _safe_vertex(table, (cop,))
        assert robber is not None
        state = table.pack(robber, (cop,), 0)
        for _ in range(100):
            # random cop step
            succs = _ref_successors(table, state)
            state = rng.choice(succs)
            p0, cops, t = table.unpack(state)
            if p0 in cops:
                raise AssertionError("robber policy was captured")
            state = table.best_robber_move(state)
            assert table.rank[state] < 0


def test_robber_policy_survives_random_cop_teams():
    from mlcr.sim import RandomCops, TablebaseRobber, run_match

    rng = random.Random(88)
    matches = 0
    while matches < 50:
        g = random_instance(rng, n_max=5)
        plan = random_plan(rng, g, rng.randint(1, 2))
        table = build_copwin(g, plan.assignment())
        if table.allocated_verdict().winner is not Winner.ROBBER:
            continue
        rec = run_match(g, plan, RandomCops(), TablebaseRobber(table), T=100, seed=matches)
        assert rec.outcome == "SURVIVED", (g.layers, plan)
        matches += 1


def _two_step_cop_placement(table):
    """The first winning placement, else the first with the most cop-win starts."""

    wins = _winning_placements(table)
    if wins:
        return wins[0]
    placements = list(product(range(table.n), repeat=table.k))
    counts = [sum(r >= 0 for r in _start_ranks(table, cops)) for cops in placements]
    return placements[counts.index(max(counts))]


def _two_step_robber_placement(table, cops):
    """The first safe start, else the first start of the largest rank."""

    safe = _safe_vertex(table, cops)
    if safe is not None:
        return safe
    best_v, best_rank = 0, -1
    for v, r in enumerate(_start_ranks(table, cops)):
        if r > best_rank:
            best_v, best_rank = v, r
    return best_v


def test_tablebase_placements_follow_the_two_step_rules():
    from mlcr.sim import TablebaseCops, TablebaseRobber

    cop_wins = set()
    robber_safe = set()
    for g, assignment in _random_corpus():
        table = build_copwin(g, assignment)
        tc, tr = TablebaseCops(table), TablebaseRobber(table)
        tc.begin(g, assignment, random.Random(0))
        tr.begin(g, assignment, random.Random(0))
        cop_wins.add(bool(_winning_placements(table)))
        assert tc.place() == _two_step_cop_placement(table)
        for cops in product(range(g.n), repeat=table.k):
            robber_safe.add(_safe_vertex(table, cops) is not None)
            assert tr.place(cops) == _two_step_robber_placement(table, cops)
    assert cop_wins == robber_safe == {True, False}  # both steps of both rules ran


def test_allocated_verdict_takes_its_witnesses_from_the_placement_rules():
    """PLACEMENT is the cops' placement rule whenever the verdict is COP, and
    SAFE_VERTEX the robber's rule against placement 0 whenever it is ROBBER;
    both are the witnesses read straight from `rank`."""

    winners = set()
    for g, assignment in _random_corpus():
        table = build_copwin(g, assignment)
        verdict = table.allocated_verdict()
        winners.add(verdict.winner)
        wins = _winning_placements(table)
        if verdict.winner is Winner.COP:
            assert verdict.placement == table.cop_placement() == wins[0]
        else:
            first = (0,) * table.k
            assert not wins
            assert verdict.safe_vertex == table.robber_placement(first) == _safe_vertex(table, first)
    assert winners == {Winner.COP, Winner.ROBBER}


def test_cwt_dump_shape():
    g = single([(0, 1)], 2)
    table = build_copwin(g, (0,))
    text = dump_cwt(table)
    lines = text.splitlines()
    assert lines[0] == f"CWT1 2 1 {table.n_states}"
    assert len(lines) == table.n_states + 1


def test_mirror_split_pair_catches_within_one_team_move():
    g, _ = gen_min_counterexample()
    table = build_copwin(g, (0, 1))
    assert table.allocated_verdict().winner is Winner.COP
    # both cops camped on the shared hub threaten everything at once
    hub = 9
    for p0 in range(g.n):
        state = table.pack(p0, (hub, hub), 0)
        assert table.rank[state] >= 0
        assert table.rank[state] <= 2  # at most one move by one of the cops


def test_verdict_witnesses_check_out_against_the_table():
    rng = random.Random(2027)
    for _ in range(30):
        g = random_instance(rng, n_max=5)
        plan = random_plan(rng, g, rng.randint(1, 2))
        table = build_copwin(g, plan.assignment())
        verdict = table.allocated_verdict()
        if verdict.winner is Winner.COP:
            assert all(table.rank[table.pack(p0, verdict.placement, 0)] >= 0 for p0 in range(g.n))
        else:
            first = (0,) * table.k
            assert verdict.safe_vertex is not None
            assert table.rank[table.pack(verdict.safe_vertex, first, 0)] < 0


def test_cop_policy_undefined_on_capture_states():
    g = single([(0, 1)], 2)
    table = build_copwin(g, (0,))
    capture = table.pack(1, (1,), 0)
    with pytest.raises(MlgError, match="terminal"):
        table.best_robber_move(capture)
    with pytest.raises(Exception):
        table.best_cop_move(capture)


def test_chase_cop_move_refuses_robber_turn_and_passes_on_capture():
    g, _ = gen_grid(4)
    table = build_copwin(g, (0, 1))
    with pytest.raises(MlgError, match="robber-turn"):
        table.chase_cop_move(table.pack(0, (1, 2), 2))
    assert table.chase_cop_move(table.pack(1, (1, 2), 0)) == -1


# -- policy queries against the unpack-based reference ----------------------------------------
# The reference decodes every successor with `unpack` and runs a fresh BFS
# per chase move, as the table did before its stride arithmetic, memoised
# distances and lazy move lists.


@functools.lru_cache(maxsize=None)
def _ref_csr_with_self(n, adjacency):
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        indptr[v + 1] = indptr[v] + len(adjacency[v]) + 1
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for v in range(n):
        start = int(indptr[v])
        nbrs = sorted(set(adjacency[v]) | {v})
        indices[start : start + len(nbrs)] = nbrs
    return indptr, indices


def _ref_successors(table, index):
    robber, cops, t = table.unpack(index)
    if robber in cops:
        return []
    g, k, n = table.graph, table.k, table.n
    mover = 0 if t == k else t + 1
    position = robber if mover == 0 else cops[mover - 1]
    if mover == 0 and g.robber_is_complete():
        moves = range(n)
    else:
        view = g.layer_view(None if mover == 0 else table.assignment[mover - 1])
        indptr, indices = _ref_csr_with_self(n, view)
        moves = [int(indices[j]) for j in range(int(indptr[position]), int(indptr[position + 1]))]
    stride = (k + 1) * n ** (k - mover)
    t_next = (t + 1) % (k + 1)
    return [index - t + (q - position) * stride + t_next for q in moves]


def _ref_best_cop_move(table, index):
    best_idx, best_rank = -1, -1
    for s in _ref_successors(table, index):
        r = int(table.rank[s])
        if r >= 0 and (best_idx < 0 or r < best_rank or (r == best_rank and s < best_idx)):
            best_idx, best_rank = s, r
    return best_idx


def _ref_chase_cop_move(table, index):
    from mlcr.core import bfs_dist_adj

    robber, _, t = table.unpack(index)
    dist = bfs_dist_adj(table.graph.layer_view(table.assignment[t]), robber)
    best_idx, best_d = -1, None
    for s in _ref_successors(table, index):
        d = dist[table.unpack(s)[1][t]]
        if best_idx < 0 or d < best_d or (d == best_d and s < best_idx):
            best_idx, best_d = s, d
    return best_idx


def _ref_best_robber_move(table, index):
    escapes = [s for s in _ref_successors(table, index) if table.rank[s] < 0]
    if escapes:
        return min(escapes)
    return min(_ref_successors(table, index), key=lambda s: (-int(table.rank[s]), s))


def test_policy_queries_match_unpack_reference_on_random_corpus():
    rng = random.Random(404)
    checked = {True: 0, False: 0}
    for trial in range(60):
        g = random_instance(rng, n_max=4, tau_max=2)
        if trial % 2:  # alternate complete and explicit robber layers
            g = MultiLayerGraph(n=g.n, layers=g.layers, robber_spec=RobberSpec.COMPLETE)
        else:
            redges = tuple((u, v) for u in range(g.n) for v in range(u + 1, g.n) if rng.random() < 0.5)
            g = MultiLayerGraph(n=g.n, layers=g.layers, robber_spec=RobberSpec.EXPLICIT, robber_edges=redges)
        k = rng.randint(1, 3)
        table = build_copwin(g, tuple(rng.randrange(g.tau) for _ in range(k)))
        checked[g.robber_is_complete()] += 1
        for idx in range(table.n_states):
            if not _ref_successors(table, idx):
                continue
            _, _, t = table.unpack(idx)
            assert table.best_robber_move(idx) == _ref_best_robber_move(table, idx)
            if t == table.k:
                continue
            if table.rank[idx] >= 0:
                assert table.best_cop_move(idx) == _ref_best_cop_move(table, idx)
            else:
                assert table.chase_cop_move(idx) == _ref_chase_cop_move(table, idx)
    assert checked[True] and checked[False]


def test_move_lists_are_built_on_first_policy_query():
    g, _ = gen_grid(4)
    table = build_copwin(g, (0, 0))
    assert table._moves is None
    table.best_robber_move(table.pack(0, (5, 10), 2))
    assert table._moves is not None
    assert table._moves[1] is table._moves[2]  # cops on one layer share their lists


def test_chase_distances_computed_once_per_layer_and_robber_in_a_batch(tmp_path, monkeypatch, capsys):
    import mlcr.core
    import mlcr.solver
    from mlcr.cli import main
    from mlcr.core import write_mlg_file

    path = tmp_path / "grid4.mlg"
    write_mlg_file(gen_grid(4)[0], path)
    calls = []
    real = mlcr.core.bfs_dist_adj

    def counted(adjacency, *sources, **kwargs):
        calls.append((id(adjacency), sources))
        return real(adjacency, *sources, **kwargs)

    monkeypatch.setattr(mlcr.core, "bfs_dist_adj", counted)
    tables = []
    real_build = mlcr.solver.build_copwin

    def build(*args, **kwargs):
        tables.append(real_build(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(mlcr.solver, "build_copwin", build)
    code = main([
        "simulate", str(path), "--allocation", "1,1", "--cop-strategy", "tablebase",
        "--robber-strategy", "tablebase", "--rounds", "200", "--batch", "3",
    ])
    assert code == 0
    assert "captures=0" in capsys.readouterr().out
    assert len(tables) == 1
    assert calls  # the robber survives, so the cops chased
    assert len(calls) == len(set(calls))


# -- tables against the game's defining equations ------------------------------------------
# `rank_violations` certifies that a table is the game's value, state by
# state (see `reference_oracles`).  The grid test keeps its name and test
# ids from when it compared with a second, sort-based retrograde BFS.


def _assert_certified(table):
    bad = rank_violations(table)
    assert not bad.size, (table.graph, table.assignment, table.unpack(int(bad[0])))


def _random_corpus():
    rng = random.Random(2112)
    for _ in range(300):
        g = random_instance(rng, n_max=7, tau_max=3)
        k = rng.randint(1, 3)
        yield g, tuple(rng.randrange(g.tau) for _ in range(k))


def _assert_corpus_certified():
    specs = set()
    cops = set()
    for g, assignment in _random_corpus():
        specs.add(g.robber_spec)
        cops.add(len(assignment))
        table = build_copwin(g, assignment)
        assert table.rank.dtype == np.int16
        _assert_certified(table)
    assert specs == set(RobberSpec) and cops == {1, 2, 3}


def test_random_corpus_tables_are_certified():
    _assert_corpus_certified()


def test_random_corpus_tables_are_certified_across_many_chunks(monkeypatch):
    import mlcr.solver

    # smaller than a complete robber layer's rows (n <= 7): rows split over batches
    monkeypatch.setattr(mlcr.solver, "_BATCH", 5)
    _assert_corpus_certified()


@pytest.mark.parametrize("side", [4, 5, 6])  # n = 6 with (0,0,1): 6,718,464 states
@pytest.mark.parametrize("assignment", [(0, 0), (0, 1), (0, 0, 1)])
def test_rank_matches_sort_based_reference_on_grids(side, assignment):
    table = build_copwin(gen_grid(side)[0], assignment)
    assert table.rank.dtype == np.int16
    _assert_certified(table)


@pytest.mark.parametrize("side", [4, 5])
@pytest.mark.parametrize("assignment", [(0, 0), (0, 1), (0, 0, 1)])
def test_rank_widens_to_int32_past_the_level_limit(side, assignment, monkeypatch):
    import mlcr.solver

    g = gen_grid(side)[0]
    want = build_copwin(g, assignment).rank
    monkeypatch.setattr(mlcr.solver, "_RANK_MAX", 3)
    table = build_copwin(g, assignment)
    assert table.rank.dtype == np.int32
    _assert_certified(table)
    assert np.array_equal(table.rank, want)


def test_certificate_rejects_every_single_state_mutant():
    """On each table, one seeded state per kind of fault that equality with a
    second table would show: the certificate must flag that very state."""

    rng = random.Random(2114)
    kinds = {  # which states, and the wrong rank given to one of them
        "cop-win rank off by one": (lambda r: r > 0, lambda r, top: r + rng.choice((-1, 1))),
        "cop-win state set to -1": (lambda r: r > 0, lambda r, top: -1),
        "robber-win state given a rank": (lambda r: r < 0, lambda r, top: rng.randint(0, top + 1)),
        "capture state given a non-zero rank": (lambda r: r == 0, lambda r, top: rng.choice((-1, top + 1))),
    }
    tried = dict.fromkeys(kinds, 0)
    for g, assignment in _random_corpus():
        table = build_copwin(g, assignment)
        rank, top = table.rank, int(table.rank.max())
        for kind, (where, mutate) in kinds.items():
            states = np.flatnonzero(where(rank))
            if states.size:
                i = int(states[rng.randrange(states.size)])
                old = int(rank[i])
                rank[i] = mutate(old, top)
                assert i in rank_violations(table), (kind, g, assignment, table.unpack(i), old, int(rank[i]))
                rank[i] = old
                tried[kind] += 1
        _assert_certified(table)
    assert min(tried.values()) >= 100, tried


# -- batches and winner-only solves ------------------------------------------------------


def _batch_corpus(seed=1717, count=240):
    """Seeded (graph, assignment) pairs of mixed shapes: every robber spec,
    k = 1..3, assignments that repeat a layer."""

    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        g = random_instance(rng, n_max=5, tau_max=3)
        k = rng.randint(1, 3)
        pairs.append((g, tuple(rng.randrange(g.tau) for _ in range(k))))
    assert {g.robber_spec for g, _ in pairs} == set(RobberSpec)
    assert {len(a) for _, a in pairs} == {1, 2, 3}
    assert any(len(set(a)) < len(a) for _, a in pairs)
    return pairs


def test_batched_ranks_equal_single_table_ranks():
    pairs = _batch_corpus()
    tables = build_copwin_batch(pairs)
    assert len({(g.n, len(a), g.robber_is_complete()) for g, a in pairs}) > 1  # mixed shapes
    for (g, assignment), table in zip(pairs, tables):
        single = build_copwin(g, assignment)
        assert table.graph is g and table.assignment == assignment
        assert table.rank.dtype == single.rank.dtype
        assert np.array_equal(table.rank, single.rank), (g, assignment)
        _assert_certified(table)


def test_batched_ranks_equal_single_table_ranks_across_many_chunks(monkeypatch):
    import mlcr.solver

    pairs = _batch_corpus(seed=1718, count=80)
    singles = [build_copwin(g, a).rank for g, a in pairs]
    monkeypatch.setattr(mlcr.solver, "_BATCH", 5)
    monkeypatch.setattr(mlcr.solver, "_RANK_MAX", 3)  # and widened to int32
    for want, table in zip(singles, build_copwin_batch(pairs)):
        assert np.array_equal(table.rank, want)
        _assert_certified(table)


def test_winner_only_equals_full_table_and_naive_oracle():
    pairs = _batch_corpus(seed=1719, count=120)
    winners = copwin_winners(pairs)
    assert set(winners) == {Winner.COP, Winner.ROBBER}
    for (g, assignment), winner in zip(pairs, winners):
        full = bool(_winning_placements(build_copwin(g, assignment)))
        assert winner is (Winner.COP if full else Winner.ROBBER)
        assert copwin_winners([(g, assignment)]) == [winner]  # the batch of one
        if g.n <= 4:
            counts = tuple(assignment.count(layer) for layer in range(g.tau))
            if AllocationPlan(counts).assignment() == assignment:
                assert winner.value == naive_allocated_verdict(g, AllocationPlan(counts))


def test_winner_only_allocation_questions_equal_full_table_questions():
    rng = random.Random(1720)
    instances = [(random_instance(rng, n_max=5), rng.randint(0, 2)) for _ in range(60)]
    answers = first_winning_plans([([g], allocation_plans(k, g.tau)) for g, k in instances], copwin_verdicts)
    plans = [plan for plan, _ in answers]
    assert None in plans and any(plans)
    for (g, k), plan in zip(instances, plans):
        assert plan == _k_cops(g, k)[0]
    with pytest.raises(MlgError):
        allocation_plans(-1, 2)


def _allocation_question(g, k):
    return [g], allocation_plans(k, g.tau)


def _cop_number_question(g, k_max):
    return [g], (plan for k in range(1, k_max + 1) for plan in allocation_plans(k, g.tau))


def _mixed_questions(seed=2101, count=120):
    """Seeded questions of every kind, built anew on each call since their
    plans are drawn lazily: every robber spec, k = 0..3, tau = 1..3 and the
    first layer often repeated."""

    rng = random.Random(seed)
    kinds = (_allocation_question, free_choice_question, _cop_number_question)
    questions = []
    for i in range(count):
        g = random_instance(rng, n_max=4, tau_max=3)
        if g.tau > 1 and rng.random() < 0.4:
            g = MultiLayerGraph(
                n=g.n, layers=(*g.layers[:-1], g.layers[0]), robber_spec=g.robber_spec, robber_edges=g.robber_edges
            )
        questions.append((kinds[i % 3], g, rng.randint(0, 3)))
    return questions


def test_questions_asked_together_equal_questions_asked_alone():
    corpus = _mixed_questions()
    assert {g.robber_spec for _, g, _ in corpus} == set(RobberSpec)
    assert {g.tau for _, g, _ in corpus} == {1, 2, 3}
    assert any(len(set(g.layers)) < g.tau for _, g, _ in corpus)
    together = first_winning_plans([kind(g, k) for kind, g, k in corpus], copwin_verdicts)
    alone = [first_winning_plans([kind(g, k)], copwin_verdicts)[0] for kind, g, k in corpus]
    assert together == alone
    for kind in {kind for kind, _, _ in corpus}:
        answers = [plan for (asked, _, _), (plan, _) in zip(corpus, together) if asked is kind]
        assert None in answers and any(answers), kind.__name__
    for (kind, g, k), (plan, _) in zip(corpus, together):
        if kind is _allocation_question:
            assert plan == _k_cops(g, k)[0]
        elif kind is free_choice_question:
            assert plan == full_table_free_layer_choice(g, k)[1]
        else:
            assert (plan and plan.total) == multilayer_cop_number(g, k) == next(
                (j for j in range(1, k + 1) if _k_cops(g, j)[0]), None
            )


def _spy_retrograde(monkeypatch, full_only=False):
    """Record the pairs of every retrograde BFS run from now on (with
    `full_only`, of every run that builds full tables)."""

    import mlcr.solver

    runs = []
    real = mlcr.solver._retrograde

    def spied(pairs, state_budget, winner_only=False):
        if not (full_only and winner_only):
            runs.append(list(pairs))
        return real(pairs, state_budget, winner_only)

    monkeypatch.setattr(mlcr.solver, "_retrograde", spied)
    return runs


def test_c05_and_c06_questions_advance_in_few_batches(monkeypatch):
    from mlcr.verify import run_criteria

    runs = _spy_retrograde(monkeypatch)
    (res,) = run_criteria(only="c05")
    assert res.passed
    # the 3,883 tables the questions would solve one at a time, in at most 200 runs
    assert len(runs) <= 200 and sum(map(len, runs)) == 3883
    runs.clear()
    (res,) = run_criteria(only="c06")
    assert res.passed
    assert sum(map(len, runs)) <= 534  # at most every composition of every instance


def test_c10_asks_its_free_layer_choice_questions_together(monkeypatch):
    from mlcr.verify import run_criteria

    runs = _spy_retrograde(monkeypatch)
    (res,) = run_criteria(only="c10")
    assert res.passed
    # the 1,132 tables its questions would solve one at a time, then the 207
    # (answer, robber layer) tables of its direct free-choice check, in at most 60 runs
    assert len(runs) <= 60 and sum(map(len, runs)) == 1132 + 207


def test_lone_free_choice_question_solves_one_table_at_a_time(monkeypatch, tmp_path):
    from mlcr.cli import main
    from mlcr.core import write_mlg_file

    g, _ = gen_grid(4)
    path = str(tmp_path / "grid4.mlg")
    write_mlg_file(g, path)
    for k, code in ((1, 1), (2, 0)):
        # per composition, each robber-layer variant up to its first ROBBER
        want = []
        for comp in compositions(k, g.tau):
            assignment = AllocationPlan(comp).assignment()
            for variant in robber_layer_variants(g):
                want.append([(variant, assignment)])
                if copwin_winners([(variant, assignment)])[0] is Winner.ROBBER:
                    break
            else:
                break
        runs = _spy_retrograde(monkeypatch)
        assert main(["solve", path, "--free-choice", str(k)]) == code
        assert runs == want
        monkeypatch.undo()


def test_over_budget_question_names_the_first_table_too_large(capsys):
    from mlcr.cli import main

    assert main(["--state-budget", "100", "verify-paper", "--only", "c05"]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: state space needs 1029 states, budget is 100"]


def _free_choice_corpus(seed=1721, count=100):
    """Seeded free-layer-choice games: tau = 2..3, the first layer often
    repeated, k = 0..3."""

    rng = random.Random(seed)
    games = []
    for _ in range(count):
        n = rng.randint(2, 6)
        layers = [
            tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35)
            for _ in range(rng.randint(2, 3))
        ]
        if rng.random() < 0.4:
            layers[-1] = layers[0]
        games.append((MultiLayerGraph(n=n, layers=tuple(layers)), rng.randint(0, 3)))
    return games


def test_free_layer_choice_equals_full_tables_and_naive_oracle(tmp_path, capsys):
    from mlcr.cli import main
    from mlcr.core import write_mlg_file

    games = _free_choice_corpus()
    assert any(len(set(g.layers)) < g.tau for g, _ in games)
    winners = set()
    path = str(tmp_path / "g.mlg")
    for g, k in games:
        write_mlg_file(g, path)
        code = main(["solve", path, "--free-choice", str(k)])
        want, want_plan = full_table_free_layer_choice(g, k)
        lines = [f"WINNING_ALLOCATION={want_plan}"] if want_plan else []
        assert capsys.readouterr().out.splitlines() == lines + want.record_lines(), (g, k)
        winner = Winner.COP if code == 0 else Winner.ROBBER
        assert winner is want.winner and _free_choice(g, k)[0] == want_plan, (g, k)
        winners.add(winner)
        if g.n <= 5 and k:
            naive = any(
                all(naive_allocated_verdict(gj, AllocationPlan(comp)) == "COP" for gj in robber_layer_variants(g))
                for comp in compositions(k, g.tau)
            )
            assert winner is (Winner.COP if naive else Winner.ROBBER), (g, k)
    assert winners == {Winner.COP, Winner.ROBBER}


def test_winner_only_questions_build_no_full_table(monkeypatch, tmp_path):
    """c01, c04, c05, c10 and `solve --free-choice` read only winners, so
    they run no full retrograde BFS; `solve --allocation` still runs one."""

    from mlcr.cli import main
    from mlcr.core import write_mlg_file
    from mlcr.verify import run_criteria

    full = _spy_retrograde(monkeypatch, full_only=True)
    for cid in ("c01", "c04", "c05", "c10"):
        (res,) = run_criteria(only=cid)
        assert res.passed and full == [], cid
    path = str(tmp_path / "grid4.mlg")
    write_mlg_file(gen_grid(4)[0], path)
    assert main(["solve", path, "--free-choice", "1"]) == 1
    assert main(["solve", path, "--free-choice", "2"]) == 0
    assert full == []
    assert main(["solve", path, "--allocation", "2,0"]) == 0
    assert list(map(len, full)) == [1]


def test_cop_number_stops_each_table_at_the_win(monkeypatch):
    import mlcr.solver

    # a winner-only solve of the mirror graph's pair stops before the fixpoint
    levels = []
    real = mlcr.solver._retrograde

    def spied(pairs, state_budget, winner_only=False):
        rank, starts = real(pairs, state_budget, winner_only)
        levels.append((winner_only, int(rank.max())))
        return rank, starts

    g, _ = gen_min_counterexample()
    full = int(build_copwin(g, (0, 1)).rank.max())
    monkeypatch.setattr(mlcr.solver, "_retrograde", spied)
    assert multilayer_cop_number(g, 2) == 2
    assert all(winner_only for winner_only, _ in levels)
    assert levels[-1][1] < full


def test_batch_over_physical_ram_is_refused_before_allocating(monkeypatch):
    import tracemalloc

    import mlcr.solver

    g, _ = gen_grid(6)  # (0,1): 139,968 states, 280 kB of rank each
    size = state_space_size(36, 2)
    work = mlcr.solver._BATCH * mlcr.solver._WORK_BYTES
    # room for two tables at 2 B of rank plus a 1-B counter on one state in 3
    monkeypatch.setattr(mlcr.solver, "_physical_ram", lambda: work + 2 * size * 7 // 3)
    build_copwin(g, (0, 1))  # one table alone fits
    tracemalloc.start()
    try:
        with pytest.raises(StateBudgetExceeded) as exc:
            build_copwin_batch([(g, (0, 1))] * 4)
        # a single table over the cap is refused by the winner-only solve too
        with pytest.raises(StateBudgetExceeded) as alone:
            copwin_winners([(g, (0, 0, 1))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.required == 4 * size
    assert exc.value.budget == 2 * size
    assert alone.value.required == state_space_size(36, 3)
    assert peak < 10**5
    # winner-only tables are dropped once read, so they are split into batches that fit
    runs = _spy_retrograde(monkeypatch)
    assert copwin_winners([(g, (0, 1))] * 4) == copwin_winners([(g, (0, 1))]) * 4
    assert list(map(len, runs)) == [2, 2, 1]


def test_batch_over_physical_ram_exits_three_through_the_cli(monkeypatch, capsys):
    import mlcr.solver
    from mlcr.cli import main

    # c09's tables hold at most 648 states each (n = 6, k = 2), its batches more
    work = mlcr.solver._BATCH * mlcr.solver._WORK_BYTES
    monkeypatch.setattr(mlcr.solver, "_physical_ram", lambda: work + 2500)
    assert main(["verify-paper", "--only", "c09"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_budget_still_bounds_each_table_of_a_batch():
    g = single(cycle(4), 4)
    with pytest.raises(StateBudgetExceeded) as exc:
        build_copwin_batch([(g, (0,)), (g, (0, 0))], state_budget=40)
    assert exc.value.required == state_space_size(4, 2)
    assert exc.value.budget == 40


def test_oracle_lists_its_states_in_packed_index_order():
    """c09 compares the oracle's values with `rank >= 0` as one array."""

    rng = random.Random(909)
    ks = set()
    for _ in range(6):
        g = random_instance(rng, n_max=4)
        assignment = tuple(rng.randrange(g.tau) for _ in range(rng.randint(1, 2)))
        ks.add(len(assignment))
        table = build_copwin(g, assignment)
        assert list(naive_copwin_status(g, assignment)) == [table.unpack(i) for i in range(table.n_states)]
    assert 2 in ks
