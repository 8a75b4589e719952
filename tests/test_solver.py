import random

import pytest
from hypothesis import given, settings, strategies as st

from mlcr.core import AllocationPlan, MultiLayerGraph, RobberSpec
from mlcr.generators import gen_cycle_matchings, gen_grid, gen_min_counterexample, petersen
from mlcr.oracles import (
    naive_allocated_verdict,
    naive_copwin_status,
    simultaneous_move_verdict,
)
from mlcr.solver import (
    StateBudgetExceeded,
    Winner,
    build_copwin,
    compositions,
    decide_allocated,
    decide_choose_allocation,
    decide_free_layer_choice,
    dump_cwt,
    extract_strategy,
    multilayer_cop_number,
    single_layer_cop_number,
    state_space_size,
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


# -- table construction -----------------------------------------------------------------


def test_k2_all_robber_states_copwin():
    g = single([(0, 1)], 2)
    table = build_copwin(g, (0,))
    for p0 in range(2):
        for p1 in range(2):
            assert table.is_copwin(p0, (p1,), 1)  # robber to move, cop adjacent everywhere


def test_c4_single_cop_is_robber_win():
    g = single(cycle(4), 4)
    verdict = decide_allocated(g, AllocationPlan((1,)))
    assert verdict.winner is Winner.ROBBER
    # every cop placement leaves a safe robber start
    table = build_copwin(g, (0,))
    for p1 in range(4):
        assert table.safe_robber_vertex((p1,)) is not None


def test_grid_both_layers_cop_win():
    g, _ = gen_grid(4)
    table = build_copwin(g, (1, 1))  # both cops on the column layer
    assert table.winning_placements().size > 0


def test_state_budget_guard():
    g = single(cycle(4), 4)
    with pytest.raises(StateBudgetExceeded) as exc:
        build_copwin(g, (0, 0), state_budget=10)
    assert exc.value.required == state_space_size(4, 2)


def test_zero_cops_lose():
    g = single([(0, 1)], 2)
    verdict = decide_allocated(g, AllocationPlan((0,)))
    assert verdict.winner is Winner.ROBBER


def test_single_vertex_is_cop_win():
    g = single([], 1)
    assert decide_allocated(g, AllocationPlan((1,))).winner is Winner.COP


# -- composition order and allocation choice ------------------------------------------------


def test_composition_order_packs_early_layers_first():
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(1, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_grid_choose_allocation():
    g, _ = gen_grid(4)
    verdict, plan = decide_choose_allocation(g, 2)
    assert verdict.winner is Winner.COP
    assert plan.counts == (2, 0)
    verdict, plan = decide_choose_allocation(g, 1)
    assert verdict.winner is Winner.ROBBER and plan is None


def test_cycle_matchings_two_cops_lose():
    g, _ = gen_cycle_matchings(3)
    verdict, _ = decide_choose_allocation(g, 2)
    assert verdict.winner is Winner.ROBBER


def test_free_layer_choice_tree_single_layer():
    path = ((0, 1), (1, 2), (2, 3))
    g = MultiLayerGraph(n=4, layers=(path,))
    verdict, plan = decide_free_layer_choice(g, 1)
    assert verdict.winner is Winner.COP
    assert plan.counts == (1,)


def test_free_layer_choice_reductions():
    from mlcr.generators import gen_domset_reduction

    k3 = ((0, 1), (0, 2), (1, 2))
    g, _ = gen_domset_reduction(k3, 3)
    assert decide_free_layer_choice(g, 1)[0].winner is Winner.COP
    c5 = cycle(5)
    g, _ = gen_domset_reduction(c5, 5)
    assert decide_free_layer_choice(g, 1)[0].winner is Winner.ROBBER
    assert decide_free_layer_choice(g, 2)[0].winner is Winner.COP


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
        v1, _ = decide_choose_allocation(g, 1)
        if v1.winner is Winner.COP:
            v2, _ = decide_choose_allocation(g, 2)
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
        assert bool(table.is_copwin(p0, cops, t)) == w


def test_verdict_matches_naive_oracle():
    rng = random.Random(77)
    for _ in range(40):
        g = random_instance(rng, n_max=4)
        k = rng.randint(0, 2)
        counts = [0] * g.tau
        for _ in range(k):
            counts[rng.randrange(g.tau)] += 1
        plan = AllocationPlan(tuple(counts))
        assert decide_allocated(g, plan).winner.value == naive_allocated_verdict(g, plan)


def test_one_at_a_time_equals_simultaneous_moves():
    rng = random.Random(123)
    for _ in range(30):
        g = random_instance(rng, n_max=4)
        k = rng.randint(1, 2)
        counts = [0] * g.tau
        for _ in range(k):
            counts[rng.randrange(g.tau)] += 1
        plan = AllocationPlan(tuple(counts))
        assert decide_allocated(g, plan).winner.value == simultaneous_move_verdict(g, plan)


# -- rank and strategy extraction ------------------------------------------------------------


def _assert_rank_invariants(table):
    k = table.k
    for idx in range(table.n_states):
        p0, cops, t = table.unpack(idx)
        if p0 in cops:
            assert table.rank[idx] == 0
            continue
        succ = list(table.successors(idx))
        if table.rank[idx] >= 0:
            ranks = [int(table.rank[s]) for s in succ if table.rank[s] >= 0]
            if t < k:
                assert int(table.rank[idx]) == 1 + min(ranks)
            else:
                assert all(table.rank[s] >= 0 for s in succ)
                assert int(table.rank[idx]) == 1 + max(int(table.rank[s]) for s in succ)
        else:
            if t < k:
                assert not any(table.rank[s] >= 0 for s in succ)
            else:
                assert any(table.rank[s] < 0 for s in succ)


def test_rank_invariants_random_instances():
    rng = random.Random(5)
    for _ in range(20):
        g = random_instance(rng, n_max=4)
        k = rng.randint(1, 2)
        table = build_copwin(g, tuple(rng.randrange(g.tau) for _ in range(k)))
        _assert_rank_invariants(table)


def test_cop_policy_wins_within_rank_against_all_replies():
    g, _ = gen_grid(4)
    table = build_copwin(g, (1, 1))
    policies = extract_strategy(table)
    wins = table.winning_placements()
    assert wins.size
    placement = table.decode_placement(int(wins[0]))

    import sys

    sys.setrecursionlimit(100_000)
    memo: dict[int, bool] = {}

    def playout(state):
        # the rank strictly decreases along every policy/reply edge, so the
        # exhaustive reply tree is finite and capture happens within
        # rank(start) agent moves from anywhere
        p0, cops, t = table.unpack(state)
        if p0 in cops:
            return True
        if state in memo:
            return memo[state]
        rank = int(table.rank[state])
        if t < table.k:
            nxt = policies.cop_move(state)
            assert int(table.rank[nxt]) < rank
            out = playout(nxt)
        else:
            succs = list(table.successors(state))
            assert all(int(table.rank[s]) < rank for s in succs)
            out = all(playout(s) for s in succs)
        memo[state] = out
        return out

    for p0 in range(g.n):
        start = table.pack(p0, placement, 0)
        assert table.rank[start] >= 0
        assert playout(start)


def test_robber_policy_never_enters_a_copwin_state():
    g = single(cycle(4), 4)
    table = build_copwin(g, (0,))
    policies = extract_strategy(table)
    rng = random.Random(11)
    for trial in range(50):
        cop = rng.randrange(4)
        robber = table.safe_robber_vertex((cop,))
        assert robber is not None
        state = table.pack(robber, (cop,), 0)
        for _ in range(100):
            # random cop step
            succs = list(table.successors(state))
            state = rng.choice(succs)
            p0, cops, t = table.unpack(state)
            if p0 in cops:
                raise AssertionError("robber policy was captured")
            state = policies.robber_move(state)
            assert table.rank[state] < 0


def test_robber_policy_survives_random_cop_teams():
    from mlcr.sim import RandomCops, TablebaseRobber, run_match

    rng = random.Random(88)
    matches = 0
    while matches < 50:
        g = random_instance(rng, n_max=5)
        k = rng.randint(1, 2)
        counts = [0] * g.tau
        for _ in range(k):
            counts[rng.randrange(g.tau)] += 1
        plan = AllocationPlan(tuple(counts))
        verdict = decide_allocated(g, plan)
        if verdict.winner is not Winner.ROBBER or plan.total == 0:
            continue
        table = build_copwin(g, plan.assignment())
        rec = run_match(g, plan, RandomCops(), TablebaseRobber(table), T=100, seed=matches)
        assert rec.outcome == "SURVIVED", (g.layers, plan)
        matches += 1


def test_cwt_dump_shape():
    g = single([(0, 1)], 2)
    table = build_copwin(g, (0,))
    text = dump_cwt(table)
    lines = text.splitlines()
    assert lines[0] == f"CWT1 2 1 {table.n_states}"
    assert len(lines) == table.n_states + 1


def test_mirror_split_pair_catches_within_one_team_move():
    g, _ = gen_min_counterexample()
    verdict = decide_allocated(g, AllocationPlan((1, 1)))
    assert verdict.winner is Winner.COP
    # both cops camped on the shared hub threaten everything at once
    hub = 9
    table = build_copwin(g, (0, 1))
    for p0 in range(g.n):
        state = table.pack(p0, (hub, hub), 0)
        assert table.rank[state] >= 0
        assert table.rank[state] <= 2  # at most one move by one of the cops


def test_verdict_witnesses_check_out_against_the_table():
    rng = random.Random(2027)
    for _ in range(30):
        g = random_instance(rng, n_max=5)
        k = rng.randint(1, 2)
        counts = [0] * g.tau
        for _ in range(k):
            counts[rng.randrange(g.tau)] += 1
        plan = AllocationPlan(tuple(counts))
        verdict = decide_allocated(g, plan)
        table = build_copwin(g, plan.assignment())
        if verdict.winner is Winner.COP:
            assert all(table.is_copwin(p0, verdict.placement, 0) for p0 in range(g.n))
        else:
            first = table.decode_placement(0)
            assert verdict.safe_vertex is not None
            assert not table.is_copwin(verdict.safe_vertex, first, 0)


def test_cop_policy_undefined_on_capture_states():
    g = single([(0, 1)], 2)
    table = build_copwin(g, (0,))
    capture = table.pack(1, (1,), 0)
    assert list(table.successors(capture)) == []
    with pytest.raises(Exception):
        table.best_cop_move(capture)
