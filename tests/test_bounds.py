import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mlcr.bounds import (
    EnumerationBudgetExceeded,
    TreeDecomposition,
    clique_lb_check,
    domination_bound,
    domset_exact,
    domset_greedy,
    mec_check,
    pstar,
    pstar_residual,
    td_validate,
    treewidth_cop_bound,
    treewidth_exact_small,
)
from mlcr.core import MlgError, MultiLayerGraph, RobberSpec, ml_min_degree
from mlcr.generators import gen_cycle_matchings, gen_domset_reduction, gen_gnp, gen_soifer, petersen
from reference_oracles import brute_treewidth


def single(edges, n, spec=RobberSpec.UNION):
    return MultiLayerGraph(n=n, layers=(tuple(edges),), robber_spec=spec)


def cycle(n):
    return tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


K3 = ((0, 1), (0, 2), (1, 2))


# -- existential closure -----------------------------------------------------------------


def test_mec_complete_layer_fails():
    assert not mec_check(single(K3, 3), 1)


def test_mec_c5_single_cop():
    assert mec_check(single(cycle(5), 5), 1)


def test_mec_soifer():
    g, _ = gen_soifer(24, 10)
    assert mec_check(g, 1)


def test_mec_without_cops_holds_on_one_vertex():
    # no cop ever threatens the robber's only vertex
    assert mec_check(single((), 1), 0)
    assert mec_check(single((), 1, RobberSpec.COMPLETE), 0)


def test_mec_budget_guard():
    g = single(cycle(5), 5)
    big = MultiLayerGraph(n=200, layers=(tuple(cycle(200)),))
    with pytest.raises(EnumerationBudgetExceeded):
        mec_check(big, 5)
    assert mec_check(g, 1)  # guard does not fire for small cases


def _mec_reference(g, k):
    """The per-vertex enumeration `mec_check` replaced: for every k-subset of
    (vertex, layer) pairs, each vertex outside the subset needs a robber
    neighbour outside it that no chosen pair threatens."""

    n = g.n
    if k == 0:
        return n >= 1
    pairs = [(v, i) for i in range(g.tau) for v in range(n)]
    layer_adj = [g.layer_view(i) for i in range(g.tau)]
    robber_complete = g.robber_is_complete()
    robber_adj = None if robber_complete else g.layer_view(None)
    full = (1 << n) - 1
    for chosen in itertools.combinations(pairs, k):
        occupied = 0
        threat = 0
        for v, i in chosen:
            occupied |= 1 << v
            threat |= sum(1 << w for w in layer_adj[i][v])
        if occupied == full:
            return False
        bad = occupied | threat
        outside = full & ~occupied
        for v in range(n):
            vbit = 1 << v
            if not outside & vbit:
                continue
            if robber_complete:
                candidates = outside & ~vbit & ~bad
            else:
                candidates = sum(1 << w for w in robber_adj[v]) & outside & ~bad
            if not candidates:
                return False
    return True


def test_mec_check_equals_per_vertex_reference():
    from mlcr.verify import random_instance

    rng = random.Random(20261018)
    seen = {spec: [0, 0] for spec in RobberSpec}  # spec -> [holds, fails]
    for _ in range(1900):
        g = random_instance(rng, n_max=8, tau_max=3)
        for k in range(4):
            expected = _mec_reference(g, k)
            assert mec_check(g, k) == expected, (g, k)
            seen[g.robber_spec][not expected] += 1
    assert sum(map(sum, seen.values())) >= 7500
    assert all(holds and fails for holds, fails in seen.values()), seen


# -- clique lower bound ------------------------------------------------------------------


def test_clique_lb_soifer_certificate():
    g, _ = gen_soifer(24, 10)
    assert clique_lb_check(g, 1)


def test_clique_lb_star_center_fails():
    star = ((0, 1), (0, 2), (0, 3), (0, 4))
    g = single(star, 5, RobberSpec.COMPLETE)
    assert not clique_lb_check(g, 1)


def test_clique_lb_too_many_cops():
    g = single(K3, 3, RobberSpec.COMPLETE)
    assert not clique_lb_check(g, 3)
    assert not clique_lb_check(g, 5)


def test_clique_lb_requires_complete_robber():
    with pytest.raises(MlgError):
        clique_lb_check(single(K3, 3, RobberSpec.UNION), 1)


def test_clique_lb_without_cops_or_over_the_enumeration_budget(monkeypatch):
    import mlcr.bounds

    # zero cops: any second vertex is a safe reply
    assert clique_lb_check(single((), 2, RobberSpec.COMPLETE), 0)
    assert not clique_lb_check(single((), 1, RobberSpec.COMPLETE), 0)
    # C5 is certified by enumeration (below); over the budget it is not claimed
    monkeypatch.setattr(mlcr.bounds, "MEC_ENUMERATION_BUDGET", 0)
    assert not clique_lb_check(single(cycle(5), 5, RobberSpec.COMPLETE), 1)


def test_clique_lb_degree_certificate_holds_exactly_past_its_bound(monkeypatch):
    """With the enumeration over budget only the degree certificate can answer
    True, and it does exactly when 1 + k + k * (max layer degree + 1) < n."""

    import mlcr.bounds

    monkeypatch.setattr(mlcr.bounds, "MEC_ENUMERATION_BUDGET", 0)
    matching = lambda n: tuple((v, v + 1) for v in range(0, n - 1, 2))
    for max_deg, layer in ((0, lambda n: ()), (1, matching), (2, cycle)):
        for k in (1, 2, 3):
            bound = 1 + k + k * (max_deg + 1)
            for n in range(3, bound + 3):
                g = single(layer(n), n, RobberSpec.COMPLETE)
                assert clique_lb_check(g, k) == (n > bound), (max_deg, k, n)


# -- dominating sets --------------------------------------------------------------------


def test_domset_star():
    star = ((0, 1), (0, 2), (0, 3), (0, 4))
    g = single(star, 5)
    exact = domset_exact(g)
    assert len(exact) == 1 and (0, 0) in exact.pairs
    greedy = domset_greedy(g)
    assert greedy.pairs == {(0, 0)} or len(greedy) == 1


def test_domset_cycle_matchings():
    g, _ = gen_cycle_matchings(3)
    assert len(domset_exact(g)) == 3


def test_domset_reduction_of_k3():
    g, _ = gen_domset_reduction(K3, 3)
    assert len(domset_exact(g)) == 1


def test_domset_exact_guard():
    g = MultiLayerGraph(n=30, layers=(cycle(30), cycle(30)))
    with pytest.raises(EnumerationBudgetExceeded):
        domset_exact(g)


def test_domset_validity_random():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 8)
        tau = rng.randint(1, 2)
        layers = tuple(
            tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5)
            for _ in range(tau)
        )
        g = MultiLayerGraph(n=n, layers=layers)
        exact = domset_exact(g)
        greedy = domset_greedy(g)
        assert exact.is_valid(g) and greedy.is_valid(g)
        assert len(exact) <= len(greedy)


def test_domset_greedy_deterministic_and_valid():
    g, _ = gen_soifer(12, 2)
    a = domset_greedy(g)
    b = domset_greedy(g)
    assert a.pairs == b.pairs
    assert a.is_valid(g)


def test_domset_greedy_valid_on_star():
    star = tuple((0, i) for i in range(1, 9))
    g = single(star, 9)
    assert domset_greedy(g).is_valid(g)


def test_domset_greedy_within_domination_bound():
    g, _ = gen_soifer(16, 3)
    delta = ml_min_degree(g)
    assert len(domset_greedy(g)) <= domination_bound(g.n, g.tau, delta)


# -- splitting probability ----------------------------------------------------------------


def test_pstar_examples():
    assert pstar(0.0, 5) == 0.0
    assert pstar(0.7, 1) == pytest.approx(0.7, abs=1e-15)
    assert pstar(0.5, 2) == pytest.approx(2 * (1 - math.sqrt(0.5)), abs=1e-12)
    assert pstar(1.0, 4) == 4.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=12),
)
def test_pstar_defining_equation_and_sandwich(p, tau):
    assert pstar_residual(p, tau) < 1e-12
    ps = pstar(p, tau)
    if p <= 0.5:
        assert ps / 2 - 1e-12 <= p <= ps + 1e-12


# -- tree decompositions -----------------------------------------------------------------


def test_treewidth_families():
    assert treewidth_exact_small(((0, 1), (1, 2), (2, 3)), 4)[0] == 1
    assert treewidth_exact_small(cycle(4), 4)[0] == 2
    k4 = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
    assert treewidth_exact_small(k4, 4)[0] == 3
    assert treewidth_exact_small(petersen(), 10)[0] == 4


def test_treewidth_matches_bruteforce():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randint(2, 7)
        edges = gen_gnp(n, rng.choice([0.25, 0.5, 0.75]), trial)
        w, decomp = treewidth_exact_small(edges, n)
        assert w == brute_treewidth(edges, n)
        assert td_validate(decomp, edges, n)
        assert decomp.width == w


def test_treewidth_guard():
    with pytest.raises(EnumerationBudgetExceeded):
        treewidth_exact_small(cycle(13), 13)


def test_td_validate_rejects_bad_decompositions():
    edges = ((0, 1), (1, 2))
    good = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))
    assert td_validate(good, edges, 3)
    missing_edge = TreeDecomposition((frozenset({0, 1}), frozenset({2})), ((0, 1),))
    assert not td_validate(missing_edge, edges, 3)
    missing_vertex = TreeDecomposition((frozenset({0, 1}),), ())
    assert not td_validate(missing_vertex, edges, 3)
    assert not td_validate(TreeDecomposition((), ()), edges, 3)
    broken_subtree = TreeDecomposition(
        (frozenset({0, 1}), frozenset({2, 1}), frozenset({0, 2})),
        ((0, 1), (1, 2)),
    )
    assert not td_validate(broken_subtree, edges, 3)


def _td_validate_reference(decomp, edges, n):
    """`td_validate` as it was before it used the `core` traversal helpers."""

    bags = decomp.bags
    if not bags:
        return False
    union = set()
    for b in bags:
        union |= b
    if union != set(range(n)):
        return False
    for u, v in edges:
        if not any(u in b and v in b for b in bags):
            return False
    nb = len(bags)
    if len(decomp.tree) != nb - 1:
        return False
    tadj = [[] for _ in range(nb)]
    for a, b in decomp.tree:
        if not (0 <= a < nb and 0 <= b < nb):
            return False
        tadj[a].append(b)
        tadj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in tadj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != nb:
        return False
    for v in range(n):
        holder = [i for i in range(nb) if v in bags[i]]
        if not holder:
            return False
        hs = set(holder)
        comp = {holder[0]}
        stack = [holder[0]]
        while stack:
            x = stack.pop()
            for y in tadj[x]:
                if y in hs and y not in comp:
                    comp.add(y)
                    stack.append(y)
        if comp != hs:
            return False
    return True


def _random_decomposition(rng):
    """A valid decomposition: a random tree on the bags, each vertex held by a
    random connected set of bags, and edges only inside bags."""

    nb = rng.randint(1, 7)
    tree = [(rng.randrange(i), i) for i in range(1, nb)]
    tadj = [[] for _ in range(nb)]
    for a, b in tree:
        tadj[a].append(b)
        tadj[b].append(a)
    n = rng.randint(1, 8)
    bags = [set() for _ in range(nb)]
    for v in range(n):
        held = [rng.randrange(nb)]
        for _ in range(rng.randint(0, nb - 1)):
            grow = [y for x in held for y in tadj[x] if y not in held]
            if grow:
                held.append(rng.choice(grow))
        for i in held:
            bags[i].add(v)
    edges = sorted({e for bag in bags for e in itertools.combinations(sorted(bag), 2) if rng.random() < 0.5})
    return bags, tree, edges, n


def _broken_variants(rng, bags, tree, edges, n):
    """(kind, bags, tree, edges, n) for the decomposition and its breakages."""

    nb = len(bags)
    out = [("valid", bags, tree, edges, n), ("uncovered-vertex", bags, tree, edges, n + 1)]
    apart = [(u, v) for u, v in itertools.combinations(range(n), 2) if not any(u in b and v in b for b in bags)]
    if apart:
        out.append(("uncovered-edge", bags, tree, sorted(edges + [rng.choice(apart)]), n))
    out.append(("extra-tree-edge", bags, tree + [(rng.randrange(nb), rng.randrange(nb))], edges, n))
    if tree:
        drop = rng.randrange(len(tree))
        out.append(("missing-tree-edge", bags, tree[:drop] + tree[drop + 1:], edges, n))
        out.append(("rewired-tree-edge", bags, tree[:drop] + [(rng.randrange(nb), rng.randrange(nb))]
                    + tree[drop + 1:], edges, n))
        out.append(("out-of-range-index", bags, tree[:drop] + [(tree[drop][0], rng.choice([nb, nb + 3, -1]))]
                    + tree[drop + 1:], edges, n))
    if n:
        v = rng.randrange(n)
        spare = [i for i in range(nb) if v not in bags[i]]
        if spare:
            i = rng.choice(spare)
            extended = [bag | {v} if j == i else bag for j, bag in enumerate(bags)]
            out.append(("split-holder-set", extended, tree, edges, n))
    return out


def test_td_validate_matches_reference_on_valid_and_broken_decompositions():
    rng = random.Random(2024)
    verdicts = {}
    for _ in range(500):
        for kind, bags, tree, edges, n in _broken_variants(rng, *_random_decomposition(rng)):
            decomp = TreeDecomposition(tuple(frozenset(b) for b in bags), tuple(tree))
            verdict = td_validate(decomp, edges, n)
            assert verdict == _td_validate_reference(decomp, edges, n), (kind, decomp, edges, n)
            verdicts.setdefault(kind, set()).add(verdict)
    assert verdicts["valid"] == {True}
    for kind in ("uncovered-vertex", "uncovered-edge", "extra-tree-edge", "missing-tree-edge",
                 "out-of-range-index"):
        assert verdicts[kind] == {False}, kind
    # rewiring or extending a holder set breaks the decomposition only sometimes
    assert verdicts["rewired-tree-edge"] == verdicts["split-holder-set"] == {True, False}


def test_treewidth_cop_bound():
    path = ((0, 1), (1, 2), (2, 3))
    g = single(path, 4)
    w, decomp = treewidth_exact_small(path, 4)
    assert treewidth_cop_bound(g, decomp) == w + 1 == 2
    disconnected = MultiLayerGraph(n=4, layers=(path, ((0, 1),)))
    with pytest.raises(MlgError, match="layer 2 is disconnected; bag sweep needs connected layers"):
        treewidth_cop_bound(disconnected, decomp)
    one_bag_short = TreeDecomposition(decomp.bags[:-1], ())
    with pytest.raises(MlgError, match="tree decomposition does not validate against the flattened graph"):
        treewidth_cop_bound(g, one_bag_short)


def test_treewidth_cop_bound_c4():
    g = single(cycle(4), 4)
    w, decomp = treewidth_exact_small(cycle(4), 4)
    assert treewidth_cop_bound(g, decomp) == 3


def test_clique_lb_true_via_exact_enumeration():
    # C5: the degree certificate is not strict (1+1+(2+1) = 5), but every
    # single-cop neighbourhood union still misses a vertex
    g = single(cycle(5), 5, RobberSpec.COMPLETE)
    assert clique_lb_check(g, 1)


def test_greedy_within_bound_on_dense_random_layered_graphs():
    from mlcr.generators import gen_random_layers

    for seed in range(5):
        g, _ = gen_random_layers(128, 0.3, 2, seed)
        delta = ml_min_degree(g)
        assert delta >= g.tau * (math.e - 1)
        assert len(domset_greedy(g)) <= domination_bound(g.n, g.tau, delta)


def _closed_neighbourhood_condition(g, k):
    """The clique-bound condition from its definition: no k (vertex, layer)
    pairs occupy every vertex, and none leave a vertex outside whose closed
    neighbourhood union misses only that vertex."""

    closed = [[set(g.layer_view(i)[v]) | {v} for v in range(g.n)] for i in range(g.tau)]
    everything = set(range(g.n))
    for chosen in itertools.combinations([(v, i) for i in range(g.tau) for v in range(g.n)], k):
        occupied = {v for v, _ in chosen}
        covered = set().union(*(closed[i][v] for v, i in chosen))
        if occupied == everything or any(covered | {v} == everything for v in everything - occupied):
            return False
    return True


def test_clique_lb_equals_mec_check_without_degree_certificate():
    rng = random.Random(20240608)
    compared = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        tau = rng.randint(1, 2)
        p = rng.choice([0.15, 0.3, 0.5, 0.8])
        layers = tuple(
            tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
            for _ in range(tau)
        )
        g = MultiLayerGraph(n=n, layers=layers, robber_spec=RobberSpec.COMPLETE)
        max_deg = max(len(row) for i in range(tau) for row in g.layer_view(i))
        for k in range(1, n):
            if 1 + k + k * (max_deg + 1) < n:
                continue  # the degree certificate answers before any enumeration
            expected = _closed_neighbourhood_condition(g, k)
            assert clique_lb_check(g, k) == mec_check(g, k) == expected, (layers, k)
            compared += 1
    assert compared > 500


def test_mec_budget_is_checked_before_allocating():
    import tracemalloc

    g = MultiLayerGraph(n=2 * 10**6, layers=((),))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetExceeded):
            mec_check(g, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def _rescan_greedy(g):
    """The greedy cover by full rescans: every pick scores every pair."""

    masks = [
        [sum(1 << w for w in g.layer_view(i)[v]) | (1 << v) for v in range(g.n)]
        for i in range(g.tau)
    ]
    full, covered, chosen = (1 << g.n) - 1, 0, set()
    while covered != full:
        best_pair, best_gain = None, -1
        for v in range(g.n):
            for i in range(g.tau):
                gain = bin(masks[i][v] & ~covered).count("1")
                if gain > best_gain:
                    best_gain, best_pair = gain, (v, i)
        chosen.add(best_pair)
        covered |= masks[best_pair[1]][best_pair[0]]
    return frozenset(chosen)


def test_lazy_greedy_picks_the_rescan_greedy_pairs():
    rng = random.Random(1500)
    for _ in range(400):
        n = rng.randint(1, 14)
        tau = rng.randint(1, 3)
        p = rng.random()
        layers = tuple(
            tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
            for _ in range(tau)
        )
        g = MultiLayerGraph(n=n, layers=layers)
        assert domset_greedy(g).pairs == _rescan_greedy(g), layers


def test_bounds_on_large_edgeless_graph_falls_back_to_greedy_quickly(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "edgeless.mlg"
    path.write_text("MLG1 5000 1 UNION\nLAYER 1 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mlcr.cli", "bounds", str(path)], capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert "UB_domset=5000 (greedy)" in proc.stdout.decode().splitlines()
