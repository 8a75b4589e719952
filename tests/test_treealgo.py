import math
import random

import pytest

from mlcr import treealgo
from mlcr.core import MlgError, MultiLayerGraph, RobberSpec, Winner, allocation_plans, first_winning_plans
from mlcr.treealgo import RobbersEdgeCertificate, find_robbers_edge, robber_tree_edges, tree_verdicts, winning_profile
from mlcr.verify import random_tree_edges
from reference_oracles import product_robbers_edge


def explicit(n, layers, robber):
    return MultiLayerGraph(
        n=n, layers=tuple(tuple(l) for l in layers), robber_spec=RobberSpec.EXPLICIT,
        robber_edges=tuple(robber),
    )


def k_cops(g, k, decide=tree_verdicts):
    """Whether k cops win on `g`, asked as `solve --cops` asks (by default
    on the tree path): the answer plan and the last verdict."""

    ((plan, verdict),) = first_winning_plans([([g], allocation_plans(k, g.tau))], decide)
    return plan, verdict


def solver_k_cops(g, k):
    """`k_cops` from the exact solver's full tables."""

    from mlcr.solver import allocated_verdicts

    return k_cops(g, k, allocated_verdicts)


def test_robber_tree_edges():
    assert robber_tree_edges(explicit(3, [()], [(0, 1), (1, 2)])) == ((0, 1), (1, 2))
    assert robber_tree_edges(explicit(3, [()], [(0, 1), (1, 2), (0, 2)])) is None
    assert robber_tree_edges(explicit(4, [()], [(0, 1), (2, 3)])) is None
    assert robber_tree_edges(explicit(4, [()], [(0, 1), (0, 2), (1, 2)])) is None  # n-1 edges, two components
    assert robber_tree_edges(explicit(1, [()], [])) == ()


def test_certificate_distance_three():
    # cop layer is the path 0-1-2-3; the tree edge 0-3 spans its ends
    g = explicit(4, [((0, 1), (1, 2), (2, 3))], ((0, 3), (0, 1), (1, 2)))
    cert = find_robbers_edge(g, (0,))
    assert cert is not None
    assert cert.edge == (0, 3)
    assert len(cert.reaching_cops) == 1
    assert cert.blocking_distance == 3
    assert cert.render() == "ROBBERS_EDGE 0 3 ncops=1 dist=3"


def test_no_certificate_on_own_tree():
    p4 = ((0, 1), (1, 2), (2, 3))
    g = explicit(4, [p4], p4)
    assert find_robbers_edge(g, (0,)) == (frozenset(range(4)),)


def test_no_certificate_within_two_cop_steps():
    # the tree edge 0-2 is two steps apart in the cop's path 0-1-2: covered
    g = explicit(3, [((0, 1), (1, 2))], ((0, 2), (1, 2)))
    assert find_robbers_edge(g, (0,)) == (frozenset(range(3)),)


def test_certificate_with_no_reaching_cop():
    p4 = ((0, 1), (1, 2), (2, 3))
    g = explicit(4, [((2, 3),)], p4)
    cert = find_robbers_edge(g, (0,))
    assert cert is not None
    assert cert.reaching_cops == ()
    assert cert.blocking_distance == math.inf
    assert "ncops=0 dist=inf" in cert.render()


def test_find_robbers_edge_requires_tree():
    g = explicit(3, [((0, 1),)], ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(MlgError, match="not a tree"):
        find_robbers_edge(g, (0,))


def test_an_unpoliced_vertex_without_a_tree_edge_has_no_certificate():
    # one vertex and no cop: the robber camps, but no tree edge can witness
    # it, so an assignment without a cop is refused before any profile
    with pytest.raises(MlgError, match="find_robbers_edge needs at least one cop"):
        find_robbers_edge(explicit(1, [()], []), ())


def test_decide_examples():
    # connected cop layer, two cops: always a cop win on a tree robber layer
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(3, 7)
        g = explicit(n, [random_tree_edges(rng, n)], random_tree_edges(rng, n))
        plan, verdict = k_cops(g, 2)
        assert verdict.winner is Winner.COP
    # one cop against a far tree edge: robber win
    g = explicit(4, [((0, 1), (1, 2), (2, 3))], ((0, 3), (0, 1), (1, 2)))
    plan, verdict = k_cops(g, 1)
    assert verdict.winner is Winner.ROBBER and plan is None


def test_profile_quantification_over_disconnected_layers():
    # one cop per fragment looks fine edge by edge, but no component choice
    # covers the whole path, so the robber camps on an unpoliced vertex
    path6 = tuple((i, i + 1) for i in range(5))
    g = explicit(6, [((0, 1), (4, 5)), ((2, 3),)], path6)
    _, verdict = k_cops(g, 2)
    _, reference = solver_k_cops(g, 2)
    assert verdict.winner is reference.winner is Winner.ROBBER


def test_empty_layer_placement_still_counts():
    # cops on an edgeless layer are immobile but occupy their vertices
    g = explicit(2, [()], ((0, 1),))
    assert k_cops(g, 1)[1].winner is Winner.ROBBER
    assert k_cops(g, 2)[1].winner is Winner.COP


def test_equivalence_with_solver_on_random_corpus():
    rng = random.Random(424242)
    for trial in range(300):
        n = rng.randint(2, 8)
        tau = rng.randint(1, 2)
        layers = tuple(
            tuple(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice([0.15, 0.3, 0.5, 0.8])
            )
            for _ in range(tau)
        )
        g = explicit(n, layers, random_tree_edges(rng, n))
        k = rng.randint(1, 2)
        _, fast = k_cops(g, k)
        _, slow = solver_k_cops(g, k)
        assert fast.winner is slow.winner, (trial, n, tau, k)


def test_winning_profile_is_clean():
    p4 = ((0, 1), (1, 2), (2, 3))
    g = explicit(4, [p4], p4)
    profile = winning_profile(g, (0,))
    assert profile is not None
    assert set().union(*profile) == set(range(4))


def test_equivalence_extends_to_three_layers_and_three_cops():
    rng = random.Random(31337)
    for trial in range(60):
        n = rng.randint(2, 6)
        tau = rng.choice([2, 3])
        k = rng.choice([1, 2, 3])
        layers = tuple(
            tuple(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice([0.2, 0.45])
            )
            for _ in range(tau)
        )
        g = explicit(n, layers, random_tree_edges(rng, n))
        _, fast = k_cops(g, k)
        _, slow = solver_k_cops(g, k)
        assert fast.winner is slow.winner, (trial, n, tau, k)


def test_sorted_layer_groups_give_the_product_order_answer():
    """Same-layer cops choose non-decreasing components, yet the clean
    profile found and the robber's certificate are those of the full
    product order, with repeated and non-contiguous layers and isolated
    vertices in the cop layers."""

    rng = random.Random(8080)
    seen = {"clean": 0, "dirty": 0, "non-contiguous": 0, "four cops": 0}
    for trial in range(400):
        n = rng.randint(2, 8)
        tau = rng.randint(1, 3)
        layers = tuple(
            tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.choice([0.1, 0.25, 0.5]))
            for _ in range(tau)
        )
        g = explicit(n, layers, random_tree_edges(rng, n))
        assignment = tuple(rng.randrange(tau) for _ in range(rng.randint(1, 4)))
        found = find_robbers_edge(g, assignment)
        assert found == product_robbers_edge(g, assignment), (trial, n, layers, assignment)
        seen["dirty" if isinstance(found, RobbersEdgeCertificate) else "clean"] += 1
        groups = [layer for c, layer in enumerate(assignment) if c == 0 or assignment[c - 1] != layer]
        seen["non-contiguous"] += len(groups) > len(set(groups))
        seen["four cops"] += len(assignment) == 4
    assert min(seen.values()) >= 40, seen


def test_same_layer_cops_choose_each_multiset_of_components_once(monkeypatch):
    """Three cops on a layer of c = 5 isolated vertices leave a vertex
    unpoliced in every profile: C(c + 2, 3) profiles are tested, not c^3."""

    calls = []
    real = treealgo._profile_robbers_edge
    monkeypatch.setattr(treealgo, "_profile_robbers_edge", lambda *args: calls.append(1) or real(*args))
    g = explicit(5, [()], [(v, v + 1) for v in range(4)])
    assert isinstance(find_robbers_edge(g, (0, 0, 0)), RobbersEdgeCertificate)
    assert len(calls) == math.comb(5 + 2, 3) == 35


def test_tree_question_checks_the_tree_once(monkeypatch):
    """Every composition asks for the tree; the graph walks the robber
    components that answer it once, and caches the answer."""

    calls = []
    real = MultiLayerGraph.components

    def counted(self, layer):
        if layer is None:
            calls.append(self.n)
        return real(self, layer)

    monkeypatch.setattr(MultiLayerGraph, "components", counted)
    path = [(0, 1), (1, 2), (2, 3)]
    # three cops on the edgeless layer leave a vertex unpoliced; (2,1) is the second composition
    plan, verdict = k_cops(explicit(4, [(), path], path), 3)
    assert (verdict.winner, plan.counts, len(calls)) == (Winner.COP, (2, 1), 1)
    # every composition loses on two edgeless layers
    plan, verdict = k_cops(explicit(4, [(), ()], path), 2)
    assert (verdict.winner, plan, len(calls)) == (Winner.ROBBER, None, 2)


def test_negative_cop_count_is_refused():
    path = [(0, 1), (1, 2)]
    with pytest.raises(MlgError, match="non-negative"):
        k_cops(explicit(3, [path], path), -1)


def test_tree_decision_memory_stays_linear_in_n():
    """One cop on the robber's own path covers every tree edge; deciding it
    keeps no per-edge distance lists, so the peak stays below one more
    layer view's worth of memory."""

    import tracemalloc

    from mlcr.core import _LAYER_VIEW_BYTES

    n = 3000
    path = [(v, v + 1) for v in range(n - 1)]
    g = explicit(n, [path], path)
    robber_tree_edges(g), g.layer_view(0)
    tracemalloc.start()
    try:
        _, verdict = k_cops(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.winner is Winner.COP
    assert peak <= n * _LAYER_VIEW_BYTES
