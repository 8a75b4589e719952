import math
import random

import pytest

from mlcr.core import MlgError, MultiLayerGraph, RobberSpec
from mlcr.solver import Winner, decide_choose_allocation
from mlcr.treealgo import decide_tree_robber, find_robbers_edge, is_tree, winning_profile


def explicit(n, layers, robber):
    return MultiLayerGraph(
        n=n, layers=tuple(tuple(l) for l in layers), robber_spec=RobberSpec.EXPLICIT,
        robber_edges=tuple(robber),
    )


def random_tree(rng, n):
    return tuple(sorted((rng.randrange(v), v) for v in range(1, n)))


def test_is_tree():
    assert is_tree(((0, 1), (1, 2)), 3)
    assert not is_tree(((0, 1), (1, 2), (0, 2)), 3)
    assert not is_tree(((0, 1), (2, 3)), 4)
    assert is_tree((), 1)


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


def test_decide_examples():
    # connected cop layer, two cops: always a cop win on a tree robber layer
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(3, 7)
        g = explicit(n, [random_tree(rng, n)], random_tree(rng, n))
        verdict, plan = decide_tree_robber(g, 2)
        assert verdict.winner is Winner.COP
    # one cop against a far tree edge: robber win
    g = explicit(4, [((0, 1), (1, 2), (2, 3))], ((0, 3), (0, 1), (1, 2)))
    verdict, plan = decide_tree_robber(g, 1)
    assert verdict.winner is Winner.ROBBER and plan is None


def test_profile_quantification_over_disconnected_layers():
    # one cop per fragment looks fine edge by edge, but no component choice
    # covers the whole path, so the robber camps on an unpoliced vertex
    path6 = tuple((i, i + 1) for i in range(5))
    g = explicit(6, [((0, 1), (4, 5)), ((2, 3),)], path6)
    verdict, _ = decide_tree_robber(g, 2)
    reference, _ = decide_choose_allocation(g, 2)
    assert verdict.winner is reference.winner is Winner.ROBBER


def test_empty_layer_placement_still_counts():
    # cops on an edgeless layer are immobile but occupy their vertices
    g = explicit(2, [()], ((0, 1),))
    assert decide_tree_robber(g, 1)[0].winner is Winner.ROBBER
    assert decide_tree_robber(g, 2)[0].winner is Winner.COP


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
        g = explicit(n, layers, random_tree(rng, n))
        k = rng.randint(1, 2)
        fast, _ = decide_tree_robber(g, k)
        slow, _ = decide_choose_allocation(g, k)
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
        g = explicit(n, layers, random_tree(rng, n))
        fast, _ = decide_tree_robber(g, k)
        slow, _ = decide_choose_allocation(g, k)
        assert fast.winner is slow.winner, (trial, n, tau, k)


def test_decide_tree_robber_checks_the_tree_once(monkeypatch):
    import mlcr.treealgo

    calls = []
    real = mlcr.treealgo.is_tree

    def counted(edges, n):
        calls.append(n)
        return real(edges, n)

    monkeypatch.setattr(mlcr.treealgo, "is_tree", counted)
    path = [(0, 1), (1, 2), (2, 3)]
    # three cops on the edgeless layer leave a vertex unpoliced; (2,1) is the second composition
    verdict, plan = decide_tree_robber(explicit(4, [(), path], path), 3)
    assert (verdict.winner, plan.counts, len(calls)) == (Winner.COP, (2, 1), 1)
    # every composition loses on two edgeless layers
    verdict, plan = decide_tree_robber(explicit(4, [(), ()], path), 2)
    assert (verdict.winner, plan, len(calls)) == (Winner.ROBBER, None, 2)


def test_negative_cop_count_is_refused():
    path = [(0, 1), (1, 2)]
    with pytest.raises(MlgError, match="non-negative"):
        decide_tree_robber(explicit(3, [path], path), -1)
