import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mlcr.core import (
    AllocationPlan,
    MlgError,
    MlgParseError,
    MultiLayerGraph,
    RobberSpec,
    adjacency_lists,
    bfs_dist,
    bfs_dist_adj,
    component_sets,
    diameter,
    flatten,
    girth,
    min_degree,
    ml_min_degree,
    parse_mlg,
    serialize_mlg,
)
from mlcr.generators import gen_cycle_matchings, gen_grid, gen_soifer, petersen, grid_index
from reference_oracles import brute_girth


def k3():
    return ((0, 1), (0, 2), (1, 2))


# -- construction and validation ------------------------------------------------------


def test_layers_are_canonicalised():
    g = MultiLayerGraph(n=3, layers=(((2, 1), (0, 1)),))
    assert g.layers == (((0, 1), (1, 2)),)


def test_rejects_self_loop_and_duplicates_and_range():
    with pytest.raises(MlgError):
        MultiLayerGraph(n=3, layers=(((1, 1),),))
    with pytest.raises(MlgError):
        MultiLayerGraph(n=3, layers=(((0, 1), (1, 0)),))
    with pytest.raises(MlgError):
        MultiLayerGraph(n=3, layers=(((0, 3),),))


GRAPH_REFUSALS = {
    "no-vertex": (lambda: MultiLayerGraph(n=0, layers=((),)), "need at least one vertex, got n=0"),
    "no-cop-layer": (lambda: MultiLayerGraph(n=3, layers=()), "need at least one cop layer"),
    "explicit-without-robber-edges": (
        lambda: MultiLayerGraph(n=3, layers=(k3(),), robber_spec=RobberSpec.EXPLICIT),
        "EXPLICIT robber spec requires robber_edges",
    ),
    "robber-edges-without-explicit": (
        lambda: MultiLayerGraph(n=3, layers=(k3(),), robber_edges=((0, 1),)),
        "robber_edges given but robber spec is UNION",
    ),
    "complete-robber-over-the-limit": (
        lambda: MultiLayerGraph(n=2049, layers=((),), robber_spec=RobberSpec.COMPLETE).robber_layer_edges(),
        r"refusing to materialise complete robber layer for n=2049 \(limit 2048\)",
    ),
    "layer-out-of-range": (lambda: MultiLayerGraph(n=3, layers=(k3(),)).layer_view(1), r"layer index 1 out of range \(tau=1\)"),
}


@pytest.mark.parametrize("call, message", GRAPH_REFUSALS.values(), ids=GRAPH_REFUSALS.keys())
def test_graph_refuses_what_it_cannot_represent(call, message):
    with pytest.raises(MlgError, match=message):
        call()


def test_duplicate_edges_across_layers_are_fine():
    g = MultiLayerGraph(n=2, layers=(((0, 1),), ((0, 1),)))
    assert g.tau == 2
    assert flatten(g) == ((0, 1),)


def test_allocation_plan():
    plan = AllocationPlan((2, 0, 1))
    assert plan.total == 3
    assert plan.assignment() == (0, 0, 2)
    with pytest.raises(MlgError):
        AllocationPlan((-1, 2))


# -- robber layer resolution ------------------------------------------------------------


def test_union_resolution_equals_flatten():
    g = MultiLayerGraph(n=4, layers=(((0, 1),), ((1, 2), (0, 1))), robber_spec=RobberSpec.UNION)
    assert g.robber_layer_edges() == flatten(g)


def test_complete_resolution_contains_union():
    g = MultiLayerGraph(n=4, layers=(((0, 1), (2, 3)),), robber_spec=RobberSpec.COMPLETE)
    assert set(g.robber_layer_edges()) >= set(flatten(g))
    assert len(g.robber_layer_edges()) == 6


def test_complete_not_materialised_when_large():
    g = MultiLayerGraph(n=5000, layers=(((0, 1),),), robber_spec=RobberSpec.COMPLETE)
    with pytest.raises(MlgError):
        g.robber_layer_edges()


# -- move rows ----------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_move_rows_are_the_stay_plus_the_neighbours_ascending(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        layers = tuple(tuple(e for e in pairs if rng.random() < 0.4) for _ in range(rng.randint(1, 3)))
        spec = rng.choice(list(RobberSpec))
        robber = tuple(e for e in pairs if rng.random() < 0.5) if spec is RobberSpec.EXPLICIT else None
        g = MultiLayerGraph(n=n, layers=layers, robber_spec=spec, robber_edges=robber)
        for layer in (None, *range(g.tau)):
            adj = adjacency_lists(n, g.robber_layer_edges() if layer is None else g.layers[layer])
            rows = g.moves(layer)
            assert len(rows) == n
            for v in range(n):
                assert tuple(rows[v]) == tuple(sorted({v, *adj[v]}))
            assert g.moves(layer) is rows  # built once per graph


def test_complete_robber_rows_are_one_shared_range_without_listing_edges(monkeypatch):
    g = MultiLayerGraph(n=5000, layers=(((0, 1),),), robber_spec=RobberSpec.COMPLETE)

    def listed(self):
        raise AssertionError("the complete robber layer's edges were listed")

    monkeypatch.setattr(MultiLayerGraph, "robber_layer_edges", listed)
    rows = g.moves(None)
    assert len(rows) == 5000
    assert rows[0] == range(5000)
    assert all(row is rows[0] for row in rows)
    assert g.moves(0)[:3] == ((0, 1), (0, 1), (2,))


# -- flatten / components / degrees ------------------------------------------------------


def test_flatten_merges_duplicates():
    g = MultiLayerGraph(n=3, layers=(((0, 1),), ((1, 2),)))
    assert flatten(g) == ((0, 1), (1, 2))


def test_flatten_of_clique_partition_is_complete():
    g, _ = gen_soifer(8, 3)
    assert set(flatten(g)) == {(u, v) for u in range(8) for v in range(u + 1, 8)}


def test_components_single_edge():
    g = MultiLayerGraph(n=3, layers=(((0, 1),),))
    assert g.layer_view(0) == ((1,), (0,), ())
    assert g.components(0) == component_sets(g.layer_view(0)) == [{0, 1}, {2}]
    # no cache: each call walks the view again, and its caller owns the sets
    mine = g.components(0)
    mine[0].add(2)
    assert g.components(0) == [{0, 1}, {2}]


def test_components_cycle_matchings():
    g, _ = gen_cycle_matchings(3)
    assert len(g.components(0)) == 3


def test_components_connected_layer():
    g = MultiLayerGraph(n=3, layers=(k3(),))
    assert len(g.components(0)) == 1


def test_bfs_dist_path_and_unreachable():
    g = MultiLayerGraph(n=4, layers=(((0, 1), (1, 2)),))
    dist = bfs_dist(g, 0, 0)
    assert dist[:3] == [0, 1, 2]
    assert dist[3] == math.inf


def test_bfs_dist_grid_column():
    n = 5
    g, _ = gen_grid(n)
    dist = bfs_dist(g, 1, grid_index(1, 1, n))
    assert dist[grid_index(n, 1, n)] == n - 1


def test_bfs_dist_of_the_robber_layer_is_cached_per_graph():
    g = MultiLayerGraph(
        n=5, layers=(((0, 1),), ((2, 3),)), robber_spec=RobberSpec.EXPLICIT,
        robber_edges=((0, 1), (1, 2), (2, 3)),
    )
    dist = bfs_dist(g, None, 0)
    assert dist == bfs_dist_adj(g.layer_view(None), 0) == [0, 1, 2, 3, math.inf]
    assert bfs_dist(g, None, 0) is dist
    assert bfs_dist(g, 0, 0) == [0, 1, math.inf, math.inf, math.inf]


def test_bfs_dist_cache_holds_at_most_its_slot_budget(monkeypatch):
    import mlcr.core

    n = 6
    g = MultiLayerGraph(n=n, layers=(tuple((v, v + 1) for v in range(n - 1)),))
    monkeypatch.setattr(mlcr.core, "_DIST_CACHE_SLOTS", 2 * n)
    for s in range(n):
        assert bfs_dist(g, 0, s) == [abs(s - v) for v in range(n)]
    # the two newest lists stay; the oldest were dropped and are searched again
    assert list(g._cache["dist"]) == [(0, 4), (0, 5)]
    assert bfs_dist(g, 0, 5) is bfs_dist(g, 0, 5)
    assert bfs_dist(g, 0, 0) == list(range(n))
    assert list(g._cache["dist"]) == [(0, 5), (0, 0)]
    # a budget below one list still keeps the list just searched
    monkeypatch.setattr(mlcr.core, "_DIST_CACHE_SLOTS", 1)
    assert bfs_dist(g, None, 2) == [2, 1, 0, 1, 2, 3]
    assert list(g._cache["dist"]) == [(None, 2)]


def _random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12]
    return rng, n, edges


@pytest.mark.parametrize("seed", range(25))
def test_component_sets_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng, n, edges = _random_graph(seed)
    adj = adjacency_lists(n, edges)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    assert adj == [sorted(G[v]) for v in range(n)]
    blocked = set(rng.sample(range(n), rng.randint(0, n // 2)))
    for cut in ((), blocked):
        kept = G.subgraph(set(range(n)) - set(cut))
        want = sorted((set(c) for c in nx.connected_components(kept)), key=min)
        assert component_sets(adj, cut) == want


@pytest.mark.parametrize("seed", range(25))
def test_bfs_dist_adj_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng, n, edges = _random_graph(seed)
    adj = adjacency_lists(n, edges)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    sources = rng.sample(range(n), rng.randint(1, min(4, n)))
    within = set(sources) | set(rng.sample(range(n), rng.randint(0, n)))
    for allowed in (None, within):
        H = G if allowed is None else G.subgraph(allowed)
        lengths = nx.multi_source_dijkstra_path_length(H, sources)
        want = [lengths.get(v, math.inf) for v in range(n)]
        assert bfs_dist_adj(adj, *sources, within=allowed) == want


def _all_pairs_distances(n, edges):
    """Floyd-Warshall: the reference distances for `diameter`."""

    d = [[0 if u == v else math.inf for v in range(n)] for u in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for w in range(n):
        for u in range(n):
            for v in range(n):
                d[u][v] = min(d[u][v], d[u][w] + d[w][v])
    return d


def test_diameter_is_the_all_pairs_maximum_of_the_graph_and_of_each_component():
    connected = set()
    for seed in range(25):
        _, n, edges = _random_graph(seed)
        adj = adjacency_lists(n, edges)
        d = _all_pairs_distances(n, edges)
        comps = component_sets(adj)
        assert diameter(adj) == max(map(max, d)), seed
        assert (diameter(adj) == math.inf) is (len(comps) > 1), seed
        for comp in comps:  # each induces a connected subgraph; isolated vertices too
            assert diameter(adj, comp) == max(d[u][v] for u in comp for v in comp), (seed, comp)
        connected.add(len(comps) == 1 and n > 2)
    assert connected == {False, True}


def test_ml_min_degree_examples():
    assert ml_min_degree(MultiLayerGraph(n=3, layers=(k3(),))) == 2
    assert ml_min_degree(MultiLayerGraph(n=3, layers=(k3(), k3()))) == 4
    g = MultiLayerGraph(n=3, layers=(((0, 1),), ((1, 2),)))
    assert ml_min_degree(g) == 1


def test_min_degree_vs_ml_min_degree_on_random_graphs():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 8)
        tau = rng.randint(1, 3)
        layers = tuple(
            tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
            for _ in range(tau)
        )
        g = MultiLayerGraph(n=n, layers=layers)
        assert min_degree(flatten(g), n) <= ml_min_degree(g)


def test_girth_examples():
    assert girth(petersen(), 10) == 5
    assert min_degree(petersen(), 10) == 3
    assert girth(k3(), 3) == 3
    assert girth(((0, 1), (1, 2)), 3) == math.inf


def test_girth_matches_bruteforce_on_random_graphs():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(3, 9)
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35
        )
        assert girth(edges, n) == brute_girth(edges, n)


# -- MLG1 format --------------------------------------------------------------------------


def test_parse_smallest_graph():
    g = parse_mlg("MLG1 2 1 UNION\nLAYER 1 1\n0 1\n")
    assert g.n == 2
    assert g.layers == (((0, 1),),)
    assert g.robber_spec is RobberSpec.UNION
    assert parse_mlg("MLG1 02 01 UNION\nLAYER 001 1\n00 01\n") == g  # leading zeros read as the number


def test_grid_round_trip_byte_exact():
    g, _ = gen_grid(4)
    text = serialize_mlg(g)
    again = parse_mlg(text)
    assert again == MultiLayerGraph(n=g.n, layers=g.layers, robber_spec=g.robber_spec)
    assert serialize_mlg(again) == text


def test_parse_rejects_unknown_robber_spec():
    with pytest.raises(MlgParseError, match="unknown robber spec"):
        parse_mlg("MLG1 2 1 BANANA\nLAYER 1 0\n")


def test_parse_error_line_numbers():
    with pytest.raises(MlgParseError, match="line 3"):
        parse_mlg("MLG1 3 1 UNION\nLAYER 1 2\n0 0\n1 2\n")
    with pytest.raises(MlgParseError, match="line 3"):
        parse_mlg("MLG1 3 1 UNION\nLAYER 1 2\n0 9\n1 2\n")
    with pytest.raises(MlgParseError, match="duplicate"):
        parse_mlg("MLG1 3 1 UNION\nLAYER 1 2\n0 1\n0 1\n")
    with pytest.raises(MlgParseError, match="malformed header"):
        parse_mlg("MLG 3 1 UNION\n")


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        # header
        ("", 1, "empty input"),
        ("# only a comment\n\n", 1, "empty input"),
        ("\n# c\nMLG2 2 1 UNION\nLAYER 1 0\n", 3, "malformed header"),
        ("MLG1 2 1\nLAYER 1 0\n", 1, "malformed header"),
        ("MLG1 2 1 UNION extra\nLAYER 1 0\n", 1, "malformed header"),
        ("MLG1 two 1 UNION\nLAYER 1 0\n", 1, "malformed header"),
        ("MLG1 2 1.5 UNION\nLAYER 1 0\n", 1, "malformed header"),
        ("MLG1 2 x UNION\n", 1, "malformed header"),
        ("MLG1 1_3 1 UNION\nLAYER 1 0\n", 1, "malformed header"),
        ("MLG1 \u0663 1 UNION\nLAYER 1 0\n", 1, "malformed header"),
        ("MLG1 2 1 union\nLAYER 1 0\n", 1, "unknown robber spec"),
        ("MLG1 0 1 UNION\nLAYER 1 0\n", 1, "vertex count must be positive"),
        ("MLG1 -3 1 UNION\nLAYER 1 0\n", 1, "vertex count must be positive"),
        ("MLG1 2 0 UNION\n", 1, "layer count must be positive"),
        # layer counts
        ("MLG1 2 1 UNION\n", 1, "unexpected end of input"),
        ("MLG1 2 2 UNION\nLAYER 1 0\n", 2, "unexpected end of input"),
        ("MLG1 2 1 UNION\nLAYER 1\n", 2, "expected 'LAYER 1 <m>'"),
        ("MLG1 2 1 UNION\nLAYER 1 x\n", 2, "expected 'LAYER 1 <m>'"),
        ("MLG1 2 1 UNION\nLAYERS 1 0\n", 2, "expected 'LAYER 1 <m>'"),
        ("MLG1 2 1 UNION\nLAYER x 0\n", 2, "expected 'LAYER 1 <m>'"),
        ("MLG1 2 1 UNION\nLAYER 1 0 7\n", 2, "expected 'LAYER 1 <m>'"),
        ("MLG1 2 1 UNION\nLAYER +1 1\n0 1\n", 2, "expected 'LAYER 1 <m>'"),
        ("MLG1 2 2 UNION\nLAYER 1 0\nLAYER 3 0\n", 3, "expected layer 2, got layer 3"),
        ("MLG1 2 1 UNION\nLAYER 1 -1\n", 2, "negative edge count"),
        ("MLG1 3 1 UNION\nLAYER 1 2\n0 1\n", 3, "unexpected end of input"),
        ("MLG1 3 1 UNION\nLAYER 1 1\n0 1\n1 2\n", 4, "trailing content"),
        ("MLG1 3 1 UNION\nLAYER 1 1\n0 1 2\n", 3, "expected '<u> <v>', got '0 1 2'"),
        ("MLG1 13 1 UNION\nLAYER 1 1\n0 1_2\n", 3, "expected integers, got '0 1_2'"),
        ("MLG1 3 1 UNION\nLAYER 1 1\n0 1\nLAYER 2 0\n", 4, "trailing content"),
        # robber section
        ("MLG1 2 1 EXPLICIT\nLAYER 1 0\n", 2, "unexpected end of input"),
        ("MLG1 2 1 EXPLICIT\nLAYER 1 0\nROBBER -1\n", 3, "negative edge count"),
        ("MLG1 2 1 EXPLICIT\nLAYER 1 0\nROBBER\n", 3, "expected 'ROBBER <m>'"),
        ("MLG1 2 1 EXPLICIT\nLAYER 1 0\nROBBER x\n", 3, "expected 'ROBBER <m>'"),
        ("MLG1 2 1 EXPLICIT\nLAYER 1 0\nROBBER 1 2\n", 3, "expected 'ROBBER <m>'"),
        ("MLG1 2 1 EXPLICIT\nLAYER 1 0\nROBBER 0 x\n", 3, "expected 'ROBBER <m>'"),
        ("MLG1 2 1 EXPLICIT\nLAYER 1 0\nLAYER 2 0\n", 3, "expected 'ROBBER <m>'"),
        ("MLG1 2 1 EXPLICIT\nLAYER 1 0\nROBBER 2\n0 1\n", 4, "unexpected end of input"),
        ("MLG1 2 1 UNION\nLAYER 1 0\nROBBER 0\n", 3, "trailing content"),
        ("MLG1 2 1 EXPLICIT\nLAYER 1 0\nROBBER 0\n0 1\n", 4, "trailing content"),
        # encoding
        (b"MLG1 2 1 UNION\nLAYER 1 1\n0 \xff1\n", 3, "invalid UTF-8 byte 0xff"),
        (b"\xe9MLG1 2 1 UNION\n", 1, "invalid UTF-8 byte 0xe9"),
        (b"MLG1 2 1 UNION\r\nLAYER 1 0\r\n\x80", 3, "invalid UTF-8 byte 0x80"),
    ],
)
def test_parse_rejects_malformed_sections_at_their_line(text, line_no, message):
    with pytest.raises(MlgParseError, match=message) as info:
        parse_mlg(text)
    assert info.value.line_no == line_no


def test_parse_ignores_comments_and_blank_lines():
    text = "# a comment\nMLG1 2 1 UNION # trailing\n\nLAYER 1 1\n0 1\n"
    g = parse_mlg(text)
    assert g.layers == (((0, 1),),)


def test_parse_explicit_robber_section():
    text = "MLG1 3 1 EXPLICIT\nLAYER 1 1\n0 1\nROBBER 2\n0 1\n1 2\n"
    g = parse_mlg(text)
    assert g.robber_edges == ((0, 1), (1, 2))
    assert serialize_mlg(parse_mlg(serialize_mlg(g))) == serialize_mlg(g)


@st.composite
def multilayer_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    tau = draw(st.integers(min_value=1, max_value=3))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    layers = tuple(
        tuple(sorted(draw(st.sets(st.sampled_from(all_pairs))))) if all_pairs else ()
        for _ in range(tau)
    )
    spec = draw(st.sampled_from(list(RobberSpec)))
    redges = None
    if spec is RobberSpec.EXPLICIT:
        redges = tuple(sorted(draw(st.sets(st.sampled_from(all_pairs))))) if all_pairs else ()
    return MultiLayerGraph(n=n, layers=layers, robber_spec=spec, robber_edges=redges)


@settings(max_examples=200, deadline=None)
@given(multilayer_graphs())
def test_serialize_parse_identity(g):
    text = serialize_mlg(g)
    again = parse_mlg(text)
    assert serialize_mlg(again) == text
    assert again.n == g.n and again.layers == g.layers
    assert again.robber_spec == g.robber_spec and again.robber_edges == g.robber_edges


@st.composite
def graphs_with_edges(draw):
    """Valid graphs whose every edge section has at least two edges."""

    n = draw(st.integers(min_value=3, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edge_sets = st.sets(st.sampled_from(pairs), min_size=2).map(lambda es: tuple(sorted(es)))
    layers = tuple(draw(st.lists(edge_sets, min_size=1, max_size=3)))
    spec = draw(st.sampled_from(list(RobberSpec)))
    robber = draw(edge_sets) if spec is RobberSpec.EXPLICIT else None
    return MultiLayerGraph(n=n, layers=layers, robber_spec=spec, robber_edges=robber)


@settings(max_examples=200, deadline=None)
@given(
    graphs_with_edges(),
    st.sampled_from(["self-loop", "swapped", "out-of-range", "duplicate", "non-integer"]),
    st.data(),
)
def test_parse_reports_the_edited_edge_line(g, edit, data):
    lines = serialize_mlg(g).splitlines()
    is_edge = [not line.startswith(("MLG1", "LAYER", "ROBBER")) for line in lines]
    # a duplicate copies the previous edge of its section, so the edited
    # line is the second occurrence
    first = 1 if edit == "duplicate" else 0
    i = data.draw(st.sampled_from([j for j in range(first, len(lines)) if is_edge[j] and is_edge[j - first]]))
    u, v = map(int, lines[i].split())
    lines[i] = {
        "self-loop": f"{u} {u}",
        "swapped": f"{v} {u}",
        "out-of-range": f"{u} {g.n}",
        "duplicate": lines[i - 1],
        "non-integer": f"{u} x",
    }[edit]
    with pytest.raises(MlgParseError) as info:
        parse_mlg("\n".join(lines) + "\n")
    assert info.value.line_no == i + 1


# -- vertex-count guard ------------------------------------------------------------------


def test_layer_view_bytes_bound_the_tracemalloc_peak_of_an_edgeless_view():
    """A view and one walk of its components, every vertex its own."""

    import tracemalloc

    from mlcr.core import _LAYER_VIEW_BYTES

    n = 50_000
    g = MultiLayerGraph(n=n, layers=((),))
    tracemalloc.start()
    try:
        g.layer_view(0), g.components(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * _LAYER_VIEW_BYTES


def test_vertex_count_is_capped_by_physical_ram_before_any_vertex_list(monkeypatch):
    import mlcr.core
    from mlcr.core import _LAYER_VIEW_BYTES, StateBudgetExceeded

    monkeypatch.setattr(mlcr.core, "_physical_ram", lambda: 100 * _LAYER_VIEW_BYTES)
    assert MultiLayerGraph(n=100, layers=((),)).n == 100
    with pytest.raises(StateBudgetExceeded, match="graph needs 101 vertices, budget is 100"):
        MultiLayerGraph(n=101, layers=((),))
    with pytest.raises(StateBudgetExceeded):
        parse_mlg("MLG1 101 1 UNION\nLAYER 1 0\n")
    monkeypatch.undo()
    # the real guard answers at once, without building anything n-sized
    with pytest.raises(StateBudgetExceeded):
        parse_mlg("MLG1 100000000000 1 COMPLETE\nLAYER 1 0\n")
