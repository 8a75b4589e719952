import math
import random

import pytest

from mlcr.core import MlgError, RobberSpec, flatten, girth, is_connected_edges, min_degree, serialize_mlg
from mlcr.generators import (
    ConstructionError,
    gen_copsbane,
    gen_cycle_matchings,
    gen_domset_reduction,
    gen_gnp,
    gen_grid,
    gen_min_counterexample,
    gen_random_layers,
    gen_random_regular,
    gen_slices,
    gen_soifer,
    grid_index,
    grid_layers,
    petersen,
    slices_coords,
    slices_index,
    slices_vertex_count,
    two_edge_coloring,
)


# -- grid --------------------------------------------------------------------------------


def test_grid_boundary_parity():
    n = 6
    ch, cv = grid_layers(n)
    ch, cv = set(ch), set(cv)
    for i in range(1, n):
        assert ((grid_index(i, 1, n), grid_index(i + 1, 1, n)) in ch) == (i % 2 == 0)
        assert ((grid_index(i, n, n), grid_index(i + 1, n, n)) in ch) == (i % 2 == 1)
    for j in range(1, n):
        assert ((grid_index(1, j, n), grid_index(1, j + 1, n)) in cv) == (j % 2 == 0)
        assert ((grid_index(n, j, n), grid_index(n, j + 1, n)) in cv) == (j % 2 == 1)


def test_grid_shared_edges_are_the_boundary_transitions():
    # independent re-enumeration of the displayed edge sets
    for n in (4, 5, 6):
        ch, cv = grid_layers(n)
        shared = set(ch) & set(cv)
        assert len(shared) == 2 * (n - 1)


def test_grid_validates_and_small_case():
    g, report = gen_grid(2)
    assert g.n == 4 and report.ok
    assert all(report.layer_connected)
    with pytest.raises(MlgError):
        gen_grid(1)


def test_grid_sweep_connected():
    for n in range(2, 9):
        g, report = gen_grid(n)
        assert report.ok


# -- mirrored base -----------------------------------------------------------------------


def test_mirror_counts():
    g, report = gen_min_counterexample()
    assert g.n == 19
    assert len(g.layers[0]) == 15 + 9
    assert len(g.layers[1]) == 15 + 9
    assert all(report.layer_connected)


def test_mirror_rejects_low_girth_base():
    triangle_ish = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 0))
    with pytest.raises(ConstructionError, match="girth"):
        gen_min_counterexample((triangle_ish, 5))


def test_petersen_properties():
    p = petersen()
    assert len(p) == 15
    assert girth(p, 10) == 5
    assert min_degree(p, 10) == 3


# -- slices ------------------------------------------------------------------------------


def test_slices_vertex_count_and_coords():
    assert slices_vertex_count(2) == 150
    for k in (1, 2):
        nv = slices_vertex_count(k)
        for v in range(nv):
            x, y, z = slices_coords(k, v)
            assert slices_index(k, x, y, z) == v


def test_slices_validators():
    for k in (1, 2, 3):
        g, report = gen_slices(k)
        assert report.ok
        assert all(report.layer_connected)


def test_slices_ring_alternates_between_layers():
    k = 2
    g, _ = gen_slices(k)
    c1, c2 = set(g.layers[0]), set(g.layers[1])
    x = 2
    ring = [slices_index(k, x, y, z) for y in (1, 2) for z in (11, 12)]
    ring_edges_c1 = {e for e in c1 if e[0] in ring and e[1] in ring}
    ring_edges_c2 = {e for e in c2 if e[0] in ring and e[1] in ring}
    assert len(ring_edges_c1) == k and len(ring_edges_c2) == k
    assert not (ring_edges_c1 & ring_edges_c2)


# -- cycle matchings ----------------------------------------------------------------------


def test_cycle_matchings():
    g, report = gen_cycle_matchings(3)
    assert report.ok
    assert len(flatten(g)) == 6
    assert is_connected_edges(flatten(g), 6)
    for i in (0, 1):
        assert len(g.components(i)) == 3
    for n in range(2, 11):
        _, report = gen_cycle_matchings(n)
        assert report.ok


# -- star reduction -----------------------------------------------------------------------


def test_domset_reduction_shapes():
    k3 = ((0, 1), (0, 2), (1, 2))
    g, report = gen_domset_reduction(k3, 3)
    assert g.tau == 3
    assert all(len(layer) == 2 for layer in g.layers)
    assert report.ok
    empty, report = gen_domset_reduction((), 3)
    assert all(len(layer) == 0 for layer in empty.layers)


# -- clique partitions ---------------------------------------------------------------------


def test_soifer_sweep_all_invariants():
    for n in range(4, 31):
        for tau in range(1, n // 2):
            g, report = gen_soifer(n, tau)
            assert report.ok, (n, tau)
            max_deg = max(len(row) for i in range(tau) for row in g.layer_view(i))
            assert max_deg <= math.ceil(n / tau), (n, tau, max_deg)


def test_soifer_even_partition_is_exact():
    g, _ = gen_soifer(8, 3)
    total = sum(len(layer) for layer in g.layers)
    assert total == 8 * 7 // 2
    union = set()
    for layer in g.layers:
        assert not (union & set(layer))
        union |= set(layer)


def test_soifer_extra_vertex_degrees():
    g, _ = gen_soifer(9, 3)
    for i in range(3):
        d = len(g.layer_view(i)[8])
        assert d in (8 // 3, math.ceil(8 / 3))


def test_soifer_rejects_bad_tau():
    with pytest.raises(MlgError):
        gen_soifer(8, 4)
    with pytest.raises(MlgError):
        gen_soifer(8, 0)


# -- random families -----------------------------------------------------------------------


def test_gnp_extremes():
    assert gen_gnp(10, 1.0, 0) == tuple((u, v) for u in range(10) for v in range(u + 1, 10))
    assert gen_gnp(10, 0.0, 0) == ()


@pytest.mark.parametrize("p", [float("nan"), 7.0, -1.0, 1.0000001])
def test_gnp_refuses_p_outside_the_unit_interval(p):
    with pytest.raises(MlgError, match=r"p must be in \[0, 1\]"):
        gen_gnp(10, p, 0)


def test_random_regular_degrees_and_determinism():
    edges = gen_random_regular(10, 3, 7)
    deg = [0] * 10
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    assert all(d == 3 for d in deg)
    assert edges == gen_random_regular(10, 3, 7)
    with pytest.raises(MlgError):
        gen_random_regular(5, 3, 0)


def test_random_layers_empty_and_single():
    g, _ = gen_random_layers(10, 0.0, 3, 1)
    assert all(len(layer) == 0 for layer in g.layers)
    g1, _ = gen_random_layers(40, 0.5, 1, 2)
    density = len(g1.layers[0]) / (40 * 39 / 2)
    assert abs(density - 0.5) < 0.1


def test_seeded_generators_reproduce_byte_identical_output():
    for maker in (
        lambda s: gen_random_layers(12, 0.4, 2, s)[0],
        lambda s: gen_copsbane(8, seed=s)[0],
    ):
        assert serialize_mlg(maker(5)) == serialize_mlg(maker(5))
    assert serialize_mlg(gen_random_layers(12, 0.4, 2, 5)[0]) != serialize_mlg(
        gen_random_layers(12, 0.4, 2, 6)[0]
    )


# -- cops-bane ------------------------------------------------------------------------------


def test_copsbane_counts_and_validators():
    for N in (8, 12):
        g, report, layout = gen_copsbane(N, seed=1)
        assert report.ok
        assert g.n == N + 1 + N * 2 * layout.D
        assert g.robber_spec is RobberSpec.EXPLICIT
        assert set(g.robber_edges) == set(layout.expander_edges)
        # arms have exactly 2D+1 edges
        star_edges = set(g.layers[0]) - set(layout.expander_edges)
        assert len(star_edges) == N * (2 * layout.D + 1)


def test_copsbane_exact_expansion_reported():
    _, report, layout = gen_copsbane(12, seed=1)
    assert layout.expansion_exact
    assert layout.expansion >= 0.3
    names = [name for name, _, _ in report.checks]
    assert "expansion" in names and "clustering" in names


def test_copsbane_mono_components_bounded():
    _, report, layout = gen_copsbane(16, seed=2)
    assert layout.clustering <= 2000
    assert report.ok


def test_copsbane_rejects_odd_or_small():
    with pytest.raises(MlgError):
        gen_copsbane(7)
    with pytest.raises(MlgError):
        gen_copsbane(6)


def test_slices_k1_layers_are_two_copwin():
    from mlcr.solver import single_layer_cop_number

    g, _ = gen_slices(1)
    assert g.n == slices_vertex_count(1) == 24
    for i in (0, 1):
        assert single_layer_cop_number(g.layers[i], g.n, 2) <= 2


def test_slices_k2_beats_two_cops_outright():
    from mlcr.core import allocation_plans, first_winning_plans
    from mlcr.solver import Winner, allocated_verdicts

    g, _ = gen_slices(2)
    ((plan, verdict),) = first_winning_plans([([g], allocation_plans(2, g.tau))], allocated_verdicts)
    assert verdict.winner is Winner.ROBBER and plan is None


def test_random_layers_union_robber_flag():
    g, _ = gen_random_layers(12, 0.4, 2, 3, robber="UNION")
    assert g.robber_spec is RobberSpec.UNION
    assert g.robber_layer_edges() == flatten(g)


# -- refusals -------------------------------------------------------------------------------

_PATH5 = ((0, 1), (1, 2), (2, 3), (3, 4))
_TWO_C5 = tuple((o + i, o + i + 1) for o in (0, 5) for i in range(4)) + ((0, 4), (5, 9))
_TWO_K4 = tuple((u + o, v + o) for o in (0, 4) for u in range(4) for v in range(u + 1, 4))

GENERATOR_REFUSALS = {
    "grid-n1": (lambda: gen_grid(1), MlgError, "grid needs n >= 2, got 1"),
    "mirror-base-min-degree-1": (lambda: gen_min_counterexample((_PATH5, 5)), ConstructionError, "min degree 1, need >= 2"),
    "mirror-base-disconnected": (lambda: gen_min_counterexample((_TWO_C5, 10)), ConstructionError, "must be connected"),
    "slices-k0": (lambda: gen_slices(0), MlgError, "slices needs k >= 1, got 0"),
    "cycle-matchings-n1": (lambda: gen_cycle_matchings(1), MlgError, "cycle matchings need n >= 2, got 1"),
    "soifer-tau-0": (lambda: gen_soifer(8, 0), MlgError, r"need 1 <= tau < floor\(n/2\), got tau=0, n=8"),
    "gnp-p-above-1": (lambda: gen_gnp(10, 2.0, 0), MlgError, r"p must be in \[0, 1\], got 2.0"),
    "random-layers-p-above-1": (lambda: gen_random_layers(10, 2.0, 2, 0), MlgError, r"p must be in \[0, 1\], got 2.0"),
    "random-layers-tau-0": (lambda: gen_random_layers(10, 0.5, 0, 0), MlgError, "tau must be >= 1, got 0"),
    "regular-odd-stub-count": (lambda: gen_random_regular(5, 3, 0), MlgError, r"n\*d must be even"),
    "regular-degree-n": (lambda: gen_random_regular(4, 4, 0), MlgError, "need 0 <= d < n"),
    "copsbane-odd-N": (lambda: gen_copsbane(9), MlgError, "cops-bane needs even N >= 8, got 9"),
    "copsbane-negative-D": (lambda: gen_copsbane(8, D=-1), MlgError, "arm parameter D >= 0, got D=-1"),
}


@pytest.mark.parametrize("call, error, message", GENERATOR_REFUSALS.values(), ids=GENERATOR_REFUSALS.keys())
def test_generators_refuse_parameters_outside_their_family(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _understated_colouring(edges, n, seed, _real=two_edge_coloring):
    coloring, _ = _real(edges, n, seed)
    return coloring, 1


# (patches of `mlcr.generators`, call, message): samplers that run out of
# tries, and a colouring whose clustering the validator must not believe
EXHAUSTED = {
    "regular-tries-run-out": (
        {"REGULAR_TRIES": 0}, lambda: gen_random_regular(8, 3, 0),
        "failed to sample a simple 3-regular graph in 0 tries",
    ),
    "expander-resamples-run-out": (
        {"EXPANDER_RESAMPLES": 3, "gen_random_regular": lambda n, d, seed: _TWO_K4}, lambda: gen_copsbane(8),
        r"no 3-regular graph with expansion >= 0.3 found in 3 attempts",
    ),
    "expansion-never-reached": (
        {"EXPANDER_RESAMPLES": 2}, lambda: gen_copsbane(8, alpha=10.0),
        r"no 3-regular graph with expansion >= 10.0 found in 2 attempts",
    ),
    "clustering-over-the-cap": ({"CLUSTERING_CAP": 2}, lambda: gen_copsbane(8), r"achieved clustering \d+ exceeds cap 2"),
    "clustering-understated": (
        {"two_edge_coloring": _understated_colouring}, lambda: gen_copsbane(8),
        "copsbane: invariant failure: mono_components_le_clustering=",
    ),
}


@pytest.mark.parametrize("patches, call, message", EXHAUSTED.values(), ids=EXHAUSTED.keys())
def test_copsbane_sampling_and_validation_refusals(monkeypatch, patches, call, message):
    import mlcr.generators

    for name, value in patches.items():
        monkeypatch.setattr(mlcr.generators, name, value)
    with pytest.raises(ConstructionError, match=message):
        call()
