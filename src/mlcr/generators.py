"""Constructors for the multi-layer graph families used throughout.

Every generator validates its family invariants on the constructed object
and attaches a ConstructionReport; a failed invariant is a hard error.
Seeded generators are deterministic functions of their parameters and seed,
and hand the graph its family tag ("grid:6") when they construct it.

Every edge is listed with its smaller endpoint first (`_edge`).  Vertex
indexing conventions (the scripted grid and slices players rebuild these
coordinate maps from the same helpers):

* grid:   (row i, col j), 1-based, maps to (i-1)*n + (j-1).
* slices: (x, y, z) with x in 1..3k and (y, z) either (inf, inf) or in
          [k] x [5k+2]; each slice occupies a contiguous index block of
          `_slice_size(k)` = 1 + k(5k+2) vertices, the hub (x, inf, inf)
          first.
* cops-bane: expander vertices 0..N-1, hub N, then 2D interior vertices
          per arm in arm order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations

from .core import (
    Edge,
    MlgError,
    MultiLayerGraph,
    RobberSpec,
    adjacency_lists,
    bfs_dist,
    check_vertex_count,
    component_sets,
    diameter,
    flatten,
    girth,
    is_connected_edges,
    min_degree,
    neighbour_masks,
)


class ConstructionError(MlgError):
    """A generated object failed one of its family invariants."""


@dataclass
class ConstructionReport:
    """Validation record emitted by every generator."""

    family: str
    params: dict
    layer_connected: tuple[bool, ...]
    degree_stats: tuple[tuple[int, int], ...]  # per layer (min, max)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, value="") -> None:
        self.checks.append((name, bool(passed), str(value)))

    @property
    def ok(self) -> bool:
        return all(p for _, p, _ in self.checks)

    def render(self) -> str:
        lines = [f"FAMILY {self.family}"]
        for key, val in sorted(self.params.items()):
            lines.append(f"PARAM {key}={val}")
        for i, (conn, (dmin, dmax)) in enumerate(zip(self.layer_connected, self.degree_stats)):
            lines.append(f"LAYER {i + 1} connected={conn} degmin={dmin} degmax={dmax}")
        for name, passed, value in self.checks:
            tail = f" value={value}" if value else ""
            lines.append(f"CHECK {name} {'PASS' if passed else 'FAIL'}{tail}")
        return "\n".join(lines) + "\n"


def _report(family: str, params: dict, g: MultiLayerGraph) -> ConstructionReport:
    conn = tuple(len(g.components(i)) == 1 for i in range(g.tau))
    degrees = [list(map(len, g.layer_view(i))) for i in range(g.tau)]
    return ConstructionReport(family, params, conn, tuple((min(d), max(d)) for d in degrees))


def _finish(g: MultiLayerGraph, report: ConstructionReport) -> tuple[MultiLayerGraph, ConstructionReport]:
    if not report.ok:
        failed = ", ".join(f"{n}={v}" for n, p, v in report.checks if not p)
        raise ConstructionError(f"{report.family}: invariant failure: {failed}")
    return g, report


def _edge(u: int, v: int) -> Edge:
    """The edge uv with its smaller endpoint first, as layers list it."""

    return (u, v) if u < v else (v, u)


# -- two-layer grid -------------------------------------------------------------


def grid_index(i: int, j: int, n: int) -> int:
    """Map 1-based grid coordinates (row i, col j) to a vertex index."""

    return (i - 1) * n + (j - 1)


def grid_coords(v: int, n: int) -> tuple[int, int]:
    return v // n + 1, v % n + 1


def _grid_transitions(n: int) -> tuple[list[Edge], list[Edge]]:
    """The parity transition edges: rows i and i+1 are joined in column 1
    for even i and in column n for odd i, and columns likewise in row 1 or
    row n.  Each is an edge of the other layer too, so both layers share them."""

    rows: list[Edge] = []
    cols: list[Edge] = []
    for i in range(1, n):
        end = 1 if i % 2 == 0 else n
        rows.append((grid_index(i, end, n), grid_index(i + 1, end, n)))
        cols.append((grid_index(end, i, n), grid_index(end, i + 1, n)))
    return rows, cols


def grid_layers(n: int) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """Horizontal and vertical layers with their parity boundary edges."""

    rows, cols = _grid_transitions(n)
    ch = {(grid_index(i, j, n), grid_index(i, j + 1, n)) for i in range(1, n + 1) for j in range(1, n)}
    cv = {(grid_index(i, j, n), grid_index(i + 1, j, n)) for j in range(1, n + 1) for i in range(1, n)}
    return tuple(sorted(ch.union(rows))), tuple(sorted(cv.union(cols)))


def gen_grid(n: int) -> tuple[MultiLayerGraph, ConstructionReport]:
    """Two-layer n x n grid: rows in one layer, columns in the other, with
    boundary transition edges shared by both."""

    if n < 2:
        raise MlgError(f"grid needs n >= 2, got {n}")
    check_vertex_count(n * n)
    ch, cv = grid_layers(n)
    g = MultiLayerGraph(n=n * n, layers=(ch, cv), robber_spec=RobberSpec.UNION, tag=f"grid:{n}")
    report = _report("grid", {"n": n}, g)
    report.add("layers_connected", all(report.layer_connected))
    shared = set(ch) & set(cv)
    rows, cols = _grid_transitions(n)
    report.add("shared_boundary_edges", shared == set(rows) | set(cols), len(shared))
    report.add("vertex_count", g.n == n * n, g.n)
    return _finish(g, report)


# -- two mirrored copies of a high-girth base ------------------------------------


def petersen() -> tuple[Edge, ...]:
    """Petersen graph: outer 5-cycle, inner 5-star, spokes."""

    edges = []
    for i in range(5):
        edges += [_edge(i, (i + 1) % 5), _edge(i, i + 5), _edge(i + 5, (i + 2) % 5 + 5)]
    return tuple(sorted(edges))


def gen_min_counterexample(
    base: tuple[tuple[Edge, ...], int] | None = None,
) -> tuple[MultiLayerGraph, ConstructionReport]:
    """Two-layer graph on 2n-1 vertices whose layers each need many cops
    while two cops (one per layer) win by camping on the shared hub.

    Layer 1 carries the base graph on vertices 0..n-1 plus pendant edges
    from the hub n-1 to every vertex n..2n-2; layer 2 carries the base
    mirrored onto n-1..2n-2 plus pendants from the hub to 0..n-2.  The base
    must have girth >= 5 and minimum degree >= 2.
    """

    if base is None:
        base_edges, nb = petersen(), 10
    else:
        base_edges, nb = base
    check_vertex_count(2 * nb - 1)
    gi = girth(base_edges, nb)
    dmin = min_degree(base_edges, nb)
    if gi < 5:
        raise ConstructionError(f"base graph has girth {gi}, need >= 5")
    if dmin < 2:
        raise ConstructionError(f"base graph has min degree {dmin}, need >= 2")
    if not is_connected_edges(base_edges, nb):
        raise ConstructionError("base graph must be connected")

    n = nb
    hub = n - 1
    e1 = set(base_edges)
    e1.update((hub, q) for q in range(n, 2 * n - 1))
    mirror = lambda i: 2 * n - 2 - i  # vertex i of the base, second copy
    e2 = {_edge(mirror(u), mirror(v)) for u, v in base_edges}
    e2.update((q, hub) for q in range(0, hub))
    g = MultiLayerGraph(
        n=2 * n - 1,
        layers=(tuple(sorted(e1)), tuple(sorted(e2))),
        robber_spec=RobberSpec.UNION,
        tag=f"mirror:{n}",
    )
    report = _report("mirror", {"base_n": nb, "girth": gi, "min_degree": dmin}, g)
    report.add("layers_connected", all(report.layer_connected))
    report.add("vertex_count", g.n == 2 * n - 1, g.n)
    report.add("layer_sizes", len(e1) == len(base_edges) + n - 1 and len(e2) == len(base_edges) + n - 1)
    return _finish(g, report)


# -- slices construction ----------------------------------------------------------


def _slice_size(k: int) -> int:
    """Vertices per slice: the hub and k paths of 5k+2."""

    return 1 + k * (5 * k + 2)


def slices_vertex_count(k: int) -> int:
    return 3 * k * _slice_size(k)


def slices_index(k: int, x: int, y, z) -> int:
    """Dense index for slice vertex (x, y, z); (inf, inf) is the slice hub."""

    base = (x - 1) * _slice_size(k)
    if y == math.inf:
        return base
    return base + 1 + (y - 1) * (5 * k + 2) + (z - 1)


def slices_coords(k: int, v: int):
    x, r = divmod(v, _slice_size(k))
    if r == 0:
        return x + 1, math.inf, math.inf
    y, z = divmod(r - 1, 5 * k + 2)
    return x + 1, y + 1, z + 1


def slices_layers(k: int) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """The two cop layers of the 3k-slice construction.

    Within each slice: k paths of 5k vertices shared by both layers, fanned
    out from the slice hub; a 2k-ring on the (y, 5k+1)/(y, 5k+2) vertices
    alternating between the layers; a parity-dependent connector from each
    path end to the ring.  Between slices: a shared hub spine, and ring
    rungs whose layer alternates with x.  Layer 2 additionally gets hub
    edges to the ring of slice 1 to stay connected.
    """

    idx = lambda x, y, z: slices_index(k, x, y, z)
    c1: set[Edge] = set()
    c2: set[Edge] = set()
    for x in range(1, 3 * k + 1):
        for y in range(1, k + 1):
            for z in range(1, 5 * k):
                both = _edge(idx(x, y, z), idx(x, y, z + 1))
                c1.add(both)
                c2.add(both)
            hubp = _edge(idx(x, math.inf, math.inf), idx(x, y, 1))
            c1.add(hubp)
            c2.add(hubp)
            c1.add(_edge(idx(x, y, 5 * k + 1), idx(x, y, 5 * k + 2)))
            c2.add(_edge(idx(x, y, 5 * k + 1), idx(x, y % k + 1, 5 * k + 2)))
            parity = _edge(idx(x, y, 5 * k), idx(x, y, 5 * k + 1))
            (c1 if x % 2 == 1 else c2).add(parity)
    for x in range(1, 3 * k):
        spine = _edge(idx(x, math.inf, math.inf), idx(x + 1, math.inf, math.inf))
        c1.add(spine)
        c2.add(spine)
        for y in range(1, k + 1):
            for z in (1, 2):
                rung = _edge(idx(x, y, 5 * k + z), idx(x + 1, y, 5 * k + z))
                (c1 if x % 2 == 1 else c2).add(rung)
    for y in range(1, k + 1):
        for z in (1, 2):
            c2.add(_edge(idx(1, math.inf, math.inf), idx(1, y, 5 * k + z)))
    return tuple(sorted(c1)), tuple(sorted(c2))


def gen_slices(k: int) -> tuple[MultiLayerGraph, ConstructionReport]:
    """Construction whose individual layers have cop number <= 2 but whose
    multi-layer cop number is at least k."""

    if k < 1:
        raise MlgError(f"slices needs k >= 1, got {k}")
    nv = slices_vertex_count(k)
    check_vertex_count(nv)
    c1, c2 = slices_layers(k)
    g = MultiLayerGraph(n=nv, layers=(c1, c2), robber_spec=RobberSpec.UNION, tag=f"slices:{k}")
    report = _report("slices", {"k": k}, g)
    report.add("vertex_count", g.n == nv, g.n)
    report.add("layers_connected", all(report.layer_connected))
    report.add("union_connected", is_connected_edges(flatten(g), g.n))
    # slices x >= 2 are pairwise isomorphic: identical under the index shift
    union = set(c1) | set(c2)
    ref = _inside_slice(union, k, 3)
    report.add("interior_slices_isomorphic", all(_inside_slice(union, k, x) == ref for x in range(4, 3 * k + 1)))
    return _finish(g, report)


def _inside_slice(union: set[Edge], k: int, x: int) -> set[Edge]:
    """The edges of `union` within slice x, shifted by the slice offset."""

    per = _slice_size(k)
    lo, hi = (x - 1) * per, x * per
    return {(u - lo, v - lo) for u, v in union if lo <= u < hi and lo <= v < hi}


def slices_induced_robber_slice(k: int, x: int) -> tuple[tuple[Edge, ...], int]:
    """Induced subgraph of the robber layer (the union of `slices_layers`) on
    slice x, relabelled to 0..m-1."""

    return tuple(sorted(_inside_slice(set().union(*slices_layers(k)), k, x))), _slice_size(k)


# -- cycle split into two matchings ------------------------------------------------


def gen_cycle_matchings(n: int) -> tuple[MultiLayerGraph, ConstructionReport]:
    """2n-cycle whose two cop layers are the alternating perfect matchings."""

    if n < 2:
        raise MlgError(f"cycle matchings need n >= 2, got {n}")
    nv = 2 * n
    check_vertex_count(nv)
    c1 = tuple(sorted((2 * i, 2 * i + 1) for i in range(n)))
    c2 = tuple(sorted(_edge(2 * i + 1, (2 * i + 2) % nv) for i in range(n)))
    g = MultiLayerGraph(n=nv, layers=(c1, c2), robber_spec=RobberSpec.UNION, tag=f"cycle-matchings:{n}")
    report = _report("cycle-matchings", {"n": n, "vertices": nv}, g)
    union = flatten(g)
    report.add("union_is_cycle", len(union) == nv and is_connected_edges(union, nv))
    report.add("each_layer_n_components", all(len(g.components(i)) == n for i in (0, 1)))
    report.add("layers_disjoint", not (set(c1) & set(c2)))
    return _finish(g, report)


# -- free-layer-choice reduction from domination -----------------------------------


def gen_domset_reduction(
    edges: tuple[Edge, ...] | list[Edge], n: int
) -> tuple[MultiLayerGraph, ConstructionReport]:
    """One star layer per vertex of a simple graph: layer u holds the edges
    from u to its neighbours.  Posed as a free-layer-choice instance."""

    check_vertex_count(n)
    adj = adjacency_lists(n, edges)
    layers = tuple(tuple(sorted(_edge(u, w) for w in adj[u])) for u in range(n))
    g = MultiLayerGraph(n=n, layers=layers, robber_spec=RobberSpec.UNION, tag=f"domset-reduction:{n}")
    report = _report("domset-reduction", {"n": n, "m": len(tuple(edges))}, g)
    report.add("union_matches_input", set(flatten(g)) == {_edge(u, v) for u, v in edges})
    report.add("layer_count", g.tau == n, g.tau)
    star_ok = all(all(u in e for e in layers[u]) for u in range(n))
    report.add("layers_are_stars", star_ok)
    return _finish(g, report)


# -- clique partition into connected near-regular layers ---------------------------


def _soifer_classes_even(ell: int) -> list[list[Edge]]:
    """Round-robin 1-factorisation of K_{2l}: class i pairs the polygon
    vertex i with the centre 2l-1 plus all chords perpendicular to it."""

    m = 2 * ell - 1
    return [[_edge(i, m)] + [_edge((i - j) % m, (i + j) % m) for j in range(1, ell)] for i in range(m)]


def _rotational_classes_odd(n: int) -> list[list[Edge]]:
    """Near-1-factorisation of K_n for odd n: class r holds {r-j, r+j} mod n."""

    return [[_edge((r - j) % n, (r + j) % n) for j in range(1, (n - 1) // 2 + 1)] for r in range(n)]


def _interval_sizes(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def gen_soifer(n: int, tau: int) -> tuple[MultiLayerGraph, ConstructionReport]:
    """Partition of K_n into tau connected layers of maximum degree <= ceil(n/tau).

    Even n merges consecutive colour classes of the regular-polygon
    1-factorisation; odd n merges consecutive classes of the rotational
    near-1-factorisation, which keeps the same degree guarantee without an
    irregular extra vertex.  The robber layer is complete.
    """

    if not (1 <= tau < n // 2):
        raise MlgError(f"need 1 <= tau < floor(n/2), got tau={tau}, n={n}")
    check_vertex_count(n)
    if n % 2 == 0:
        classes = _soifer_classes_even(n // 2)
    else:
        classes = _rotational_classes_odd(n)
    sizes = _interval_sizes(len(classes), tau)
    layers: list[tuple[Edge, ...]] = []
    at = 0
    for s in sizes:
        merged: list[Edge] = []
        for cls in classes[at : at + s]:
            merged.extend(cls)
        layers.append(tuple(sorted(merged)))
        at += s

    g = MultiLayerGraph(
        n=n, layers=tuple(layers), robber_spec=RobberSpec.COMPLETE, tag=f"soifer:{n},{tau}"
    )
    report = _report("soifer", {"n": n, "tau": tau}, g)
    report.add("layers_connected", all(report.layer_connected))
    report.add("union_is_complete", flatten(g) == tuple(combinations(range(n), 2)))
    total = sum(len(layer) for layer in layers)
    report.add("layers_edge_disjoint", total == n * (n - 1) // 2, total)
    max_deg = max(dmax for _, dmax in report.degree_stats)
    report.add("max_layer_degree_le_ceil", max_deg <= math.ceil(n / tau), max_deg)
    return _finish(g, report)


# -- random layered graphs ----------------------------------------------------------


def gen_gnp(n: int, p: float, seed: int) -> tuple[Edge, ...]:
    """Binomial random graph edge set, deterministic per seed."""

    if not (0.0 <= p <= 1.0):
        raise MlgError(f"p must be in [0, 1], got {p}")
    check_vertex_count(n)
    rng = random.Random(f"gnp:{n}:{seed}")
    # random() < 1 always holds and random() < 0 never does
    return tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )


def gen_random_layers(
    n: int, p: float, tau: int, seed: int, robber: str = "COMPLETE"
) -> tuple[MultiLayerGraph, ConstructionReport]:
    """tau layers sampled independently so the flattened graph is G(n, p).

    Each layer includes each pair with probability pstar(p, tau)/tau, the
    splitting probability whose tau-fold union reproduces density p.
    """

    from .bounds import pstar

    q = pstar(p, tau) / tau  # refuses p outside [0, 1] and tau < 1
    check_vertex_count(n)
    rng = random.Random(f"layers:{n}:{tau}:{seed}")
    layers = []
    for _ in range(tau):
        layers.append(
            tuple(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < q
            )
        )
    spec = RobberSpec.COMPLETE if robber == "COMPLETE" else RobberSpec.UNION
    g = MultiLayerGraph(
        n=n, layers=tuple(layers), robber_spec=spec, tag=f"random-layers:{n},{p},{tau},{seed}"
    )
    report = _report("random-layers", {"n": n, "p": p, "tau": tau, "seed": seed}, g)
    report.add("per_layer_probability", True, f"{q:.6f}")
    return _finish(g, report)


# -- cops-bane family -----------------------------------------------------------------

REGULAR_TRIES = 1000
COLOURING_FLIPS = 20000
EXPANSION_SAMPLES = 20000
EXPANSION_EXACT_LIMIT = 20
CLUSTERING_CAP = 2000
EXPANDER_RESAMPLES = 50


def gen_random_regular(n: int, d: int, seed: int) -> tuple[Edge, ...]:
    """Random d-regular simple graph via the configuration model with rejection."""

    if (n * d) % 2 != 0:
        raise MlgError("n*d must be even for a d-regular graph")
    if not 0 <= d < n:
        raise MlgError("need 0 <= d < n")
    rng = random.Random(f"regular:{n}:{d}:{seed}")
    for _ in range(REGULAR_TRIES):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: set[Edge] = set()
        ok = True
        it = iter(stubs)
        for a, b in zip(it, it):
            if a == b:
                ok = False
                break
            e = _edge(a, b)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return tuple(sorted(edges))
    raise ConstructionError(f"failed to sample a simple {d}-regular graph in {REGULAR_TRIES} tries")


def _mono_components(edges: list[Edge], n: int, coloring: dict[Edge, int], colour: int) -> list[set[int]]:
    """Components of one colour class with at least one edge, ordered by smallest vertex."""

    adj = adjacency_lists(n, [e for e in edges if coloring[e] == colour])
    return [comp for comp in component_sets(adj) if len(comp) >= 2]


def two_edge_coloring(edges: list[Edge], n: int, seed: int) -> tuple[dict[Edge, int], int]:
    """Repair-based local search for a 2-edge-colouring with small
    monochromatic components.  Returns the colouring and the achieved
    clustering (largest monochromatic component, in vertices).  All
    `COLOURING_FLIPS` flips are tried: on a cubic graph, the only input,
    some vertex has two edges of one colour, so no colouring gets below 3."""

    def components() -> list[tuple[int, set[int]]]:
        return [(colour, comp) for colour in (0, 1) for comp in _mono_components(edges, n, coloring, colour)]

    rng = random.Random(f"colour:{seed}")
    coloring = {e: rng.randrange(2) for e in edges}
    comps = components()
    current = max((len(comp) for _, comp in comps), default=0)
    for _ in range(COLOURING_FLIPS):
        # flip a random edge out of the first largest monochromatic component
        worst_colour, worst_comp = max(comps, key=lambda cc: len(cc[1]))
        candidates = [e for e in edges if coloring[e] == worst_colour and e[0] in worst_comp and e[1] in worst_comp]
        e = rng.choice(candidates)
        coloring[e] ^= 1
        flipped = components()
        new = max((len(comp) for _, comp in flipped), default=0)
        if new > current:
            coloring[e] ^= 1  # rejected: `comps` still describes the colouring
        else:
            comps, current = flipped, new
    return coloring, current


def _expansion_ratio(nbr: list[int], subset) -> float:
    """|N(S) \\ S| / |S| for the vertex set `subset`, given neighbour masks."""

    mask = 0
    out = 0
    for v in subset:
        mask |= 1 << v
        out |= nbr[v]
    return (out & ~mask).bit_count() / len(subset)


def exact_vertex_expansion(edges: list[Edge], n: int) -> float:
    """min over nonempty S with |S| <= n/2 of |N(S) \\ S| / |S| (exhaustive)."""

    nbr = neighbour_masks(adjacency_lists(n, edges))
    best = math.inf
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            best = min(best, _expansion_ratio(nbr, subset))
    return best


def sampled_vertex_expansion(edges: list[Edge], n: int, seed: int) -> float:
    """Lowest outside-neighbourhood ratio over random subsets (an upper
    bound on the true expansion; reported as a heuristic estimate)."""

    rng = random.Random(f"expansion:{seed}")
    nbr = neighbour_masks(adjacency_lists(n, edges))
    best = math.inf
    for _ in range(EXPANSION_SAMPLES):
        size = rng.randint(1, n // 2)
        best = min(best, _expansion_ratio(nbr, rng.sample(range(n), size)))
    return best


@dataclass
class CopsbaneLayout:
    """Coordinate metadata for the cops-bane construction."""

    N: int
    D: int
    expander_edges: tuple[Edge, ...]
    coloring: dict[Edge, int]
    clustering: int
    expansion: float
    expansion_exact: bool


def copsbane_layout(
    N: int,
    alpha: float = 0.3,
    D: int | None = None,
    seed: int = 0,
) -> CopsbaneLayout:
    """Sample the expander core, colour it, and lay out the star arms."""

    if N < 8 or N % 2 != 0:
        raise MlgError(f"cops-bane needs even N >= 8, got {N}")
    if D is not None and D < 0:
        raise MlgError(f"cops-bane needs arm parameter D >= 0, got D={D}")
    check_vertex_count(N)
    expansion = -math.inf
    exact = N <= EXPANSION_EXACT_LIMIT
    x_edges: tuple[Edge, ...] = ()
    for attempt in range(EXPANDER_RESAMPLES):
        x_edges = gen_random_regular(N, 3, seed * 1000 + attempt)
        if not is_connected_edges(x_edges, N):
            continue
        expansion = (
            exact_vertex_expansion(list(x_edges), N)
            if exact
            else sampled_vertex_expansion(list(x_edges), N, seed * 1000 + attempt)
        )
        if expansion >= alpha:
            break
    else:
        raise ConstructionError(
            f"no 3-regular graph with expansion >= {alpha} found in {EXPANDER_RESAMPLES} attempts"
        )
    coloring, clustering = two_edge_coloring(list(x_edges), N, seed)
    if clustering > CLUSTERING_CAP:
        raise ConstructionError(
            f"achieved clustering {clustering} exceeds cap {CLUSTERING_CAP}"
        )
    if D is None:
        D = 2 * int(diameter(adjacency_lists(N, x_edges)))  # the loop keeps only a connected core
    return CopsbaneLayout(
        N=N,
        D=D,
        expander_edges=x_edges,
        coloring=coloring,
        clustering=clustering,
        expansion=expansion,
        expansion_exact=exact,
    )


def copsbane_layers(
    N: int, D: int, core: tuple[Edge, ...], coloring: dict[Edge, int]
) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """The two cop layers: one colour class of the core each, plus the star
    whose arm from the hub N to core vertex x runs through the interior
    vertices N+1+2Dx, ..., N+2D(x+1), hub side first."""

    star: list[Edge] = []
    for x in range(N):
        path = [N, *range(N + 1 + 2 * D * x, N + 1 + 2 * D * (x + 1)), x]
        star.extend(map(_edge, path, path[1:]))
    return tuple(tuple(sorted([e for e in core if coloring[e] == colour] + star)) for colour in (0, 1))


def gen_copsbane(
    N: int,
    alpha: float = 0.3,
    D: int | None = None,
    seed: int = 0,
) -> tuple[MultiLayerGraph, ConstructionReport, CopsbaneLayout]:
    """Expander core plus a subdivided star: each cop layer is one colour
    class of the core together with all star arms, the robber layer is the
    core itself.  Arms have 2D+1 edges so cops crossing between core
    components through the hub are visible long in advance."""

    layout = copsbane_layout(N, alpha=alpha, D=D, seed=seed)
    D = layout.D
    nv = N + 1 + N * 2 * D
    check_vertex_count(nv)
    g = MultiLayerGraph(
        n=nv,
        layers=copsbane_layers(N, D, layout.expander_edges, layout.coloring),
        robber_spec=RobberSpec.EXPLICIT,
        robber_edges=layout.expander_edges,
        tag=f"copsbane:{N},{seed}",
    )
    report = _report(
        "copsbane",
        {"N": N, "alpha": alpha, "D": D, "seed": seed},
        g,
    )
    report.add("vertex_count", g.n == nv, g.n)
    report.add("core_3_regular", all(len(a) == 3 for a in adjacency_lists(N, layout.expander_edges)))
    report.add("core_connected", is_connected_edges(layout.expander_edges, N))
    report.add("layers_connected", all(report.layer_connected))
    arm_len = 2 * D + 1
    hub_dist = bfs_dist(g, 0, N)
    report.add("arm_length", all(hub_dist[x] == arm_len for x in range(N)), arm_len)
    kind = "exact" if layout.expansion_exact else "HEURISTIC"
    report.add("expansion", layout.expansion >= alpha, f"{layout.expansion:.4f} ({kind})")
    report.add("clustering", layout.clustering <= CLUSTERING_CAP, layout.clustering)
    mono_ok = True
    for colour in (0, 1):
        for comp in _mono_components(list(layout.expander_edges), N, layout.coloring, colour):
            if len(comp) > layout.clustering:
                mono_ok = False
    report.add("mono_components_le_clustering", mono_ok)
    return (*_finish(g, report), layout)
