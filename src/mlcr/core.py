"""Data model for multi-layer graphs and the MLG1 text format.

A multi-layer graph is a single vertex set 0..n-1 together with tau edge
sets ("cop layers") and a robber layer.  The robber layer is either an
explicit edge set, the union of the cop layers, or the complete graph.
Everything downstream (solver, bounds, simulator) works on this type, so
edges are kept canonical: within a layer each edge is stored once as
(u, v) with u < v, and layers are sorted tuples.  Instances are treated
as immutable after construction; what is derived from a layer is cached per
layer in the graph: its view (`MultiLayerGraph.layer_view`, the sorted
neighbours of each vertex), its `components`, the move rows of `moves` and
the distances of `bfs_dist`.  Layer None is the robber's.

The game outcome types shared by the solver and the tree path (`Winner`,
`GameVerdict`, `StateBudgetExceeded`, `DEFAULT_STATE_BUDGET`, the
allocation order `compositions` and its `allocation_plans`) live here too,
with `first_winning_plans`, the one search driver, which asks its caller's
decider for the verdicts.  This module imports no numpy, so code that only
checks verdicts skips it.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

Edge = tuple[int, int]

INF = math.inf


class RobberSpec(Enum):
    """How the robber layer is defined relative to the cop layers."""

    UNION = "UNION"
    COMPLETE = "COMPLETE"
    EXPLICIT = "EXPLICIT"


class MlgError(Exception):
    """Base error for graph construction and parsing."""


class MlgParseError(MlgError):
    """Malformed MLG1 input; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MlgEdgeError(MlgError):
    """Invalid edge; `position` is its 0-based index in the checked collection."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


# Robber layers for COMPLETE graphs are never materialised beyond this size;
# adjacency questions are answered implicitly instead.
COMPLETE_MATERIALISE_LIMIT = 2048

# Bytes per vertex of one layer view plus one walk of its components, as the
# robber-tree check and the generator reports make: tracemalloc saw a peak of
# ~272 B per vertex (~74 B of it the view) for `layer_view(0)`, `components(0)`
# of an edgeless graph (n = 10^5, Python 3.11).  A graph needs at least one
# view, so more vertices than physical RAM holds at this rate are refused.
_LAYER_VIEW_BYTES = 384


def _physical_ram() -> int:
    """Bytes of physical memory on this machine."""

    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_vertex_count(n: int) -> None:
    """Refuse a graph of `n` vertices whose layer structures would not fit
    in physical RAM.  `MultiLayerGraph` checks its own n; the generators
    call this with the count they will produce, before any n-sized list."""

    budget = _physical_ram() // _LAYER_VIEW_BYTES
    if n > budget:
        raise StateBudgetExceeded(n, budget, what="graph", unit="vertices")


def canonical_edges(edges: Iterable[Sequence[int]], n: int, *, what: str = "edge") -> tuple[Edge, ...]:
    """Validate and canonicalise an edge collection: u < v, sorted, no dups.

    The only semantic edge check; errors are `MlgEdgeError`s carrying the
    position of the offending edge.
    """

    out: list[Edge] = []
    seen: set[Edge] = set()
    for pos, e in enumerate(edges):
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise MlgEdgeError(pos, f"self-loop {u}-{v} in {what}")
        if u > v:
            u, v = v, u
        if not (0 <= u < v < n):
            raise MlgEdgeError(pos, f"{what} {u}-{v} out of range for n={n}")
        if (u, v) in seen:
            raise MlgEdgeError(pos, f"duplicate {what} {u}-{v}")
        seen.add((u, v))
        out.append((u, v))
    return tuple(sorted(out))


@dataclass
class MultiLayerGraph:
    """Vertices 0..n-1, tau cop layers, and a robber layer specification.

    `tag` is optional provenance for generated families ("grid:6") used by
    scripted strategies and match records; it does not affect equality of
    the mathematical object and is not serialised.
    """

    n: int
    layers: tuple[tuple[Edge, ...], ...]
    robber_spec: RobberSpec = RobberSpec.UNION
    robber_edges: tuple[Edge, ...] | None = None
    tag: str = field(default="", compare=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise MlgError(f"need at least one vertex, got n={self.n}")
        check_vertex_count(self.n)
        if len(self.layers) < 1:
            raise MlgError("need at least one cop layer")
        self.layers = tuple(
            canonical_edges(layer, self.n, what=f"layer {i + 1} edge")
            for i, layer in enumerate(self.layers)
        )
        if self.robber_spec is RobberSpec.EXPLICIT:
            if self.robber_edges is None:
                raise MlgError("EXPLICIT robber spec requires robber_edges")
            self.robber_edges = canonical_edges(self.robber_edges, self.n, what="robber edge")
        elif self.robber_edges is not None:
            raise MlgError(f"robber_edges given but robber spec is {self.robber_spec.value}")

    @property
    def tau(self) -> int:
        return len(self.layers)

    # -- robber layer resolution --------------------------------------------

    def robber_layer_edges(self) -> tuple[Edge, ...]:
        """Resolved robber edge set; refuses huge COMPLETE materialisations."""

        if self.robber_spec is RobberSpec.EXPLICIT:
            assert self.robber_edges is not None
            return self.robber_edges
        if self.robber_spec is RobberSpec.UNION:
            return flatten(self)
        if self.n > COMPLETE_MATERIALISE_LIMIT:
            raise MlgError(
                f"refusing to materialise complete robber layer for n={self.n} "
                f"(limit {COMPLETE_MATERIALISE_LIMIT})"
            )
        return tuple((u, v) for u in range(self.n) for v in range(u + 1, self.n))

    def robber_is_complete(self) -> bool:
        return self.robber_spec is RobberSpec.COMPLETE

    def layer_view(self, layer: int | None) -> tuple[tuple[int, ...], ...]:
        """One layer (None: the robber's) as each vertex's sorted neighbour
        tuple, cached per graph; see `robber_layer_edges` for its limit."""

        key = ("layer_view", layer)
        if key not in self._cache:
            if layer is not None and not 0 <= layer < self.tau:
                raise MlgError(f"layer index {layer} out of range (tau={self.tau})")
            edges = self.robber_layer_edges() if layer is None else self.layers[layer]
            self._cache[key] = tuple(map(tuple, adjacency_lists(self.n, edges)))
        return self._cache[key]

    def components(self, layer: int | None) -> list[set[int]]:
        """`component_sets` of one layer's view (None: the robber's), walked
        afresh on each call: the view is cached, its components are not, so
        each caller owns the sets it gets."""

        return component_sets(self.layer_view(layer))

    def moves(self, layer: int | None) -> Sequence[Sequence[int]]:
        """The move rule of one layer (None: the robber's): per vertex, the
        stay plus its neighbours, ascending.  A complete robber layer gives
        one shared `range(n)` for every vertex and lists no edge."""

        key = ("moves", layer)
        if key not in self._cache:
            if layer is None and self.robber_is_complete():
                self._cache[key] = (range(self.n),) * self.n
            else:
                self._cache[key] = tuple(tuple(sorted((v, *nbrs))) for v, nbrs in enumerate(self.layer_view(layer)))
        return self._cache[key]


@dataclass(frozen=True)
class AllocationPlan:
    """Per-layer cop counts (k_1, ..., k_tau)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise MlgError(f"negative cop count in allocation {self.counts}")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def assignment(self) -> tuple[int, ...]:
        """Per-cop layer indices, cops packed into earliest layers first."""

        out: list[int] = []
        for layer, c in enumerate(self.counts):
            out.extend([layer] * c)
        return tuple(out)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.counts)


def checked_assignment(g: MultiLayerGraph, plan: AllocationPlan) -> tuple[int, ...]:
    """`plan.assignment()`, once `plan` has one count per layer of `g`."""

    if len(plan.counts) != g.tau:
        raise MlgError(f"allocation has {len(plan.counts)} entries, graph has {g.tau} layers")
    return plan.assignment()


# -- game outcome types (numpy-free; see the module docstring) ------------------

DEFAULT_STATE_BUDGET = 2**31


class Winner(Enum):
    COP = "COP"
    ROBBER = "ROBBER"


class StateBudgetExceeded(MlgError):
    """An instance over its budget: solver states, or vertices whose layer
    structures would not fit in physical RAM.  The CLI exits with code 3."""

    def __init__(self, required: int, budget: int, what: str = "state space", unit: str = "states"):
        super().__init__(f"{what} needs {required} {unit}, budget is {budget}")
        self.required = required
        self.budget = budget


@dataclass
class GameVerdict:
    """Winner plus a verified witness.

    For COP the witness is a winning initial cop placement (with the
    assignment of cops to layers).  For ROBBER the witness is a safe robber
    start against the lexicographically first cop placement; the table's
    `robber_placement` answers the same query for any other placement.
    """

    winner: Winner
    assignment: tuple[int, ...] = ()
    placement: tuple[int, ...] | None = None
    safe_vertex: int | None = None
    certificate: object | None = None  # robber's-edge witness from the tree path

    def record_lines(self) -> list[str]:
        lines = [f"VERDICT={self.winner.value}"]
        if self.assignment:
            lines.append("ASSIGNMENT=" + ",".join(str(a) for a in self.assignment))
        if self.winner is Winner.COP and self.placement is not None:
            lines.append("PLACEMENT=" + ",".join(str(p) for p in self.placement))
        if self.winner is Winner.ROBBER and self.safe_vertex is not None:
            lines.append(f"SAFE_VERTEX={self.safe_vertex}")
        if self.certificate is not None:
            lines.append(self.certificate.render())
        return lines


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of `total` into `parts`, cops packed early-layer-first.

    (2,0) comes before (1,1) before (0,2)."""

    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def allocation_plans(k: int, tau: int) -> Iterator[AllocationPlan]:
    """The plans of k cops over tau layers, in solver order; none for k = 0.
    `([g], allocation_plans(k, g.tau))` asks whether k cops win on `g`."""

    if k < 0:
        raise MlgError("cop count must be non-negative")
    return (AllocationPlan(comp) for comp in compositions(k, tau)) if k else iter(())


def _search(graphs: Sequence[MultiLayerGraph], plans: Iterable[AllocationPlan]):
    """A question as a coroutine: yields each `(graph, assignment)` to decide and
    is sent its verdict; returns the answer (None past the last plan)."""

    for plan in plans:
        for g in graphs:
            if (yield g, plan.assignment()).winner is Winner.ROBBER:
                break
        else:
            return plan


def first_winning_plans(
    questions: Sequence[tuple[Sequence[MultiLayerGraph], Iterable[AllocationPlan]]],
    decide: Callable[[list[tuple[MultiLayerGraph, tuple[int, ...]]]], Sequence[GameVerdict]],
) -> list[tuple[AllocationPlan | None, GameVerdict | None]]:
    """Each question's answer and the last verdict it was sent (None if it
    tried no plan), in input order.  A question is some graphs of one layer
    count and the plans to try on them, drawn one at a time; its answer is
    the first plan under which every graph is a cop win (a plan stops at its
    first ROBBER graph), else None.  Each round, one `decide` call maps the
    pending `(graph, assignment)` of every open question to a verdict each,
    read for its `winner` only: a question decides what it would alone."""

    answers: list[tuple[AllocationPlan | None, GameVerdict | None]] = [(None, None)] * len(questions)
    searches = [(i, _search(*question), None) for i, question in enumerate(questions)]
    while searches:
        pending = []
        for i, search, verdict in searches:
            try:
                pending.append((i, search, search.send(verdict)))  # a new search is sent None
            except StopIteration as done:
                answers[i] = done.value, verdict
        verdicts = decide([pair for _, _, pair in pending])
        searches = [(i, search, verdict) for (i, search, _), verdict in zip(pending, verdicts)]
    return answers


# -- basic operations ---------------------------------------------------------


def flatten(g: MultiLayerGraph) -> tuple[Edge, ...]:
    """Union of all cop layers."""

    if "flatten" not in g._cache:
        es: set[Edge] = set()
        for layer in g.layers:
            es.update(layer)
        g._cache["flatten"] = tuple(sorted(es))
    return g._cache["flatten"]


# List slots (2 MiB of pointers) the distances of one graph may hold in its
# cache; past them the oldest lists are dropped, so a long batch of matches
# on a large graph keeps a flat footprint instead of n lists of n.
_DIST_CACHE_SLOTS = 1 << 18


def bfs_dist(g: MultiLayerGraph, layer: int | None, source: int) -> list[float]:
    """Unweighted shortest-path distances from `source` within one layer
    (None: the robber's; inf if unreachable), cached per graph up to
    `_DIST_CACHE_SLOTS` entries.  The list is shared by every caller, so it
    must only be read."""

    dists = g._cache.setdefault("dist", {})
    dist = dists.get((layer, source))
    if dist is None:
        dist = dists[layer, source] = bfs_dist_adj(g.layer_view(layer), source)
        while len(dists) > 1 and len(dists) * g.n > _DIST_CACHE_SLOTS:
            del dists[next(iter(dists))]
    return dist


# -- graph traversal on adjacency lists ------------------------------------------


def adjacency_lists(n: int, edges: Iterable[Sequence[int]]) -> list[list[int]]:
    """Sorted neighbour lists of an edge set on the vertices 0..n-1."""

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    return adj


def neighbour_masks(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Each vertex's neighbours as a bitmask: bit w is set for every neighbour w."""

    masks = []
    for nbrs in adjacency:
        m = 0
        for w in nbrs:
            m |= 1 << w
        masks.append(m)
    return masks


def component_sets(adjacency: Sequence[Sequence[int]], blocked: Iterable[int] = ()) -> list[set[int]]:
    """Components of the graph minus `blocked`, ordered by smallest vertex."""

    seen = [False] * len(adjacency)
    for b in blocked:
        seen[b] = True
    comps: list[set[int]] = []
    for s in range(len(adjacency)):
        if seen[s]:
            continue
        seen[s] = True
        reached = [s]
        for x in reached:  # the list grows while it is walked
            for y in adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    reached.append(y)
        comps.append(set(reached))
    return comps


def bfs_dist_adj(
    adjacency: Sequence[Sequence[int]], *sources: int, within: set[int] | None = None
) -> list[float]:
    """Distances from the nearest of `sources` (inf if unreachable).  With
    `within`, the search enters only the vertices of that set."""

    dist: list[float] = [INF] * len(adjacency)
    for s in sources:
        dist[s] = 0
    frontier = list(sources)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in adjacency[x]:
                if dist[y] == INF and (within is None or y in within):
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def diameter(adjacency: Sequence[Sequence[int]], within: set[int] | None = None) -> float:
    """Largest distance between vertices of `within` (default: all, never
    none) in the subgraph they induce, inf if it is not connected."""

    vertices = range(len(adjacency)) if within is None else within
    return max(max(map(bfs_dist_adj(adjacency, s, within=within).__getitem__, vertices)) for s in vertices)


def ml_min_degree(g: MultiLayerGraph) -> int:
    """Minimum over vertices of the summed per-layer degrees.

    An edge present in several layers counts once per layer.
    """

    views = [g.layer_view(i) for i in range(g.tau)]
    return min(sum(len(view[v]) for view in views) for v in range(g.n))


def min_degree(edges: Sequence[Edge], n: int) -> int:
    """Minimum degree of a single edge set on n vertices."""

    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return min(deg)


def girth(edges: Sequence[Edge], n: int) -> float:
    """Length of a shortest cycle (inf for forests).

    BFS from every vertex; a non-tree edge at depth d closes a cycle of
    length dist[u] + dist[v] + 1, and scanning all roots is exact.
    """

    adj = adjacency_lists(n, edges)
    best = INF
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            if 2 * dist[x] >= best:
                break
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    cyc = dist[x] + dist[y] + 1
                    if cyc < best:
                        best = cyc
    return best


def is_connected_edges(edges: Sequence[Edge], n: int) -> bool:
    return len(component_sets(adjacency_lists(n, edges))) == 1


# -- MLG1 format --------------------------------------------------------------


def serialize_mlg(g: MultiLayerGraph) -> str:
    """Canonical MLG1 text: LF endings, single spaces, edges sorted."""

    lines = [f"MLG1 {g.n} {g.tau} {g.robber_spec.value}"]
    for i, layer in enumerate(g.layers):
        lines.append(f"LAYER {i + 1} {len(layer)}")
        lines.extend(f"{u} {v}" for u, v in layer)
    if g.robber_spec is RobberSpec.EXPLICIT:
        assert g.robber_edges is not None
        lines.append(f"ROBBER {len(g.robber_edges)}")
        lines.extend(f"{u} {v}" for u, v in g.robber_edges)
    return "\n".join(lines) + "\n"


def _ints(tokens: Sequence[str], line_no: int, message: str) -> list[int]:
    """The tokens as integers, each an optional '-' and ASCII digits, or an
    MlgParseError with `message` at `line_no`."""

    if not all(re.fullmatch("-?[0-9]+", t) for t in tokens):
        raise MlgParseError(line_no, message)
    return [int(t) for t in tokens]


def parse_mlg(text: str | bytes) -> MultiLayerGraph:
    """Parse MLG1 text; '#' comments and blank lines are ignored.

    After the header come tau sections `LAYER i <m>`, then `ROBBER <m>` when
    the spec is EXPLICIT. One rule reads every section: its head line, m
    edge lines `u v` with u < v, and one `canonical_edges` check of the lot.
    Errors carry the offending 1-based line number of the raw input.
    """

    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as ex:
            # the bytes before the bad one decode; a trailing character
            # makes splitlines count the line the bad byte is on
            line_no = len((text[: ex.start].decode("utf-8") + "x").splitlines())
            raise MlgParseError(line_no, f"invalid UTF-8 byte {text[ex.start]:#04x}") from None
    numbered: list[tuple[int, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            numbered.append((ln, stripped))
    if not numbered:
        raise MlgParseError(1, "empty input")
    lines = iter(numbered)

    def take() -> tuple[int, str]:
        item = next(lines, None)
        if item is None:
            raise MlgParseError(numbered[-1][0], "unexpected end of input")
        return item

    ln, header = take()
    parts = header.split()
    if len(parts) != 4 or parts[0] != "MLG1":
        raise MlgParseError(ln, f"malformed header {header!r}")
    n, tau = _ints(parts[1:3], ln, f"malformed header {header!r}")
    try:
        spec = RobberSpec(parts[3])
    except ValueError:
        raise MlgParseError(ln, f"unknown robber spec {parts[3]!r}") from None
    if n < 1:
        raise MlgParseError(ln, f"vertex count must be positive, got {n}")
    if tau < 1:
        raise MlgParseError(ln, f"layer count must be positive, got {tau}")

    def section(keyword: str, index: list[int], what: str) -> tuple[Edge, ...]:
        """`<keyword> [index] <m>`, then m edge lines; range, self-loops and
        duplicates are checked in canonical_edges."""

        hln, line = take()
        toks = line.split()
        head = " ".join([keyword, *map(str, index)])
        shape = f"expected '{head} <m>', got {line!r}"
        if len(toks) != len(index) + 2 or toks[0] != keyword:
            raise MlgParseError(hln, shape)
        *got, m = _ints(toks[1:], hln, shape)
        if got != index:
            raise MlgParseError(hln, f"expected layer {index[0]}, got layer {got[0]}")
        if m < 0:
            raise MlgParseError(hln, f"negative edge count {m}")
        edges: list[Edge] = []
        line_nos: list[int] = []
        for _ in range(m):
            eln, line = take()
            toks = line.split()
            if len(toks) != 2:
                raise MlgParseError(eln, f"expected '<u> <v>', got {line!r}")
            u, v = _ints(toks, eln, f"expected integers, got {line!r}")
            if u > v:
                raise MlgParseError(eln, f"edge must satisfy u < v, got {u} {v}")
            edges.append((u, v))
            line_nos.append(eln)
        try:
            return canonical_edges(edges, n, what=what)
        except MlgEdgeError as ex:
            raise MlgParseError(line_nos[ex.position], str(ex)) from None

    layers = tuple(section("LAYER", [i], f"layer {i} edge") for i in range(1, tau + 1))
    robber_edges = section("ROBBER", [], "robber edge") if spec is RobberSpec.EXPLICIT else None
    extra = next(lines, None)
    if extra is not None:
        raise MlgParseError(extra[0], f"trailing content {extra[1]!r}")

    return MultiLayerGraph(n=n, layers=layers, robber_spec=spec, robber_edges=robber_edges)


def parse_mlg_file(path) -> MultiLayerGraph:
    with open(path, "rb") as fh:
        return parse_mlg(fh.read())


def write_mlg_file(g: MultiLayerGraph, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(serialize_mlg(g))
