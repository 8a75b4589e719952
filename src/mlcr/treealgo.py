"""Polynomial decision procedure when the robber layer is a tree.

A cop assigned to a layer is pinned, for the whole game, to the component
of that layer it starts in; only this component choice matters before
distances come into play.  For a fixed assignment we therefore quantify
over "component profiles" (one start component per cop, singletons of
isolated vertices included) and test each profile for a robber win:

* an unpoliced vertex (no cop's component contains it) lets the robber sit
  there forever;
* a robber's edge -- a tree edge whose endpoints are policed by at most one
  cop, that cop needing >= 3 steps (or being unable to travel) between
  them -- lets the robber oscillate between the endpoints.

If some profile admits neither, the cops win from it by a squeeze that
shrinks the robber's territory by at least one vertex per iteration; the
simulator's tree_squeeze strategy plays it out.  An assignment is cop-win
iff a clean profile exists.  Cops on one layer are interchangeable, so
only the profiles in which each layer's cops choose its components in
non-decreasing order are tested.  `solve` asks whether one allocation
wins, or whether k cops win under some composition (in the exact solver's
order), through `core.first_winning_plans` with `tree_verdicts` as its
decider.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import INF, GameVerdict, MlgError, MultiLayerGraph, Winner, bfs_dist_adj


@dataclass(frozen=True)
class RobbersEdgeCertificate:
    """Witness that the robber wins a given assignment.

    `reaching_cops` lists the (cop index, layer) pairs able to reach u or v
    under the witnessing profile; `blocking_distance` is the layer distance
    between u and v for the unique reaching cop (inf when no cop reaches
    both endpoints).  Usually at most one cop reaches the pair; when the
    witness is an entirely unpoliced vertex whose tree neighbours are all
    multiply policed, the listed edge can carry more reachers, and the
    unpoliced endpoint is still a safe camp.
    """

    edge: tuple[int, int]
    reaching_cops: tuple[tuple[int, int], ...]
    blocking_distance: float

    def render(self) -> str:
        d = "inf" if self.blocking_distance == INF else str(int(self.blocking_distance))
        u, v = self.edge
        return f"ROBBERS_EDGE {u} {v} ncops={len(self.reaching_cops)} dist={d}"


def _profile_robbers_edge(
    g: MultiLayerGraph,
    assignment: Sequence[int],
    profile: Sequence[frozenset[int]],
    robber_edges: Sequence[tuple[int, int]],
) -> RobbersEdgeCertificate | None:
    """First robber-win witness for one component profile, or None if clean."""

    n = g.n
    policed_by: list[list[int]] = [[] for _ in range(n)]
    for c, comp in enumerate(profile):
        for v in comp:
            policed_by[v].append(c)
    for v in range(n):
        if not policed_by[v]:
            # the robber camps on v; witness with the first tree edge at v
            # that at most one cop reaches, else with the first tree edge at v
            # (one exists: with a cop placed, an unpoliced v means n >= 2)
            certs = []
            for u, w in robber_edges:
                if v in (u, w):
                    reach = tuple((c, assignment[c]) for c in sorted({*policed_by[u], *policed_by[w]}))
                    certs.append(RobbersEdgeCertificate((u, w), reach, INF))
            return next((cert for cert in certs if len(cert.reaching_cops) <= 1), certs[0])
    for u, v in robber_edges:
        reach = sorted(set(policed_by[u] + policed_by[v]))
        if len(reach) >= 2:
            continue
        c = reach[0]
        comp = profile[c]
        adj = g.layer_view(assignment[c])
        if u in comp and not set(adj[u]).isdisjoint(g.moves(assignment[c])[v]):
            continue  # the cop's layer joins u and v within two steps
        dist = bfs_dist_adj(adj, u)[v] if u in comp and v in comp else INF
        return RobbersEdgeCertificate((u, v), ((c, assignment[c]),), dist)
    return None


def _component_choices(g: MultiLayerGraph, layer: int) -> list[frozenset[int]]:
    """Start components a cop on this layer can choose, most useful first."""

    return sorted(map(frozenset, g.components(layer)), key=lambda c: (-len(c), min(c)))


def robber_tree_edges(g: MultiLayerGraph) -> tuple[tuple[int, int], ...] | None:
    """The robber layer's edges if they form a spanning tree (n-1 edges and
    one component), else None; the answer is cached per graph, so every
    composition of a question checks the tree once.

    A complete robber layer is a tree iff n <= 2; a larger one is not listed."""

    if g.robber_is_complete() and g.n > 2:
        return None
    if "robber_tree" not in g._cache:
        edges = g.robber_layer_edges()
        g._cache["robber_tree"] = edges if len(edges) == g.n - 1 and len(g.components(None)) == 1 else None
    return g._cache["robber_tree"]


def _group_sorted_profiles(
    assignment: Sequence[int],
    choices: dict[int, list[frozenset[int]]],
) -> Iterator[tuple[frozenset[int], ...]]:
    """Component profiles in `itertools.product` order over each cop's
    `choices`, keeping only those in which the cops of one layer choose
    non-decreasing positions: a depth-first walk in which each cop starts at
    the position of the last cop before it on its layer."""

    k = len(assignment)
    picked = [0] * k

    def walk(c: int) -> Iterator[tuple[frozenset[int], ...]]:
        if c == k:
            yield tuple(choices[layer][j] for layer, j in zip(assignment, picked))
            return
        layer = assignment[c]
        # the group's positions so far do not decrease: their maximum is the last
        floor = max((picked[d] for d in range(c) if assignment[d] == layer), default=0)
        for j in range(floor, len(choices[layer])):
            picked[c] = j
            yield from walk(c + 1)

    return walk(0)


def find_robbers_edge(
    g: MultiLayerGraph,
    assignment: Sequence[int],
) -> RobbersEdgeCertificate | tuple[frozenset[int], ...]:
    """Clean component profile for an assignment (start components that
    leave no robber's edge), or a robber-win certificate when every profile
    is dirty: that of the first profile in component order.  No cop, or a
    robber layer that is not a spanning tree: refused.

    Each distinct layer's components are listed once per call.  Permuting
    same-layer cops keeps a profile clean or dirty, so only the profiles
    whose layer groups choose non-decreasing positions are tested (C(c+2, 3)
    instead of c^3 for three cops on a layer of c components).  The answer
    is that of the full `product` order: sorting the groups of its first
    clean profile gives a clean profile no larger, hence the same one, and
    its first profile, all cops on their first choice, is kept.
    """

    if not assignment:
        raise MlgError("find_robbers_edge needs at least one cop")
    robber_edges = robber_tree_edges(g)
    if robber_edges is None:
        raise MlgError("robber layer is not a tree")
    choices = {layer: _component_choices(g, layer) for layer in set(assignment)}
    first_cert: RobbersEdgeCertificate | None = None
    for profile in _group_sorted_profiles(assignment, choices):
        cert = _profile_robbers_edge(g, assignment, profile, robber_edges)
        if cert is None:
            return profile
        if first_cert is None:
            first_cert = cert
    return first_cert


def tree_verdicts(pairs: Sequence[tuple[MultiLayerGraph, tuple[int, ...]]]) -> list[GameVerdict]:
    """Tree-robber verdict of each `(graph, assignment)` pair, the tree path's
    decider: COP with each cop on the smallest vertex of its clean-profile
    component, else ROBBER with the robber's-edge certificate."""

    verdicts = []
    for g, assignment in pairs:
        found = find_robbers_edge(g, assignment)
        if isinstance(found, RobbersEdgeCertificate):
            verdict = GameVerdict(Winner.ROBBER, assignment=assignment, certificate=found)
        else:
            verdict = GameVerdict(Winner.COP, assignment=assignment, placement=tuple(min(c) for c in found))
        verdicts.append(verdict)
    return verdicts


def winning_profile(g: MultiLayerGraph, assignment: Sequence[int]) -> tuple[frozenset[int], ...] | None:
    """Clean component profile for an assignment, if one exists."""

    found = find_robbers_edge(g, assignment)
    return None if isinstance(found, RobbersEdgeCertificate) else found
