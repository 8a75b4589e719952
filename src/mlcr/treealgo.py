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
iff a clean profile exists; the full decision tries all tau^k assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .core import (
    INF,
    AllocationPlan,
    GameVerdict,
    MlgError,
    MultiLayerGraph,
    Winner,
    allocation_plans,
    bfs_dist_adj,
)


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
    one component in the graph's cached `components(None)`), else None.

    A complete robber layer is a tree iff n <= 2; a larger one is not listed."""

    if g.robber_is_complete() and g.n > 2:
        return None
    edges = g.robber_layer_edges()
    return edges if len(edges) == g.n - 1 and len(g.components(None)) == 1 else None


def _tree_edges(g: MultiLayerGraph) -> Sequence[tuple[int, int]]:
    """The robber layer's edges, checked to form a spanning tree."""

    edges = robber_tree_edges(g)
    if edges is None:
        raise MlgError("robber layer is not a tree")
    return edges


def find_robbers_edge(
    g: MultiLayerGraph,
    assignment: Sequence[int],
) -> RobbersEdgeCertificate | tuple[frozenset[int], ...]:
    """Clean component profile for an assignment (start components that
    leave no robber's edge), or a robber-win certificate when every profile
    is dirty: that of the first profile in component order.  No cop: refused.
    """

    if not assignment:
        raise MlgError("find_robbers_edge needs at least one cop")
    robber_edges = _tree_edges(g)
    choices = [_component_choices(g, layer) for layer in assignment]
    first_cert: RobbersEdgeCertificate | None = None
    for profile in product(*choices):
        cert = _profile_robbers_edge(g, assignment, profile, robber_edges)
        if cert is None:
            return tuple(profile)
        if first_cert is None:
            first_cert = cert
    return first_cert


def decide_tree_allocated(g: MultiLayerGraph, alloc: AllocationPlan) -> GameVerdict:
    """Tree-robber verdict for one allocation: COP with each cop on the
    smallest vertex of its clean-profile component, else ROBBER with the
    robber's-edge certificate."""

    assignment = alloc.assignment()
    found = find_robbers_edge(g, assignment)
    if isinstance(found, RobbersEdgeCertificate):
        return GameVerdict(Winner.ROBBER, assignment=assignment, certificate=found)
    return GameVerdict(Winner.COP, assignment=assignment, placement=tuple(min(c) for c in found))


def decide_tree_robber(g: MultiLayerGraph, k: int) -> tuple[GameVerdict, AllocationPlan | None]:
    """Tree-robber decision over all allocations of k cops to layers.

    COP iff some assignment has no robber's edge; the winning allocation is
    the first one found in the composition order used by the exact solver.
    A robber layer that is not a tree is refused, also for k = 0.
    """

    plans = allocation_plans(k, g.tau)  # refuses k < 0 before the tree check
    _tree_edges(g)
    if k == 0:
        return GameVerdict(Winner.ROBBER, safe_vertex=0), None
    last_cert = None
    for plan in plans:
        verdict = decide_tree_allocated(g, plan)
        if verdict.winner is Winner.COP:
            return verdict, plan
        last_cert = verdict.certificate
    # the certificate is the robber's witness; a single safe start vertex is
    # placement-dependent, so none is claimed here
    return GameVerdict(Winner.ROBBER, certificate=last_cert), None


def winning_profile(g: MultiLayerGraph, assignment: Sequence[int]) -> tuple[frozenset[int], ...] | None:
    """Clean component profile for an assignment, if one exists."""

    found = find_robbers_edge(g, assignment)
    return None if isinstance(found, RobbersEdgeCertificate) else found
