"""Independent reference implementations for cross-checking the fast paths.

Everything here is deliberately naive: Gauss-Seidel fixed points instead of
retrograde BFS, explicit successor enumeration instead of packed arrays, and
exhaustive search for the combinatorial quantities.  These routines are only
run on small instances.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence

from .core import MultiLayerGraph, adjacency_lists


def _agent_adjacency(g: MultiLayerGraph, assignment: Sequence[int]):
    """Per-agent move sets including stay; agent 0 is the robber.  They are
    built from the edge sets, not from the graph's cached views."""

    edge_sets = [g.robber_layer_edges(), *(g.layers[layer] for layer in assignment)]
    return [[sorted([v, *nbrs]) for v, nbrs in enumerate(adjacency_lists(g.n, edges))] for edges in edge_sets]


def naive_copwin_status(g: MultiLayerGraph, assignment: Sequence[int]) -> dict[tuple, bool]:
    """Cop-win classification of every state by Gauss-Seidel iteration.

    States are (p0, (p1..pk), t); a state is cop-win if captured, if the cop
    to move has a cop-win successor, or if every robber move (stay included)
    is cop-win.  Iterating the monotone update to a fixed point from
    all-False yields exactly the cop-win set.
    """

    n, k = g.n, len(assignment)
    moves = _agent_adjacency(g, assignment)
    states = [
        (p0, cops, t)
        for p0 in range(n)
        for cops in product(range(n), repeat=k)
        for t in range(k + 1)
    ]
    win = {s: s[0] in s[1] for s in states}
    changed = True
    while changed:
        changed = False
        for s in states:
            if win[s]:
                continue
            p0, cops, t = s
            if t < k:
                mover = t
                ok = False
                for q in moves[t + 1][cops[mover]]:
                    nc = cops[:mover] + (q,) + cops[mover + 1 :]
                    if win[(p0, nc, t + 1)]:
                        ok = True
                        break
            else:
                ok = True
                for q in moves[0][p0]:
                    if not win[(q, cops, 0)]:
                        ok = False
                        break
            if ok:
                win[s] = True
                changed = True
    return win


# -- simple-graph helpers ---------------------------------------------------------


def brute_domination_number(edges: Sequence[tuple[int, int]], n: int) -> int:
    """Smallest dominating set of a simple graph by subset enumeration."""

    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << n) - 1
    for size in range(0, n + 1):
        for subset in combinations(range(n), size):
            mask = 0
            for v in subset:
                mask |= closed[v]
            if mask == full:
                return size
    return n
