"""Reference oracles used only by the tests: verdicts from the naive
status map, from simultaneous team moves and from full tables per
composition, and girth and treewidth by brute force.
Like `mlcr.oracles`, they are deliberately naive and run on small
instances only."""

from itertools import permutations, product
from typing import Sequence

from mlcr.core import (
    INF,
    AllocationPlan,
    GameVerdict,
    MlgError,
    MultiLayerGraph,
    RobberSpec,
    Winner,
    bfs_dist_adj,
    compositions,
)
from mlcr.oracles import _agent_adjacency, naive_copwin_status


def naive_allocated_verdict(g: MultiLayerGraph, alloc: AllocationPlan) -> str:
    """COP/ROBBER via the naive status map (cops place, robber replies)."""

    if alloc.total == 0:
        return "ROBBER"
    assignment = alloc.assignment()
    win = naive_copwin_status(g, assignment)
    n, k = g.n, len(assignment)
    for cops in product(range(n), repeat=k):
        if all(win[(p0, cops, 0)] for p0 in range(n)):
            return "COP"
    return "ROBBER"


def robber_layer_variants(g: MultiLayerGraph) -> list[MultiLayerGraph]:
    """Free layer choice's games: `g` with the robber on each of its layers."""

    return [
        MultiLayerGraph(n=g.n, layers=g.layers, robber_spec=RobberSpec.EXPLICIT, robber_edges=layer)
        for layer in g.layers
    ]


def full_table_free_layer_choice(g: MultiLayerGraph, k: int) -> tuple[GameVerdict, AllocationPlan | None]:
    """`decide_free_layer_choice` from full tables: `decide_allocated` on
    every robber-layer variant, per composition in solver order, up to the
    first composition that wins them all."""

    from mlcr.solver import decide_allocated

    if k < 0:
        raise MlgError("cop count must be non-negative")
    if k == 0:
        return GameVerdict(Winner.ROBBER, safe_vertex=0), None
    variants = robber_layer_variants(g)
    for comp in compositions(k, g.tau):
        plan = AllocationPlan(comp)
        if all(decide_allocated(gj, plan).winner is Winner.COP for gj in variants):
            return GameVerdict(Winner.COP, assignment=plan.assignment()), plan
    return GameVerdict(Winner.ROBBER), None


def simultaneous_move_verdict(g: MultiLayerGraph, alloc: AllocationPlan) -> str:
    """Verdict under team moves: the cop player moves all cops at once.

    Used to confirm that the one-agent-at-a-time turn encoding decides the
    same game.
    """

    if alloc.total == 0:
        return "ROBBER"
    assignment = alloc.assignment()
    n, k = g.n, len(assignment)
    moves = _agent_adjacency(g, assignment)

    states = [
        (p0, cops, side)
        for p0 in range(n)
        for cops in product(range(n), repeat=k)
        for side in (0, 1)  # 0 = cop team to move, 1 = robber to move
    ]
    win = {s: s[0] in s[1] for s in states}
    changed = True
    while changed:
        changed = False
        for s in states:
            if win[s]:
                continue
            p0, cops, side = s
            if side == 0:
                ok = any(
                    win[(p0, nc, 1)]
                    for nc in product(*(moves[c + 1][cops[c]] for c in range(k)))
                )
            else:
                ok = all(win[(q, cops, 0)] for q in moves[0][p0])
            if ok:
                win[s] = True
                changed = True
    for cops in product(range(n), repeat=k):
        if all(win[(p0, cops, 0)] for p0 in range(n)):
            return "COP"
    return "ROBBER"


def brute_girth(edges: Sequence[tuple[int, int]], n: int) -> float:
    """Shortest cycle length by per-edge deletion and reconnection distance."""

    best = INF
    edge_list = list(edges)
    for i, (u, v) in enumerate(edge_list):
        adj = [[] for _ in range(n)]
        for j, (a, b) in enumerate(edge_list):
            if j == i:
                continue
            adj[a].append(b)
            adj[b].append(a)
        d = bfs_dist_adj(adj, u)[v]
        if d + 1 < best:
            best = d + 1
    return best


def brute_treewidth(edges: Sequence[tuple[int, int]], n: int) -> int:
    """Treewidth as the best elimination ordering, tried exhaustively (n <= 8)."""

    if n > 8:
        raise ValueError("brute_treewidth is for n <= 8")
    base = [set() for _ in range(n)]
    for u, v in edges:
        base[u].add(v)
        base[v].add(u)
    best = n - 1
    for order in permutations(range(n)):
        adj = [set(a) for a in base]
        alive = [True] * n
        width = 0
        for v in order:
            nbrs = [w for w in adj[v] if alive[w]]
            width = max(width, len(nbrs))
            if width >= best:
                break
            for a in nbrs:
                for b in nbrs:
                    if a != b:
                        adj[a].add(b)
            alive[v] = False
        best = min(best, width)
    return best
