"""Reference oracles used only by the tests: verdicts from the naive
status map, from simultaneous team moves and from full tables per
composition, and girth and treewidth by brute force, all deliberately
naive and run on small instances only, like `mlcr.oracles`;
`rank_violations`, the certificate of a solved table at any size, and
`multiset_rank_violations`, its counterpart for winner-only tables over
cop multisets; and
`first_robber_move_into_a_cop_win`, which judges a robber's match move by
move against the solved table.

The certificate checks the game's defining equations, state by state:
rank 0 exactly on capture states; a cop-turn state is cop-win iff some
successor is, a robber-turn state iff every successor is, with rank 1 +
the min (cop) or max (robber) over the cop-win successors; -1 elsewhere.
They determine `rank` (the standard local check of a retrograde table;
Thompson, "Retrograde analysis of certain endgames", ICCA J. 9(3), 1986):
the -1 states form a trap the robber never has to leave; from rank r the
cops capture within r moves by stepping to a smaller rank; and by
induction on the game's value v, rank <= v.  The move rows come from the
layer views plus the stay, not from `MultiLayerGraph.moves` or the
solver's arrays, so a fault in either still shows.
"""

from itertools import combinations_with_replacement, permutations, product
from math import comb, prod
from typing import Sequence

import numpy as np

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

# States per chunk of the certificate: its work arrays stay O(chunk).
_CERT_CHUNK = 1 << 22


def _move_rows(n: int, adjacency: Sequence[Sequence[int]] | None) -> np.ndarray:
    """Per vertex, the stay and its neighbours, padded with the stay to the
    widest row (a repeated successor changes no min, max or "any -1");
    every vertex on every row for a complete layer (None)."""

    if adjacency is None:
        return np.tile(np.arange(n), (n, 1))
    rows = np.repeat(np.arange(n)[:, None], 1 + max(map(len, adjacency)), axis=1)
    for v, nbrs in enumerate(adjacency):
        rows[v, 1 : 1 + len(nbrs)] = nbrs
    return rows


def rank_violations(table) -> np.ndarray:
    """Indices of the states where `table.rank` breaks the game's defining
    equations (see the module docstring); empty iff it is the game's value."""

    g, rank = table.graph, table.rank
    n, k = g.n, len(table.assignment)
    kp1 = k + 1
    size = n**kp1 * kp1
    assert rank.shape == (size,) and rank.dtype in (np.int16, np.int32)
    strides = [kp1 * n ** (k - a) for a in range(kp1)]  # agent a's digit; 0 = robber
    rows = [_move_rows(n, None if g.robber_is_complete() else g.layer_view(None))]
    rows += [_move_rows(n, g.layer_view(layer)) for layer in table.assignment]
    step = _CERT_CHUNK // kp1 * kp1
    bad = []
    for lo, t in product(range(0, size, step), range(kp1)):
        state = np.arange(lo + t, min(lo + step, size), kp1)
        mover = 0 if t == k else t + 1  # also the turn after the move
        pos = state // strides[mover] % n
        base = state - t + mover - pos * strides[mover]  # the successor with the mover on 0
        lost = np.zeros(state.size, dtype=bool)
        least = np.full(state.size, 1 << 40)
        most = np.full(state.size, -1)
        for column in rows[mover].T:
            r = rank[base + column[pos] * strides[mover]]
            lost |= r < 0
            np.minimum(least, r, out=least, where=r >= 0)
            np.maximum(most, r, out=most)
        if mover:  # cop to move: cop-win iff some successor is
            want = np.where(most < 0, -1, least + 1)
        else:  # robber to move: cop-win iff every successor is
            want = np.where(lost, -1, most + 1)
        robber = state // strides[0]
        want[np.any([state // s % n == robber for s in strides[1:]], axis=0)] = 0  # capture
        bad.append(state[rank[state] != want])
    return np.concatenate(bad)


def multiset_rank_violations(g: MultiLayerGraph, assignment: Sequence[int], rank: np.ndarray) -> list[int]:
    """Indices where a winner-only table in the multiset layout, solved to
    its fixpoint for one `(g, assignment)`, breaks the equations of the
    round-level game, the same equations as `rank_violations` with its
    own move rule: the cop to move at turn t may move any cop of cop
    t+1's group that has not moved this round.  The layout is rebuilt here
    from its description in `mlcr.layouts`, by enumeration: every state is
    checked to have exactly one index, and the successors come from the
    layer views plus the stay."""

    n, k = g.n, len(assignment)
    by_layer: dict[int, list[int]] = {}
    for cop, layer in enumerate(assignment, start=1):
        by_layer.setdefault(layer, []).append(cop)
    groups = list(by_layer.values())

    def sizes(t):  # per group: cops moved this round, then cops still to move
        return [s for grp in groups for s in (sum(c <= t for c in grp), sum(c > t for c in grp))]

    radix = [[comb(n + s - 1, s) for s in sizes(t)] for t in range(k + 1)]
    place = [prod(r) for r in radix]
    offset = [n * sum(place[:t]) for t in range(k + 1)]

    def index(t, p0, slots):
        code = 0
        for r, multiset in zip(radix[t], slots):
            code = code * r + sum(comb(x + i, i + 1) for i, x in enumerate(multiset))  # colex rank
        return offset[t] + p0 * place[t] + code

    states = {}
    for t in range(k + 1):
        for p0 in range(n):
            for slots in product(*(combinations_with_replacement(range(n), s) for s in sizes(t))):
                states[index(t, p0, slots)] = (t, p0, slots)
    assert sorted(states) == list(range(rank.size)), "the layout is not a bijection onto the table"
    rows = [_move_rows(n, None if g.robber_is_complete() else g.layer_view(None))]
    rows += [_move_rows(n, g.layer_view(layer)) for layer in assignment]
    bad = []
    for state, (t, p0, slots) in states.items():
        if any(p0 in multiset for multiset in slots):
            want = 0
        else:
            if t == k:  # the robber moves; every cop is still to move in the next round
                restart = [s for gi in range(len(groups)) for s in ((), slots[2 * gi])]
                succ = [rank[index(0, int(q), restart)] for q in set(rows[0][p0])]
            else:  # some cop of cop t+1's group that has not moved yet moves
                gi = next(i for i, grp in enumerate(groups) if t + 1 in grp)
                moved, todo = slots[2 * gi], slots[2 * gi + 1]
                succ = []
                for p in set(todo):
                    rest = list(todo)
                    rest.remove(p)
                    for q in set(rows[t + 1][p]):
                        new = list(slots)
                        new[2 * gi : 2 * gi + 2] = tuple(sorted((*moved, int(q)))), tuple(rest)
                        succ.append(rank[index(t + 1, p0, new)])
            won = [r for r in succ if r >= 0]
            if t == k:
                want = -1 if len(won) < len(succ) else 1 + max(won)
            else:
                want = 1 + min(won) if won else -1
        if rank[state] != want:
            bad.append(state)
    return bad


def first_robber_move_into_a_cop_win(record, table) -> tuple[int, int, int, tuple[int, ...]] | None:
    """Replay a `MatchRecord` against its solved `CopWinTable`: the first
    robber move from a robber-win position (robber to move, rank -1) to a
    cop-win one (cops to move, rank >= 0 at t = 0), as (round, from, to,
    cops); None when the robber never gives up a won game.  One such move
    proves that some cop team beats the robber's strategy, whatever cops
    the match was played against."""

    rank, k = table.rank, table.k
    robber = record.rows[0][2]
    for rnd, mover, r_new, cops in record.rows[1:]:
        if mover == "R":
            if rank[table.pack(robber, cops, k)] < 0 <= rank[table.pack(r_new, cops, 0)]:
                return rnd, robber, r_new, cops
            robber = r_new
    return None


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
    """`solve --free-choice`'s verdict and answer plan from full tables: each
    robber-layer variant's `allocated_verdict`, per composition in solver
    order, up to the first composition that wins them all."""

    from mlcr.solver import build_copwin

    if k < 0:
        raise MlgError("cop count must be non-negative")
    if k == 0:
        return GameVerdict(Winner.ROBBER, safe_vertex=0), None
    variants = robber_layer_variants(g)
    for comp in compositions(k, g.tau):
        plan = AllocationPlan(comp)
        if all(build_copwin(gj, plan.assignment()).allocated_verdict().winner is Winner.COP for gj in variants):
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
