"""Lower- and upper-bound machinery for the multi-layer cop number.

Lower bounds: multi-layer existential closure (a robber that always has an
unthreatened neighbour survives k cops) and its closed-neighbourhood-count
specialisation for complete robber layers.  Upper bounds: multi-layer
dominating sets (exact branch and bound and greedy) and the bag-sweep
certificate from a tree decomposition.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations

from .core import Edge, MlgError, MultiLayerGraph, adjacency_lists, component_sets, flatten, neighbour_masks

MEC_ENUMERATION_BUDGET = 10**8
DOMSET_EXACT_LIMIT = 40
TREEWIDTH_EXACT_LIMIT = 12


class EnumerationBudgetExceeded(MlgError):
    pass


# -- multi-layer existential closure ------------------------------------------------


def _closed_masks(g: MultiLayerGraph) -> list[list[int]]:
    return [neighbour_masks(g.moves(i)) for i in range(g.tau)]


def mec_check(g: MultiLayerGraph, k: int) -> bool:
    """Exact (1, k) multi-layer existential closure.

    For every choice of vertex sets S_1..S_tau with total size k: the union
    must not cover V, and every vertex outside the union needs a robber
    neighbour outside the union with no layer-i edge to any member of S_i.
    Call those unthreatened outside vertices `free`.  On a complete robber
    layer the condition is that `free` holds two vertices; otherwise the
    robber neighbourhood of `free` must cover every outside vertex.
    Short-circuits on the first violation.
    """

    n, tau = g.n, g.tau
    if k == 0:
        return n >= 1
    work = math.comb(tau * n, k) * n
    if work > MEC_ENUMERATION_BUDGET:
        raise EnumerationBudgetExceeded(f"(tau*n choose k)*n = {work} exceeds {MEC_ENUMERATION_BUDGET}")
    # pair p is (vertex p % n, layer p // n); it covers its closed layer neighbourhood
    closed = [m for masks in _closed_masks(g) for m in masks]
    full = (1 << n) - 1
    if g.robber_is_complete():  # its adjacency is never read
        for chosen in combinations(closed, k):
            covered = 0
            for m in chosen:
                covered |= m
            if (full & ~covered).bit_count() < 2:
                return False
        return True
    robber_masks = neighbour_masks(g.layer_view(None))
    for chosen in combinations(enumerate(closed), k):
        occupied = covered = 0
        for p, m in chosen:
            occupied |= 1 << (p % n)
            covered |= m
        outside = full & ~occupied
        free = full & ~covered
        reach = 0
        while free:
            wbit = free & -free
            free ^= wbit
            reach |= robber_masks[wbit.bit_length() - 1]
        if not outside or outside & ~reach:
            return False
    return True


def mec_lower_bound(g: MultiLayerGraph, max_k: float = math.inf) -> int:
    """Largest k <= max_k such that mec_check holds for 1..k; the search
    stops early when the enumeration budget runs out."""

    k = 0
    try:
        while k < max_k and mec_check(g, k + 1):
            k += 1
    except EnumerationBudgetExceeded:
        pass
    return k


def clique_lb_check(g: MultiLayerGraph, k: int) -> bool:
    """Closed-neighbourhood union condition certifying mc > k for a
    complete robber layer.

    A sufficient degree certificate (1 + k + k*(max layer degree + 1) < n)
    is tried first.  Otherwise the condition is `mec_check` itself: on a
    complete robber layer a vertex lacks an unthreatened neighbour exactly
    when the cops' closed neighbourhoods cover every other vertex.  It is
    conservatively reported False when the enumeration exceeds the budget.
    """

    if not g.robber_is_complete():
        raise MlgError("clique_lb_check requires a COMPLETE robber layer")
    n, tau = g.n, g.tau
    if k >= n:
        return False
    if k == 0:
        return n >= 2
    max_deg = max(len(row) for i in range(tau) for row in g.layer_view(i))
    if 1 + k + k * (max_deg + 1) < n:
        return True
    try:
        return mec_check(g, k)
    except EnumerationBudgetExceeded:
        return False


# -- multi-layer dominating sets ------------------------------------------------------


@dataclass(frozen=True)
class DominatingSet:
    """Set of (vertex, layer) pairs covering every vertex."""

    pairs: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.pairs)

    def is_valid(self, g: MultiLayerGraph) -> bool:
        covered = set()
        for v, i in self.pairs:
            covered.update(g.moves(i)[v])
        return len(covered) == g.n

    def render(self) -> str:
        body = " ".join(f"{v}:{i + 1}" for v, i in sorted(self.pairs))
        return f"DOMSET {len(self.pairs)} {body}\n"


def domset_exact(g: MultiLayerGraph) -> DominatingSet:
    """Minimum multi-layer dominating set by branch and bound.

    Branches on the lowest uncovered vertex: some chosen pair must cover
    it, so only pairs covering that vertex are tried.  Guarded to
    tau*n <= DOMSET_EXACT_LIMIT.
    """

    n, tau = g.n, g.tau
    if tau * n > DOMSET_EXACT_LIMIT:
        raise EnumerationBudgetExceeded(
            f"tau*n = {tau * n} exceeds exact limit {DOMSET_EXACT_LIMIT}"
        )
    masks = _closed_masks(g)
    full = (1 << n) - 1
    # pairs that cover vertex w, in (layer, vertex) order
    coverers: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i in range(tau):
        for v, row in enumerate(g.moves(i)):
            for w in row:
                coverers[w].append((v, i, masks[i][v]))

    greedy = domset_greedy(g)
    best_size = len(greedy)
    best = frozenset(greedy.pairs)

    def recurse(covered: int, chosen: tuple[tuple[int, int], ...]):
        nonlocal best, best_size
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = frozenset(chosen)
            return
        if len(chosen) + 1 > best_size:
            return
        uncovered = full & ~covered
        v = (uncovered & (-uncovered)).bit_length() - 1
        for w, i, m in coverers[v]:
            recurse(covered | m, chosen + ((w, i),))

    recurse(0, ())
    return DominatingSet(best)


def domset_greedy(g: MultiLayerGraph) -> DominatingSet:
    """Greedy cover: repeatedly take the (vertex, layer) pair covering the
    most uncovered vertices, ties by (vertex, layer) order.

    Lazy evaluation: the heap holds (-gain, v, layer) with gains that can
    only be stale upward (coverage grows), so a popped pair whose fresh gain
    still heads the heap is the exact greedy choice."""

    n, tau = g.n, g.tau
    masks = _closed_masks(g)
    full = (1 << n) - 1
    covered = 0
    chosen: set[tuple[int, int]] = set()
    heap = [(-masks[i][v].bit_count(), v, i) for v in range(n) for i in range(tau)]
    heapq.heapify(heap)
    while covered != full:
        _, v, i = heapq.heappop(heap)
        entry = (-(masks[i][v] & ~covered).bit_count(), v, i)
        if heap and entry > heap[0]:
            heapq.heappush(heap, entry)
            continue
        assert entry[0] < 0
        chosen.add((v, i))
        covered |= masks[i][v]
    return DominatingSet(frozenset(chosen))


def domination_bound(n: int, tau: int, delta: int) -> float:
    """Probabilistic upper bound n*tau/(tau+delta) * (ln((tau+delta)/tau) + 1)."""

    return n * tau / (tau + delta) * (math.log((tau + delta) / tau) + 1)


# -- splitting probability for layered random graphs ----------------------------------


def pstar(p: float, tau: int) -> float:
    """The p* with 1 - (1 - p*/tau)^tau = p, in closed form tau*(1-(1-p)^(1/tau))."""

    if not (0.0 <= p <= 1.0):
        raise MlgError(f"p must be in [0, 1], got {p}")
    if tau < 1:
        raise MlgError(f"tau must be >= 1, got {tau}")
    if p == 1.0:
        return float(tau)
    return tau * (-math.expm1(math.log1p(-p) / tau))


def pstar_residual(p: float, tau: int) -> float:
    """|1 - (1 - p*/tau)^tau - p| for the computed p*."""

    ps = pstar(p, tau)
    if ps / tau >= 1.0:
        value = 1.0
    else:
        value = -math.expm1(tau * math.log1p(-ps / tau))
    return abs(value - p)


# -- tree decompositions ----------------------------------------------------------------


@dataclass
class TreeDecomposition:
    """Bags plus a tree on bag indices."""

    bags: tuple[frozenset[int], ...]
    tree: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def max_bag(self) -> int:
        return max(len(b) for b in self.bags)

    def render(self) -> str:
        lines = [f"TD {len(self.bags)} width={self.width}"]
        for i, bag in enumerate(self.bags):
            lines.append(f"BAG {i} " + " ".join(str(v) for v in sorted(bag)))
        for a, b in self.tree:
            lines.append(f"EDGE {a} {b}")
        return "\n".join(lines) + "\n"


def td_validate(decomp: TreeDecomposition, edges: list[Edge] | tuple[Edge, ...], n: int) -> bool:
    """The three axioms: vertices covered, edges covered, running intersection."""

    bags = decomp.bags
    if not bags:
        return False
    union = set()
    for b in bags:
        union |= b
    if union != set(range(n)):
        return False
    for u, v in edges:
        if not any(u in b and v in b for b in bags):
            return False
    # tree must actually be a tree on the bag indices
    nb = len(bags)
    if len(decomp.tree) != nb - 1 or not all(0 <= a < nb and 0 <= b < nb for a, b in decomp.tree):
        return False
    tadj = adjacency_lists(nb, decomp.tree)
    if len(component_sets(tadj)) != 1:
        return False
    # running intersection: bags containing v induce a connected subtree
    for v in range(n):
        if len(component_sets(tadj, [i for i in range(nb) if v not in bags[i]])) != 1:
            return False
    return True


def treewidth_exact_small(edges: list[Edge] | tuple[Edge, ...], n: int) -> tuple[int, TreeDecomposition]:
    """Optimal treewidth by dynamic programming over elimination prefixes.

    q(S, v) counts the vertices outside S u {v} reachable from v through S;
    f(S) = min over v in S of max(f(S-v), q(S-v, v)).  The witness
    decomposition is rebuilt from the optimal elimination ordering.
    Guarded to n <= TREEWIDTH_EXACT_LIMIT.
    """

    if n > TREEWIDTH_EXACT_LIMIT:
        raise EnumerationBudgetExceeded(f"n = {n} exceeds exact treewidth limit {TREEWIDTH_EXACT_LIMIT}")
    adjacency = adjacency_lists(n, edges)
    nbr = neighbour_masks(adjacency)

    def q(eliminated: int, v: int) -> int:
        """Neighbours of v in the graph where `eliminated` has been contracted away."""

        seen = 1 << v
        stack = [v]
        out = 0
        while stack:
            x = stack.pop()
            new = nbr[x] & ~seen
            seen |= new
            out |= new & ~eliminated
            inner = new & eliminated
            while inner:
                bit = inner & (-inner)
                inner ^= bit
                stack.append(bit.bit_length() - 1)
        return bin(out).count("1")

    size = 1 << n
    f = [0] * size
    choice = [0] * size
    for s in range(1, size):
        best = n
        best_v = -1
        rem = s
        while rem:
            bit = rem & (-rem)
            rem ^= bit
            v = bit.bit_length() - 1
            prev = s ^ bit
            val = max(f[prev], q(prev, v))
            if val < best:
                best = val
                best_v = v
        f[s] = best
        choice[s] = best_v
    # recover elimination order (choice vertex eliminated last within its prefix)
    order = []
    s = size - 1
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()  # elimination order: first eliminated first

    # fill-in along the order; bag of v = v plus its later neighbours
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(a) for a in adjacency]
    bags: list[frozenset[int]] = []
    for i, v in enumerate(order):
        later = {w for w in adj[v] if pos[w] > i}
        bags.append(frozenset(later | {v}))
        for a in later:
            adj[a] |= later - {a}
    # connect bag i to the bag of the earliest-eliminated later vertex in it;
    # bags with no later vertex are component roots, chained together so the
    # result is a single tree even for disconnected graphs
    tree: list[tuple[int, int]] = []
    roots: list[int] = []
    for i, v in enumerate(order):
        later = [w for w in bags[i] if pos[w] > i]
        if later:
            j = min(pos[w] for w in later)
            tree.append((i, j))
        else:
            roots.append(i)
    for a, b in zip(roots, roots[1:]):
        tree.append((a, b))
    width = f[size - 1]
    decomp = TreeDecomposition(tuple(bags), tuple(tree))
    assert decomp.width == width
    assert td_validate(decomp, edges, n)
    return width, decomp


def treewidth_cop_bound(g: MultiLayerGraph, decomp: TreeDecomposition) -> int:
    """Number of cops certified by the bag-sweep strategy: the maximum bag
    size of a valid decomposition of the flattened graph.  Requires every
    cop layer to be connected (the sweep routes cops within their layer)."""

    for i in range(g.tau):
        if len(g.components(i)) != 1:
            raise MlgError(f"layer {i + 1} is disconnected; bag sweep needs connected layers")
    if not td_validate(decomp, flatten(g), g.n):
        raise MlgError("tree decomposition does not validate against the flattened graph")
    return decomp.max_bag
