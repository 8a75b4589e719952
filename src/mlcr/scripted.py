"""Scripted strategies for the paper's constructions, and play from the
terminal.

The construction strategies implement the blocker/traveller grid sweep,
the corner dance, the safe-slice navigation, the blocked-set evasion on the
expander core, the tree squeeze, and the bag sweep along a tree
decomposition.  Each one checks in `begin` that the graph and assignment
are ones it was written for, and raises `StrategyMismatchError` otherwise.
The two grid players share that check in `_OnGrid`, and the tree squeeze
and the bag sweep share one task-queue round in `_TaskCops`.  The two
robbers measure the cops only through `Strategy.cop_dists`, each cop's
layer distances as cached per graph, and read their structure from the
graph's layer views and `core`.  The human players read moves from the
terminal; `interactive_play` runs them against the tablebase through
`sim.run_match`.

Nothing imports this module at top level: the strategy factories in `sim`,
`cli.cmd_play` and the `verify` criteria that run these players load it
where they name one, so a generic `simulate` never compiles it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core import (
    DEFAULT_STATE_BUDGET,
    INF,
    AllocationPlan,
    MlgError,
    MultiLayerGraph,
    adjacency_lists,
    bfs_dist,
    bfs_dist_adj,
    component_sets,
    diameter,
)
from .sim import (
    CopTeamStrategy,
    MatchRecord,
    MatchView,
    RobberStrategy,
    Strategy,
    StrategyInvariantError,
    StrategyMismatchError,
    TablebaseCops,
    TablebaseRobber,
    _ids,
    run_match,
    table_source,
)


# -- grid strategies -------------------------------------------------------------------


class _OnGrid(Strategy):
    """A player for the two-layer n-grid: `begin` refuses any other graph
    and sets the (row, column) maps `_rc` and `_idx`, rows and columns
    counted from 1."""

    def __init__(self, n: int):
        self.nside = n

    def begin(self, g, assignment, rng):
        super().begin(g, assignment, rng)
        from .generators import grid_coords, grid_index, grid_layers

        n = self.nside
        if g.n != n * n or tuple(g.layers) != grid_layers(n):
            raise StrategyMismatchError(f"graph is not the {n}-grid construction")
        self._rc = lambda v: grid_coords(v, n)
        self._idx = lambda i, j: grid_index(i, j, n)


class GridCopGuard(_OnGrid, CopTeamStrategy):
    """Two same-layer cops on the two-layer grid: a blocker pins the
    robber's row while a traveller crosses to the next column over the
    boundary rows, squeezing the robber toward the far edge."""

    name = "grid_cop_guard"

    def begin(self, g, assignment, rng):
        super().begin(g, assignment, rng)
        # virtual coordinates: both cops live on the all-verticals layer
        if tuple(assignment) == (0, 0):
            rc, idx = self._rc, self._idx
            self._rc = lambda v: rc(v)[::-1]
            self._idx = lambda i, j: idx(j, i)
        elif tuple(assignment) != (1, 1):
            raise StrategyMismatchError("grid guard needs both cops on the same layer")
        self.adj = g.layer_view(assignment[0])
        self.phase = 1
        self.blocker = 1
        self.bcol = 2
        self.traveler = 0
        self.tcol = 3

    def moves(self, view: MatchView):
        capture = self.capture_move(view)
        if capture is not None:
            return capture
        pos = list(view.cops)
        ri, rj = self._rc(view.robber)
        if self.phase == 1:
            ci, _ = self._rc(pos[0])
            if ci < ri:
                pos[0] = self._idx(ci + 1, 1)
                pos[1] = self._idx(ci + 1, 2)
                return tuple(pos)
            self.phase = 2
            self.blocker, self.bcol = 1, 2
            self.traveler, self.tcol = 0, 3
        b, t = self.blocker, self.traveler
        bi, bj = self._rc(pos[b])
        if bj != self.bcol:
            raise StrategyInvariantError("blocker drifted off its column")
        if abs(bi - ri) > 1:
            raise StrategyInvariantError("blocker lost the robber's row")
        if bi != ri:
            pos[b] = self._idx(bi + (1 if ri > bi else -1), bj)
        ti, tj = self._rc(pos[t])
        if tj != self.tcol:
            pos[t] = self._step_to_column(pos[t], self.tcol)
        elif ti != ri:
            pos[t] = self._idx(ti + (1 if ri > ti else -1), tj)
        ti, tj = self._rc(pos[t])
        if tj == self.tcol and ti == ri and rj > self.tcol:
            self.blocker, self.traveler = self.traveler, self.blocker
            self.bcol, self.tcol = self.tcol, self.bcol + 2
        return tuple(pos)

    def _step_to_column(self, v: int, col: int) -> int:
        dist = bfs_dist_adj(self.adj, *(self._idx(i, col) for i in range(1, self.nside + 1)))
        return min(self.g.moves(self.assignment[0])[v], key=lambda q: (dist[q], q))

    def place(self):
        return (self._idx(1, 1), self._idx(1, 2))


class GridRobberCorner(_OnGrid, RobberStrategy):
    """Corner dance against one cop per grid layer: recompute the safe
    corner cell (a, b) from which cop threatens row 1 / column 1 and hop
    within the top-left 2x2 square."""

    name = "grid_robber_corner"

    def begin(self, g, assignment, rng):
        super().begin(g, assignment, rng)
        if sorted(assignment) != [0, 1]:
            raise StrategyMismatchError("corner dance needs exactly one cop per layer")
        if self.nside < 4:
            raise StrategyMismatchError("corner dance needs n >= 4")
        self.ch_cop = assignment.index(0)
        self.cv_cop = assignment.index(1)

    def _target(self, cops) -> tuple[int, int]:
        hi, _ = self._rc(cops[self.ch_cop])
        _, vj = self._rc(cops[self.cv_cop])
        return (2 if hi == 1 else 1), (2 if vj == 1 else 1)

    def place(self, cops):
        a, b = self._target(cops)
        return self._idx(a, b)

    def _check_restrictions(self, view: MatchView):
        n = self.nside
        ri, rj = self._rc(view.robber)
        hi, hj = self._rc(view.cops[self.ch_cop])
        vi, vj = self._rc(view.cops[self.cv_cop])
        if hi == ri and hj not in (n, n - 1):
            raise StrategyInvariantError("row cop too close on the robber's row")
        if vj == rj and vi not in (n, n - 1):
            raise StrategyInvariantError("column cop too close on the robber's column")
        if hi == ri and vj == rj and not (hj == n or vi == n):
            raise StrategyInvariantError("both cops aligned without a far cop")

    def move(self, view: MatchView):
        self._check_restrictions(view)
        a, b = self._target(view.cops)
        ri, rj = self._rc(view.robber)
        if (a, b) == (ri, rj):
            return view.robber
        if a == ri:
            return self._idx(a, b)
        if b == rj:
            return self._idx(a, b)
        n = self.nside
        _, hj = self._rc(view.cops[self.ch_cop])
        if hj == n:
            return self._idx(ri, b)
        return self._idx(a, rj)


# -- graph helpers for the scripted robbers ------------------------------------------------


def _path_within(adj: Sequence[Sequence[int]], allowed, src: int, dst: int) -> list[int]:
    """The vertices after `src` on a BFS shortest path to `dst` inside `allowed`."""

    prev = {src: -1}
    frontier = [src]
    while dst not in prev and frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y in allowed and y not in prev:
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
    path = []
    at = dst
    while at != src:
        path.append(at)
        at = prev[at]
    path.reverse()
    return path


# -- slices strategy -------------------------------------------------------------------


class SlicesRobber(RobberStrategy):
    """Safe-slice navigation on the slices construction: stay on the ring
    vertices, pick a slice triple with no cops nearby and a ring column no
    cop can reach quickly, then travel ring-then-rungs to it."""

    name = "slices_robber"

    def __init__(self, k: int):
        self.k = k

    def begin(self, g, assignment, rng):
        super().begin(g, assignment, rng)
        from .generators import slices_coords, slices_index, slices_layers, slices_vertex_count

        if g.n != slices_vertex_count(self.k) or g.layers != slices_layers(self.k):
            raise StrategyMismatchError(f"graph is not the slices construction for k={self.k}")
        self.coords = lambda v: slices_coords(self.k, v)
        self.index = lambda x, y, z: slices_index(self.k, x, y, z)
        self.plan: list[int] = []
        self.radj = g.layer_view(None)

    def _cop_slices(self, cops) -> set[int]:
        return {self.coords(p)[0] for p in cops}

    def _free_slices(self, cops) -> list[int]:
        bad = self._cop_slices(cops)
        out = []
        for x in range(1, 3 * self.k + 1):
            if not ({x - 1, x, x + 1} & bad):
                out.append(x)
        return out

    def _excluded_columns(self, cops) -> set[int]:
        """Ring columns a cop can reach within 5k-1 moves of its own layer."""

        k = self.k
        out: set[int] = set()
        for dist in self.cop_dists(cops):
            for x in range(1, 3 * k + 1):
                for y in range(1, k + 1):
                    for z in (5 * k + 1, 5 * k + 2):
                        if dist[self.index(x, y, z)] < 5 * k:
                            out.add(y)
        return out

    def _ring_path(self, x: int, src: int, dst: int) -> list[int]:
        """Shortest path from src to dst around the ring of slice x."""

        k = self.k
        ring = {self.index(x, y, z) for y in range(1, k + 1) for z in (5 * k + 1, 5 * k + 2)}
        return _path_within(self.radj, ring, src, dst)

    def _plan_is_safe(self, cops, plan: list[int]) -> bool:
        dists = self.cop_dists(cops)
        for t, v in enumerate(plan, start=1):
            for d in dists:
                if d[v] <= t + 1:
                    return False
        return True

    def _make_plan(self, cops, cur: int) -> list[int]:
        k = self.k
        x_cur, y_cur, z_cur = self.coords(cur)
        free = self._free_slices(cops)
        excluded = self._excluded_columns(cops)
        columns = [y for y in range(1, k + 1) if y not in excluded] or list(range(1, k + 1))
        cop_slices = self._cop_slices(cops)

        def slice_score(x):
            return (min((abs(x - s) for s in cop_slices), default=0), -abs(x - x_cur))

        candidates = sorted(free, key=slice_score, reverse=True) or [x_cur]
        for xs in candidates:
            for ys in columns:
                ring_target = self.index(x_cur, ys, 5 * k + 1)
                path = self._ring_path(x_cur, cur, ring_target) if cur != ring_target else []
                step = 1 if xs >= x_cur else -1
                rungs = [self.index(x, ys, 5 * k + 1) for x in range(x_cur + step, xs + step, step)]
                plan = path + rungs
                if plan and self._plan_is_safe(cops, plan):
                    return plan
        return []

    def _fallback(self, cops, cur: int) -> int:
        dists = self.cop_dists(cops)
        return max(self.g.moves(None)[cur], key=lambda v: (min(d[v] for d in dists), -v))

    def place(self, cops):
        # the slice farthest from the cops' slices; free (at distance >= 2) whenever one is
        bad = self._cop_slices(cops)
        xr = max(range(1, 3 * self.k + 1), key=lambda x: min((abs(x - s) for s in bad), default=0))
        return self.index(xr, 1, 5 * self.k + 1)

    def move(self, view: MatchView):
        if self.plan and any(d[self.plan[0]] <= 1 for d in self.cop_dists(view.cops)):
            self.plan = []  # a cop is on or next to the planned step
        if not self.plan:  # `_plan_is_safe` clears a fresh plan's first step against these cops
            self.plan = self._make_plan(view.cops, view.robber)
        if self.plan:
            return self.plan.pop(0)
        return self._fallback(view.cops, view.robber)


# -- cops-bane strategy ----------------------------------------------------------------


class CopsbaneRobber(RobberStrategy):
    """Blocked-set evasion on the expander core: a cop blocks exactly the
    monochromatic component it can reach without passing the hub, so the
    robber keeps to large small-diameter subgraphs clear of all blocked
    vertices, falling back (tagged DEGRADED) to plain distance
    maximisation when no safe subgraph exists at this scale."""

    name = "copsbane_robber"

    def begin(self, g, assignment, rng):
        """Read the layout from the graph: the EXPLICIT robber edges are the
        core on 0..N-1, the hub is N, the arms fill n = N + 1 + 2DN and an
        edge's colour is whether layer 0 holds it."""

        super().begin(g, assignment, rng)
        from .generators import copsbane_layers

        core = g.robber_edges or ()
        self.N = N = 1 + max((v for _, v in core), default=0)
        self.D, rest = divmod(g.n - N - 1, 2 * N)
        in_first = set(g.layers[0])
        coloring = {e: int(e not in in_first) for e in core}
        if not core or rest or g.tau != 2 or g.layers != copsbane_layers(N, self.D, core, coloring):
            raise StrategyMismatchError("graph is not a cops-bane construction")
        self.x_adj = adjacency_lists(N, core)
        # per layer, what a cop off the hub blocks: the core part of its component without the hub
        self.comp: list[dict[int, frozenset[int]]] = [{}, {}]
        for layer, comp_of in enumerate(self.comp):
            for comp in component_sets(g.layer_view(layer), (N,)):
                comp_of.update(dict.fromkeys(comp, frozenset(v for v in comp if v < N)))
        self._safe_cache: dict[frozenset[int], list[set[int]]] = {}

    def _blocked(self, cops) -> set[int]:
        out: set[int] = set()
        for c, p in enumerate(cops):
            if p != self.N:
                out |= self.comp[self.assignment[c]][p]
        return out

    def _safe_components(self, blocked: set[int]) -> list[set[int]]:
        """Large components of diameter <= D outside `blocked`, memoised per
        blocked set; callers must not modify the returned sets."""

        key = frozenset(blocked)
        safe = self._safe_cache.get(key)
        if safe is None:
            safe = self._safe_cache[key] = [
                comp
                for comp in component_sets(self.x_adj, blocked)
                if len(comp) >= self.N // 2 + 1 and diameter(self.x_adj, comp) <= self.D
            ]
        return safe

    def place(self, cops):
        blocked = self._blocked(cops)
        dist = bfs_dist_adj(self.x_adj, *blocked)
        threat = self._threat(cops)
        safe = self._safe_components(blocked)
        if safe:
            comp = max(safe, key=len)
            return max(comp, key=lambda v: (dist[v], -v))
        self.tags.add("DEGRADED")
        pool = [v for v in range(self.N) if v not in blocked] or list(range(self.N))
        return max(pool, key=lambda v: (dist[v], threat[v], -v))

    def _threat(self, cops) -> list[float]:
        """Per core vertex: fewest moves some cop needs to reach it (INF with
        no cops; the INF column also stops the zip at the core)."""

        return [min(col) for col in zip([INF] * self.N, *self.cop_dists(cops))]

    def move(self, view: MatchView):
        cur = view.robber
        blocked = self._blocked(view.cops)
        dist = bfs_dist_adj(self.x_adj, *blocked)
        threat = self._threat(view.cops)
        safe = self._safe_components(blocked)
        home = next((c for c in safe if cur in c), None)
        if home is not None:
            target = max(home, key=lambda v: (dist[v], -v))
            plan = _path_within(self.x_adj, home, cur, target) if target != cur else []
            nxt = plan[0] if plan else cur
            if threat[nxt] >= 2:
                return nxt
        self.tags.add("DEGRADED")
        options = [cur] + self.x_adj[cur]
        clear = [v for v in options if threat[v] >= 2]
        pool = clear or options
        return max(pool, key=lambda v: (dist[v], threat[v], -v))


# -- cop teams that work through a task queue -------------------------------------------


class _TaskCops(CopTeamStrategy):
    """A cop team driven by a queue of (cop, target vertex) tasks.  Each
    round it takes the capture if one is on; otherwise it drops the tasks
    already done, asks the subclass's `_replan(view)` to refill the queue
    while it is empty, and moves the cop of the first task one step toward
    its target."""

    def begin(self, g, assignment, rng):
        super().begin(g, assignment, rng)
        self.tasks: list[tuple[int, int]] = []

    def moves(self, view: MatchView):
        capture = self.capture_move(view)
        if capture is not None:
            return capture
        pos = list(view.cops)
        while True:
            while self.tasks and pos[self.tasks[0][0]] == self.tasks[0][1]:
                self.tasks.pop(0)
            if self.tasks:
                break
            self._replan(view)
        cop, target = self.tasks[0]
        pos[cop] = self.step_toward(cop, pos[cop], target)
        return tuple(pos)


# -- tree squeeze -----------------------------------------------------------------------


class TreeSqueezeCops(_TaskCops):
    """Territory squeeze for tree robber layers without a robber's edge.

    Cops start inside the components of a clean profile.  Each iteration
    picks the cop closest to the robber in the tree (the guard at u), aims
    at the next tree vertex w toward the robber, and routes a cop able to
    reach w there -- reinforcing u first when the guard itself is the only
    candidate.  Commitment mirrors the textbook squeeze: the guard leaves u
    empty only for a w at most two steps away in its layer, so a robber
    that steps back onto u is taken by the capture rule; the robber's
    territory loses at least u per completed trip."""

    name = "tree_squeeze_cop"

    def begin(self, g, assignment, rng):
        super().begin(g, assignment, rng)
        from .treealgo import winning_profile

        profile = winning_profile(g, tuple(assignment))
        if profile is None:
            raise StrategyMismatchError("instance has a robber's edge for this assignment")
        self.profile = profile
        self.radj = g.layer_view(None)

    def place(self):
        return tuple(min(comp) for comp in self.profile)

    def _replan(self, view: MatchView) -> None:
        rdist = bfs_dist(self.g, None, view.robber)
        guard = min(range(len(view.cops)), key=lambda c: (rdist[view.cops[c]], c))
        u = view.cops[guard]
        w = min(q for q in self.radj[u] if rdist[q] == rdist[u] - 1)
        reach = [c for c in range(len(view.cops)) if w in self.profile[c]]
        others = [c for c in reach if c != guard]
        if others:
            runner = min(others, key=lambda c: (self.cop_dist(c, w)[view.cops[c]], c))
            self.tasks = [(runner, w)]
            return
        # a clean profile polices w, here by the guard alone, and covers the
        # tree edge (u, w) by at most two guard steps or a second cop policing u
        if self.cop_dist(guard, w)[u] > 2:
            helpers = [c for c in range(len(view.cops)) if c != guard and u in self.profile[c]]
            helper = min(helpers, key=lambda c: (self.cop_dist(c, u)[view.cops[c]], c))
            self.tasks = [(helper, u), (guard, w)]
        else:
            self.tasks = [(guard, w)]


# -- bag sweep along a tree decomposition --------------------------------------------------


class BagsweepCops(_TaskCops):
    """Cover one bag of a tree decomposition of the flattened graph and
    shift, one cop at a time, to the neighbouring bag on the robber's side;
    the bag intersection stays guarded so the robber's subtree shrinks."""

    name = "bagsweep_cop"

    def __init__(self, decomp):
        self.decomp = decomp

    def begin(self, g, assignment, rng):
        super().begin(g, assignment, rng)
        from .bounds import td_validate
        from .core import flatten

        if not td_validate(self.decomp, flatten(g), g.n):
            raise StrategyMismatchError("decomposition does not validate against the graph")
        for i in range(g.tau):
            if len(g.components(i)) != 1:
                raise StrategyMismatchError("bag sweep needs connected cop layers")
        if len(assignment) < self.decomp.max_bag:
            raise StrategyMismatchError(
                f"need at least {self.decomp.max_bag} cops, got {len(assignment)}"
            )
        self.tadj = adjacency_lists(len(self.decomp.bags), self.decomp.tree)
        self.current = 0

    def place(self):
        bag = sorted(self.decomp.bags[self.current])
        self.posts = {c: bag[c] if c < len(bag) else bag[0] for c in range(len(self.assignment))}
        return tuple(self.posts.values())

    def _side_vertices(self, bag_from: int, bag_to: int) -> set[int]:
        """Vertices in bags of the component of the tree minus `bag_from`
        that contains `bag_to`."""

        side = next(c for c in component_sets(self.tadj, (bag_from,)) if bag_to in c)
        return set().union(*(self.decomp.bags[b] for b in side))

    def _replan(self, view: MatchView) -> None:
        """Plan the shift from the covered bag to its neighbour on the
        robber's side, and take that bag as covered: nothing reads `current`
        before the shift's tasks are done and the next plan starts."""

        cur_bag = self.decomp.bags[self.current]
        target_bag = None
        for m in self.tadj[self.current]:
            if view.robber in self._side_vertices(self.current, m) - cur_bag:
                target_bag = m
                break
        if target_bag is None:
            raise StrategyInvariantError("robber is not on any side of the covered bag")
        new_bag = self.decomp.bags[target_bag]
        cut = cur_bag & new_bag
        uncovered = sorted(new_bag - set(self.posts.values()))
        movers = sorted(
            (c for c, p in self.posts.items() if p not in new_bag),
            key=lambda c: self.posts[c],
        )
        # cops parked several-to-a-vertex are surplus and may move too
        seen_posts: set[int] = set()
        surplus = []
        for c in sorted(self.posts):
            p = self.posts[c]
            if p in cut and p in seen_posts:
                surplus.append(c)
            seen_posts.add(p)
        pool = movers + [c for c in surplus if c not in movers]
        for target, cop in zip(uncovered, pool):
            self.tasks.append((cop, target))
            self.posts[cop] = target
        self.current = target_bag


# -- interactive play ------------------------------------------------------------------


class MatchAbandoned(Exception):
    """The human typed 'quit'; `rows` holds the moves played so far."""

    def __init__(self, rows: list):
        super().__init__("match abandoned")
        self.rows = rows


class _Human:
    """One side played from the terminal: prompts through `input_fn`,
    re-prompts on illegal input and raises MatchAbandoned on 'quit' or at
    the end of input (`input_fn` raising EOFError).  Before
    each prompt it prints, through `output_fn`, the moves the engine made
    since the last one."""

    engine_says: dict[str, str] = {}  # mover -> line printed for its rows

    def __init__(self, input_fn: Callable[[str], str], output_fn: Callable[[str], None]):
        self.input_fn = input_fn
        self.say = output_fn

    def begin(self, g, assignment, rng):
        super().begin(g, assignment, rng)
        self.shown = 0  # rows already narrated
        # not `self.moves`: that is HumanCops' strategy method
        self.robber_rows, *self.cop_rows = map(g.moves, (None, *assignment))

    def narrate(self, rows: list) -> None:
        for row in rows[self.shown:]:
            line = self.engine_says.get(row[1])
            if line is not None:
                self.say(line.format(rnd=row[0], robber=row[2], cops=_ids(row[3])))
        self.shown = len(rows)

    def ask(self, prompt: str, count: int, legal: Callable[[list[int]], bool], rows: list) -> list[int]:
        self.narrate(rows)
        while True:
            try:
                raw = self.input_fn(prompt).strip()
            except EOFError:
                self.say("")  # end the prompt's line
                raw = "quit"
            if raw.lower() in ("q", "quit"):
                raise MatchAbandoned(rows)
            try:
                vals = [int(x) for x in raw.replace(",", " ").split()]
            except ValueError:
                self.say("enter vertex ids, or 'quit'")
                continue
            if len(vals) != count:
                self.say(f"need {count} vertex id(s)")
                continue
            if not legal(vals):
                self.say("illegal move, try again")
                continue
            return vals


class HumanCops(_Human, CopTeamStrategy):
    name = "human"
    engine_says = {"P": "robber placed at {robber}", "R": "round {rnd}: robber moves to {robber}"}

    def place(self):
        k = len(self.assignment)
        return tuple(self.ask(f"place {k} cops> ", k, lambda vs: all(0 <= v < self.g.n for v in vs), []))

    def moves(self, view: MatchView):
        cops = view.cops
        prompt = f"round {view.round_no}, cops at {_ids(cops)}, robber at {view.robber}; move cops> "

        def legal(vs):
            return all(v in self.cop_rows[i][cops[i]] for i, v in enumerate(vs))

        return tuple(self.ask(prompt, len(cops), legal, view.history))


class HumanRobber(_Human, RobberStrategy):
    name = "human"
    engine_says = {"C": "round {rnd}: cops move to {cops}"}

    def place(self, cops):
        # the placement row is written only after the robber places
        self.say(f"cops placed at {_ids(cops)}")
        return self.ask("place robber> ", 1, lambda vs: 0 <= vs[0] < self.g.n, [])[0]

    def move(self, view: MatchView):
        prompt = f"round {view.round_no}, cops at {_ids(view.cops)}; move robber from {view.robber}> "

        def legal(vs):
            return vs[0] in self.robber_rows[view.robber]

        return self.ask(prompt, 1, legal, view.history)[0]


def interactive_play(
    g: MultiLayerGraph,
    alloc: AllocationPlan,
    human_role: str,
    input_fn: Callable[[str], str] = input,
    output_fn: Callable[[str], None] = print,
    max_rounds: int = 10_000,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> MatchRecord:
    """Terminal match against the tablebase; illegal input is re-prompted,
    'quit' abandons the session."""

    if human_role not in ("robber", "cops"):
        raise MlgError(f"human role must be 'robber' or 'cops', got {human_role!r}")
    table = table_source(g, alloc, state_budget)()
    if human_role == "cops":
        human = cops = HumanCops(input_fn, output_fn)
        robber = TablebaseRobber(table)
    else:
        cops = TablebaseCops(table)
        human = robber = HumanRobber(input_fn, output_fn)
    try:
        record = run_match(g, alloc, cops, robber, T=max_rounds)
    except MatchAbandoned as ex:
        return MatchRecord(
            graph_id=g.tag, allocation=alloc.counts, cop_strategy=cops.name, robber_strategy=robber.name,
            seed=0, horizon=max_rounds, rows=ex.rows, outcome="ABANDONED",
        )
    human.narrate(record.rows)
    if record.capture_round == 0:
        output_fn("capture at placement")
    elif record.capture_round is not None:
        output_fn(f"captured at round {record.capture_round}")
    return record
