"""Match engine: records, the match runner, the referee, and the generic
strategies.

A move is legal when it is in the mover's row of `MultiLayerGraph.moves`:
the stay plus the neighbours in its own layer.  The runner, the referee
and the human players check moves against those rows, and the solver
reads the same rows.  The runner checks capture after the cop team's full
move and after the robber's move.  It is the only game loop: interactive
play runs through it with human strategies that read the terminal.  The
referee re-checks a record against one schedule: after the placement row,
row i is round (i+1)//2's cop row when i is odd and its robber row when i
is even; no row follows a capture or round T's robber row, a record
without a capture ends with that row, and the outcome is what the rows
show.  Strategies are stateful objects, and one object plays every match
of a batch, so `begin` must reset all per-match state.  A batch holds one
match's record at a time: `simulate` referees each record as its match
ends and keeps only the report it prints.  `Strategy.begin` hands
a player its graph, assignment, rng and tags, and `Strategy.cop_dists` is
how the robbers measure the cops: each cop's distances in its own layer,
from the per-graph `bfs_dist` cache.  `CopTeamStrategy` and
`RobberStrategy` derive from `Strategy`, and the two tablebase players share
`_Tablebase`, which checks the table against the assignment.  They pass
positions to the table and take its answers (`CopWinTable.cop_placement`,
`robber_placement`, `cop_moves`, `robber_move`); the table alone knows its
packed state layout, and it remembers each move answer, so one walk per
distinct position serves a whole batch.  This module holds the strategy
bases and the greedy, random and tablebase players; the scripted
construction strategies and the human players live in `scripted`, which
the two `*_strategy_from_name` factories import only for the names that
need it.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .core import (
    DEFAULT_STATE_BUDGET,
    AllocationPlan,
    MlgError,
    MultiLayerGraph,
    bfs_dist,
    checked_assignment,
)

if TYPE_CHECKING:
    from .solver import CopWinTable

# -- errors ----------------------------------------------------------------------


class IllegalMoveError(MlgError):
    """A strategy emitted a move that is not a stay or an own-layer edge."""

    def __init__(self, agent: str, src: int, dst: int):
        super().__init__(f"{agent}: illegal move {src} -> {dst} (not an edge of its layer)")
        self.agent = agent
        self.edge = (src, dst)


class StrategyInvariantError(MlgError):
    """A scripted strategy detected that its own invariant broke."""


class StrategyMismatchError(MlgError):
    """Strategy applied to a graph outside its construction family."""


# -- match state and record ---------------------------------------------------------


@dataclass
class MatchView:
    """The position and history a strategy sees each turn; the graph and the
    assignment it has from `begin`."""

    cops: tuple[int, ...]
    robber: int
    round_no: int
    history: list[tuple[int, str, int, tuple[int, ...]]]


def _ids(vertices: Sequence[int]) -> str:
    return " ".join(map(str, vertices))


@dataclass
class MatchRecord:
    """Full trace of one match; replayable through the referee."""

    graph_id: str
    allocation: tuple[int, ...]
    cop_strategy: str
    robber_strategy: str
    seed: int
    horizon: int
    rows: list[tuple[int, str, int, tuple[int, ...]]] = field(default_factory=list)
    outcome: str = "SURVIVED"
    capture_round: int | None = None
    tags: tuple[str, ...] = ()

    def render(self) -> str:
        head = (
            f"MR1 graph={self.graph_id or '-'} alloc={','.join(map(str, self.allocation))} "
            f"cop={self.cop_strategy} robber={self.robber_strategy} "
            f"seed={self.seed} T={self.horizon}"
        )
        lines = [head]
        for rnd, mover, robber, cops in self.rows:
            lines.append(f"{rnd} {mover} {robber} {_ids(cops)}")
        tail = f"OUTCOME {self.outcome}"
        if self.capture_round is not None:
            tail += f" {self.capture_round}"
        if self.tags:
            tail += " tags=" + ",".join(self.tags)
        lines.append(tail)
        return "\n".join(lines) + "\n"


# -- strategy interface ---------------------------------------------------------------


class Strategy:
    """What every player is given when a match begins: the graph, the cops'
    layer assignment, the match's rng and an empty tag set."""

    def begin(self, g: MultiLayerGraph, assignment: tuple[int, ...], rng: random.Random) -> None:
        self.g = g
        self.assignment = assignment
        self.rng = rng
        self.tags: set[str] = set()

    def cop_dists(self, cops: Sequence[int]) -> list[list[float]]:
        """Per cop, the distances from its position in its own layer
        (`bfs_dist`, cached per graph, so shared by every match on it; read
        only)."""

        return [bfs_dist(self.g, self.assignment[c], p) for c, p in enumerate(cops)]


class CopTeamStrategy(Strategy):
    """Controls all cops; a player defines `place()` and `moves(view)`, one
    vertex per cop each, a move being a stay or an edge of the cop's layer."""

    name = "cop-team"

    def cop_dist(self, cop: int, source: int) -> list[float]:
        """BFS distances from `source` in cop `cop`'s layer (`bfs_dist`,
        cached per graph, so shared by every match on it; read only)."""

        return bfs_dist(self.g, self.assignment[cop], source)

    def step_toward(self, cop: int, pos: int, target: int) -> int:
        """Cop `cop`'s move from `pos` that gets closest to `target` in its
        layer; ties go to the smaller vertex id."""

        dist = self.cop_dist(cop, target)
        return min(self.g.moves(self.assignment[cop])[pos], key=lambda q: (dist[q], q))

    def capture_move(self, view: MatchView) -> tuple[int, ...] | None:
        """The team move in which the first cop next to the robber takes it,
        or None when no cop is next to the robber."""

        for c, pos in enumerate(view.cops):
            if view.robber in self.g.layer_view(self.assignment[c])[pos]:
                return view.cops[:c] + (view.robber,) + view.cops[c + 1:]
        return None


class RobberStrategy(Strategy):
    """A player defines `place(cops)` and `move(view)`, each one vertex."""

    name = "robber"


def run_match(
    g: MultiLayerGraph,
    alloc: AllocationPlan | Sequence[int],
    cop_strategy: CopTeamStrategy,
    robber_strategy: RobberStrategy,
    T: int,
    seed: int = 0,
) -> MatchRecord:
    """Play one match: cops place, robber places, then cop-team/robber rounds.

    Capture is checked after the team's full move and after the robber's
    move; the match stops after T robber moves.
    """

    if T < 0:
        raise MlgError(f"the match horizon needs T >= 0 robber moves, got {T}")
    plan = alloc if isinstance(alloc, AllocationPlan) else AllocationPlan(tuple(alloc))
    assignment = checked_assignment(g, plan)
    robber_rows, *cop_rows = map(g.moves, (None, *assignment))
    rng = random.Random(f"match:{seed}")
    cop_strategy.begin(g, assignment, rng)
    robber_strategy.begin(g, assignment, rng)

    record = MatchRecord(
        graph_id=g.tag,
        allocation=plan.counts,
        cop_strategy=cop_strategy.name,
        robber_strategy=robber_strategy.name,
        seed=seed,
        horizon=T,
    )

    cops = tuple(cop_strategy.place())
    for i, p in enumerate(cops):
        if not (0 <= p < g.n):
            raise IllegalMoveError(f"cop {i + 1} placement", -1, p)
    robber = robber_strategy.place(cops)
    if not (0 <= robber < g.n):
        raise IllegalMoveError("robber placement", -1, robber)
    record.rows.append((0, "P", robber, cops))
    history = record.rows

    rnd = 0
    while robber not in cops and rnd < T:
        rnd += 1
        view = MatchView(cops, robber, rnd, history)
        new_cops = tuple(cop_strategy.moves(view))
        if len(new_cops) != len(cops):
            raise MlgError(f"cop strategy returned {len(new_cops)} positions for {len(cops)} cops")
        for i, (src, dst) in enumerate(zip(cops, new_cops)):
            if dst not in cop_rows[i][src]:
                raise IllegalMoveError(f"cop {i + 1} (layer {assignment[i] + 1})", src, dst)
        cops = new_cops
        record.rows.append((rnd, "C", robber, cops))
        if robber in cops:
            break
        view = MatchView(cops, robber, rnd, history)
        new_robber = robber_strategy.move(view)
        if new_robber not in robber_rows[robber]:
            raise IllegalMoveError("robber", robber, new_robber)
        robber = new_robber
        record.rows.append((rnd, "R", robber, cops))
    if robber in cops:
        record.outcome = "CAPTURE"
        record.capture_round = rnd
    record.tags = tuple(sorted(cop_strategy.tags | robber_strategy.tags))
    return record


def referee_check(record: MatchRecord, g: MultiLayerGraph) -> tuple[bool, str]:
    """Independent re-scan of a record: the schedule of its rows (see the
    module docstring), the legality of every move, and `(outcome,
    capture_round)`, which is ("CAPTURE", the last row's round) when the
    robber ends on a cop and ("SURVIVED", None) otherwise."""

    robber_rows, *cop_rows = map(g.moves, (None, *AllocationPlan(record.allocation).assignment()))
    rows = record.rows
    if not rows or rows[0][:2] != (0, "P"):
        return False, "missing placement row"
    _, _, robber, cops = rows[0]
    if len(cops) != len(cop_rows) or not all(0 <= p < g.n for p in (robber, *cops)):
        return False, "placement does not fit the graph and allocation"
    last = 2 * record.horizon  # round r's cop row is row 2r - 1, its robber row 2r
    if len(rows) - 1 > last:
        return False, f"{len(rows) - 1} rows after placement for horizon T={record.horizon}"
    for i, (rnd, mover, r_new, c_new) in enumerate(rows[1:], 1):
        if robber in cops:
            return False, f"row {i} follows the capture"
        if i & 1:
            if mover != "C" or rnd * 2 - 1 != i:
                return False, f"row {i} is {rnd} {mover}, not round {(i + 1) // 2}'s cop row"
            if r_new != robber:
                return False, f"round {rnd}: robber moved on a cop row"
            if len(c_new) != len(cops):
                return False, f"round {rnd}: {len(c_new)} cops on a row for {len(cops)}"
            for c, (src, dst) in enumerate(zip(cops, c_new)):
                if dst not in cop_rows[c][src]:
                    return False, f"round {rnd}: cop {c + 1} illegal {src}->{dst}"
            cops = c_new
        else:
            if mover != "R" or rnd * 2 != i:
                return False, f"row {i} is {rnd} {mover}, not round {i // 2}'s robber row"
            if c_new != cops:
                return False, f"round {rnd}: cops moved on a robber row"
            if r_new not in robber_rows[robber]:
                return False, f"round {rnd}: robber illegal {robber}->{r_new}"
            robber = r_new
    if robber in cops:
        shown = ("CAPTURE", rows[-1][0])
    elif len(rows) - 1 < last:
        return False, f"record ends after {len(rows) - 1} rows, before round {record.horizon}'s robber row"
    else:
        shown = ("SURVIVED", None)
    if (record.outcome, record.capture_round) != shown:
        return False, f"outcome {record.outcome} {record.capture_round} where the rows show {shown[0]} {shown[1]}"
    return True, "ok"


# -- baseline strategies ----------------------------------------------------------------


class GreedyCops(CopTeamStrategy):
    """Each cop walks a shortest path toward the robber within its own layer."""

    name = "greedy_cop"

    def place(self):
        # spread the cops over their layers' most central vertices
        out = []
        for i, layer in enumerate(self.assignment):
            rows = self.g.layer_view(layer)
            order = sorted(range(self.g.n), key=lambda v: (-len(rows[v]), v))
            out.append(order[i % len(order)])
        return tuple(out)

    def moves(self, view: MatchView):
        return tuple(self.step_toward(i, pos, view.robber) for i, pos in enumerate(view.cops))


class RandomRobber(RobberStrategy):
    """Uniformly random legal move; placement on a uniformly random vertex
    avoiding the cops when possible."""

    name = "random_robber"

    def place(self, cops):
        free = [v for v in range(self.g.n) if v not in cops]
        pool = free or list(range(self.g.n))
        return self.rng.choice(pool)

    def move(self, view: MatchView):
        if self.g.robber_is_complete():
            options = list(range(self.g.n))
        else:
            options = [view.robber] + list(self.g.layer_view(None)[view.robber])
        return self.rng.choice(options)


class RandomCops(CopTeamStrategy):
    """Uniformly random legal team moves (fuzzing aid)."""

    name = "random_cop"

    def place(self):
        return tuple(self.rng.randrange(self.g.n) for _ in self.assignment)

    def moves(self, view: MatchView):
        out = []
        for i, pos in enumerate(view.cops):
            options = [pos] + list(self.g.layer_view(self.assignment[i])[pos])
            out.append(self.rng.choice(options))
        return tuple(out)


# -- tablebase strategies ------------------------------------------------------------------


class _Tablebase(Strategy):
    """One side played from a solved table, which must be built for the
    match's assignment; the table answers in positions."""

    def __init__(self, table: CopWinTable):
        self.table = table

    def begin(self, g, assignment, rng):
        super().begin(g, assignment, rng)
        if assignment != self.table.assignment:
            raise StrategyMismatchError(
                f"table was built for assignment {self.table.assignment}, match uses {assignment}"
            )


class TablebaseCops(_Tablebase, CopTeamStrategy):
    """Optimal play from a solved table: rank-minimising on cop-win states,
    greedy chase otherwise."""

    name = "tablebase_cop"

    def place(self):
        return self.table.cop_placement()

    def moves(self, view: MatchView):
        return self.table.cop_moves(view.robber, view.cops)


class TablebaseRobber(_Tablebase, RobberStrategy):
    """Optimal robber: place on a surviving vertex when one exists, move to
    robber-win successors, otherwise maximise the delay."""

    name = "tablebase_robber"

    def place(self, cops):
        return self.table.robber_placement(cops)

    def move(self, view: MatchView):
        return self.table.robber_move(view.robber, view.cops)


def table_source(
    g: MultiLayerGraph, alloc: AllocationPlan, state_budget: int = DEFAULT_STATE_BUDGET
) -> Callable[[], CopWinTable]:
    """The table for `alloc` on `g`, built on the first call and shared by
    every later one.  The solver (and with it numpy) is imported by that
    first call, so strategies that never read a table do not load it.  An
    allocation that does not fit `g` is refused before any call."""

    assignment = checked_assignment(g, alloc)

    @functools.cache
    def build() -> CopWinTable:
        from .solver import build_copwin

        return build_copwin(g, assignment, state_budget=state_budget)

    return build


# -- registry for the CLI ----------------------------------------------------------------


def cop_strategy_from_name(name: str, g: MultiLayerGraph, table: Callable[[], CopWinTable]):
    """The named cop strategy for `g`; `table` supplies the solved table
    (see `table_source`) and is called only by the tablebase strategy."""

    if name == "greedy":
        return GreedyCops()
    if name == "random":
        return RandomCops()
    if name == "tablebase":
        return TablebaseCops(table())
    if name == "grid_guard":
        from .scripted import GridCopGuard

        return GridCopGuard(math.isqrt(g.n))
    if name == "tree_squeeze":
        from .scripted import TreeSqueezeCops

        return TreeSqueezeCops()
    if name == "bagsweep":
        from .bounds import treewidth_exact_small
        from .core import flatten
        from .scripted import BagsweepCops

        _, decomp = treewidth_exact_small(flatten(g), g.n)
        return BagsweepCops(decomp)
    raise MlgError(f"unknown cop strategy {name!r}")


def robber_strategy_from_name(name: str, g: MultiLayerGraph, table: Callable[[], CopWinTable]):
    """The named robber strategy for `g`; `table` as in `cop_strategy_from_name`."""

    if name == "random":
        return RandomRobber()
    if name == "tablebase":
        return TablebaseRobber(table())
    if name == "grid_corner":
        from .scripted import GridRobberCorner

        return GridRobberCorner(math.isqrt(g.n))
    if name == "slices":
        from .generators import slices_vertex_count
        from .scripted import SlicesRobber

        k = 1
        while slices_vertex_count(k) < g.n:
            k += 1
        return SlicesRobber(k)
    if name == "copsbane":
        from .scripted import CopsbaneRobber

        return CopsbaneRobber()
    raise MlgError(f"unknown robber strategy {name!r}")
