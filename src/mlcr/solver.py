"""Exact game solving by retrograde analysis on the packed state graph.

A state is (p0, p1, ..., pk, t): robber position, cop positions, and a
turn counter t in 0..k.  t = k means the robber moves next, t < k means
cop t+1 moves next; moving one agent at a time is equivalent to the team
moving together because the opponent cannot interject.  States are packed
into a single integer

    index = ((p0 * n + p1) * n + ... + pk) * (k+1) + t

(agent a's digit has the stride (k+1) * n^(k-a): `CopWinTable.strides`,
which `pack` and `unpack` read), and the whole table (n^(k+1) * (k+1)
states) is classified by backward BFS from the capture states: a cop-turn
state is cop-win as soon as one successor is, a robber-turn state once a
counter of not-yet-cop-win successors reaches zero.  The BFS level of a
state is its rank: 0 at capture, otherwise 1 + min (cop to move) / max
(robber to move) over successor ranks, i.e. the optimal number of
single-agent moves to capture.

`rank` is int16: -1 on robber-win states, 0..32767 otherwise.  A level
past 32767 widens it to int32, after the RAM cap is checked again for both
copies.  Only robber-turn states carry a counter (`n^(k+1)` of them,
indexed by `state // (k+1)`, in the narrowest unsigned dtype that holds
`n`).  Each level's predecessors are generated in batches of at most
`_BATCH` entries (a mover's chunk is `_BATCH` over its layer's widest
closed neighbourhood), so every int64 work array stays under a fixed size.
A batch is deduplicated without sorting: after dropping decided states,
each candidate writes its own negative tag (-2 .. -32768, so they fit
int16) into `rank` and the occurrence whose tag survived stands for its
state; for robber-turn states `bincount` over the surviving tags is the
number to subtract from the counter.  The state budget is capped by
physical RAM, less the batch work arrays, divided by the bytes per state
of `rank` plus the counter, and checked before anything is allocated.

One BFS solves a batch of same-shape tables (same n, k and robber-layer
completeness): table b's state is `b * size + index`, the move rows form
one CSR with a row block per (table, agent), and counters and capture
positions are per table.  `build_copwin_batch` groups mixed shapes itself
and slices each table's `rank` out of its batch's array; `build_copwin`
is the batch of one.  `copwin_verdicts` runs the same BFS for callers that
read only the winner: it counts, per placement, the robber starts not yet
cop-win and stops once every table has a placement at zero.

Where some cops share their layer in every table of a winner-only batch,
the BFS runs over cop multisets instead (`layouts.MultisetLayout`):
states are ranked densely by the combinatorial number system, block by
turn, each group of same-layer cops one sorted multiset at t = 0 and
t = k, and two mid-round (moved, still to move).  Its cop moves are the
round-level game's (any cop of the mover's group still to move may move
next), which has the game's winner but not its ranks, so full tables,
whose ranks are read, keep the digit layout (`layouts.DigitLayout`).  The
level step asks its layout for the capture states, the predecessors of a
chunk, the counter slot and the placement code; the state budget and the
RAM cap count the game's n^(k+1) * (k+1) states either way.  The search
questions (cop number, free layer choice, one allocation or some
allocation of k cops) go through `core.first_winning_plans`, which is
passed one of two deciders from here: `copwin_verdicts` (the winner only,
no witnesses) or `allocated_verdicts` (each pair's full-table verdict, for
`solve --allocation` and `--cops` on a state graph).

The table answers the players in positions, so `sim` never sees a packed
state, and the verdict's witnesses come from the players' placement rules.

This module and its `layouts` are the only ones that import numpy.  The
rest of the package imports the solver where a table is first built, and
takes the verdict types (`Winner`, `GameVerdict`, `StateBudgetExceeded`,
`DEFAULT_STATE_BUDGET`, `allocation_plans`) from `core`; they are
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterable, Iterator, Sequence, TextIO

# The layouts are compiled before they load numpy, so numpy reuses the
# memory compiling them took: a process's peak RSS is lower than with the
# import after numpy's, when no bytecode cache is written.
from .layouts import DigitLayout, MultisetLayout, cop_groups, digit_strides, state_space_size

import numpy as np

from .core import (
    DEFAULT_STATE_BUDGET,
    AllocationPlan,
    GameVerdict,
    MlgError,
    MultiLayerGraph,
    RobberSpec,
    StateBudgetExceeded,
    Winner,
    _physical_ram,
    allocation_plans,
    bfs_dist,
    first_winning_plans,
)

# Predecessor entries per batch: their dedupe tags -2 .. -1-_BATCH fit int16.
_BATCH = (1 << 15) - 1
# Bytes per batch entry of the live work arrays (preds, entry, cand, the
# repeat/gather temporaries, the robber's dedupe and what the previous batch
# still holds), counted by the RAM cap: ten int64 arrays.  tracemalloc saw
# at most 71 B per entry, on grid n=6 with cops (0,0,1).
_WORK_BYTES = 80
# Largest rank an int16 table holds; a deeper level widens it to int32.
_RANK_MAX = np.iinfo(np.int16).max
# States per chunk of a CWT1 dump: their lines are built and written together.
_DUMP_CHUNK = 1 << 13


@dataclass
class CopWinTable:
    """Solved table for one assignment of cops to layers: the graph, the
    assignment and `rank`.

    The three policy methods map a packed state to a successor; they read
    the graph's move rows (`MultiLayerGraph.moves`), taken on the first
    query, and, for `chase_cop_move`, the layer distances to the robber that
    the graph caches (`bfs_dist`).  The players and the verdict ask in
    positions: `cop_placement`, `robber_placement`, `cop_moves`, `robber_move`.
    Single states are read through `rank_view`.  A table from
    `build_copwin_batch` has a `rank` that is a slice (a view) of its
    batch's array, which it keeps alive.
    """

    graph: MultiLayerGraph
    assignment: tuple[int, ...]
    rank: np.ndarray  # int16 (int32 past rank 32767), -1 on robber-win states; cop win iff >= 0

    def __post_init__(self):
        self.n = self.graph.n
        self.k = len(self.assignment)
        self.strides = digit_strides(self.n, self.k)
        self._moves: list[Sequence[Sequence[int]]] | None = None
        # reading one state gives a Python int instead of boxing a numpy scalar
        self.rank_view = memoryview(self.rank)
        # (robber, cops) -> `cop_moves` / `robber_move` there: one walk per position
        self._cop_answers: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
        self._robber_answers: dict[tuple[int, tuple[int, ...]], int] = {}

    @property
    def n_states(self) -> int:
        return self.rank.shape[0]

    # -- state packing --------------------------------------------------------

    def pack(self, robber: int, cops: Sequence[int], t: int) -> int:
        return sum(p * s for p, s in zip((robber, *cops), self.strides)) + t

    def unpack(self, index: int) -> tuple[int, tuple[int, ...], int]:
        robber, *cops = (index // s % self.n for s in self.strides)
        return robber, tuple(cops), index % (self.k + 1)

    # -- move enumeration (successors in game order) ---------------------------

    def _step(self, index: int) -> tuple[int, int, Sequence[int]] | None:
        """(base, stride, moves): successor q of the mover is base + q*stride,
        for q in `moves` (ascending, so successors ascend too).  None on a
        capture state, which is terminal."""

        t = index % (self.k + 1)
        n, strides = self.n, self.strides
        robber = index // strides[0]
        for s in strides[1:]:
            if index // s % n == robber:
                return None
        mover = 0 if t == self.k else t + 1  # also the turn counter after the move
        stride = strides[mover]
        position = index // stride % n
        if self._moves is None:  # per agent (0 = robber); same-layer cops share their rows
            self._moves = list(map(self.graph.moves, (None, *self.assignment)))
        return index - t + mover - position * stride, stride, self._moves[mover][position]

    # -- optimal policies ------------------------------------------------------
    # Successors ascend with the move, so keeping the first of equal
    # candidates breaks ties toward the smallest successor index.

    def best_cop_move(self, index: int) -> int:
        """Rank-minimising successor of a cop-turn cop-win state (ties: smallest index)."""

        step = self._step(index)
        best_idx = -1
        if step is not None:
            base, stride, moves = step
            rank = self.rank_view
            best_rank = -1
            for q in moves:
                s = base + q * stride
                r = rank[s]
                if r >= 0 and (best_idx < 0 or r < best_rank):
                    best_rank = r
                    best_idx = s
        if best_idx < 0:
            raise MlgError("best_cop_move called on a state with no cop-win successor")
        return best_idx

    def chase_cop_move(self, index: int) -> int:
        """Fallback move on robber-win states: shrink layer distance to the robber.

        -1 on a capture state; a robber-turn state has no cop to move."""

        t = index % (self.k + 1)
        if t == self.k:
            raise MlgError("chase_cop_move called on a robber-turn state")
        robber = index // self.strides[0]
        dist = bfs_dist(self.graph, self.assignment[t], robber)
        step = self._step(index)
        if step is None:
            return -1
        base, stride, moves = step
        best_q = moves[0]
        best_d = dist[best_q]
        for q in moves:
            if dist[q] < best_d:
                best_d = dist[q]
                best_q = q
        return base + best_q * stride

    def best_robber_move(self, index: int) -> int:
        """Robber-win successor if any, else maximal-delay (ties: smallest index)."""

        step = self._step(index)
        if step is None:
            raise MlgError("best_robber_move called on a terminal state")
        base, stride, moves = step
        rank = self.rank_view
        best_idx = -1
        best_rank = -1
        for q in moves:
            s = base + q * stride
            r = rank[s]
            if r < 0:
                return s  # the smallest robber-win successor
            if r > best_rank:
                best_rank = r
                best_idx = s
        return best_idx

    # -- positional answers: (robber, cops) in, placements and moves out ---------

    def cop_placement(self) -> tuple[int, ...]:
        """The first placement (lex order) with the most cop-win robber
        starts: the first winning placement when there is one."""

        k = self.k
        wins = (self.rank.reshape(self.n, self.n**k, k + 1)[:, :, 0] >= 0).sum(axis=0)
        return self.unpack(int(wins.argmax()) * (k + 1))[1]

    def robber_placement(self, cops: Sequence[int]) -> int:
        """The robber's start against `cops`: the first robber-win start,
        else the first deepest one."""

        ranks = [self.rank_view[self.pack(v, cops, 0)] for v in range(self.n)]
        return max(range(self.n), key=lambda v: (ranks[v] < 0, ranks[v]))

    def cop_moves(self, robber: int, cops: tuple[int, ...]) -> tuple[int, ...]:
        """The cops' team move at `(robber, cops)`: cop by cop, `best_cop_move`
        on a cop-win state and `chase_cop_move` otherwise; the cops after a
        capture stay.  The answer is remembered per position."""

        key = (robber, cops)
        answer = self._cop_answers.get(key)
        if answer is None:
            moved = list(cops)
            state = self.pack(robber, cops, 0)
            for c in range(self.k):
                if robber in moved:
                    break
                state = self.best_cop_move(state) if self.rank_view[state] >= 0 else self.chase_cop_move(state)
                moved[c] = state // self.strides[c + 1] % self.n  # only cop c moved
            answer = self._cop_answers[key] = tuple(moved)
        return answer

    def robber_move(self, robber: int, cops: tuple[int, ...]) -> int:
        """The robber's move at `(robber, cops)` (`best_robber_move`),
        remembered per position."""

        key = (robber, cops)
        answer = self._robber_answers.get(key)
        if answer is None:
            state = self.best_robber_move(self.pack(robber, cops, self.k))
            answer = self._robber_answers[key] = state // self.strides[0]
        return answer

    def allocated_verdict(self) -> GameVerdict:
        """The allocated game's verdict (cops place first): COP with
        `cop_placement` when the robber's reply to it is cop-win, else ROBBER
        with `robber_placement` against placement 0 (robber-win, as no
        placement wins)."""

        placement = self.cop_placement()
        if self.rank_view[self.pack(self.robber_placement(placement), placement, 0)] >= 0:
            return GameVerdict(Winner.COP, assignment=self.assignment, placement=placement)
        safe = self.robber_placement((0,) * self.k)
        return GameVerdict(Winner.ROBBER, assignment=self.assignment, safe_vertex=safe)


def _check_budget(
    size: int, kp1: int, rank_bytes: int, counter_bytes: int, state_budget: int, tables: int = 1
) -> int:
    """Refuse a table of `size` states over `state_budget` or over what fits
    in physical RAM: `rank_bytes` per state, `counter_bytes` per robber-turn
    state (one in k+1) and the batch work arrays.  A batch of `tables` such
    tables must fit there as a whole; returns how many such tables would."""

    ram = max(0, _physical_ram() - _BATCH * _WORK_BYTES)
    ram_states = ram * kp1 // (rank_bytes * kp1 + counter_bytes)
    budget = min(state_budget, ram_states)
    if size > budget:
        raise StateBudgetExceeded(size, budget)
    if size * tables > ram_states:
        raise StateBudgetExceeded(size * tables, ram_states)
    return ram_states // size


def _retrograde(
    pairs: Sequence[tuple[MultiLayerGraph, tuple[int, ...]]],
    state_budget: int,
    winner_only: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One retrograde BFS over a batch of same-shape tables (same n, cop
    count and robber-layer completeness).  Full tables are in the digit
    layout: table b holds the states `b*size .. (b+1)*size - 1` of the
    returned `rank`.

    With `winner_only`, the second result is each table's count of robber
    starts not yet cop-win, per placement (`b * n_place + code`), and the
    BFS stops once every table has a placement at 0; `rank` is then partial,
    and in the multiset layout when some cops of the batch share their
    layer in every table.  The state budget and the RAM cap count the
    game's n^(k+1)*(k+1) states per table whatever the layout holds.
    """

    g, assignment = pairs[0]
    tables = len(pairs)
    n = g.n
    k = len(assignment)
    kp1 = k + 1
    size = state_space_size(n, k)
    # the counter starts at the robber's out-degree, stay included: at most n
    counter_dtype = np.min_scalar_type(n)
    _check_budget(size, kp1, 2, counter_dtype.itemsize, state_budget, tables)

    # every agent's move rows per table (0 = robber), before any table array:
    # a cop's layer off the graph is refused here
    rows = [[gb.moves(ab[mover - 1] if mover else None) for gb, ab in pairs] for mover in range(kp1)]
    # every vertex needs a move, if only the stay: an empty row has no
    # predecessor entry, and a layer of empty rows no widest row to chunk by
    for mover, per_table in enumerate(rows):
        for (_, ab), table_rows in zip(pairs, per_table):
            if not all(table_rows):
                agent = f"cop {mover} (layer {ab[mover - 1] + 1})" if mover else "robber"
                v = next(v for v, row in enumerate(table_rows) if not row)
                raise MlgError(f"{agent}: vertex {v} has an empty move row (not even the stay)")
    groups = cop_groups([ab for _, ab in pairs]) if winner_only else []
    if any(len(group) > 1 for group in groups):
        layout = MultisetLayout(n, rows, g.robber_is_complete(), groups, tables, _BATCH)
    else:
        layout = DigitLayout(n, k, rows, g.robber_is_complete(), _BATCH)
    rank = np.full(tables * layout.size, -1, dtype=np.int16)
    # Frontier: per mover, the states it has just moved into that were ranked
    # at the previous level.  Level 0 holds the capture states, in the
    # layout's terms (`seed`).  Order is free: a state's rank depends only on
    # the level it is reached at.
    frontier, starts = layout.capture(rank, winner_only)

    # robber-turn state (b*n + p0)*n_place + placement: successors not yet cop-win
    counter = np.empty((tables * n, layout.n_place), dtype=counter_dtype)
    deg = layout.robber[0]
    counter[:] = n if deg is None else deg[:, None]
    counter = counter.reshape(-1)

    level = 0
    while any(frontier):
        level += 1
        if level > _RANK_MAX and rank.dtype == np.int16:
            # the int16 and int32 copies are both live while widening
            _check_budget(size, kp1, 6, counter_dtype.itemsize, state_budget, tables)
            rank = rank.astype(np.int32)
        reached: list[list[np.ndarray]] = [[] for _ in range(kp1)]
        for mover in range(kp1):
            t_pred = k if mover == 0 else mover - 1
            step = layout.step[mover]
            parts, frontier[mover] = frontier[mover], []  # freed once walked
            for part in parts:
                for lo in range(0, part.size, step):
                    chunk = part[lo : lo + step]
                    if level == 1:
                        chunk = layout.seed(chunk, mover)
                    preds = layout.predecessors(chunk, mover)
                    # more than one batch only if a single row is wider than _BATCH
                    for at in range(0, preds.size, _BATCH):
                        cand = preds[at : at + _BATCH]
                        cand = cand[rank[cand] < 0]
                        if preds.size <= _BATCH:  # the only batch: done with preds
                            del preds
                        if not cand.size:
                            continue
                        # dedupe: every candidate tags its state; one tag per state survives
                        tags = np.arange(-2, -2 - cand.size, -1, dtype=np.int16)
                        rank[cand] = tags
                        if mover:  # cop to move: one cop-win successor suffices
                            won = cand[rank[cand] == tags]
                            rank[won] = level
                            reached[t_pred].append(won)
                            if starts is not None and mover == 1:  # robber starts (t = 0) won
                                place = np.bincount(layout.placement(won))
                                hit = place.nonzero()[0]
                                starts[hit] -= place[hit]
                            continue
                        # robber to move: the surviving tag counts its state's occurrences
                        mult = np.bincount(-2 - rank[cand])
                        kept = mult.nonzero()[0]
                        won = cand[kept]
                        del cand
                        mult = mult[kept]
                        del kept
                        pos = layout.robber_slot(won)
                        left = np.subtract(counter[pos], mult, out=mult)  # left takes mult's place
                        counter[pos] = left
                        del pos
                        rank[won] = -1
                        won = won[left == 0]
                        if won.size:
                            rank[won] = level
                            reached[t_pred].append(won)
            if mover == 1 and starts is not None and _placement_won(starts, layout.n_place).all():
                return rank, starts
        frontier = reached
    return rank, starts


def _placement_won(starts: np.ndarray, n_place: int) -> np.ndarray:
    """Per table of a winner-only batch: some placement has every robber start cop-win."""

    return (starts.reshape(-1, n_place) == 0).any(axis=1)


def _shape_groups(
    pairs: Sequence[tuple[MultiLayerGraph, Sequence[int]]],
) -> Iterable[tuple[tuple[int, int, bool], tuple[list[int], list[tuple[MultiLayerGraph, tuple[int, ...]]]]]]:
    """`pairs` grouped by table shape (n, cop count, robber-layer
    completeness): per shape, the input positions and the checked pairs."""

    groups: dict[tuple[int, int, bool], tuple[list, list]] = {}
    for i, (g, assignment) in enumerate(pairs):
        if not assignment:
            raise MlgError("build_copwin needs at least one cop")
        assignment = tuple(assignment)
        idx, batch = groups.setdefault((g.n, len(assignment), g.robber_is_complete()), ([], []))
        idx.append(i)
        batch.append((g, assignment))
    return groups.items()


def build_copwin_batch(
    pairs: Sequence[tuple[MultiLayerGraph, Sequence[int]]],
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> list[CopWinTable]:
    """Full tables for many `(graph, assignment)` pairs, in input order.

    Pairs of one shape (n, cop count, robber-layer completeness) share one
    retrograde BFS, so numpy's per-call cost is paid once per shape; each
    table's `rank` is a slice of that batch's array.  `state_budget` bounds
    each table; each batch must also fit in physical RAM as a whole."""

    tables: list[CopWinTable | None] = [None] * len(pairs)
    for _, (idx, batch) in _shape_groups(pairs):
        rank, _ = _retrograde(batch, state_budget)
        size = rank.size // len(batch)
        for b, (i, (g, assignment)) in enumerate(zip(idx, batch)):
            tables[i] = CopWinTable(graph=g, assignment=assignment, rank=rank[b * size : (b + 1) * size])
    return tables


def copwin_verdicts(
    pairs: Sequence[tuple[MultiLayerGraph, Sequence[int]]],
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> list[GameVerdict]:
    """Verdict of each `(graph, assignment)` pair with cops placing first, in
    input order, without witnesses: the winner-only decider.  The winner is
    COP iff some placement makes every robber start cop-win.

    Solved as `build_copwin_batch` does, but a batch stops at the level where
    each of its tables has such a placement; a ROBBER verdict runs to the
    fixpoint.  Cops that share their layer in every table of a batch are
    held as multisets (`layouts.MultisetLayout`).  No table is returned (its
    `rank` may be partial), so a shape over the RAM cap as one batch is
    solved in batches that fit."""

    verdicts: list[GameVerdict | None] = [None] * len(pairs)
    for (n, k, _), (idx, batch) in _shape_groups(pairs):
        fit = _check_budget(state_space_size(n, k), k + 1, 2, np.min_scalar_type(n).itemsize, state_budget)
        for lo in range(0, len(batch), fit):
            part = batch[lo : lo + fit]
            _, starts = _retrograde(part, state_budget, winner_only=True)
            for i, won in zip(idx[lo : lo + fit], _placement_won(starts, starts.size // len(part)).tolist()):
                verdicts[i] = GameVerdict(Winner.COP if won else Winner.ROBBER)
    return verdicts


def allocated_verdicts(pairs, state_budget: int = DEFAULT_STATE_BUDGET) -> list[GameVerdict]:
    """Each pair's full-table `allocated_verdict`, witnesses included: the decider of `solve --cops`."""

    return [table.allocated_verdict() for table in build_copwin_batch(pairs, state_budget)]


def build_copwin(
    g: MultiLayerGraph,
    assignment: Sequence[int],
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> CopWinTable:
    """Retrograde analysis for cops assigned to layers by `assignment`: the
    batch of one.

    The budget is `state_budget` or, if fewer, the states whose `rank`,
    robber-turn counter and batch work arrays fit in physical RAM."""

    return build_copwin_batch([(g, assignment)], state_budget)[0]


# -- search questions ----------------------------------------------------------


def multilayer_cop_number(
    g: MultiLayerGraph,
    k_max: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> int | None:
    """Least k <= k_max winning under free allocation, else None."""

    plans = chain.from_iterable(allocation_plans(k, g.tau) for k in range(1, k_max + 1))
    ((plan, _),) = first_winning_plans([([g], plans)], partial(copwin_verdicts, state_budget=state_budget))
    return None if plan is None else plan.total


def free_choice_question(g: MultiLayerGraph, k: int) -> tuple[list[MultiLayerGraph], Iterator[AllocationPlan]]:
    """Does some composition of k cops win on `g` whatever layer the robber picks?"""

    return [
        MultiLayerGraph(n=g.n, layers=g.layers, robber_spec=RobberSpec.EXPLICIT, robber_edges=layer)
        for layer in g.layers
    ], allocation_plans(k, g.tau)


def single_layer_cop_number(
    edges: Sequence[tuple[int, int]],
    n: int,
    k_max: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> int | None:
    """Classical cop number of a single edge set, robber on the same edges."""

    g = MultiLayerGraph(
        n=n,
        layers=(tuple(edges),),
        robber_spec=RobberSpec.EXPLICIT,
        robber_edges=tuple(edges),
    )
    return multilayer_cop_number(g, k_max, state_budget=state_budget)


# -- table dump (CWT1) -----------------------------------------------------------


def dump_cwt(table: CopWinTable, out: TextIO) -> None:
    """Debug dump to the text stream `out`: header plus one 'index status
    rank' line per state, the status column being 1 on cop-win states
    (rank >= 0), else 0.  Written straight from `rank`, `_DUMP_CHUNK`
    states at a time, so its memory does not grow with the table."""

    out.write(f"CWT1 {table.n} {table.k} {table.n_states}\n")
    for lo in range(0, table.n_states, _DUMP_CHUNK):
        ranks = table.rank[lo : lo + _DUMP_CHUNK].tolist()
        out.write("".join([f"{i} {r >= 0:d} {r}\n" for i, r in enumerate(ranks, lo)]))
