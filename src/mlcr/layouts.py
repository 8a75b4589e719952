"""State layouts of the retrograde kernel (`solver._retrograde`): where a
batch's states live in `rank`, and how a level step finds the states to
seed, the predecessors of a frontier chunk, a robber-turn state's counter
slot and a start's placement code.

`DigitLayout` is the packed index of a full table, every agent a base-n
digit and the turn last (`CopWinTable.pack`).  `MultisetLayout` holds the
cops of each group, the cops that share their layer in every table of a
winner-only batch, as multisets: one sorted multiset per group at t = 0
and on the robber's turn, two mid-round (the cops that have moved and
those still to move).  Each s-multiset of 0..n-1 is ranked densely in
colex order, rank(a) = sum_i C(a[i] + i, i + 1) (the combinatorial number
system), so a table holds only these states; block t holds the turn-t
states of every table.  Undoing a cop move there may undo the move of any
cop of the mover's group that has moved, which is the round-level game:
it has the game's winner but not its ranks (plies to capture).

A layout's work arrays stay near `batch` entries, the kernel's `_BATCH`.
The solver imports this module, and nothing else does.
"""

from __future__ import annotations

from itertools import chain
from math import comb, prod
from typing import Sequence

import numpy as np


def _csr(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A layer's move rows (`MultiLayerGraph.moves`) as CSR arrays: the row
    lengths, the row ends and the concatenated entries."""

    deg = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    return deg, deg.cumsum(), np.fromiter(chain.from_iterable(rows), dtype=np.int64)


def state_space_size(n: int, k: int) -> int:
    return n ** (k + 1) * (k + 1)


def digit_strides(n: int, k: int) -> tuple[int, ...]:
    """Stride of agent a's position digit in a packed index (agent 0 = robber)."""

    return tuple((k + 1) * n ** (k - a) for a in range(k + 1))


def _row_entries(row: np.ndarray, deg: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR entries of the rows `row`, row after row, and each row's length."""

    cnt = deg[row]
    csum = cnt.cumsum()
    # in place: at most two entry-sized arrays live at once
    entry = (ends[row] - csum).repeat(cnt)
    entry += np.arange(csum[-1])
    return entry, cnt


def _undo_moves(
    rows: Sequence[Sequence[Sequence[int]]], n: int, stride: int, dt: int, batch: int, complete: bool = False
):
    """One agent's move rows over a batch (row b*n + v is vertex v of table
    b) as predecessor deltas: a state the agent has just moved into, from
    vertex v, has the predecessors `state + delta[e]` over the entries e of
    row b*n + v; a delta undoes the move along the agent's `stride` and
    adds `dt`, which takes the index to the turn before the move.  Returns
    the row lengths and ends (None for a complete layer, whose one row of n
    deltas serves every vertex once the agent is moved to vertex 0), the
    deltas, and the chunk: how many frontier states yield at most `batch`
    entries."""

    if complete:
        return None, None, np.arange(n, dtype=np.int64) * stride + dt, max(1, batch // n)
    deg, ends, entries = _csr(list(chain.from_iterable(rows)))
    vertex = np.tile(np.arange(n, dtype=np.int64), len(rows))
    return deg, ends, (entries - vertex.repeat(deg)) * stride + dt, max(1, batch // int(deg.max()))


def _delta_preds(chunk: np.ndarray, row: np.ndarray, moves, n: int, stride: int) -> np.ndarray:
    """The predecessors of `chunk` through an agent's `_undo_moves`, the
    agent standing on row `row` (b*n + v) of each state."""

    deg, ends, delta, _ = moves
    if deg is None:  # complete robber layer: every robber position
        return ((chunk - row % n * stride)[:, None] + delta).ravel()
    entry, cnt = _row_entries(row, deg, ends)
    preds = delta[entry]
    del entry
    preds += chunk.repeat(cnt)
    return preds


def _capture_codes(n: int, radix: Sequence[int], slot_sets: Sequence[np.ndarray | None]) -> np.ndarray:
    """The capture codes v * place + code, ascending, of a block whose
    states are a robber vertex v and a mixed-radix code over slots of
    `radix` (place values in all): those where some slot holds v.
    `slot_sets[a]` lists slot a's values, one multiset per row, or is None
    for a slot that holds none.  A few robber vertices at a time, so the
    work array stays near 1 << 20 entries."""

    place = prod(radix)
    span = max(1, (1 << 20) // place)
    codes = []
    for lo in range(0, n, span):
        hi = min(n, lo + span)
        hit = np.zeros((hi - lo, *radix), dtype=bool)
        for axis, sets in enumerate(slot_sets):
            if sets is not None:
                multiset, i = np.nonzero((sets >= lo) & (sets < hi))
                at = [sets[multiset, i] - lo] + [slice(None)] * len(radix)
                at[axis + 1] = multiset
                hit[tuple(at)] = True
        codes.append(np.flatnonzero(hit) + lo * place)
    return np.concatenate(codes)


class DigitLayout:
    """Every agent a base-n digit and the turn last, as `CopWinTable` packs
    a state: table b's state is b*size + ((p0*n + p1)*n + ... + pk)*(k+1) + t."""

    def __init__(self, n: int, k: int, rows, robber_complete: bool, batch: int):
        self.n, self.k = n, k
        self.size = state_space_size(n, k)
        self.n_place = n**k  # cop placements; the robber-turn states are (b*n + p0)*n_place + placement
        self.strides = strides = digit_strides(n, k)
        self.robber = _undo_moves(rows[0], n, strides[0], k, batch, robber_complete)
        self.cops = [None] + [_undo_moves(rows[c], n, strides[c], -1, batch) for c in range(1, k + 1)]
        self.step = [moves[3] for moves in (self.robber, *self.cops[1:])]

    def capture(self, rank: np.ndarray, winner_only: bool):
        """Write 0 on the capture states (some cop on the robber's vertex,
        whatever the turn).  Returns the level-0 frontier, the capture
        positions (p0, ..., pk) shared by every turn (`seed` makes them
        states), and with `winner_only` the robber starts per placement not
        yet cop-win."""

        n, kp1, n_place = self.n, self.k + 1, self.n_place
        tables = rank.size // self.size
        pos = _capture_codes(n, [n] * self.k, [np.arange(n)[:, None]] * self.k)
        starts = np.tile(n - np.bincount(pos % n_place, minlength=n_place), tables) if winner_only else None
        pos = np.add.outer(np.arange(0, tables * n * n_place, n * n_place), pos).ravel()
        rank.reshape(-1, kp1)[pos] = 0
        return [[pos]] * kp1, starts

    def seed(self, chunk: np.ndarray, mover: int) -> np.ndarray:
        return chunk * (self.k + 1) + mover  # capture positions to turn-`mover` states

    def predecessors(self, chunk: np.ndarray, mover: int) -> np.ndarray:
        stride = self.strides[mover]
        if mover == 0:  # the robber's digit leads: b*n + p0
            return _delta_preds(chunk, chunk // stride, self.robber, self.n, stride)
        row = chunk // stride % self.n
        row += chunk // self.size * self.n
        return _delta_preds(chunk, row, self.cops[mover], self.n, stride)

    def robber_slot(self, states: np.ndarray) -> np.ndarray:
        return states // (self.k + 1)

    def placement(self, states: np.ndarray) -> np.ndarray:
        pos = states // (self.k + 1)
        return pos // (self.n * self.n_place) * self.n_place + pos % self.n_place


def _multisets(n: int, top: int) -> list[np.ndarray]:
    """Per size s <= top, the sorted s-multisets of 0..n-1, one per row in
    colex order: row r is the multiset a of rank r = sum_i C(a[i] + i, i + 1)."""

    sets = [np.zeros((1, 0), dtype=np.int64)]
    for s in range(1, top + 1):
        # those of largest element v come after those below v: each (s-1)-multiset of 0..v, then v
        count = np.array([comb(v + s - 1, s - 1) for v in range(n)], dtype=np.int64)
        below = np.arange(count.sum()) - np.repeat(count.cumsum() - count, count)
        sets.append(np.column_stack((sets[-1][below], np.repeat(np.arange(n), count))))
    return sets


class MultisetLayout:
    """A winner-only batch's states over cop multisets (see the module
    docstring).  At turn t a group's cops that have moved are those
    numbered <= t.  Block t holds the turn-t states of every table: state =
    offset[t] + (b*n + p0) * place[t] + code, with code the mixed-radix
    number of the group multisets' ranks (per group in order of its first
    cop: moved, then still to move)."""

    def __init__(self, n: int, rows, robber_complete: bool, groups: list[list[int]], tables: int, batch: int):
        self.n = n
        k = sum(map(len, groups))
        top = max(map(len, groups))
        binom = np.array([[comb(x, i) for i in range(top + 2)] for x in range(n + top)], dtype=np.int64)
        sets = _multisets(n, top)

        def terms(a, shift=0):  # [r, i]: C(a[r, i] + i, i + 1 + shift); at 0, row r's rank summed
            i = np.arange(a.shape[1])
            return binom[a + i, i + 1 + shift]

        # per turn, per group: the sizes of its moved and its still-to-move multisets
        sizes = [[s for g in groups for s in (sum(c <= t for c in g), sum(c > t for c in g))] for t in range(k + 1)]
        self.radix = radix = [[len(sets[s]) for s in row] for row in sizes]
        self.slot_sets = [[sets[s] if s else None for s in row] for row in sizes]
        self.place = place = [prod(row) for row in radix]
        self.offset = offset = [tables * n * sum(place[:t]) for t in range(k + 1)]
        self.size = n * sum(place)
        self.n_place = place[0]  # = place[k]: the same multisets, moved or not
        self.robber = _undo_moves(rows[0], n, place[0], offset[k], batch, robber_complete)
        self.step = [self.robber[3]]
        # per cop c: undoing its move takes its group's multisets (moved, still
        # to move) from sizes (m, u) at turn c back to (m - 1, u + 1) at turn c - 1
        self.cops: list[tuple | None] = [None]
        for c in range(1, k + 1):
            gi = next(i for i, g in enumerate(groups) if c in g)
            m, u = sizes[c][2 * gi : 2 * gi + 2]
            low = prod(radix[c][2 * gi + 2 :])  # the still-to-move digit's stride, at both turns
            before = radix[c - 1][2 * gi + 1] * low  # the moved digit's stride at turn c - 1
            # [r*m + j]: the rank of moved multiset r less its element j, as a digit
            # at turn c - 1: the terms before j as they were, those after j one place down
            drop = None
            if m > 1:
                kept = terms(sets[m])
                kept = kept.cumsum(axis=1) - kept
                after = np.zeros_like(kept)
                after[:, :-1] = terms(sets[m][:, 1:])[:, ::-1].cumsum(axis=1)[:, ::-1]
                drop = ((kept + after) * before).ravel()
            # [r*n + p]: the rank of still-to-move multiset r plus vertex p, as a
            # digit: p goes after the j elements <= p, which keep their terms,
            # and moves the others one place up
            p = np.arange(n)
            first = sets[u][:, None, :] <= p[:, None]
            j = first.sum(axis=2)
            insert = np.where(first, terms(sets[u])[:, None, :], terms(sets[u] + 1, 1)[:, None, :]).sum(axis=2)
            del first
            insert += binom[p + j, j + 1]
            insert = insert.ravel() * low
            deg, ends, entries = _csr(list(chain.from_iterable(rows[c])))
            digits = (radix[c][2 * gi] * radix[c][2 * gi + 1] * low, radix[c][2 * gi + 1] * low, low)
            self.cops.append((offset[c], offset[c - 1], n * place[c], digits, radix[c - 1][2 * gi] * before,
                              m, deg, ends, entries, sets[m], drop, insert))
            self.step.append(max(1, batch // (m * int(deg.max()))))

    def capture(self, rank: np.ndarray, winner_only: bool):
        """Write 0 on the capture states (the robber's vertex in some cop
        multiset).  Returns the level-0 frontier, per turn its capture
        states, and the robber starts per placement not yet cop-win."""

        n = self.n
        tables = rank.size // self.size
        frontier, starts = [], None
        for t, place in enumerate(self.place):
            states = _capture_codes(n, self.radix[t], self.slot_sets[t])
            if t == 0 and winner_only:
                starts = np.tile(n - np.bincount(states % place, minlength=place), tables)
            states = np.add.outer(np.arange(tables) * (n * place) + self.offset[t], states).ravel()
            rank[states] = 0
            frontier.append([states])
        return frontier, starts

    def seed(self, chunk: np.ndarray, mover: int) -> np.ndarray:
        return chunk  # the level-0 frontier already holds states

    def predecessors(self, chunk: np.ndarray, mover: int) -> np.ndarray:
        n = self.n
        if mover == 0:  # block 0 leads with b*n + p0
            return _delta_preds(chunk, chunk // self.n_place, self.robber, n, self.n_place)
        offset, offset_before, block, digits, hi_stride, m, deg, ends, entries, sets, drop, insert = self.cops[mover]
        local = chunk - offset
        row = local // block * n  # b*n
        hi, local = np.divmod(local, digits[0])
        rm, local = np.divmod(local, digits[1])
        ru, local = np.divmod(local, digits[2])
        # the predecessor at turn mover - 1, but for its two digits of the group
        hi *= hi_stride
        hi += local
        del local
        hi += offset_before
        if m == 1:  # the one moved cop is on vertex rm, and none is left moved
            row += rm
        else:  # undo each moved cop, one of equal ones
            moved = sets[rm]
            first = np.ones(moved.shape, dtype=bool)
            np.not_equal(moved[:, 1:], moved[:, :-1], out=first[:, 1:])
            at = np.flatnonzero(first)
            del first
            state = at // m
            row = row[state] + moved.ravel()[at]
            del moved
            hi = hi[state] + drop[rm[state] * m + at % m]
            ru = ru[state]
            del at, state
        del rm
        entry, cnt = _row_entries(row, deg, ends)
        # in place: at most two entry-sized arrays live at once
        at = entries[entry]
        del entry
        ru = ru.repeat(cnt)
        ru *= n
        at += ru
        del ru
        preds = insert[at]
        del at
        preds += hi.repeat(cnt)
        return preds

    def robber_slot(self, states: np.ndarray) -> np.ndarray:
        return states - self.offset[-1]

    def placement(self, states: np.ndarray) -> np.ndarray:
        return states // (self.n * self.n_place) * self.n_place + states % self.n_place


def cop_groups(assignments: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """A batch's interchangeable cops: cops 1..k grouped by their layer in
    every one of the batch's `assignments` at once, in cop order, the
    groups by their first cop."""

    groups: dict[tuple[int, ...], list[int]] = {}
    for cop, layers in enumerate(zip(*assignments), start=1):
        groups.setdefault(layers, []).append(cop)
    return list(groups.values())
