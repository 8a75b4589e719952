"""The benchmark's workloads: which `mlcr` invocations run, and how their
output is checked.

Every workload is a list of CLI invocations (argument lists for `mlcr`).
Set-up invocations generate the input files; the measured invocations read
them.  The workload seed goes to `mlcr --seed` on every invocation.

Each measured invocation takes about a second or less, so a run repeats it
many times: the speed of the test machine changes in phases of a fraction
of a second to minutes, and the fastest repeat of a short invocation is
the figure that stays put from run to run (see README.md, Steadiness).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

# Outputs at this seed are compared byte for byte with digests recorded from
# the seed commit (expected.json); at any other seed invariants are checked.
DEFAULT_SEED = 1

# The copsbane graph always comes from graph seed 3: the vertex count, and so
# the cost, can depend on the graph seed, and the robber's tag has to name it.
COPSBANE_GRAPH_SEED = 3
# Expander size of the copsbane layout; 8 gives a 73-vertex graph on which
# the robber survives one cop per layer.
COPSBANE_N = 8
# Acceptance criteria run one per invocation.  c04 (one slices game, about
# 8 s) and c05 (600 domination verdicts, about 5 s) are left out: a run
# cannot repeat them often enough to find their fastest time.
CRITERIA = ("c01", "c02", "c03", "c06", "c07", "c08", "c09")

MATCH_RE = re.compile(r"^MATCH seed=(-?\d+) outcome=(CAPTURE|SURVIVED)(?: round=(\d+))?")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], list[list[str]]]
    runs: Callable[[int], list[list[str]]]
    # (argument list, exit code, stdout, seed) -> error message or None
    check: Callable[[list[str], int, str, int], str | None]
    # solver states the workload's question needs; None when it needs no table
    states: int | None = None


def _seeded(seed: int, *args: str) -> list[str]:
    return ["--seed", str(seed), *args]


def match_rounds(args: list[str], stdout: str) -> int:
    """Rounds played over all MATCH lines: the capture round, or `--rounds`
    when the robber survived."""

    horizon = _option(args, "--rounds", 100)  # the CLI's default horizon
    total = 0
    for line in stdout.splitlines():
        m = MATCH_RE.match(line)
        if m:
            total += int(m.group(3)) if m.group(2) == "CAPTURE" else horizon
    return total


def _option(args: list[str], flag: str, default: int) -> int:
    return int(args[args.index(flag) + 1]) if flag in args else default


def _check_simulate(args: list[str], code: int, stdout: str, seed: int, captures: int | None) -> str | None:
    """Invariants of `simulate --batch B`: exit 0 (the referee accepted every
    record, else exit 2), one MATCH line per seed in order, the summary, and
    the capture count the allocation forces under optimal play."""

    if code != 0:
        return f"exit code {code}"
    batch = _option(args, "--batch", 1)
    lines = stdout.splitlines()
    seeds = [int(m.group(1)) for m in map(MATCH_RE.match, lines) if m]
    if seeds != [seed + i for i in range(batch)]:
        return f"MATCH seeds {seeds[:3]}... != {seed}..{seed + batch - 1}"
    summary = [ln for ln in lines if ln.startswith("SUMMARY ")]
    if len(summary) != 1 or not summary[0].startswith(f"SUMMARY matches={batch} "):
        return f"bad summary {summary}"
    if captures is not None and summary[0] != f"SUMMARY matches={batch} captures={captures}":
        return f"expected {captures} captures, got {summary[0]}"
    return None


def _check_solve(args, code, stdout, seed):
    if code != 0:
        return f"exit code {code} (0 = cop win expected)"
    if "VERDICT=COP" not in stdout.splitlines():
        return "no VERDICT=COP line"
    return None


def _check_tablebase(args, code, stdout, seed):
    # (2,0): two cops on one grid layer win, so optimal cops capture every
    # match; (1,1): the split pair loses, so the optimal robber always survives.
    captures = 0 if "1,1" in args else _option(args, "--batch", 1)
    return _check_simulate(args, code, stdout, seed, captures)


def _check_copsbane(args, code, stdout, seed):
    return _check_simulate(args, code, stdout, seed, None)


def _check_suite(args, code, stdout, seed):
    if code != 0:
        return f"exit code {code}"
    if not stdout.endswith("TOTAL 1/1 PASS\n"):
        return "last line is not TOTAL 1/1 PASS"
    return None


GRID5 = "grid5.mlg"
GRID6 = "grid6.mlg"
CB = f"cb{COPSBANE_N}.mlg"
TABLEBASE = ["--cop-strategy", "tablebase", "--robber-strategy", "tablebase"]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-grid",
            why="one 1.6 M-state table for grid n=5 with cops (2,1): the retrograde solver kernel",
            setup=lambda s: [_seeded(s, "generate", "grid", "-n", "5", "-o", GRID5)],
            runs=lambda s: [_seeded(s, "solve", GRID5, "--allocation", "2,1")],
            check=_check_solve,
            states=25 ** 4 * 4,
        ),
        Workload(
            name="simulate-tablebase",
            why="tablebase matches on grid n=6: 8 per-seed table builds, then 4 k policy lookups",
            setup=lambda s: [_seeded(s, "generate", "grid", "-n", "6", "-o", GRID6)],
            runs=lambda s: [
                _seeded(s, "simulate", GRID6, "--allocation", "2,0", *TABLEBASE, "--batch", "4"),
                _seeded(s, "simulate", GRID6, "--allocation", "1,1", *TABLEBASE, "--batch", "4",
                        "--rounds", "1000"),
            ],
            check=_check_tablebase,
        ),
        Workload(
            name="copsbane-survival",
            why="pure-Python strategy and generator code: copsbane layout rebuilt per seed, 2000 robber moves",
            setup=lambda s: [
                ["--seed", str(COPSBANE_GRAPH_SEED), "generate", "copsbane", "-n", str(COPSBANE_N), "-o", CB]
            ],
            runs=lambda s: [
                _seeded(s, "simulate", CB, "--allocation", "1,1", "--cop-strategy", "greedy",
                        "--robber-strategy", "copsbane", "--tag", f"copsbane:{COPSBANE_N},{COPSBANE_GRAPH_SEED}",
                        "--batch", "2", "--rounds", "1000"),
            ],
            check=_check_copsbane,
        ),
        Workload(
            name="paper-suite",
            why="acceptance criteria c01-c03 and c06-c09, one invocation each: small tables, tree path, bounds, oracle",
            # The suite reads no input files, so its set-up is the cheapest
            # complete invocation: interpreter, imports, argument parsing.
            setup=lambda s: [_seeded(s, "--help")],
            runs=lambda s: [_seeded(s, "verify-paper", "--only", cid) for cid in CRITERIA],
            check=_check_suite,
        ),
    )
}
