"""Play one scripted match and print the full trace.

Defaults to the blocker/traveller cop pair against the optimal robber on
the 5-grid; pass a cops-bane size to watch the evasion strategy instead.

Run:  python scripts/watch_match.py [grid | copsbane] [size]
"""

import sys

from mlcr.core import AllocationPlan
from mlcr.generators import gen_copsbane, gen_grid
from mlcr.scripted import CopsbaneRobber, GridCopGuard
from mlcr.sim import GreedyCops, TablebaseRobber, run_match
from mlcr.solver import build_copwin


def main():
    kind = sys.argv[1] if len(sys.argv) > 1 else "grid"
    if kind == "grid":
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 5
        g, _ = gen_grid(n)
        plan = AllocationPlan((0, 2))
        robber = TablebaseRobber(build_copwin(g, plan.assignment()))
        record = run_match(g, plan, GridCopGuard(n), robber, T=40 * n * n, seed=1)
    elif kind == "copsbane":
        N = int(sys.argv[2]) if len(sys.argv) > 2 else 20
        g, _, _ = gen_copsbane(N, seed=3)
        record = run_match(g, AllocationPlan((2, 2)), GreedyCops(), CopsbaneRobber(), T=200, seed=1)
    else:
        raise SystemExit(f"unknown match kind {kind!r}")
    sys.stdout.write(record.render())


if __name__ == "__main__":
    main()
