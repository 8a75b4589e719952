"""Acceptance criteria: every desk-scale claim checked end to end.

Each criterion is a registered function returning (passed, detail lines);
`run_criteria` executes them in order with fixed seeds so repeated runs
produce identical reports, and yields each result as it is made.  The
pytest acceptance module and the `verify-paper` CLI subcommand both drive
this registry.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from .core import (
    DEFAULT_STATE_BUDGET,
    AllocationPlan,
    MlgError,
    MultiLayerGraph,
    RobberSpec,
    StateBudgetExceeded,
    Winner,
    allocation_plans,
    first_winning_plans,
    flatten,
    ml_min_degree,
)


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)
    elapsed: float = 0.0


_REGISTRY: list[tuple[str, str, Callable]] = []


def criterion(cid: str, title: str):
    def wrap(fn):
        _REGISTRY.append((cid, title, fn))
        return fn

    return wrap


def run_criteria(only: str | None = None, state_budget: int = DEFAULT_STATE_BUDGET) -> Iterator[CriterionResult]:
    """Each chosen criterion's result as soon as it finishes.  A criterion
    that raises fails with one `raised <Type>: <message>` detail line, and
    the next one runs; `StateBudgetExceeded` still propagates."""

    chosen = [entry for entry in _REGISTRY if not only or only in entry[0]]
    if not chosen:
        raise MlgError(f"no criterion id contains {only!r} (--only)")
    for cid, title, fn in chosen:
        t0 = time.perf_counter()
        try:
            passed, details = fn(state_budget)
        except StateBudgetExceeded:
            raise
        except Exception as ex:
            passed, details = False, [f"raised {type(ex).__name__}: {ex}"]
        yield CriterionResult(cid, title, passed, details, time.perf_counter() - t0)


# -- shared corpus builders ---------------------------------------------------------


def random_tree_edges(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((rng.randrange(v), v) for v in range(1, n)))


def random_connected_edges(rng: random.Random, n: int, extra: int) -> tuple[tuple[int, int], ...]:
    edges = set(random_tree_edges(rng, n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def random_instance(
    rng: random.Random,
    n_max: int = 6,
    tau_max: int = 2,
    specs=(RobberSpec.UNION, RobberSpec.COMPLETE, RobberSpec.EXPLICIT),
) -> MultiLayerGraph:
    n = rng.randint(2, n_max)
    tau = rng.randint(1, tau_max)
    layers = tuple(
        tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.2, 0.4, 0.7])
        )
        for _ in range(tau)
    )
    spec = rng.choice(list(specs))
    redges = None
    if spec is RobberSpec.EXPLICIT:
        redges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
    return MultiLayerGraph(n=n, layers=layers, robber_spec=spec, robber_edges=redges)


# -- criteria ----------------------------------------------------------------------


@criterion("c01-grid", "two-layer grid: same-layer pairs win, split pair loses")
def _c01(budget):
    from .generators import gen_grid
    from .solver import copwin_verdicts

    # (n, allocation, wanted winner, allocation as printed)
    cases = [
        (n, alloc, want, str(alloc))
        for n in (4, 5)
        for alloc, want in (((2, 0), Winner.COP), ((0, 2), Winner.COP), ((1, 1), Winner.ROBBER))
    ]
    cases.append((3, (1, 1), Winner.COP, "(1,1)"))
    grids = {n: gen_grid(n)[0] for n in (3, 4, 5)}
    pairs = [(grids[n], AllocationPlan(alloc).assignment()) for n, alloc, _, _ in cases]
    details = []
    ok = True
    for (n, _, want, shown), verdict in zip(cases, copwin_verdicts(pairs, budget)):
        ok &= verdict.winner is want
        details.append(f"n={n} alloc={shown}: {verdict.winner.value} (want {want.value})")
    return ok, details


@criterion("c02-mirror", "mirrored high-girth base: layers need 3 cops, pair wins")
def _c02(budget):
    from .generators import gen_min_counterexample
    from .solver import multilayer_cop_number, single_layer_cop_number

    g, _ = gen_min_counterexample()
    details = []
    mc = multilayer_cop_number(g, 2, state_budget=budget)
    details.append(f"multi-layer cop number = {mc} (want 2)")
    ok = mc == 2
    for i in (0, 1):
        c = single_layer_cop_number(g.layers[i], g.n, 3, state_budget=budget)
        details.append(f"layer {i + 1} single-layer cop number = {c} (want 3)")
        ok &= c == 3
    return ok, details


@criterion("c03-cycle-matchings", "cycle split into matchings needs |V|/2 cops")
def _c03(budget):
    from .generators import gen_cycle_matchings
    from .solver import multilayer_cop_number

    details = []
    ok = True
    for half in (3, 4):
        g, _ = gen_cycle_matchings(half)
        mc = multilayer_cop_number(g, half, state_budget=budget)
        details.append(f"2n={2 * half}: cop number {mc} (want {half})")
        ok &= mc == half
    return ok, details


@criterion("c04-slices", "slices construction: cheap layers, expensive game")
def _c04(budget):
    from .generators import gen_slices, slices_induced_robber_slice
    from .solver import copwin_verdicts, single_layer_cop_number

    g, _ = gen_slices(2)
    details = []
    ok = True
    for i in (0, 1):
        c = single_layer_cop_number(g.layers[i], g.n, 2, state_budget=budget)
        details.append(f"layer {i + 1} cop number = {c} (want <= 2)")
        ok &= c is not None and c <= 2
    for x in (1, 2):
        edges, m = slices_induced_robber_slice(2, x)
        c = single_layer_cop_number(edges, m, 2, state_budget=budget)
        details.append(f"slice {x} cop number = {c} (want <= 2)")
        ok &= c is not None and c <= 2
    allocs = ((1, 0), (0, 1))
    one_cop = copwin_verdicts([(g, AllocationPlan(alloc).assignment()) for alloc in allocs], budget)
    for alloc, verdict in zip(allocs, one_cop):
        details.append(f"one cop alloc={alloc}: {verdict.winner.value} (want ROBBER)")
        ok &= verdict.winner is Winner.ROBBER
    return ok, details


@criterion("c05-star-reduction", "per-vertex star layers decide domination")
def _c05(budget):
    from .generators import gen_domset_reduction
    from .oracles import brute_domination_number
    from .solver import copwin_verdicts, free_choice_question

    rng = random.Random(20240605)
    cases = []
    for trial in range(200):
        n = rng.randint(3, 7)
        edges = random_connected_edges(rng, n, rng.randint(0, n))
        g, _ = gen_domset_reduction(edges, n)
        gamma = brute_domination_number(edges, n)
        cases += [(f"trial {trial} n={n} k={k}", k, gamma, free_choice_question(g, k)) for k in (1, 2, 3)]
    decide = partial(copwin_verdicts, state_budget=budget)
    answers = first_winning_plans([question for *_, question in cases], decide)
    mismatches = [
        f"{case}: got {'ROBBER' if plan is None else 'COP'}, gamma={gamma}"
        for (case, k, gamma, _), (plan, _) in zip(cases, answers)
        if (plan is not None) != (gamma <= k)
    ]
    details = [f"200 graphs x k in 1..3: {len(cases)} verdicts compared against brute-force domination"]
    details.extend(mismatches[:5])
    return not mismatches, details


@criterion("c06-tree-robber", "tree-robber fast path matches the exact solver")
def _c06(budget):
    from .solver import copwin_verdicts
    from .treealgo import tree_verdicts

    rng = random.Random(20240606)
    instances = []
    for _ in range(300):
        n = rng.randint(2, 8)
        tau = rng.randint(1, 2)
        layers = tuple(
            tuple(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice([0.15, 0.3, 0.5, 0.8])
            )
            for _ in range(tau)
        )
        g = MultiLayerGraph(
            n=n, layers=layers, robber_spec=RobberSpec.EXPLICIT,
            robber_edges=random_tree_edges(rng, n),
        )
        instances.append((g, rng.randint(1, 2)))
    mismatches = []
    questions = lambda: [([g], allocation_plans(k, g.tau)) for g, k in instances]
    # the instances advance together, each up to its first winning composition
    slow = [plan for plan, _ in first_winning_plans(questions(), partial(copwin_verdicts, state_budget=budget))]
    # the tree path has no batch to share: asked one at a time, it holds one
    # search, not 300 (~0.2 MiB at c06's peak, tracemalloc), at once
    fast = [first_winning_plans([question], tree_verdicts)[0][0] for question in questions()]
    won = lambda plan: "ROBBER" if plan is None else "COP"
    for trial, (solver, tree) in enumerate(zip(slow, fast)):
        if won(tree) != won(solver):
            mismatches.append(f"trial {trial}: tree={won(tree)} solver={won(solver)}")
    details = [f"{len(instances)} random tree-robber instances, verdicts identical"]
    details.extend(mismatches[:5])
    return not mismatches, details


@criterion("c07-clique-partition", "clique partition invariants over the full sweep")
def _c07(budget):
    from .generators import ConstructionError, gen_soifer
    count = 0
    failures = []
    for n in range(4, 31):
        for tau in range(1, n // 2):
            count += 1
            try:
                gen_soifer(n, tau)  # checks each invariant, raising on a failure
            except ConstructionError as ex:
                failures.append(f"(n={n}, tau={tau}): {ex}")
    details = [f"{count} (n, tau) pairs: connected layers, exact cover, degree <= ceil(n/tau)"]
    details.extend(failures[:5])
    return not failures, details


@criterion("c08-clique-lower-bound", "closed-neighbourhood certificate at k = tau/10")
def _c08(budget):
    from .bounds import clique_lb_check, mec_check
    from .generators import gen_soifer

    ok = True
    details = []
    for n, tau in ((24, 10), (30, 11), (40, 12)):
        g, _ = gen_soifer(n, tau)
        k = tau // 10
        got = clique_lb_check(g, k)
        mec = mec_check(g, k)
        details.append(f"(n={n}, tau={tau}, k={k}): certificate={got} mec={mec}")
        ok &= got and mec
    return ok, details


@criterion("c09-solver-oracle", "retrograde table equals naive fixed point, state by state")
def _c09(budget):
    import numpy as np

    from .oracles import naive_copwin_status
    from .solver import build_copwin_batch

    rng = random.Random(20240609)
    pairs = []
    for _ in range(300):
        g = random_instance(rng, n_max=6, tau_max=2)
        k = rng.randint(1, 2)
        pairs.append((g, tuple(rng.randrange(g.tau) for _ in range(k))))
    mismatches = []
    for trial, ((g, assignment), table) in enumerate(zip(pairs, build_copwin_batch(pairs, budget))):
        win = naive_copwin_status(g, assignment)
        # the oracle lists its states in packed-index order
        bad = np.fromiter(win.values(), dtype=bool, count=len(win)) != (table.rank >= 0)
        if bad.any():
            mismatches.append(f"trial {trial} state {table.unpack(int(bad.argmax()))}")
    details = ["300 random instances (n<=6, tau<=2, k<=2) checked state by state"]
    details.extend(mismatches[:5])
    return not mismatches, details


@criterion("c10-monotonicity", "robber edges help the robber, cop edges help the cops")
def _c10(budget):
    from .solver import copwin_verdicts, free_choice_question

    rng = random.Random(20240610)
    all_pairs = lambda n: [(u, v) for u in range(n) for v in range(u + 1, n)]
    # per trial: the base instance, its robber-layer growth, its cop-layer
    # growth and its union-robber substitution, all with the same k
    trials = []
    for _ in range(200):
        g = random_instance(rng, n_max=5, tau_max=2, specs=(RobberSpec.EXPLICIT,))
        n = g.n
        k = rng.randint(1, 2)
        extra = [e for e in all_pairs(n) if e not in g.robber_edges]
        rng.shuffle(extra)
        bigger = tuple(sorted(set(g.robber_edges) | set(extra[:2])))
        g_r = MultiLayerGraph(n=n, layers=g.layers, robber_spec=RobberSpec.EXPLICIT, robber_edges=bigger)
        glayers = []
        for layer in g.layers:
            extra = [e for e in all_pairs(n) if e not in layer]
            rng.shuffle(extra)
            glayers.append(tuple(sorted(set(layer) | set(extra[:2]))))
        g_c = MultiLayerGraph(
            n=n, layers=tuple(glayers), robber_spec=RobberSpec.EXPLICIT, robber_edges=g.robber_edges
        )
        g_u = MultiLayerGraph(n=n, layers=g.layers, robber_spec=RobberSpec.UNION)
        trials.append((k, (g, g_r, g_c, g_u)))
    questions = [([h], allocation_plans(k, h.tau)) for k, graphs in trials for h in graphs]
    decide = partial(copwin_verdicts, state_budget=budget)
    winners = [Winner.ROBBER if plan is None else Winner.COP for plan, _ in first_winning_plans(questions, decide)]
    # free layer choice, asked together of the trials where the union robber loses
    union_won = [(t, k, g_u) for t, (k, (*_, g_u)) in enumerate(trials) if winners[4 * t + 3] is Winner.COP]
    asked = [free_choice_question(g_u, k) for _, k, g_u in union_won]
    free = [plan for plan, _ in first_winning_plans(asked, decide)]
    free_lost = {trial for (trial, _, _), plan in zip(union_won, free) if plan is None}
    # the free-choice quantifier, checked apart from the search: each answer wins on every robber layer
    checks = [(t, h, plan) for (t, _, _), (hs, _), plan in zip(union_won, asked, free) if plan is not None for h in hs]
    beaten = decide([(h, plan.assignment()) for _, h, plan in checks])
    free_beaten = {t for (t, _, _), verdict in zip(checks, beaten) if verdict.winner is Winner.ROBBER}
    failures = []
    for trial in range(len(trials)):
        base, after, after_c, _ = winners[4 * trial : 4 * trial + 4]
        # robber layer grows: a cop win may only appear on the smaller layer
        if base is Winner.ROBBER and after is Winner.COP:
            failures.append(f"trial {trial}: robber-layer growth flipped ROBBER->COP")
        # cop layers grow: a cop win must survive
        if base is Winner.COP and after_c is Winner.ROBBER:
            failures.append(f"trial {trial}: cop-layer growth flipped COP->ROBBER")
        # union-robber win implies free-layer-choice win
        if trial in free_lost:
            failures.append(f"trial {trial}: union win without free-layer-choice win")
        if trial in free_beaten:
            failures.append(f"trial {trial}: free-layer-choice answer loses on some robber layer")
    details = ["200 random instances under edge additions and robber-layer substitution"]
    details.extend(failures[:5])
    return not failures, details


@criterion("c11-bounds-soundness", "existential closure and domination bound the cop number")
def _c11(budget):
    from .bounds import domination_bound, domset_exact, domset_greedy, mec_check
    from .solver import multilayer_cop_number

    rng = random.Random(20240611)
    failures = []
    mec_hits = 0
    dom_checks = 0
    chain_checks = 0
    for trial in range(120):
        g = random_instance(rng, n_max=6, tau_max=2, specs=(RobberSpec.COMPLETE,))
        n, tau = g.n, g.tau
        for k in (1, 2):
            if mec_check(g, k):
                mec_hits += 1
                mc = multilayer_cop_number(g, k, state_budget=budget)
                if mc is not None:
                    failures.append(f"trial {trial}: mec at k={k} but cop number {mc} <= k")
        ds, greedy = domset_exact(g), domset_greedy(g)
        for name, dset in (("exact", ds), ("greedy", greedy)):
            if not dset.is_valid(g):
                failures.append(f"trial {trial}: {name} dominating set misses a vertex")
        mc = multilayer_cop_number(g, len(ds), state_budget=budget)
        dom_checks += 1
        if mc is None:
            failures.append(f"trial {trial}: domination {len(ds)} does not bound the cop number")
        if len(ds) > len(greedy):
            failures.append(f"trial {trial}: exact {len(ds)} > greedy {len(greedy)}")
        delta = ml_min_degree(g)
        if delta >= tau * (math.e - 1):
            chain_checks += 1
            bound = domination_bound(n, tau, delta)
            if len(greedy) > bound + 1e-9:
                failures.append(f"trial {trial}: greedy {len(greedy)} above bound {bound:.3f}")
    details = [
        f"120 complete-robber instances: {mec_hits} mec certificates, "
        f"{dom_checks} domination bounds, {chain_checks} dense chain checks"
    ]
    details.extend(failures[:5])
    return not failures, details


@criterion("c12-pstar-density", "splitting probability and layered density")
def _c12(budget):
    from .bounds import pstar, pstar_residual
    from .generators import gen_random_layers

    ok = True
    details = []
    worst = 0.0
    for i in range(101):
        p = i / 100
        for tau in range(1, 11):
            worst = max(worst, pstar_residual(p, tau))
            ps = pstar(p, tau)
            if p <= 0.5 and not (ps / 2 - 1e-12 <= p <= ps + 1e-12):
                ok = False
                details.append(f"sandwich violated at p={p}, tau={tau}")
    details.append(f"max defining-equation residual {worst:.2e} (want < 1e-12)")
    ok &= worst < 1e-12
    n, p, seeds = 64, 0.3, 200
    pairs = n * (n - 1) // 2
    for tau in (1, 2, 3):
        total_edges = 0
        for seed in range(seeds):
            g, _ = gen_random_layers(n, p, tau, seed)
            total_edges += len(flatten(g))
        mean = total_edges / (seeds * pairs)
        sigma = math.sqrt(p * (1 - p) / (seeds * pairs))
        details.append(f"tau={tau}: flattened density {mean:.5f} vs p={p} (3 sigma = {3 * sigma:.5f})")
        ok &= abs(mean - p) <= 3 * sigma
    return ok, details


@criterion("c13-treewidth-sweep", "bag sweep with max-bag-size cops beats optimal robbers")
def _c13(budget):
    from .bounds import treewidth_cop_bound, treewidth_exact_small
    from .scripted import BagsweepCops
    from .sim import TablebaseRobber, run_match
    from .solver import build_copwin, multilayer_cop_number

    rng = random.Random(20240613)
    failures = []
    tested = 0
    while tested < 50:
        n = rng.randint(4, 10)
        tau = rng.randint(1, 2)
        layers = tuple(
            random_connected_edges(rng, n, rng.randint(0, 2))
            for _ in range(tau)
        )
        g = MultiLayerGraph(n=n, layers=layers, robber_spec=RobberSpec.UNION)
        width, decomp = treewidth_exact_small(flatten(g), n)
        cops = treewidth_cop_bound(g, decomp)
        if cops > 4:
            continue
        counts = [0] * tau
        for c in range(cops):
            counts[c % tau] += 1
        plan = AllocationPlan(tuple(counts))
        table = build_copwin(g, plan.assignment(), state_budget=budget)
        rec = run_match(g, plan, BagsweepCops(decomp), TablebaseRobber(table), T=60 * n * n, seed=tested)
        if rec.outcome != "CAPTURE":
            failures.append(f"instance {tested}: bag sweep did not capture (n={n}, cops={cops})")
        mc = multilayer_cop_number(g, cops, state_budget=budget)
        if mc is None:
            failures.append(f"instance {tested}: cop number above bag bound {cops}")
        tested += 1
    details = [f"50 random connected-layer instances, bag-size cops always capture"]
    details.extend(failures[:5])
    return not failures, details


@criterion("c14-copsbane", "expander-core family: validators and robber survival")
def _c14(budget):
    from .generators import gen_copsbane
    from .scripted import CopsbaneRobber
    from .sim import GreedyCops, run_match

    ok = True
    details = []
    built = {}
    for N in (8, 12, 16, 20):
        g, report, layout = built[N] = gen_copsbane(N, seed=3)
        details.append(
            f"N={N}: validator {'PASS' if report.ok else 'FAIL'}, D={layout.D}, "
            f"arm length {2 * layout.D + 1}, clustering {layout.clustering}, "
            f"expansion {layout.expansion:.3f} ({'exact' if layout.expansion_exact else 'heuristic'})"
        )
        ok &= report.ok and layout.expansion_exact
    captures = 0
    matches = 0
    for N in (20, 50):
        g = (built[N] if N in built else gen_copsbane(N, seed=3))[0]
        for seed in range(20):
            rec = run_match(g, AllocationPlan((2, 2)), GreedyCops(), CopsbaneRobber(), T=1000, seed=seed)
            matches += 1
            if rec.outcome != "SURVIVED":
                captures += 1
    details.append(f"survival: {matches - captures}/{matches} matches survived T=1000 (want all)")
    ok &= captures == 0
    return ok, details


@criterion("c15-determinism", "verify-paper output is a pure function of its arguments")
def _c15(budget):
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    cmd = [_sys.executable, "-m", "mlcr.cli", "verify-paper", "--only", "c07"]
    paths = [str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    outs = []
    for _ in range(2):  # each child imports the package that this process runs
        proc = subprocess.run(cmd, capture_output=True, env=env)
        outs.append(proc.stdout)
    ok = outs[0] == outs[1] and b"PASS" in outs[0]
    details = [f"two runs produced {'identical' if outs[0] == outs[1] else 'DIFFERENT'} stdout "
               f"({len(outs[0])} bytes)"]
    return ok, details
