"""Command-line surface: solve, generate, bounds, simulate, play, experiment,
verify-paper.

Exit codes for `solve`: 0 cop win, 1 robber win, 2 usage/parse error,
3 state budget exceeded.  All timing output goes to stderr so stdout is a
deterministic function of the arguments and seeds.

Exit codes by command:
  solve          0 cop win, 1 robber win
  verify-paper   0 every criterion passes, 1 some criterion fails
  generate, bounds, simulate, play, experiment   0 success
  every command  2 usage, parse, input or I/O error; 3 state budget
                 exceeded, or more vertices than one layer's structures
                 can hold in physical RAM.  Both print one `error: ...`
                 line on stderr; `main` maps the errors to these codes in
                 one place.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
import time
from functools import partial

from .core import (
    DEFAULT_STATE_BUDGET,
    AllocationPlan,
    GameVerdict,
    MlgError,
    StateBudgetExceeded,
    Winner,
    allocation_plans,
    checked_assignment,
    first_winning_plans,
    ml_min_degree,
    parse_mlg_file,
    write_mlg_file,
)

EXIT_COP = 0
EXIT_ROBBER = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _say_time(label: str, t0: float) -> None:
    print(f"# {label}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)


def _int_list(text: str, option: str) -> tuple[int, ...]:
    """The value of `option` (`--allocation`, `--seeds`): comma-separated integers."""

    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise MlgError(f"{option} needs comma-separated integers, got {text!r}") from None


def cmd_solve(args) -> int:
    # the solver (and numpy) is imported only where a table is built
    from .treealgo import robber_tree_edges, tree_verdicts

    t0 = time.perf_counter()
    g = parse_mlg_file(args.graph)
    modes = [m for m in (args.allocation, args.cops, args.free_choice) if m is not None]
    if len(modes) != 1:
        raise MlgError("pass exactly one of --allocation/--cops/--free-choice")
    if args.dump_table and not any(_int_list(args.allocation or "0", "--allocation")):
        raise MlgError("--dump-table needs --allocation with at least one cop")
    use_tree = robber_tree_edges(g) is not None
    table = None
    # each mode is a cop count k and one question: a graph list and the plans to try on it
    if args.allocation is not None:
        plan = AllocationPlan(_int_list(args.allocation, "--allocation"))
        assignment = checked_assignment(g, plan)
        k, question = plan.total, ([g], [plan])
        lines = [f"METHOD={'tree' if use_tree and k else 'state-graph'}", f"ALLOCATION={plan}"]
        if args.dump_table:
            from .solver import build_copwin, dump_cwt

            table = build_copwin(g, assignment, state_budget=args.state_budget)
            with open(args.dump_table, "w") as fh:
                dump_cwt(table, fh)
            print(f"TABLE={args.dump_table}")
    elif args.cops is not None:
        k, question = args.cops, ([g], allocation_plans(args.cops, g.tau))
        lines = [f"METHOD={'tree' if use_tree else 'state-graph'}"]
    else:
        k, question, lines = args.free_choice, None, []  # its robber-layer variants need the solver
    if k == 0:  # every start is safe, vertex 0 first
        verdict = GameVerdict(Winner.ROBBER, safe_vertex=0)
    else:
        if args.free_choice is not None:
            from .solver import copwin_verdicts, free_choice_question

            question = free_choice_question(g, k)
            decide = partial(copwin_verdicts, state_budget=args.state_budget)
        elif use_tree:
            decide = tree_verdicts
        elif table is not None:  # the dumped table is the state-graph verdict's table
            decide = lambda pairs: [table.allocated_verdict()]
        else:
            from .solver import allocated_verdicts

            decide = partial(allocated_verdicts, state_budget=args.state_budget)
        ((answer, verdict),) = first_winning_plans([question], decide)
        if answer is not None and args.allocation is None:
            lines.append(f"WINNING_ALLOCATION={answer}")
        if answer is not None and args.free_choice is not None:  # the winner-only verdict has no witness
            verdict = GameVerdict(Winner.COP, assignment=answer.assignment())
        elif answer is None and args.cops is not None and use_tree:
            # a safe start depends on the placement: the last certificate alone
            verdict = GameVerdict(Winner.ROBBER, certificate=verdict.certificate)
    for line in lines + verdict.record_lines():
        print(line)
    _say_time("solve", t0)
    return EXIT_COP if verdict.winner is Winner.COP else EXIT_ROBBER


def cmd_generate(args) -> int:
    from . import generators as gen

    t0 = time.perf_counter()
    fam = args.family
    if fam == "grid":
        g, report = gen.gen_grid(args.n)
    elif fam == "mirror":
        g, report = gen.gen_min_counterexample()
    elif fam == "slices":
        g, report = gen.gen_slices(args.k)
    elif fam == "cycle-matchings":
        g, report = gen.gen_cycle_matchings(args.n)
    elif fam == "soifer":
        g, report = gen.gen_soifer(args.n, args.tau)
    elif fam == "random-layers":
        g, report = gen.gen_random_layers(args.n, args.p, args.tau, args.seed, robber=args.robber)
    elif fam == "copsbane":
        g, report, _ = gen.gen_copsbane(args.n, alpha=args.alpha, D=args.D, seed=args.seed)
    else:  # domset-reduction, the last of the parser's choices
        base = gen.gen_gnp(args.n, args.p, args.seed)
        g, report = gen.gen_domset_reduction(base, args.n)
    write_mlg_file(g, args.output)
    print(f"WROTE={args.output}")
    print(f"VERTICES={g.n}")
    print(f"LAYERS={g.tau}")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.render())
        print(f"REPORT={args.report}")
    _say_time("generate", t0)
    return 0


def cmd_bounds(args) -> int:
    from .bounds import (
        EnumerationBudgetExceeded,
        domset_exact,
        domset_greedy,
        mec_lower_bound,
        treewidth_exact_small,
    )
    from .core import flatten

    t0 = time.perf_counter()
    if args.max_k < 0:
        raise MlgError(f"--max-k needs a cop count >= 0, got {args.max_k}")
    g = parse_mlg_file(args.graph)
    print(f"LB_mec={mec_lower_bound(g, args.max_k)}")
    try:
        ds = domset_exact(g)
        print(f"UB_domset={len(ds)}")
        if args.dump_domset:
            sys.stdout.write(ds.render())
    except EnumerationBudgetExceeded:
        ds = domset_greedy(g)
        print(f"UB_domset={len(ds)} (greedy)")
    try:
        width, decomp = treewidth_exact_small(flatten(g), g.n)
        connected = all(len(g.components(i)) == 1 for i in range(g.tau))
        if connected:
            print(f"UB_treewidth={width + 1}")
        else:
            print("UB_treewidth=n/a (disconnected layer)")
        if args.dump_td:
            sys.stdout.write(decomp.render())
    except EnumerationBudgetExceeded:
        print("UB_treewidth=n/a (too large)")
    _say_time("bounds", t0)
    return 0


def cmd_simulate(args) -> int:
    """Play seeds `--seed` .. `--seed + --batch - 1` with one strategy object
    per side, one match at a time: the referee checks each record as soon as
    it is played, and the batch keeps only its MATCH line and, with
    `--record`, its MR1 text.  Nothing is printed until the whole batch has
    been played, so a match that raises prints no MATCH line; the report
    stops at the first rejected record (exit 2, no SUMMARY, no record file),
    though the batch is played on past it."""

    from .sim import (cop_strategy_from_name, referee_check, robber_strategy_from_name, run_match,
                      table_source)

    t0 = time.perf_counter()
    if args.batch < 0:
        raise MlgError(f"--batch needs a count >= 0, got {args.batch}")
    if args.rounds < 0:
        raise MlgError(f"--rounds needs a match horizon T >= 0, got {args.rounds}")
    g = parse_mlg_file(args.graph)
    if args.tag:
        g.tag = args.tag
    plan = AllocationPlan(_int_list(args.allocation, "--allocation"))
    # one object per side plays every seed; both tablebase sides share one table
    table = table_source(g, plan, args.state_budget)
    cop = cop_strategy_from_name(args.cop_strategy, g, table)
    rob = robber_strategy_from_name(args.robber_strategy, g, table)
    lines, texts, captures, rejected = [], [], 0, None
    for seed in range(args.seed, args.seed + args.batch):
        rec = run_match(g, plan, cop, rob, T=args.rounds, seed=seed)
        if rejected is not None:
            continue
        ok, msg = referee_check(rec, g)
        if not ok:
            rejected = msg
            continue
        captures += rec.outcome == "CAPTURE"
        line = f"MATCH seed={rec.seed} outcome={rec.outcome}"
        if rec.capture_round is not None:
            line += f" round={rec.capture_round}"
        if rec.tags:
            line += " tags=" + ",".join(rec.tags)
        lines.append(line)
        if args.record:
            texts.append(rec.render())
    for line in lines:
        print(line)
    if rejected is not None:
        print(f"error: referee rejected record: {rejected}", file=sys.stderr)
        return EXIT_USAGE
    print(f"SUMMARY matches={args.batch} captures={captures}")
    if args.record:
        with open(args.record, "w") as fh:
            fh.writelines(texts)
    _say_time("simulate", t0)
    return 0


def cmd_play(args) -> int:
    from .scripted import interactive_play

    g = parse_mlg_file(args.graph)
    plan = AllocationPlan(_int_list(args.allocation, "--allocation"))
    record = interactive_play(g, plan, args.role, state_budget=args.state_budget)
    print(f"OUTCOME={record.outcome}")
    return 0


def cmd_experiment(args) -> int:
    import csv

    from .bounds import domination_bound, domset_greedy, mec_lower_bound
    from .generators import gen_random_layers

    t0 = time.perf_counter()
    seeds = _int_list(args.seeds, "--seeds")

    def one_row(seed: int):
        row_t = time.perf_counter()
        g, _ = gen_random_layers(args.n, args.p, args.tau, seed)
        delta = ml_min_degree(g)
        gamma = len(domset_greedy(g))
        bound = domination_bound(g.n, g.tau, delta) if delta >= 1 else float("nan")
        return {
            "n": args.n,
            "p": args.p,
            "tau": args.tau,
            "seed": seed,
            "delta_mlg": delta,
            "gamma_greedy": gamma,
            "domination_bound": f"{bound:.4f}",
            "mec_lb_k": mec_lower_bound(g),
        }, time.perf_counter() - row_t

    results = [one_row(s) for s in seeds]

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["format", *results[0][0]], lineterminator="\n")
    writer.writeheader()
    for row, _ in results:
        writer.writerow({"format": "mlcr-experiment-v1", **row})
    mean_gamma = sum(r["gamma_greedy"] for r, _ in results) / len(results)
    mean_delta = sum(r["delta_mlg"] for r, _ in results) / len(results)
    buf.write(f"summary,mean_gamma={mean_gamma:.3f},mean_delta={mean_delta:.3f}\n")
    sys.stdout.write(buf.getvalue())
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(buf.getvalue())
    for (row, wall) in results:
        print(f"# seed={row['seed']} wall={wall:.3f}s", file=sys.stderr)
    _say_time("experiment", t0)
    return 0


def cmd_verify_paper(args) -> int:
    from .verify import run_criteria

    ran = failed = 0
    # each criterion is printed as it finishes, before a later one can raise
    for res in run_criteria(only=args.only, state_budget=args.state_budget):
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.cid} {res.title}")
        for line in res.details:
            print(f"  {line}")
        sys.stdout.flush()
        print(f"# {res.cid}: {res.elapsed:.2f}s", file=sys.stderr)
        ran += 1
        failed += not res.passed
    print(f"TOTAL {ran - failed}/{ran} PASS")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mlcr", description=__doc__.split("\n\nExit codes by command")[0])
    ap.add_argument("--state-budget", type=int, default=DEFAULT_STATE_BUDGET)
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide a game instance")
    p.add_argument("graph")
    p.add_argument("--allocation", help="per-layer cop counts, e.g. 2,0")
    p.add_argument("--cops", type=int, help="total cops, solver picks the allocation")
    p.add_argument("--free-choice", type=int, help="total cops, robber picks its layer")
    p.add_argument("--dump-table", help="write the solved table in CWT1 format to this file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="construct a family instance")
    p.add_argument("family", choices=["grid", "mirror", "slices", "cycle-matchings", "soifer",
                                      "random-layers", "copsbane", "domset-reduction"])
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report")
    p.add_argument("-n", type=int, default=4)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--tau", type=int, default=2)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--robber", choices=["COMPLETE", "UNION"], default="COMPLETE")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bounds", help="lower/upper bounds for a graph")
    p.add_argument("graph")
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--dump-domset", action="store_true")
    p.add_argument("--dump-td", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run strategy matches")
    p.add_argument("graph")
    p.add_argument("--allocation", required=True)
    p.add_argument("--cop-strategy", default="greedy")
    p.add_argument("--robber-strategy", default="random")
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--record", help="write MR1 records to this file")
    p.add_argument("--tag", help="name the graph in the MR1 records")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("play", help="interactive match against the tablebase")
    p.add_argument("graph")
    p.add_argument("--allocation", required=True)
    p.add_argument("--role", choices=["robber", "cops"], default="robber")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("experiment", help="random layered-graph bound sweep")
    p.add_argument("-n", type=int, default=128)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--tau", type=int, default=2)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify-paper", help="run the acceptance criteria suite")
    p.add_argument("--only", help="run only criteria whose id contains this substring")
    p.set_defaults(func=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else 0
    try:
        return args.func(args)
    except StateBudgetExceeded as ex:
        code, message = EXIT_BUDGET, str(ex)
    except (MlgError, OSError) as ex:
        code, message = EXIT_USAGE, str(ex)
    print(f"error: {message}", file=sys.stderr)
    return code


# Young-generation threshold of a CLI process.  Start-up creates ~21,000
# tracked objects that are never garbage (modules, functions, numpy's
# types); at the interpreter's default of 700 a tablebase `simulate` spends
# dozens of young and a few middle-generation passes on them (README,
# "Start-up and exit").
GC_GEN0_THRESHOLD = 10_000


def run() -> None:
    """Process entry point (the `mlcr` script, `python -m mlcr.cli`): exit
    with `main`'s code.  The collector's young generation is raised to
    `GC_GEN0_THRESHOLD` first (the older generations keep theirs).
    Freezing the heap after `main` lets the interpreter's final collections
    skip every object still alive (about 21,500 after a tablebase
    `simulate` with numpy 2.4); atexit hooks and stdio flushing still run.
    `main` called in-process changes neither setting."""

    gc.set_threshold(GC_GEN0_THRESHOLD)
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
