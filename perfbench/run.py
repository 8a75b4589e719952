"""Benchmark of the `mlcr` command-line program, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record

Each workload (perfbench/workloads.py) is a short list of CLI invocations,
each spawned as its own `python3 -m mlcr.cli` process on the checkout's
`src/`.  Set-up generates the inputs; then the workload is run again and
again for S seconds.  Set-up and a machine-speed probe are repeated at
SETUP_SAMPLES points spread over the run.  The time metrics add up the
fastest repeat of each invocation; the median and quartiles over the
iterations are printed beside them.  `--all` runs every workload,
interleaved round-robin, and prints every metric by name with its unit.
With `--trace 1` every iteration runs the invocations once untraced and
once under perfbench/tracer.py, and the per-layer metrics come from the
traced spans.  `--record` writes the stdout digests of the default seed to
perfbench/expected.json.  Working files go to .bench_work/ in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload, match_rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected.json"
TRACER = HERE / "tracer.py"
PROBE = HERE / "probe.py"

# Set-up and the probe run before the first iteration and then each time
# another 1/(SETUP_SAMPLES - 1) of the measuring time has passed, so their
# samples span the run like the iterations do; `setup_s` is their median.
SETUP_SAMPLES = 5
# One run must end within 180 s: invocations still running after this
# many seconds from the start are killed and count as failed.
RUN_LIMIT_S = 165.0
# numpy's OpenBLAS starts a worker thread per core, and at start-up that
# thread sometimes spins on the second core and sometimes does not: with it,
# an invocation ends up to 0.08 s sooner and uses about 0.1 s more CPU.  One
# BLAS thread keeps every child on one core, as the program is meant to run.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
CRITERION = re.compile(r"verify\.c\d+")
LAYERS = ("cli", "core", "solver", "sim", "generators", "bounds", "treealgo", "oracles", "verify")


# -- spawning ----------------------------------------------------------------------


@dataclass
class Invocation:
    args: list[str]
    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(args: list[str], cwd: Path, timeout: float, trace_out: Path | None = None, request: int = 0) -> Invocation:
    """Run one CLI invocation to completion, killing it after `timeout`
    seconds; rusage comes from wait4 on this child alone."""

    if trace_out is None:
        argv = [sys.executable, "-m", "mlcr.cli", *args]
    else:
        argv = [sys.executable, str(TRACER), str(trace_out), str(request), "--", *args]
    with open(cwd / "stdout.txt", "w+b") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL, env=CHILD_ENV)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    return Invocation(
        args=args,
        code=proc.returncode,
        stdout=stdout,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def digest(inv: Invocation) -> str:
    return hashlib.sha256(f"exit={inv.code}\n{inv.stdout}".encode()).hexdigest()


def probe() -> dict[str, float]:
    """Machine speed right now (perfbench/probe.py, in a child process).
    Reported next to the results, never used to scale them."""

    out = subprocess.run([sys.executable, str(PROBE)], capture_output=True, text=True, check=True, env=CHILD_ENV)
    return json.loads(out.stdout)


# -- one workload ------------------------------------------------------------------


@dataclass
class Sample:
    """One iteration: every measured invocation once, untraced."""

    invocations: list[Invocation]
    traced_wall_s: float = 0.0
    traces: list[Trace] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)

    @property
    def cpu_s(self) -> float:
        return sum(inv.cpu_s for inv in self.invocations)


class Runner:
    """Set-up, iterations and failure accounting for one workload."""

    def __init__(self, workload: Workload, seed: int, trace: bool, expected: dict | None, deadline: float):
        self.w = workload
        self.deadline = deadline
        self.seed = seed
        self.trace = trace
        self.expected = expected
        self.dir = WORK / workload.name
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.probes: list[dict[str, float]] = []
        self.samples: list[Sample] = []

    def invoke(self, args: list[str], **trace) -> Invocation:
        self.attempted += 1
        return spawn(args, self.dir, max(1.0, self.deadline - time.perf_counter()), **trace)

    def _fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"# FAIL {self.w.name}: {what}", file=sys.stderr)

    def setup(self) -> bool:
        """Generate the inputs into a fresh directory; False if any
        invocation fails."""

        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        return self.sample_setup()

    def sample_setup(self) -> bool:
        """Probe the machine, then run the set-up invocations and keep their
        summed wall time as one `setup_s` sample; False if any invocation
        fails.  The seed fixes the generated files, so a repeat rewrites them
        as they were."""

        self.probes.append(probe())
        total = 0.0
        for args in self.w.setup(self.seed):
            inv = self.invoke(args)
            total += inv.wall_s
            if inv.code != 0:
                self._fail(f"set-up {' '.join(args)} exited {inv.code}")
                return False
        self.setup_s.append(total)
        return True

    def _check(self, index: int, inv: Invocation) -> None:
        err = self.w.check(inv.args, inv.code, inv.stdout, self.seed)
        if err is None and self.expected is not None:
            if digest(inv) != self.expected[self.w.name][index]:
                err = "stdout or exit code differs from the recorded digest"
        if err is not None:
            self._fail(f"{' '.join(inv.args)}: {err}")

    def iterate(self) -> Sample:
        plain = []
        for i, args in enumerate(self.w.runs(self.seed)):
            inv = self.invoke(args)
            self._check(i, inv)
            plain.append(inv)
        sample = Sample(plain)
        if self.trace:
            for i, inv in enumerate(plain):
                out = self.dir / f"spans{i}.json"
                out.unlink(missing_ok=True)
                traced = self.invoke(inv.args, trace_out=out, request=i)
                sample.traced_wall_s += traced.wall_s
                if traced.code != inv.code or traced.stdout != inv.stdout:
                    self._fail(f"{' '.join(inv.args)}: traced stdout differs from untraced")
                elif not out.is_file():
                    self._fail(f"{' '.join(inv.args)}: the tracer wrote no spans")
                else:
                    sample.traces.append(span_stats(json.loads(out.read_text())))
        self.samples.append(sample)
        return sample


# -- metrics -----------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _percentile(sorted_values: list[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(p * len(sorted_values)))]


def fastest(run: Runner, attr: str) -> float:
    """The workload's time at its fastest: the smallest `attr` of each
    measured invocation over the run's iterations, added up."""

    per_invocation = zip(*(s.invocations for s in run.samples))
    return sum(min(getattr(inv, attr) for inv in invs) for invs in per_invocation)


def end_to_end(run: Runner) -> dict[str, tuple[float, str, tuple[float, float, float], int]]:
    """name -> (value, unit, quartiles, samples) for every metric that applies.

    `wall_s` and `cpu_s` are the fastest repeats (see `fastest`); their
    quartiles are those of the iterations' sums."""

    n = len(run.samples)
    out = {}

    def put(name, values, unit, value=None):
        q = _quartiles(values)
        out[name] = (q[1] if value is None else value, unit, q, len(values))

    wall = fastest(run, "wall_s")
    put("wall_s", [s.wall_s for s in run.samples], "s", wall)
    put("cpu_s", [s.cpu_s for s in run.samples], "s", fastest(run, "cpu_s"))
    peak = max(inv.rss_mb for s in run.samples for inv in s.invocations)
    out["peak_rss_mb"] = (peak, "MB", (peak, peak, peak), n)
    put("setup_s", run.setup_s, "s")
    ratio = len(run.failures) / run.attempted
    out["fail_ratio"] = (ratio, "ratio", (ratio, ratio, ratio), run.attempted)
    if run.w.states:
        put("mstates_per_s", [run.w.states / 1e6 / s.wall_s for s in run.samples], "Mstates/s",
            run.w.states / 1e6 / wall)
        bps = peak * 2**20 / run.w.states
        out["bytes_per_state"] = (bps, "B/state", (bps, bps, bps), n)
    rounds = sum(match_rounds(inv.args, inv.stdout) for inv in run.samples[0].invocations)
    if rounds:
        put("rounds_per_s", [rounds / s.wall_s for s in run.samples], "rounds/s", rounds / wall)
    for key in run.probes[0]:
        put(f"probe.{key}", [p[key] for p in run.probes], "ms")
    return out


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    durations: list[float] = field(default_factory=list)


@dataclass
class Trace:
    """One traced invocation, reduced to per-name statistics."""

    stats: dict[str, SpanStats]
    attrs: list[dict]
    counts: dict[str, int]
    # time covered by the spans that have no parent
    root_s: float
    # spans whose children cover more than the span itself: broken nesting
    # or a wrong parent
    misnested: list[str]


def span_stats(doc: dict) -> Trace:
    """Per-name calls, self time and durations of one traced invocation.

    Self time is a span's duration minus the time its child spans cover;
    spans of one process nest, so that is the sum of the children's durations.
    """

    names = [doc["names"][i] for i in doc["name"]]
    durations = [end - start for start, end in zip(doc["start"], doc["end"])]
    child = [0.0] * len(names)
    for parent, dur in zip(doc["parent"], durations):
        if parent >= 0:
            child[parent] += dur
    stats: dict[str, SpanStats] = {}
    misnested = []
    for name, dur, covered in zip(names, durations, child):
        st = stats.setdefault(name, SpanStats())
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - covered
        st.durations.append(dur)
        if dur - covered < -1e-9:
            misnested.append(name)
    attrs = [dict(a, name=names[int(i)]) for i, a in doc["attrs"].items()]
    root_s = sum(dur for parent, dur in zip(doc["parent"], durations) if parent < 0)
    return Trace(stats, attrs, doc["counts"], root_s, misnested)


def per_layer(run: Runner) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics averaged over the traced iterations, plus the
    problems found in the trace."""

    traced = run.samples
    n_it = len(traced)
    stats: dict[str, SpanStats] = {}
    attrs: list[dict] = []
    counts: dict[str, int] = {}
    problems = []
    for sample in traced:
        self_total = 0.0
        for trace in sample.traces:
            attrs += trace.attrs
            if trace.misnested:
                problems.append(f"self time < 0 in {len(trace.misnested)} spans, first {trace.misnested[0]}")
            for name, c in trace.counts.items():
                counts[name] = counts.get(name, 0) + c
            for name, st in trace.stats.items():
                agg = stats.setdefault(name, SpanStats())
                agg.calls += st.calls
                agg.self_s += st.self_s
                agg.total_s += st.total_s
                agg.durations += st.durations
                self_total += st.self_s
        if self_total > sample.traced_wall_s:
            problems.append(f"self times sum to {self_total:.3f}s > traced wall {sample.traced_wall_s:.3f}s")

    m: dict[str, tuple[float, str]] = {}
    for name, st in stats.items():
        durs = sorted(st.durations)
        m[f"{name}.calls"] = (st.calls / n_it, "count")
        m[f"{name}.self_s"] = (st.self_s / n_it, "s")
        m[f"{name}.total_s"] = (st.total_s / n_it, "s")
        m[f"{name}.p50_us"] = (_percentile(durs, 0.50) * 1e6, "us")
        m[f"{name}.p99_us"] = (_percentile(durs, 0.99) * 1e6, "us")
        if CRITERION.fullmatch(name):
            m[f"{name}.s"] = (st.total_s / n_it, "s")
    for name, c in counts.items():
        m[f"{name}.calls"] = (c / n_it, "count")

    # Distinct inputs ÷ calls within each invocation, averaged over the
    # invocations that call the function: keys repeat from one iteration to
    # the next, so pooling them would shrink the ratio as iterations grow.
    for name in ("solver.build_copwin", "generators.copsbane_layout"):
        ratios = []
        for trace in (t for s in traced for t in s.traces):
            keys = [a["key"] for a in trace.attrs if a["name"] == name]
            if keys:
                ratios.append(len(set(keys)) / len(keys))
        m[f"{name}.distinct_ratio"] = (statistics.fmean(ratios) if ratios else 0.0, "ratio")
    tables = [a for a in attrs if a["name"] == "solver.build_copwin"]
    states = sum(a["states"] for a in tables)
    build_s = stats.get("solver.build_copwin", SpanStats()).total_s
    m["solver.build_copwin.states"] = (states / n_it, "count")
    m["solver.build_copwin.mstates_per_s"] = (states / 1e6 / build_s if build_s else 0.0, "Mstates/s")
    m["solver.table_bytes_per_state"] = (sum(a["bytes"] for a in tables) / states if states else 0.0, "B/state")

    for layer in LAYERS:
        own = sum(st.self_s for name, st in stats.items() if name.split(".")[0] == layer)
        m[f"layer.{layer}.self_s"] = (own / n_it, "s")
    m["cli.import_s"] = (stats.get("cli.import", SpanStats()).total_s / n_it, "s")
    m["cli.self_s"] = (stats.get("cli.main", SpanStats()).self_s / n_it, "s")
    traced_wall = statistics.median(s.traced_wall_s for s in traced)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - statistics.median(s.wall_s for s in traced), "s")
    # Share of the traced wall time that the root spans cover; the rest is
    # interpreter start-up before the tracer runs, and process exit.
    m["trace.coverage"] = (
        statistics.median(sum(t.root_s for t in s.traces) / s.traced_wall_s for s in traced),
        "ratio",
    )
    for key in run.probes[0]:
        m[f"probe.{key}"] = (statistics.median(p[key] for p in run.probes), "ms")
    return m, problems


# -- running -----------------------------------------------------------------------


def select(metrics: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order; a missing one is a
    per-layer metric whose span never ran, and reads 0."""

    out = {}
    for spec in specs:
        value = metrics.get(spec["name"], (0.0, spec["unit"]))[0]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    expected = json.loads(EXPECTED.read_text()) if seed == DEFAULT_SEED else None
    deadline = time.perf_counter() + RUN_LIMIT_S * len(names)
    runners = [Runner(WORKLOADS[n], seed, trace, expected, deadline) for n in names]
    for r in runners:
        if not r.setup():
            print(f"error: set-up of {r.w.name} failed: {r.failures[-1]}", file=sys.stderr)
            return 1

    # Only iterations count against the budget; the set-up samples come on top.
    budget = seconds * len(runners)
    points = [budget * k / (SETUP_SAMPLES - 1) for k in range(1, SETUP_SAMPLES)]
    measured = 0.0
    while True:
        round_s = 0.0
        for r in runners:  # round-robin, so drift of the machine hits every workload alike
            t0 = time.perf_counter()
            r.iterate()
            round_s += time.perf_counter() - t0
        measured += round_s
        done = measured + round_s > budget
        while points and (done or measured >= points[0]):
            points.pop(0)
            for r in runners:
                r.sample_setup()
        if done:
            break

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [f for r in runners for f in r.failures]
    attempted = sum(r.attempted for r in runners)
    result: dict = {}
    for r in runners:
        e2e = end_to_end(r)
        print(f"# {r.w.name}: seed={seed} iterations={len(r.samples)} ({r.w.why})")
        for name, (value, unit, (q1, q2, q3), n) in e2e.items():
            print(f"#   {name:<18} {value:12.4f} {unit:<10} q1={q1:.4f} median={q2:.4f} q3={q3:.4f} n={n}")
        metrics = {k: (v[0], v[1]) for k, v in e2e.items()}
        specs = spec["end_to_end"]
        if trace:
            layer_metrics, trace_problems = per_layer(r)
            problems += [f"{r.w.name}: {p}" for p in trace_problems]
            for name, (value, unit) in sorted(layer_metrics.items()):
                print(f"#   {name:<44} {value:14.6f} {unit}")
            metrics, specs = layer_metrics, spec["per_layer"]
        chosen = select(metrics, specs)
        result.update(chosen if len(runners) == 1 else {f"{r.w.name}.{k}": v for k, v in chosen.items()})
    for p in problems:
        print(f"# problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(len(r.failures) for r in runners),
        "metrics": result,
    }))
    return 0


def record() -> int:
    """Write the stdout digests of every measured invocation at the default seed."""

    out = {}
    for name, w in WORKLOADS.items():
        r = Runner(w, DEFAULT_SEED, False, None, time.perf_counter() + RUN_LIMIT_S)
        if not r.setup():
            print(f"error: set-up of {name} failed", file=sys.stderr)
            return 1
        invs = [r.invoke(args) for args in w.runs(DEFAULT_SEED)]
        for inv in invs:
            err = w.check(inv.args, inv.code, inv.stdout, DEFAULT_SEED)
            if err:
                print(f"error: {name}: {err}", file=sys.stderr)
                return 1
        out[name] = [digest(inv) for inv in invs]
    EXPECTED.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, interleaved round-robin")
    which.add_argument("--record", action="store_true", help="record digests at the default seed")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "mlcr" / "cli.py").is_file():
        print(f"error: no mlcr sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    names = sorted(WORKLOADS) if args.all else [args.workload]
    return run_all(names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
