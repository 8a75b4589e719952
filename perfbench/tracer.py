"""Run one `mlcr` CLI invocation with spans recorded around each layer.

Usage: python3 perfbench/tracer.py SPANS_OUT REQUEST_ID -- <mlcr arguments>

The program is wrapped from outside: every public function of each layer
module is replaced, in every `mlcr` module that binds it, by a wrapper that
records a span (name, parent, start, end).  The solver's policy methods,
the strategies' move methods and the acceptance criteria are wrapped the
same way.  Spans stay in memory and are written to SPANS_OUT as JSON when
the CLI returns.  Nothing is printed to stdout, so the CLI's stdout is the
same as in an untraced run.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

LAYERS = ("core", "solver", "sim", "generators", "bounds", "treealgo", "oracles", "verify")

# Helpers called once per vertex or per state: a span around each call would
# cost more than the work it measures.  Their time stays with the caller.
SKIP = {
    "core.bfs_dist_adj",
    "core.canonical_edges",
    "generators.grid_index",
    "generators.grid_coords",
    "generators.slices_index",
    "generators.slices_coords",
    "solver.state_space_size",
}

# (module, class, method, span name)
METHODS = (
    ("solver", "CopWinTable", "best_cop_move", "solver.best_cop_move"),
    ("solver", "CopWinTable", "chase_cop_move", "solver.chase_cop_move"),
    ("solver", "CopWinTable", "best_robber_move", "solver.best_robber_move"),
)
COUNTED = (("core", "MultiLayerGraph", "layer_view", "core.layer_view"),)
# (base class, method, span name prefix): wrapped on every subclass of the
# base in `sim` that defines the method; the span name ends in the class name.
STRATEGY_METHODS = (
    ("CopTeamStrategy", "moves", "sim.cop_move."),
    ("RobberStrategy", "move", "sim.robber_move."),
)
# Both registry lookups are one step of the CLI: choose and build a strategy.
RENAMED = {
    "sim.cop_strategy_from_name": "sim.strategy_from_name",
    "sim.robber_strategy_from_name": "sim.strategy_from_name",
}


class Tracer:
    """Span store for one process; spans of one invocation share its request id.

    Span i is (names[i], parents[i], starts[i], ends[i]).  Flat lists of
    numbers keep the garbage collector from scanning one object per span.
    """

    def __init__(self, request: int):
        self.request = request
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: dict[int, dict] = {}
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def open(self, name: str, start: float | None = None) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter() if start is None else start)
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording a span per call; `after(args, kwargs, result)`
        runs once the span is closed, in a span of its own, and its value is
        kept as the span's attributes."""

        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                book = self.open("trace.bookkeeping")
                try:
                    self.attrs[sid] = after(args, kwargs, result)
                finally:
                    self.close(book)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "request": self.request,
            "names": table,
            "name": [index[n] for n in self.names],
            "parent": self.parents,
            "start": self.starts,
            "end": self.ends,
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))  # one C-encoder call; json.dump is 2x slower


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _table_attrs(build_copwin, serialize_mlg):
    def after(args, kwargs, table) -> dict:
        bound = _bound(build_copwin, args, kwargs)
        key = serialize_mlg(bound["g"]) + repr(tuple(bound["assignment"]))
        nbytes = 0
        for value in vars(table).values():
            for item in value if isinstance(value, (list, tuple)) else (value,):
                for arr in item if isinstance(item, tuple) else (item,):
                    nbytes += getattr(arr, "nbytes", 0)
        return {
            "key": hashlib.sha1(key.encode()).hexdigest(),
            "states": int(table.n_states),
            "bytes": int(nbytes),
        }

    return after


def _layout_attrs(copsbane_layout):
    def after(args, kwargs, _layout) -> dict:
        bound = _bound(copsbane_layout, args, kwargs)
        return {"key": repr(sorted(bound.items()))}

    return after


def _rebind(modules, old, new) -> None:
    """Point every module-level binding of `old` at `new`."""

    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    import mlcr

    mods = {name: importlib.import_module(f"mlcr.{name}") for name in LAYERS}
    everything = [mlcr, importlib.import_module("mlcr.cli"), *mods.values()]

    hooks = {
        "solver.build_copwin": _table_attrs(mods["solver"].build_copwin, mods["core"].serialize_mlg),
        "generators.copsbane_layout": _layout_attrs(mods["generators"].copsbane_layout),
    }
    for layer, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
                or inspect.isgeneratorfunction(fn)
                or name in SKIP
            ):
                continue
            _rebind(everything, fn, tracer.wrap(RENAMED.get(name, name), fn, hooks.get(name)))

    for layer, cls_name, meth, name in METHODS:
        cls = getattr(mods[layer], cls_name)
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
    for layer, cls_name, meth, name in COUNTED:
        cls = getattr(mods[layer], cls_name)
        setattr(cls, meth, tracer.count(name, getattr(cls, meth)))

    sim = mods["sim"]
    for base_name, meth, prefix in STRATEGY_METHODS:
        base = getattr(sim, base_name)
        for cls in vars(sim).values():
            if inspect.isclass(cls) and issubclass(cls, base) and cls is not base and meth in vars(cls):
                setattr(cls, meth, tracer.wrap(prefix + cls.__name__, vars(cls)[meth]))

    verify = mods["verify"]
    verify._REGISTRY[:] = [
        (cid, title, tracer.wrap("verify." + cid.split("-")[0], fn))
        for cid, title, fn in verify._REGISTRY
    ]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, request, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(request)
    imp = tracer.open("cli.import", start=_T_START)
    try:
        import mlcr.cli

        install(tracer)
    finally:
        tracer.close(imp)
    root = tracer.open("cli.main")
    try:
        return mlcr.cli.main(cli_args)
    finally:
        tracer.close(root)
        sys.stdout.flush()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
