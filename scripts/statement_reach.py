"""Which statements of `src/mlcr` a pytest run reaches.

Runs pytest on the given test paths with a stdlib `sys.settrace` hook that
records every line executed in `src/mlcr`.  The hook is a `sitecustomize.py`
written into a temporary directory on `PYTHONPATH`, so the CLI subprocesses
that the tests start are counted too.  A statement is one AST statement of
`src/mlcr/*.py`; docstrings and `global`/`nonlocal` declarations, which
compile to no code, are not counted.  A statement is reached when a line of
its own ran, or a statement nested in it was reached.

Prints each unreached statement as `src/mlcr/<file>:<line>`, then one line
`REACHED a/b`.  Exits with pytest's exit code.

Run:  python scripts/statement_reach.py [pytest args ...]   (default: tests)
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlcr"

# Each process appends the lines it ran in the package, as `path:line`, to
# its own file in the output directory when it exits.
HOOK = '''
import atexit, os, sys, threading

_prefix = {prefix!r}
_out = {out!r}
_seen = set()


def _lines(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(_prefix):
        return _lines
    return None


@atexit.register
def _dump():
    sys.settrace(None)
    with open(os.path.join(_out, f"lines-{{os.getpid()}}.txt"), "a") as fh:
        fh.writelines(f"{{path}}:{{line}}\\n" for path, line in _seen)


threading.settrace(_calls)
sys.settrace(_calls)
'''


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _runs_no_code(body: list[ast.stmt], i: int) -> bool:
    return (i == 0 and _is_docstring(body[0])) or isinstance(body[i], (ast.Global, ast.Nonlocal))


def statements(path: Path) -> tuple[dict[int, int], dict[int, int | None]]:
    """The counted statements of `path` by first line: which
    statement owns each line (the innermost one that spans it), and the
    statement each one is nested in (None at module level)."""

    owner: dict[int, int] = {}
    parent: dict[int, int | None] = {}

    def visit(body: list[ast.stmt], outer: int | None) -> None:
        for i, node in enumerate(body):
            if _runs_no_code(body, i):
                continue
            if node.lineno != outer:  # not the body of a one-line `if x: y`
                parent[node.lineno] = outer
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            for line in range(first, node.end_lineno + 1):
                owner[line] = node.lineno
            # nested statements take their own lines back
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), node.lineno)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, node.lineno)

    visit(ast.parse(path.read_text(), str(path)).body, None)
    return owner, parent


def main(argv: list[str]) -> int:
    files = {str(p): statements(p) for p in sorted(PACKAGE.glob("*.py"))}
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir = Path(tmp, "hook")
        out_dir = Path(tmp, "lines")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK.format(prefix=str(PACKAGE) + os.sep, out=str(out_dir)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(hook_dir), str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *(argv or ["tests"])],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        ).returncode
        reached: set[tuple[str, int]] = set()
        for dump in out_dir.iterdir():
            for entry in dump.read_text().splitlines():
                path, line = entry.rsplit(":", 1)
                if path not in files:
                    continue
                owner, parent = files[path]
                stmt = owner.get(int(line))
                while stmt is not None and (path, stmt) not in reached:
                    reached.add((path, stmt))
                    stmt = parent[stmt]
    total = 0
    for path, (_, parent) in files.items():
        total += len(parent)
        for line in sorted(parent):
            if (path, line) not in reached:
                print(f"{Path(path).relative_to(ROOT)}:{line}")
    print(f"REACHED {len(reached)}/{total}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
