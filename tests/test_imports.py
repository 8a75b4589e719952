"""Every name imported into `src/mlcr` is used: an `ast` scan, so the check
needs no linter.  An import inside a function must be used in that
function; the package's re-exports count as used through `__all__`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mlcr"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope: ast.AST):
    """The import statements of `scope` outside its nested functions."""

    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _used_names(scope: ast.AST) -> set[str]:
    """Names read anywhere in `scope`, quoted annotations and `__all__` included."""

    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation ("MultiLayerGraph") or an `__all__` entry
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
            except (SyntaxError, ValueError):
                pass
    return used


def unused_imports(tree: ast.Module) -> list[str]:
    """`line: name` for each imported name its scope never reads."""

    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]
    out = []
    for scope in scopes:
        used = _used_names(scope)
        for node in _own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append(f"{node.lineno}: {name}")
    return out


def test_the_check_finds_an_unused_import():
    source = (
        "from a import b, c\n"
        "import d.e\n"
        "def f():\n"
        "    from g import h\n"
        "    return c\n"
        "def k() -> 'd.e.T':\n"
        "    return b\n"
    )
    assert unused_imports(ast.parse(source)) == ["4: h"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports_in_src(path):
    assert unused_imports(ast.parse(path.read_text())) == []
