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


# -- dead private code ------------------------------------------------------------------

_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """`file:line: name` for each private function, class or method that no
    tree reads as a name, an attribute or an import.  A decorated definition
    counts as referenced: its decorator holds on to it (a registry, say)."""

    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.split(".")[-1])
    out = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, _DEFINITIONS)
                and node.name.startswith("_")
                and not _is_dunder(node.name)
                and not node.decorator_list
                and node.name not in referenced
            ):
                out.append(f"{name}:{node.lineno}: {node.name}")
    return out


def test_the_scan_finds_dead_private_code():
    source = (
        "import m\n"
        "from n import _imported\n"
        "class _Used:\n"
        "    def _dead(self):\n"
        "        return self._read()\n"
        "    def _read(self):\n"
        "        return _imported\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "@m.register\n"
        "def _registered():\n"
        "    pass\n"
        "def _unused():\n"
        "    return _Used\n"
        "class _Gone:\n"
        "    pass\n"
    )
    assert unreferenced_private_definitions({"a.py": ast.parse(source)}) == [
        "a.py:13: _unused", "a.py:15: _Gone", "a.py:4: _dead",
    ]


def test_no_dead_private_code_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_definitions(trees) == []
