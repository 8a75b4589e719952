"""Every name imported into `src/mlcr` is used, and every function, class
or method defined there is read somewhere: `ast` scans, so the checks need
no linter.  An import inside a function must be used in that function; the
package's re-exports count as used through `__all__`.  A private definition
must be read within `src/mlcr`, a public one within `src/mlcr`, `scripts/`
or `perfbench/`; the tests do not count as readers."""

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


def _referenced_names(readers) -> set[str]:
    """Every name the reader trees read as a name, an attribute or an import."""

    referenced = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.split(".")[-1])
    return referenced


def _unreferenced(trees: dict[str, ast.Module], readers, private: bool) -> list[str]:
    """`file:line: name` for each function, class or method of `trees`, private
    or public as asked, that no reader reads.  A dunder counts as referenced,
    and so does a decorated definition: its decorator holds on to it (a
    registry, say)."""

    referenced = _referenced_names(readers)
    out = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, _DEFINITIONS)
                and node.name.startswith("_") == private
                and not _is_dunder(node.name)
                and not node.decorator_list
                and node.name not in referenced
            ):
                out.append(f"{name}:{node.lineno}: {node.name}")
    return out


def unreferenced_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """The private definitions that no tree of `trees` reads."""

    return _unreferenced(trees, trees.values(), private=True)


def unreferenced_public_definitions(trees: dict[str, ast.Module], readers) -> list[str]:
    """The public definitions of `trees` that no reader reads."""

    return _unreferenced(trees, readers, private=False)


def _src_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


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
    assert unreferenced_private_definitions(_src_trees()) == []


# -- dead public code: read from the package, its scripts or the benchmark, not the tests

READERS = (SRC, SRC.parent.parent / "scripts", SRC.parent.parent / "perfbench")


def test_the_scan_finds_dead_public_code():
    source = (
        "import m\n"
        "class Used:\n"
        "    def dead(self):\n"
        "        return self.read()\n"
        "    def read(self):\n"
        "        return 0\n"
        "    def imported(self):\n"
        "        return 1\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "@m.register\n"
        "def registered():\n"
        "    pass\n"
        "def unused():\n"
        "    return Used\n"
        "class Gone:\n"
        "    def _private(self):\n"
        "        pass\n"
    )
    reader = "from a import imported\nprint(unused().attr)\n"
    # the definitions' own file does not count unless it is among the readers
    assert unreferenced_public_definitions({"a.py": ast.parse(source)}, [ast.parse(reader)]) == [
        "a.py:2: Used", "a.py:16: Gone", "a.py:3: dead", "a.py:5: read",
    ]
    tree = ast.parse(source)
    assert unreferenced_public_definitions({"a.py": tree}, [tree, ast.parse(reader)]) == [
        "a.py:16: Gone", "a.py:3: dead",
    ]


def test_no_dead_public_code_in_src():
    readers = [ast.parse(path.read_text()) for folder in READERS for path in sorted(folder.glob("*.py"))]
    assert unreferenced_public_definitions(_src_trees(), readers) == []


# -- the packed state layout stays in the solver: the players ask in positions

PACKED_STATE_NAMES = {"pack", "unpack", "strides", "rank", "rank_view", "decode_placement"}


def packed_state_reads(tree: ast.Module) -> list[str]:
    """`line: name` for each name or attribute of the table's packed state
    layout that `tree` reads."""

    out = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
        if name in PACKED_STATE_NAMES:
            out.append(f"{node.lineno}: {name}")
    return out


def test_the_check_finds_a_packed_state_read():
    source = (
        "def move(tb, view):\n"
        "    state = tb.pack(view.robber, view.cops, 0)\n"
        "    return tb.best_robber_move(state) // tb.strides[0]\n"
        "def place(tb):\n"
        "    return tb.cop_placement()\n"
    )
    assert packed_state_reads(ast.parse(source)) == ["2: pack", "3: strides"]


@pytest.mark.parametrize("name", ["sim.py", "scripted.py"])
def test_players_never_read_a_packed_state(name):
    assert packed_state_reads(ast.parse((SRC / name).read_text())) == []
