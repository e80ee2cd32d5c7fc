"""The package's import graph, read from its source.

The layers run from number theory through forms and class groups to the
scans and the CLI, and each module imports only layers below it.  A new
import, at module level or inside a function, changes this table on
purpose or fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quadclass"

# bottom to top; a module may import only modules listed before it
LAYERS = (
    "ntheory",
    "forms",
    "abelian",
    "sweep",
    "finitefield",
    "dihedral",
    "density",
    "cohen_lenstra",
    "cli",
)

IMPORTS = {
    "__init__": set(),
    "ntheory": set(),
    "forms": {"ntheory", "abelian"},
    "abelian": {"forms", "ntheory"},
    "sweep": {"forms", "ntheory"},
    "finitefield": {"ntheory"},
    "dihedral": {"abelian", "forms", "ntheory"},
    "density": {"abelian", "forms", "ntheory", "sweep"},
    "cohen_lenstra": {"abelian", "ntheory", "sweep"},
    "cli": {"abelian", "cohen_lenstra", "density", "dihedral", "forms", "ntheory", "sweep"},
}

# The one upward edge.  class_group certifies its structure with abelian,
# and the cache checks each row it loads as an AbelianGroup; both stay in
# forms because the benchmark's tracer (perfbench/tracing.py) spans
# forms.class_group and forms.ClassGroupCache.get and .save by name.
UPWARD = {("forms", "abelian"): {"class_group", "ClassGroupCache._load"}}


def _relative_imports(path: Path) -> list[tuple[str, str]]:
    """(imported module, qualified name of the enclosing def or "") for
    every ``from . import m`` and ``from .m import ...`` in path."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                if child.module is None:
                    found.extend((alias.name, scope) for alias in child.names)
                else:
                    found.append((child.module.split(".")[0], scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def _graph() -> dict[str, list[tuple[str, str]]]:
    return {path.stem: _relative_imports(path) for path in sorted(SRC.glob("*.py"))}


def test_import_graph_matches_the_table():
    graph = _graph()
    assert {module: {target for target, _ in edges} for module, edges in graph.items()} == IMPORTS


def test_only_the_pinned_upward_edge_and_only_where_it_is_used():
    for module, edges in _graph().items():
        if module == "__init__":
            continue
        for target, scope in edges:
            if LAYERS.index(target) < LAYERS.index(module):
                continue
            allowed = UPWARD.get((module, target), set())
            assert scope in allowed, f"{module} imports {target} in {scope or 'the module body'}"
