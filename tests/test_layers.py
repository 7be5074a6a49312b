"""The package's modules import one another one way only: every relative
import sits at module level, and the module graph has no cycle. Each
concept is defined in the one module that owns it."""
import ast
import graphlib
from pathlib import Path

import pytest

from impsprep import circuits, disentangler, statevec

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "impsprep"


def relative_imports(path: Path) -> list[tuple[str, str | None, int]]:
    """(sibling module, enclosing function or None, line) of each relative
    import in ``path``, at any depth: ``from . import x`` names ``x``,
    ``from .x import y`` names ``x``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                names = [child.module] if child.module else [alias.name for alias in child.names]
                found.extend((name.split(".")[0], function, child.lineno) for name in names)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


IMPORTS = {path.stem: relative_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_the_package_is_found():
    assert {"statevec", "circuits", "gatesynth", "disentangler", "cli"} <= IMPORTS.keys()


def test_no_module_imports_inside_a_function():
    inside = [f"{module}.py:{line} imports {name} in {function}()"
              for module, imports in IMPORTS.items() for name, function, line in imports if function]
    assert inside == []


def test_module_graph_has_no_cycle():
    graph = {module: {name for name, _, _ in imports if name in IMPORTS} for module, imports in IMPORTS.items()}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def test_each_concept_has_one_home():
    homes = {"TwoQubitGate": circuits, "OneQubitGate": circuits, "apply_two_qubit": circuits,
             "apply_single_qubit": circuits, "extract_block": disentangler, "inverse_extract": disentangler}
    assert {name: getattr(module, name).__module__ for name, module in homes.items()} == {
        name: module.__name__ for name, module in homes.items()}
    assert [name for name in homes if hasattr(statevec, name)] == []
