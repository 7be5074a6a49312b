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


def used_names(path: Path) -> set[str]:
    """Every name the code of ``path`` uses or defines: identifiers,
    attributes (``statevec.CHUNK`` names ``CHUNK``), imported names and
    function names; docstrings and comments name nothing."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


IMPORTS = {path.stem: relative_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
NAMES = {path.stem: used_names(path) for path in sorted(PACKAGE.glob("*.py"))}


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


def test_only_the_kernel_reads_the_chunk_layout():
    # the gate kernel makes every decision of a state pass; the CLI may ask
    # only whether a sample fits in one chunk, to stack a cell's samples
    readers = {"CHUNK": {"statevec"}, "_plan": {"statevec"}, "_order": {"statevec"},
               "fits_one_chunk": {"statevec", "cli"}}
    strays = [f"{module} names {name}" for module, names in NAMES.items()
              for name, allowed in readers.items() if name in names and module not in allowed]
    assert strays == []


def test_no_module_level_name_is_defined_twice():
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes.setdefault(node.name, []).append(path.stem)
    assert {name: modules for name, modules in homes.items() if len(modules) > 1} == {}
