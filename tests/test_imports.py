"""The package's modules import one another along one acyclic graph, read
statically from each module's syntax tree."""

import ast
import graphlib
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "acfdi").glob("*.py"))


def relative_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module imported, qualified name of the enclosing function or None)
    of every relative import in the module at path. An import in a class
    body, or under an `if` at module level, runs on import: it has None."""
    found = []

    def visit(node, qualname, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                names = [child.module] if child.module else [a.name for a in child.names]
                found.extend((name.split(".")[0], qualname if in_function else None) for name in names)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qualname}.{child.name}" if qualname else child.name
                visit(child, inner, in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, qualname, in_function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, False)
    return found


def test_module_level_imports_form_a_dag():
    graph = {
        path.stem: {module for module, function in relative_imports(path) if function is None}
        for path in MODULES
    }
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    # the pipeline's layers: the network equations sit below power flow
    for upper, lower in [("estimation", "network"), ("estimation", "nlsolver"),
                         ("powerflow", "estimation"), ("attacks", "estimation"),
                         ("impact", "attacks"), ("cli", "impact")]:
        assert lower in graph[upper], (upper, lower)


def test_the_only_function_level_import_is_the_full_layouts():
    # the admittance model builds its full layout with estimation, which
    # imports network at module level
    local = {
        (path.stem, function, module)
        for path in MODULES
        for module, function in relative_imports(path)
        if function is not None
    }
    assert local == {("network", "AdmittanceModel.full_layout", "estimation")}
