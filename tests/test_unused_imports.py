"""No module of the package imports a name it does not use, apart from the
names that perfbench's tracer wraps in place (`perfbench/tracing.py`).
Those are pinned, so that a change moving the tracer off module
attributes must shrink the list, and no new one slips in."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polybound"

#: (module, name) imported only so that perfbench's tracer can wrap it
TRACER_IMPORTS = {
    ("bounded", "closure_mask"),
    ("incidence", "rank"),
    ("lp", "nullspace"),
    ("moebius", "covers"),
    ("pipeline", "tropical_vertices"),
    ("polyhedron", "nullspace"),
    ("polyhedron", "rank"),
}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports that no other node reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_does_not_use():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's exports
        found |= {(path.stem, name) for name in unused_imports(ast.parse(path.read_text()))}
    assert found == TRACER_IMPORTS
