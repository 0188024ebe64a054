"""Every private function or method of the package (one named `_name`, not
a dunder) is read somewhere in `src/` besides its own definition, as a
name or as an attribute.  A helper whose last caller moved into the tests
or went away is dead code in the package: it belongs in
`tests/oracles.py`, or nowhere."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polybound"


def private_functions(tree: ast.Module) -> set[str]:
    """Names of the private functions and methods defined in a module, at
    any depth."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.endswith("__")}


def names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads, bare (`f`) or as an attribute (`x.f`)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_private_function_has_a_caller_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defined = set().union(*map(private_functions, trees))
    assert defined, "no private function found: the scan is broken"
    read = set().union(*map(names_read, trees))
    assert sorted(defined - read) == []
