"""`fractions.Fraction` values are made only at the package's rational
boundaries: the parsed and generated H-reps, the LP outcome and the views
that show an integer point as Fractions.  Everything between them holds
integers, so the places that call `Fraction(` are pinned, and a new one
cannot slip in unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polybound"

#: (module, enclosing function or "<module>") of every `Fraction(` call
FRACTION_CALLS = {
    ("rational", "parse_rational"),                     # H-rep text
    ("generators", "<module>"),                         # generated instances
    ("generators", "dwarfed_cube"),
    ("generators", "thrackle_metric"),
    ("generators", "random_metric"),
    ("generators", "cyclic_matrix"),
    ("generators", "permutohedron_matrix"),
    ("lp", "lp_solve"),                                 # the LP outcome
    ("polyhedron", "HRep.from_rows"),                   # H-rep rows
    ("linalg", "as_vector"),
    ("linalg", "<module>"),                             # ZERO and ONE
    ("linalg", "nullspace"),                            # Fraction basis, tracer only
    ("polyhedron", "_fractions"),                       # VRep.vertices and VRep.rays
}


def fraction_calls(tree: ast.Module) -> set[str]:
    """The qualified names of the functions that call `Fraction(`, and
    "<module>" for calls outside any function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "Fraction"):
                found.add(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_fraction_calls_stay_at_the_boundaries():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= {(path.stem, scope) for scope in fraction_calls(ast.parse(path.read_text()))}
    assert found == FRACTION_CALLS
