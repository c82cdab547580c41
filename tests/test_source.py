"""The package's source holds no top-level function or class that nothing in
the package uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rctherm"

#: Kept without a reference in the package: ``trace_to_csv_text`` writes the
#: benchmark's trace CSVs, ``sse_curve`` is the elbow curve acceptance
#: criterion 11 checks, and ``assign`` places a new home in a clustering
#: (ROADMAP item 10 gives it a caller).
UNREFERENCED = {"trace_to_csv_text", "sse_curve", "assign"}


def test_every_top_level_definition_is_referenced_elsewhere_in_the_package():
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        definitions += [(path.name, node) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        references += [(path.name, node.lineno,
                        node.id if isinstance(node, ast.Name) else node.attr)
                       for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]

    def referenced(module, node):
        """Whether a name or attribute outside the definition's own lines
        names it."""
        return any(name == node.name
                   and not (where == module and node.lineno <= line <= node.end_lineno)
                   for where, line, name in references)

    unreferenced = {node.name for module, node in definitions if not referenced(module, node)}
    assert unreferenced == UNREFERENCED
