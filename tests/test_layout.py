"""Source layout: every top-level function and class of the package is
used by the package itself, so code that only tests call lives in the
tests."""

import ast
from pathlib import Path

import salemsurf

SRC = Path(salemsurf.__file__).parent


def _names(node) -> set:
    """Every identifier node refers to: names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_top_level_definition_has_a_caller_in_src():
    statements = [stmt for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    used = [_names(stmt) for stmt in statements]
    unused = []
    for i, stmt in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names
                   for j, names in enumerate(used) if j != i):
            unused.append(stmt.name)
    assert unused == []
