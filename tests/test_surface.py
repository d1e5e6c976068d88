"""The public surface of the package is the surface the package itself uses.

A public top-level function or class of ``src/chainscope`` that no other
code in ``src/`` names, as a name or an attribute, exists only for the tests
or the benchmark. Reference helpers of that kind belong in
``tests/conftest.py``.
"""

import ast
from pathlib import Path

import chainscope

PACKAGE = Path(chainscope.__file__).resolve().parent


def referenced_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_referenced_from_src():
    # (module, top-level statement) -> the names that statement references
    statements = {}
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            statements[(path.stem, id(statement))] = referenced_names(statement)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and not statement.name.startswith("_"):
                definitions.append((path.stem, statement))
    unused = []
    for module, definition in definitions:
        # a definition's reference to itself (recursion) does not count
        elsewhere = (names for key, names in statements.items() if key != (module, id(definition)))
        if not any(definition.name in names for names in elsewhere):
            unused.append(f"{module}.{definition.name}")
    assert unused == []
