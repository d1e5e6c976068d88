"""The package's code is code the package uses.

A public top-level function or class of ``src/chainscope`` that no other
code in ``src/`` names, as a name or an attribute, exists only for the tests
or the benchmark. Reference helpers of that kind belong in
``tests/conftest.py``. The same holds for a public method or property of a
class in ``src/``, except that the benchmark's own code (``bench/*.py``)
counts as a caller too: it reads a few views that the package does not.

Two stdlib lint checks catch what a deletion leaves behind: a top-level
import that binds no name its module uses, and a private top-level
function, class or assignment that nothing in ``src/`` names. A private
name stays inside its module: no module of ``src/`` imports another's.
"""

import ast
from collections import Counter
from pathlib import Path

import chainscope

PACKAGE = Path(chainscope.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def modules():
    """{module name: its parsed top-level statements}."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")).body for path in sorted(PACKAGE.glob("*.py"))}


def unreferenced(definitions, body_by_module):
    """The "module.name" of each (module, statement, name) that no other top-level statement of src/ names."""
    statements = {
        (module, id(statement)): referenced_names(statement) for module, body in body_by_module.items() for statement in body
    }
    unused = []
    for module, definition, name in definitions:
        # a definition's reference to itself (recursion) does not count
        elsewhere = (names for key, names in statements.items() if key != (module, id(definition)))
        if not any(name in names for names in elsewhere):
            unused.append(f"{module}.{name}")
    return unused


def test_every_public_definition_is_referenced_from_src():
    body_by_module = modules()
    definitions = [
        (module, statement, statement.name)
        for module, body in body_by_module.items()
        for statement in body
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and not statement.name.startswith("_")
    ]
    assert unreferenced(definitions, body_by_module) == []


def name_counts(node):
    """How often each name is read in node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_method_and_property_is_referenced_from_src_or_bench():
    body_by_module = modules()
    callers = [ast.Module(body=body, type_ignores=[]) for body in body_by_module.values()]
    callers += [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(BENCH.glob("*.py"))]
    counts = sum(map(name_counts, callers), Counter())
    unused = [
        f"{module}.{cls.name}.{method.name}"
        for module, body in body_by_module.items()
        for cls in body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("_")
        # a method's references to itself (recursion) do not count
        if counts[method.name] == name_counts(method)[method.name]
    ]
    assert unused == []


def test_every_private_definition_is_referenced_from_src():
    body_by_module = modules()
    definitions = []
    for module, body in body_by_module.items():
        for statement in body:
            if isinstance(statement, DEFINITIONS):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            definitions.extend((module, statement, name) for name in names if name.startswith("_") and not name.startswith("__"))
    assert unreferenced(definitions, body_by_module) == []


def annotation_names(tree):
    """The names read in the quoted annotations of tree, such as "array[int]"."""
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [a.value for a in annotations if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {n.id for text in quoted for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)}


def test_every_top_level_import_is_used():
    unused = []
    for module, body in modules().items():
        tree = ast.Module(body=body, type_ignores=[])
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | annotation_names(tree)
        # imports outside functions and classes, those inside a top-level try included
        imports = [
            node
            for statement in body
            if not isinstance(statement, DEFINITIONS)
            for node in ast.walk(statement)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        ]
        for node in imports:
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{module}: {bound}")
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    imported = [
        f"{module}: {node.module or ''}.{alias.name}"
        for module, body in modules().items()
        for node in ast.walk(ast.Module(body=body, type_ignores=[]))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("chainscope"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert imported == []
