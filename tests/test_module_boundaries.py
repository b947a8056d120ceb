"""Module boundaries of the package.

No module imports another module's _private names, and every public
top-level function or class, and every public method of a public class,
has a caller outside the test suite.
"""

import ast
import pathlib

import cbfforge

PACKAGE = pathlib.Path(cbfforge.__file__).parent
TESTS = pathlib.Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"


def test_no_relative_import_of_private_names():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def _referenced_names(paths) -> set:
    """Identifiers, attribute names, imported names and string constants.

    String constants count because the benchmark wraps functions by name.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _public_defs(body) -> list:
    """Public functions and classes defined directly in an AST body."""
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_no_public_name_is_used_only_by_tests():
    assert PERFBENCH.is_dir()
    production = _referenced_names([*PACKAGE.glob("*.py"), *PERFBENCH.rglob("*.py")])
    tested = _referenced_names(TESTS.glob("*.py"))
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public_defs(ast.parse(path.read_text(), str(path)).body):
            if node.name in tested and node.name not in production:
                offenders.append(f"{path.name}: {node.name}")
            if isinstance(node, ast.ClassDef):
                for method in _public_defs(node.body):
                    if method.name in tested and method.name not in production:
                        offenders.append(f"{path.name}: {node.name}.{method.name}")
    assert offenders == []

