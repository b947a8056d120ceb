"""Module boundaries of the package.

No module imports another module's _private names, and every public
top-level function or class has a caller outside the test suite.
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


def test_no_public_name_is_used_only_by_tests():
    assert PERFBENCH.is_dir()
    production = _referenced_names([*PACKAGE.glob("*.py"), *PERFBENCH.rglob("*.py")])
    tested = _referenced_names(TESTS.glob("*.py"))
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            is_public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            if is_public and node.name in tested and node.name not in production:
                offenders.append(f"{path.name}: {node.name}")
    assert offenders == []
