"""No module in the package imports another module's _private names."""

import ast
import pathlib

import cbfforge

PACKAGE = pathlib.Path(cbfforge.__file__).parent


def test_no_relative_import_of_private_names():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert offenders == []
