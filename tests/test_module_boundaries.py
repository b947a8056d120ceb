"""Module boundaries of the package.

No module imports another module's _private names.  Every public top-level
function or class, and every public method of a public class, has a caller
outside the test suite, and every parameter default is left out by at
least one production call.
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


def _call_name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _function_params(fn, bound: bool):
    """(positional parameter names, names that have a default) of a def."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][1 if bound else 0 :]
    defaulted = positional[len(positional) - len(args.defaults) :] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, defaulted


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_call_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in cls.decorator_list)


def _dataclass_params(cls: ast.ClassDef):
    """(field names in order, fields with a default or default_factory)."""
    fields, defaulted = [], []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.append(stmt.target.id)
            value = stmt.value
            if value is None:
                continue
            if isinstance(value, ast.Call) and _call_name(value.func) == "field":
                if not {"default", "default_factory"} & {kw.arg for kw in value.keywords}:
                    continue
            defaulted.append(stmt.target.id)
    return fields, defaulted


def _signatures_with_defaults():
    """(label, call name, positional names, defaulted names) of every function,
    method and class constructor in the package that has a default."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{path.name}: {node.name}", node.name, *_function_params(node, False)))
            elif isinstance(node, ast.ClassDef):
                init = [m for m in node.body if isinstance(m, ast.FunctionDef) and m.name == "__init__"]
                if init:
                    out.append((f"{path.name}: {node.name}", node.name, *_function_params(init[0], True)))
                elif _is_dataclass(node):
                    out.append((f"{path.name}: {node.name}", node.name, *_dataclass_params(node)))
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"):
                        static = any(_call_name(d) == "staticmethod" for d in m.decorator_list)
                        out.append((f"{path.name}: {node.name}.{m.name}", m.name, *_function_params(m, not static)))
    return [sig for sig in out if sig[3]]


def _production_calls() -> dict:
    """Call name -> [(positional argument count, keyword names)] over src/ and perfbench/.

    field(default_factory=X) counts as the call X().  Calls in perfbench of a
    name perfbench defines itself are its own functions, and are skipped.
    """
    own = {
        node.name
        for path in PERFBENCH.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    calls: dict = {}
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.rglob("*.py")]:
        skip = own if PERFBENCH in path.parents else set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name == "field":
                for kw in node.keywords:
                    if kw.arg == "default_factory" and _call_name(kw.value) not in skip:
                        calls.setdefault(_call_name(kw.value), []).append((0, set()))
            if name is None or name in skip:
                continue
            positional = sum(not isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((positional, {kw.arg for kw in node.keywords}))
    return calls


def test_every_default_serves_a_production_caller():
    """A default that every production call overrides only serves tests.

    Calls are matched by name, with arguments passed positionally or by
    keyword; a name no production code calls directly is not judged here.
    """
    assert PERFBENCH.is_dir()
    calls = _production_calls()
    offenders = []
    for label, name, positional, defaulted in _signatures_with_defaults():
        sites = calls.get(name, [])
        unused = [
            p
            for p in defaulted
            if sites and all((p in positional and positional.index(p) < n) or p in kws for n, kws in sites)
        ]
        if unused:
            offenders.append(f"{label}({', '.join(unused)})")
    assert offenders == []

