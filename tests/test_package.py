import ast
import re
import sys
from pathlib import Path

import nilgeom


def test_public_names_resolve():
    missing = [name for name in nilgeom.__all__ if not hasattr(nilgeom, name)]
    assert not missing
    namespace: dict = {}
    exec("from nilgeom import *", namespace)
    assert set(nilgeom.__all__) <= set(namespace)


def _imported_roots(tree: ast.AST) -> set[str]:
    """Top-level package of every import in a module; '.' for a relative one."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.split(".")[0])
    return roots


def test_library_imports_only_the_standard_library_numpy_and_itself():
    # numpy is the one runtime dependency, and the test oracles are never
    # imported by the library they check
    sources = sorted(Path(nilgeom.__file__).parent.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"numpy", "nilgeom", "."}
    for source in sources:
        roots = _imported_roots(ast.parse(source.read_text(), filename=str(source)))
        assert roots <= allowed, (source.name, sorted(roots - allowed))
        assert not roots & {"oracles", "tests"}, source.name


def _unread_defaults(tree: ast.AST) -> list[tuple[str, str]]:
    """``(function, parameter)`` for every defaulted parameter that its
    function's body never reads as a name."""
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
        ]
        read = {
            node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [(fn.name, arg.arg) for arg in defaulted if arg.arg not in read]
    return unread


def test_every_defaulted_parameter_is_read():
    # a knob that no code reads is a setting that does nothing
    sources = sorted(Path(nilgeom.__file__).parent.glob("*.py"))
    unread = [
        f"{source.name}:{fn}({arg})"
        for source in sources
        for fn, arg in _unread_defaults(ast.parse(source.read_text(), filename=str(source)))
    ]
    assert unread == []


def test_every_function_has_a_production_reader():
    # a function or method that no library code reads, that the benchmark
    # does not call and that the package does not export is dead code kept
    # alive by its tests.  The check goes by name, so it cannot see a dead
    # method that shares its name with a live one (any read of a
    # ``contains`` counts for every method of that name); dunder methods
    # are called by Python itself
    package = Path(nilgeom.__file__).parent
    defined, read = {}, set()
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, source.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    bench = "\n".join(path.read_text() for path in sorted((Path(__file__).parents[1] / "perfbench").rglob("*.py")))
    unread = [
        f"{source}:{name}"
        for name, source in sorted(defined.items())
        if not (name.startswith("__") and name.endswith("__"))
        and name not in read
        and name not in nilgeom.__all__
        and not re.search(rf"\b{name}\b", bench)
    ]
    assert unread == []
