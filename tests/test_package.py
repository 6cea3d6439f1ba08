import ast
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
