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
