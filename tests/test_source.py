"""Source-level checks on the blockplan package."""

import ast
from pathlib import Path

import blockplan

PACKAGE = Path(blockplan.__file__).parent


def test_no_function_level_imports():
    """Every import sits at the top of its module: the package has no import
    cycle that an import inside a function body would have to work around."""
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert not sites, sorted(sites)
