"""The package imports in one order: no import inside a function, and every
module imports only from modules below it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bellcert"

# Lowest first; a module may import from the modules before it.
ORDER = (
    "tolerances",
    "qubit",
    "assemblages",
    "inequalities",
    "criterion",
    "steering",
    "sampling",
    "oracle",
    "analysis",
    "fileio",
    "cli",
)

MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def function_imports(tree: ast.Module) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"line {node.lineno} in {getattr(func, 'name', 'lambda')}")
    return found


def package_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of every top-level relative import of a sibling."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is not None:
            found.append((node.lineno, node.module))
        else:  # from . import a, b
            found += [(node.lineno, alias.name) for alias in node.names]
    return found


def test_every_module_is_in_the_order():
    names = {path.stem for path in MODULES} - {"__init__", "__main__"}
    assert names == set(ORDER)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert function_imports(parse(path)) == []


@pytest.mark.parametrize("name", ORDER)
def test_imports_follow_the_order(name):
    rank = ORDER.index(name)
    upward = [
        f"line {line}: {module}"
        for line, module in package_imports(parse(PACKAGE / f"{name}.py"))
        if not (name == "cli" and module == "__version__")
        and not (module in ORDER and ORDER.index(module) < rank)
    ]
    assert upward == []


def test_the_checks_see_a_violation():
    tree = ast.parse("from .cli import main\n\ndef f():\n    import os\n")
    assert package_imports(tree) == [(1, "cli")]
    assert function_imports(tree) == ["line 4 in f"]
