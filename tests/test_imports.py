"""Every name a module of lagmono imports is used in that module.

The repository runs no linter, so this stdlib-only check stands in for the
unused-import rule: each non-``__init__`` module is parsed with ``ast`` and
every name bound by an import must appear as a name somewhere else in the
module, annotations included.  ``__init__`` is skipped because its imports
are the package's re-exports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lagmono"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    return imported_names(tree) - used_names(tree)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == set()


def test_check_finds_an_unused_import():
    source = "from fractions import Fraction\nimport math, os.path\n\nx = math.pi\n"
    assert unused_imports(source) == {"Fraction", "os"}
