"""Every name a module of lagmono imports is used in that module, nothing public is dead, and start-up stays light.

The repository runs no linter, so this stdlib-only check stands in for the
unused-import rule: each non-``__init__`` module is parsed with ``ast`` and
every name bound by an import must appear as a name somewhere else in the
module, annotations included.  ``__init__`` is skipped because its imports
are the package's re-exports.  In the same way, every public function and
method is either exported in ``lagmono.__all__`` or named somewhere in the
code of ``src/lagmono`` or ``perfbench``; one that only tests call belongs in
the tests.  Every CLI invocation pays ``import lagmono.cli``, so no module
imports ``dataclasses``, which with ``inspect`` took about a third of that
import.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

import lagmono

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lagmono"
PERFBENCH = SRC.parent.parent / "perfbench"
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


def imported_modules(tree: ast.Module) -> set[str]:
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    return modules | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_does_not_import_dataclasses(module):
    assert "dataclasses" not in imported_modules(ast.parse((SRC / module).read_text()))


def test_cli_import_leaves_out_dataclasses_and_inspect():
    probe = "import sys, lagmono.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         cwd=SRC.parent, timeout=60)
    assert out.stdout == "[]\n"


def public_definitions(tree: ast.Module):
    """(qualified name, name) of each public module-level function and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name, attribute and identifier-shaped string in a module; a def's own name is none of these."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def unreached(modules: list[str], readers: list[str], exported: set[str]) -> list[str]:
    """The public functions and methods of modules that are not exported and not named in modules or readers."""
    trees = [ast.parse(source) for source in modules]
    named = set().union(exported, *map(referenced_names, trees), *(referenced_names(ast.parse(s)) for s in readers))
    return [qualified for tree in trees for qualified, name in public_definitions(tree) if name not in named]


def test_every_public_function_is_exported_or_named():
    modules = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    readers = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert unreached(modules, readers, set(lagmono.__all__)) == []


def test_check_finds_unreached_definitions():
    source = (
        "import re\n\n"
        "def exported():\n    return getattr(used(), 'by_string')\n\n"
        "def used():\n    return re.match('a', 'a').group()\n\n"
        "def dead():\n    return 'not an identifier'\n\n"
        "class A:\n"
        "    def group(self):\n        pass\n\n"
        "    def by_string(self):\n        pass\n\n"
        "    def read(self):\n        pass\n\n"
        "    def unused(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n"
    )
    assert unreached([source], ["A().read()\n"], {"exported"}) == ["dead", "A.unused"]
