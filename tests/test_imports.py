"""Every name a module of lagmono imports is used in that module, every def runs or has a reason, and start-up stays light.

The repository runs no linter, so this stdlib-only check stands in for the
unused-import rule: each non-``__init__`` module is parsed with ``ast`` and
every name bound by an import must appear as a name somewhere else in the
module, annotations included.  ``__init__`` is skipped because its imports
are the package's re-exports.  ``never_run.py`` runs every command of the
goldens and of the CLI oracle and one pass of each benchmark workload under
a profiler in a fresh interpreter, and lists each function and method of
``src/lagmono`` whose code never ran; that list must be exactly the names of
``NEVER_RUN``, each kept for the reason given there.  Code that only tests
run belongs in the tests.  Every CLI invocation pays ``import lagmono.cli``,
so no module imports ``dataclasses``, which with ``inspect`` took about a
third of that import.
"""

import ast
import json
import pathlib
import subprocess
import sys

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


# Every def that no command, golden, oracle argv or benchmark operation runs, with why it stays.
NEVER_RUN = {
    "cli.main": "the console script's entry point; the probe calls cli.run",
    "cyclotomic.CyclotomicNumber.__hash__": "keeps values hashable, with the meaning of the field-tuple hash",
    "groups.MatrixGroup.perms": "computes only for groups built by from_elements; from_generators fills it in",
    "value.Value.__delattr__": "refuses deletion from a frozen value",
    "value.Value.__repr__": "the repr of a value, which no command prints",
    "value.Value.__setattr__": "refuses assignment to a frozen value",
}


def test_every_def_runs_or_is_named_with_its_reason(tmp_path):
    probe = [sys.executable, str(pathlib.Path(__file__).with_name("never_run.py")), str(tmp_path)]
    out = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=300)
    assert json.loads(out.stdout) == sorted(NEVER_RUN)
