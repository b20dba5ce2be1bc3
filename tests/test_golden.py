"""Text output of the README commands, byte for byte against the committed goldens.

The text goldens live in perfbench/expected/golden/ and are only read here;
the --json goldens live in tests/golden/.
"""

import pathlib
import re

import pytest

from lagmono.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "expected" / "golden"

COMMANDS = {
    "classify2d.out": ["classify2d"],
    "filter-axis_extension.out": ["filter", "fixtures/axis_extension.group"],
    "filter-swap_extension.out": ["filter", "fixtures/swap_extension.group"],
    "conjecture-rank3_extensions.out": ["conjecture", "fixtures/rank3_extensions.cat"],
    "crit-triangle-6.out": ["potential", "crit", "fixtures/triangle_potential.laurent", "--bound", "6"],
    "crit-triangle-12.out": ["potential", "crit", "fixtures/triangle_potential.laurent", "--bound", "12"],
    "clifford-triangle.out": ["clifford", "fixtures/triangle_potential.laurent", "--at", "1/3,1/3"],
    "rk1-symmetric.out": ["potential", "rk1", "fixtures/symmetric_potential.laurent"],
    "qform-1-1-0.out": ["qform", "1", "1", "0"],
    **{
        f"toric-{path.stem}.out": ["toric", f"fixtures/{path.name}"]
        for path in sorted((ROOT / "fixtures").glob("*.poly"))
    },
}


def readme_commands():
    text = (ROOT / "README.md").read_text()
    return [
        re.sub(r"\s+#.*", "", line).split()[1:]
        for line in text.splitlines()
        if line.startswith("lagmono ")
    ]


def test_every_readme_command_has_a_golden():
    missing = [argv for argv in readme_commands() if argv not in COMMANDS.values()]
    assert readme_commands() and not missing


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_text_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


JSON_GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(["--json", *COMMANDS[name]]) == 0
    golden = JSON_GOLDEN / name.replace(".out", ".jsonl")
    assert capsys.readouterr().out == golden.read_text()
