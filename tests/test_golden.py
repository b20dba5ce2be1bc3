"""Text output of the README commands, byte for byte against the committed goldens.

The text goldens live in perfbench/expected/golden/ and are only read here;
the --json goldens live in tests/golden/, as do the answers of
``continuation_solvable`` on the committed continuation cases.
"""

import json
import math
import pathlib
import re
from fractions import Fraction

import pytest

from lagmono.cli import run
from lagmono.cyclotomic import CyclotomicNumber
from lagmono.floer import CliffordData, continuation_solvable
from lagmono.intlat import IntMat

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


CONTINUATION_CASES = ROOT / "perfbench" / "expected" / "continuation.json"


def _galois_unit(conductor):
    """The least k > 1 coprime to the conductor, so zeta -> zeta^k moves every cyclotomic case."""
    return next(k for k in range(2, conductor + 1) if math.gcd(k, conductor) == 1)


def _cyclotomic_json(x):
    return [x.conductor, [str(c) for c in x.coeffs]]


def continuation_lines():
    """One JSON line per continuation case: its input, status and witness.

    Every case of the committed case table is answered, then, for each case
    with a constant outside Q, the same case with all three constants moved
    by one Galois automorphism.
    """
    cases = json.loads(CONTINUATION_CASES.read_text())["cases"]
    cyclotomic = [case for case in cases if any(cond > 1 for cond, _ in case["constants"])]
    problems = [(case, 1) for case in cases]
    problems += [(case, _galois_unit(case["conductor"])) for case in cyclotomic]
    lines = []
    for case, k in problems:
        constants = [
            CyclotomicNumber(cond, tuple(Fraction(c) for c in coeffs)).galois(k)
            for cond, coeffs in case["constants"]
        ]
        result = continuation_solvable(
            CliffordData(*constants), IntMat.from_rows(case["action"]), case["parity"], case["conductor"]
        )
        w = result.witness
        witness = None if w is None else [_cyclotomic_json(x) for x in (w.a0, w.au, w.av, w.auv)]
        record = {
            "constants": [_cyclotomic_json(x) for x in constants],
            "action": case["action"],
            "parity": case["parity"],
            "conductor": case["conductor"],
            "galois": k,
            "status": result.status,
            "witness": witness,
        }
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def test_continuation_matches_golden():
    assert continuation_lines() == (JSON_GOLDEN / "continuation.jsonl").read_text()
