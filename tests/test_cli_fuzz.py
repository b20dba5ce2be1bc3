"""Mutated fixture files and arguments: every CLI run ends in exit 0, 2 or 3, never a traceback.

Each example takes one shipped fixture, drops or duplicates a line or swaps
one token for a hostile one, and runs the matching subcommand in-process.
The catalog is cut to its first two groups so the whole test stays fast;
every polytope, the hexagon ``bl3cp2`` included, runs its full symplectic
search.  The argument cases run the shipped files with hostile option
values and a missing path; argparse rejects a malformed value with exit 2.
``toric`` gets hostile ``--mode`` values, and one ``--cap`` case checks the
unrecognized-argument path, since ``toric`` takes no ``--cap``.
"""

import contextlib
import io
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lagmono.cli import run

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
TOKENS = ("0", "-1", "1/0", "x", "dim", "gen", "")
ARGV = {
    ".poly": [["toric", "{}"]],
    ".group": [["filter", "{}"]],
    ".cat": [["conjecture", "{}"]],
    ".laurent": [
        ["potential", "rk1", "{}"],
        ["potential", "crit", "{}", "--bound", "6"],
        ["clifford", "{}", "--at", "1/2,1/2"],
    ],
}


def fixture_text(path: pathlib.Path) -> str:
    text = path.read_text()
    if path.suffix == ".cat":
        lines = text.splitlines(keepends=True)
        third_group = [i for i, line in enumerate(lines) if line.startswith("group ")][2]
        text = "".join(lines[:third_group])
    return text


@st.composite
def mutations(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 2))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "swap")))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif lines[i].split():
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir() if p.suffix in ARGV))
def test_mutated_fixture_exits_cleanly(name, tmp_path_factory):
    path = FIXTURES / name
    target = tmp_path_factory.mktemp("fuzz") / name

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutations(fixture_text(path)))
    def check(text):
        target.write_text(text)
        for template in ARGV[path.suffix]:
            argv = [arg.format(target) for arg in template]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            assert code in (0, 2, 3), (argv, text)

    check()


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


POLYTOPES = sorted(p.name for p in FIXTURES.glob("*.poly"))
POTENTIALS = sorted(p.name for p in FIXTURES.glob("*.laurent"))
MISSING = str(FIXTURES / "no-such-file")
HOSTILE_ARGV = (
    [["toric", f"fixtures/{name}", "--mode", mode] for name in POLYTOPES for mode in ("bad", "", "COMPACT")]
    + [["toric", "fixtures/cp2.poly", "--cap", "13"]]
    + [["potential", "crit", f"fixtures/{name}", "--bound", b] for name in POTENTIALS for b in ("0", "-1", "1/2")]
    + [
        ["potential", "crit", f"fixtures/{name}", "--bound", "6", "--cap", cap]
        for name in POTENTIALS
        for cap in ("0", "-1", "x", "13")
    ]
    + [["clifford", f"fixtures/{name}", "--at", at] for name in POTENTIALS for at in ("1/2", "1/2,1/2,1/2", "1/0,1/2")]
    + [
        ["toric", MISSING],
        ["filter", MISSING],
        ["conjecture", MISSING],
        ["potential", "rk1", MISSING],
        ["potential", "crit", MISSING, "--bound", "6"],
        ["clifford", MISSING, "--at", "1/2,1/2"],
    ]
)


@pytest.mark.parametrize("argv", HOSTILE_ARGV, ids=" ".join)
def test_hostile_arguments_exit_cleanly(argv, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    assert exit_code(argv) in (0, 2, 3)
