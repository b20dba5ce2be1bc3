"""CLI subcommands: outputs, exit codes, determinism, JSON mode."""

import argparse
import json
import math
import pathlib
import time

import pytest
from hypothesis import given, settings, strategies as st
from test_golden import COMMANDS as GOLDEN_COMMANDS

from lagmono import cli
from lagmono.cli import run
from lagmono.intlat import IntMat
from lagmono.laurent import GRID_CAP

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestToric:
    def test_blowup_report(self, capsys):
        code, out, _ = invoke(capsys, "toric", str(FIXTURES / "bl1cp2.poly"))
        assert code == 0
        assert "validation: status=PASS" in out
        assert "hamiltonian: order=2" in out
        assert "(1 3)" in out
        assert "symplectic: order=2" in out
        assert "equal_groups: value=True" in out

    def test_triangle_report(self, capsys):
        code, out, _ = invoke(capsys, "toric", str(FIXTURES / "cp2.poly"))
        assert code == 0
        assert "hamiltonian: order=6" in out
        assert "partition: blocks=[[1, 2, 3]]" in out

    def test_json_mode_mirrors_text(self, capsys):
        code, out, _ = invoke(capsys, "--json", "toric", str(FIXTURES / "cp2.poly"))
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        kinds = [r["record"] for r in records]
        assert kinds == [
            "polytope",
            "validation",
            "monotone",
            "relations",
            "potential",
            "partition",
            "hamiltonian",
            "symplectic",
            "equal_groups",
        ]
        ham = next(r for r in records if r["record"] == "hamiltonian")
        assert ham["order"] == 6

    def test_deterministic_output(self, capsys):
        _, first, _ = invoke(capsys, "toric", str(FIXTURES / "cube3.poly"))
        _, second, _ = invoke(capsys, "toric", str(FIXTURES / "cube3.poly"))
        assert first == second

    def test_validation_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("dim 2\nmode compact\nfacet 1 0 1\nfacet 0 1 1\nfacet -1 -2 1\n")
        code, out, _ = invoke(capsys, "toric", str(bad))
        assert code == 2
        assert "VERTEX_SMOOTHNESS" in out

    def test_parse_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("dim 2\nmode compact\nfacet 1 0\n")
        code, _, err = invoke(capsys, "toric", str(bad))
        assert code == 3
        assert "line 3" in err

    def test_dim_zero_polytope_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "dim0.poly"
        bad.write_text("dim 0\nmode compact\nfacet 1\n")
        code, _, err = invoke(capsys, "toric", str(bad))
        assert code == 3
        assert "line 1: dimension must be positive" in err

    def test_negative_dim_polytope_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "dim-1.poly"
        bad.write_text("dim -1\nmode compact\nfacet 1\n")
        code, _, err = invoke(capsys, "toric", str(bad))
        assert code == 3
        assert "line 1: dimension must be positive" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "toric", "no-such-file.poly")
        assert code == 3

    def test_malformed_option_value_returns_two(self, capsys):
        potential = str(FIXTURES / "triangle_potential.laurent")
        for value in ("0", "x"):
            code, _, err = invoke(capsys, "potential", "crit", potential, "--bound", "6", "--cap", value)
            assert code == 2
            assert "argument --cap" in err

    def test_retired_cap_option_returns_two(self, capsys):
        # Closure and monodromy sizes come from Minkowski's bound and one element limit, not from --cap.
        for argv in (
            ("toric", str(FIXTURES / "cp2.poly")),
            ("filter", str(FIXTURES / "axis_extension.group")),
            ("conjecture", str(FIXTURES / "rank3_extensions.cat")),
        ):
            code, out, err = invoke(capsys, *argv, "--cap", "13")
            assert code == 2 and out == ""
            assert "unrecognized arguments: --cap 13" in err

    def test_mode_override(self, capsys, tmp_path):
        strip = tmp_path / "strip.poly"
        strip.write_text("dim 2\nmode compact\nfacet 1 0 1\nfacet 0 1 1\nfacet 0 -1 1\n")
        code, _, _ = invoke(capsys, "toric", str(strip))
        assert code == 2
        code, out, _ = invoke(capsys, "toric", str(strip), "--mode", "vertex")
        assert code == 0
        assert "hamiltonian: order=2" in out


class TestClassify2d:
    def test_six_impossible_lines(self, capsys):
        code, out, _ = invoke(capsys, "classify2d")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13
        impossible = [line for line in lines if "tag=IMPOSSIBLE" in line]
        assert len(impossible) == 6
        for name in ("2t", "3t", "4ft", "6ft"):
            assert any(f"name={name} " in line for line in impossible)

    def test_realizations_reported(self, capsys):
        _, out, _ = invoke(capsys, "classify2d")
        assert "name=3f" in out and "realized_by=[cp2]" in out


class TestFilter:
    def test_swap_extension_rejected(self, capsys):
        code, out, _ = invoke(capsys, "filter", str(FIXTURES / "swap_extension.group"))
        assert code == 0
        assert "admissible: value=False" in out
        assert "witness_element=[[0, 1], [1, 0]]" in out
        assert "witness_point=(0, 1/2)" in out

    def test_axis_extension_admissible(self, capsys):
        code, out, _ = invoke(capsys, "filter", str(FIXTURES / "axis_extension.group"))
        assert code == 0
        assert "admissible: value=True" in out
        assert "count=4" in out

    @pytest.mark.parametrize("rank", [4, 6])
    @pytest.mark.parametrize("blocks", [[[[1, 1], [0, 1]]], [[[-1, 0], [0, 1]], [[-1, 1], [0, 1]]]], ids=["shear", "infinite-dihedral"])
    def test_infinite_group_plus_identity_refused(self, capsys, tmp_path, blocks, rank):
        text = f"dim {rank}\n"
        for block in blocks:
            rows = [list(r) + [0] * (rank - 2) for r in block] + [[0, 0] + [int(i == j) for j in range(rank - 2)] for i in range(rank - 2)]
            text += "gen\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
        group = tmp_path / "infinite.group"
        group.write_text(text)
        code, out, err = invoke(capsys, "filter", str(group))
        assert (code, out, err) == (2, "", "validation error: group is infinite: two distinct elements share a residue\n")

    def test_rank_six_group_past_the_orbit_limit_is_refused_at_once(self, capsys, tmp_path):
        # X B6 X^-1 for X^-1 = L L L^T, L the lower unitriangular matrix of ones: each column of X^-1 has six
        # distinct nonzero absolute values, so its B6 orbit alone has 2^6 6! = 46,080 points, and O has 276,480.
        lower = IntMat.from_rows([[int(j <= i) for j in range(6)] for i in range(6)])
        lower_inv = IntMat.from_rows([[int(i == j) - int(i == j + 1) for j in range(6)] for i in range(6)])
        x, x_inv = lower_inv.transpose() @ lower_inv @ lower_inv, lower @ lower @ lower.transpose()
        sign = [[(-1) ** (i == 0) * (i == j) for j in range(6)] for i in range(6)]
        swap, cycle = [[[int(p[i] == j) for j in range(6)] for i in range(6)] for p in ([1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0])]
        text = "dim 6\n"
        for g in (sign, swap, cycle):
            rows = (x @ IntMat.from_rows(g) @ x_inv).rows
            text += "gen\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
        group = tmp_path / "b6_conjugate.group"
        group.write_text(text)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "filter", str(group))
        assert time.perf_counter() - start < 10
        assert (code, out, err) == (2, "", "validation error: more than 50000 basis-orbit points; group not verified finite\n")


class TestConjecture:
    def test_rank3_catalog(self, capsys):
        code, out, _ = invoke(capsys, "conjecture", str(FIXTURES / "rank3_extensions.cat"))
        assert code == 0
        lines = out.strip().splitlines()
        ruled = [line for line in lines if "status=RULED_OUT" in line]
        assert len(ruled) == 6
        signs = next(line for line in lines if "name=signs" in line)
        assert "parts=[2, 2, 2]" in signs

    def test_dim_zero_catalog_is_a_parse_error(self, capsys, tmp_path):
        catalog = tmp_path / "dim0.cat"
        catalog.write_text("group empty\ndim 0\n")
        code, _, err = invoke(capsys, "conjecture", str(catalog))
        assert code == 3
        assert "line 2" in err


class TestPotential:
    def test_crit(self, capsys):
        code, out, _ = invoke(
            capsys, "potential", "crit", str(FIXTURES / "triangle_potential.laurent"), "--bound", "6"
        )
        assert code == 0
        assert "count=3" in out
        assert "(1/3, 1/3)" in out

    def test_rk1(self, capsys):
        code, out, _ = invoke(
            capsys, "potential", "rk1", str(FIXTURES / "symmetric_potential.laurent")
        )
        assert code == 0
        assert "case=SYMMETRIC_PM" in out
        assert "a=7" in out

    def test_rk1_non_monic_derivative_skips_the_sieve(self, capsys, tmp_path):
        # The derivative 100000 x^99999 - x^-2 is not monic, so it is no product of Phi_d.
        potential = tmp_path / "high.laurent"
        potential.write_text("dim 1\nterm 1 100000\nterm 1 -1\n")
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "potential", "rk1", str(potential))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == "rk1: case=RESIDUAL  group_bound=[[1, 2Z], [0, 1]]  shears=zero  a=0\n"

    def test_non_integer_bound_message_names_no_function(self, capsys):
        potential = str(FIXTURES / "triangle_potential.laurent")
        for value in ("abc", "1/2", "0", "-1"):
            code, out, err = invoke(capsys, "potential", "crit", potential, "--bound", value)
            assert code == 2 and out == ""
            assert err.endswith("error: argument --bound: must be a positive integer\n")

    def test_default_grid_cap_is_the_library_default(self, capsys):
        potential = str(FIXTURES / "triangle_potential.laurent")
        bound = math.isqrt(GRID_CAP) + 1  # the smallest bound whose 2-dimensional grid exceeds the cap
        code, out, err = invoke(capsys, "potential", "crit", potential, "--bound", str(bound))
        assert code == 2 and out == ""
        assert err == f"validation error: grid of size {bound}^2 exceeds cap {GRID_CAP}\n"


class TestClifford:
    def test_constants_at_origin(self, capsys):
        code, out, _ = invoke(
            capsys, "clifford", str(FIXTURES / "triangle_potential.laurent"), "--at", "0,0"
        )
        assert code == 0
        assert "lam=-1" in out and "mu=-1" in out and "nu=-1" in out

    def test_noncritical_point_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "clifford", str(FIXTURES / "triangle_potential.laurent"), "--at", "1/2,0"
        )
        assert code == 2

    def test_wrong_coordinate_count_is_a_parse_error(self, capsys):
        code, _, err = invoke(
            capsys, "clifford", str(FIXTURES / "triangle_potential.laurent"), "--at", "1/3"
        )
        assert code == 3
        assert "coordinates" in err

    def test_one_variable_potential_rejected(self, capsys, tmp_path):
        potential = tmp_path / "one.laurent"
        potential.write_text("dim 1\nterm 3 0\nterm 1 1\nterm 1 -1\n")
        code, _, err = invoke(capsys, "clifford", str(potential), "--at", "1/2")
        assert code == 2
        assert "two-variable" in err


class TestQform:
    def test_split_reduction(self, capsys):
        code, out, _ = invoke(capsys, "qform", "1", "1", "0")
        assert code == 0
        assert "canonical=diag(1,-1)" in out
        assert "transform=" in out

    def test_bad_discriminant(self, capsys):
        code, _, err = invoke(capsys, "qform", "1", "0", "-2")
        assert code == 2


class TestCorpus:
    def test_all_polytope_fixtures_under_ten_seconds(self, capsys):
        import time

        start = time.monotonic()
        for path in sorted(FIXTURES.glob("*.poly")):
            code, out, _ = invoke(capsys, "toric", str(path))
            assert code == 0, path.name
            assert "validation: status=PASS" in out, path.name
        assert time.monotonic() - start < 10.0


POLY = "fixtures/cp2.poly"
POT = "fixtures/triangle_potential.laurent"
CRIT = ["potential", "crit", POT]
ORACLE_ARGV = [
    # every subcommand with valid arguments, with and without --json
    ["toric", POLY],
    ["--json", "toric", POLY, "--mode", "compact"],
    ["--json", "--json", "toric", POLY],
    ["classify2d"],
    ["filter", "fixtures/swap_extension.group"],
    ["--json", "conjecture", "fixtures/rank3_extensions.cat"],
    [*CRIT, "--bound", "6", "--cap", "100"],
    ["--json", "potential", "rk1", "fixtures/symmetric_potential.laurent"],
    ["clifford", POT, "--at", "1/3,1/3"],
    ["qform", "1", "1", "0"],
    # help at each level, and an abbreviated option
    ["-h"],
    ["--help"],
    ["--he"],
    ["--json", "-h"],
    ["toric", "-h"],
    ["qform", "--help"],
    ["potential", "-h"],
    ["potential", "crit", "-h"],
    ["potential", "rk1", "--help"],
    # no command, an abbreviated --json, unknown commands
    [],
    ["--json"],
    ["--js", "toric", POLY],
    ["bogus"],
    ["tor", POLY],
    ["potential"],
    ["potential", "bogus"],
    ["potential", "--json", "crit", POT, "--bound", "6"],
    # arguments the command's parser rejects; an unrecognized one prints the top-level usage line
    ["toric", POLY, "--json"],
    ["toric", POLY, "extra"],
    ["toric", POLY, "--cap", "13"],
    ["toric", POLY, "--mode", "bad"],
    ["toric"],
    ["classify2d", "extra"],
    [*CRIT, "--bound", "6", "--json"],
    # a repeated option whose first value argparse refuses
    ["toric", POLY, "--mode", "bad", "--mode", "compact"],
    [*CRIT, "--bound", "0", "--bound", "6"],
    [*CRIT, "--bound", "x", "--bound", "6"],
    # bad int and positive-int values
    ["qform", "1", "x", "0"],
    ["qform", "1"],
    [*CRIT, "--bound", "abc"],
    [*CRIT, "--bound", "0"],
    [*CRIT, "--bound", "6", "--cap", "-1"],
    [*CRIT, "--bound", "-3"],
    [*CRIT],
    ["clifford", "--at", "-1/2,0", POT],
    # a -- separator
    ["qform", "--", "1", "-1", "0"],
    ["toric", "--", POLY],
    ["--", "toric", POLY],
    # points whose order passes laurent.ORDER_LIMIT
    ["clifford", POT, "--at", "1e-400,0"],
    ["clifford", POT, "--at", "1/1000000007,0"],
]


ORACLE_GOLDEN = FIXTURES.parent / "tests" / "golden" / "cli-oracle-argv.jsonl"


def test_oracle_golden_holds_one_line_per_argv_in_order():
    lines = ORACLE_GOLDEN.read_text().splitlines()
    assert [json.loads(line)["argv"] for line in lines] == ORACLE_ARGV


@pytest.mark.parametrize("index", range(len(ORACLE_ARGV)), ids=lambda i: " ".join(ORACLE_ARGV[i]) or "(empty)")
def test_oracle_argv_output_matches_golden(index, capsys, monkeypatch):
    """Exit code, stdout and stderr at 80 columns, byte for byte against the argv's JSON line in the golden."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(FIXTURES.parent)
    argv = ORACLE_ARGV[index]
    code, out, err = invoke(capsys, *argv)
    line = json.dumps({"argv": argv, "code": code, "stdout": out, "stderr": err}) + "\n"
    assert line == ORACLE_GOLDEN.read_text().splitlines(keepends=True)[index]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "lagmono: error: the following arguments are required: command\n"),
        (["bogus"], "lagmono: error: argument command: invalid choice: 'bogus' (choose from 'toric', 'classify2d', "
         "'filter', 'conjecture', 'potential', 'clifford', 'qform')\n"),
        (["potential"], "lagmono potential: error: the following arguments are required: subcommand\n"),
        (["potential", "bogus"], "lagmono potential: error: argument subcommand: invalid choice: 'bogus' "
         "(choose from 'crit', 'rk1')\n"),
    ],
    ids=["no command", "unknown command", "no potential command", "unknown potential command"],
)
def test_missing_or_unknown_command_names_the_destination(argv, message, capsys):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(message)


def test_handler_is_looked_up_when_the_parser_is_built(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_qform", lambda args: 7)
    assert invoke(capsys, "qform", "1", "1", "0") == (7, "", "")


PATHS = [(name,) for name in cli.COMMANDS if name != "potential"] + [("potential", "crit"), ("potential", "rk1")]


def spy_on_build_parser(monkeypatch):
    built = []
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(full()) or built[-1])
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ["toric", POLY],
        ["--json", "toric", "--mode", "compact", POLY],
        ["potential", "crit", "--bound", "6", POT],
        [*CRIT, "--cap", "100", "--bound", "6"],
        ["clifford", "--at", "1/3,1/3", POT],
        ["qform", "1", "1", "0"],
        ["qform", "-2", "3", "-4"],
        ["--json", "qform", "1", "-1", "0"],
        ["classify2d"],
    ],
    ids=" ".join,
)
def test_run_builds_no_parser_for_a_plain_valid_argv(argv, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    built = spy_on_build_parser(monkeypatch)
    code, _, err = invoke(capsys, *argv)
    assert (code, err, built) == (0, "", [])


@pytest.mark.parametrize(
    "argv",
    [
        ["--json", "--json", "potential", "crit", POT],
        ["classify2d", "-h"],
        ["toric", POLY, "--mode", "bad"],
        ["clifford", "--at", "-1/2,0", POT],
        ["toric", "-"],
        [*CRIT, "--bound", "-3"],
        ["qform", "-1.5", "1", "0"],
        ["-h"],
        ["--js", "toric", POLY],
        ["potential"],
        ["potential", "bogus"],
        ["potential", "--json", "rk1", POT],
        ["--", "toric", POLY],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "(empty)",
)
def test_run_builds_the_full_parser_once_for_a_declined_argv(argv, capsys, monkeypatch):
    built = spy_on_build_parser(monkeypatch)
    invoke(capsys, *argv)
    assert len(built) == 1


def test_every_golden_argv_is_plain():
    for argv in GOLDEN_COMMANDS.values():
        assert cli._plain_args(argv) is not None, argv
        assert cli._plain_args(["--json", *argv]).json, argv


def command_tables(table=cli.COMMANDS, path=()):
    for name, (_, target, arguments) in table.items():
        yield path + (name,), arguments
        if isinstance(target, dict):
            yield from command_tables(target, path + (name,))


ARGUMENTS = dict(command_tables())


def test_plain_reader_knows_every_argument_keyword():
    """A keyword such as nargs or action must be taught to _plain_args before COMMANDS uses it."""
    for arguments in ARGUMENTS.values():
        for keywords in arguments.values():
            assert keywords.keys() <= {"type", "choices", "required", "default", "help"}, keywords


FLAGS = sorted({flag for arguments in ARGUMENTS.values() for flag in arguments if flag.startswith("-")})
NAMES = sorted({name for path in ARGUMENTS for name in path})
VALUES = [POLY, POT, "compact", "vertex", "6", "100", "1", "0", "-1", "", "abc", "1/3,1/3", "bad"]
HOSTILE = ["-h", "--", "--js", "--at=1/2", "--json", "-"]
# Tokens argparse reads as negative numbers, and near misses that it reads as option strings.
NEGATIVE = ["-2", "-0", "-17", "-1.5", "-.5", "-3\n", "-1/2,0", "-1e3", "-1.", "- 2", "-x2"]


@st.composite
def argvs(draw):
    """A command path with its own arguments in any order, each maybe left out, among stray tokens."""
    path = draw(st.one_of(st.sampled_from(PATHS), st.lists(st.sampled_from(NAMES), max_size=2).map(tuple)))
    own = [name for name in ARGUMENTS.get(path, ()) if draw(st.integers(0, 4))]
    values = st.one_of(st.sampled_from(["1", "6", "compact", "-2"]), st.sampled_from(VALUES + HOSTILE + NEGATIVE))
    pieces = [[name, draw(values)] if name.startswith("-") else [draw(values)] for name in own]
    strays = st.sampled_from(FLAGS + NAMES + VALUES + HOSTILE + NEGATIVE).map(lambda token: [token])
    pieces += draw(st.lists(strays, max_size=2))
    tail = [token for piece in draw(st.permutations(pieces)) for token in piece]
    return [*draw(st.lists(st.just("--json"), max_size=2)), *path, *tail]


def test_no_option_looks_like_a_negative_number():
    """The plain reader takes -2 for a value, which argparse does only while no option string looks like a number."""
    assert cli._NEGATIVE_NUMBER.pattern == argparse.ArgumentParser()._negative_number_matcher.pattern
    options = ["-h", "--help", "--json", *FLAGS]
    assert [flag for flag in options if cli._NEGATIVE_NUMBER.match(flag)] == []
    parsers = [cli.build_parser()]
    for parser in parsers:  # every parser and subparser, breadth first
        assert not parser._has_negative_number_optionals
        parsers += [child for action in parser._actions if isinstance(action, argparse._SubParsersAction)
                    for child in action.choices.values()]
    assert len(parsers) == len(ARGUMENTS) + 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["clifford", "--at", "-1/2,0", POT], "lagmono clifford: error: argument --at: expected one argument\n"),
        ([*CRIT, "--bound", "-3"], "lagmono potential crit: error: argument --bound: must be a positive integer\n"),
        (["qform", "1", "-1.5", "0"], "lagmono qform: error: argument mu2: invalid int value: '-1.5'\n"),
        # argparse checks every occurrence of a repeated option, so the plain reader, which would keep the last, declines
        (["toric", POLY, "--mode", "bad", "--mode", "compact"],
         "lagmono toric: error: argument --mode: invalid choice: 'bad' (choose from 'compact', 'vertex')\n"),
        ([*CRIT, "--bound", "0", "--bound", "6"],
         "lagmono potential crit: error: argument --bound: must be a positive integer\n"),
        ([*CRIT, "--bound", "x", "--bound", "6"],
         "lagmono potential crit: error: argument --bound: must be a positive integer\n"),
    ],
    ids=["--at -1/2,0", "--bound -3", "qform -1.5", "--mode bad --mode compact", "--bound 0 --bound 6",
         "--bound x --bound 6"],
)
def test_option_like_and_refused_negative_values_keep_argparse_messages(argv, message, capsys):
    assert cli._plain_args(argv) is None
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "") and err.endswith(message)


PARSER = cli.build_parser()


@settings(max_examples=1000, deadline=None)
@given(argvs())
def test_plain_reader_agrees_with_argparse(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(PARSER.parse_args(argv))
