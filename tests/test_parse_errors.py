"""Malformed inputs in the four text formats: the exact ParseError of each, and exit code 3.

Each row is (format, text, message).  The parser raises ParseError with
exactly that message, and the matching subcommand prints it after
``parse error: `` and exits 3.  A file that is not UTF-8 text is refused in
the same way, by every subcommand that reads one.
"""

import pytest

from lagmono.classify import ingest_catalog
from lagmono.cli import EXIT_PARSE, run
from lagmono.errors import ParseError
from lagmono.laurent import parse_laurent
from lagmono.toric import parse_polytope
from lagmono.torussym import parse_group

FORMATS = {
    "poly": (parse_polytope, ["toric"]),
    "laurent": (parse_laurent, ["potential", "rk1"]),
    "group": (parse_group, ["filter"]),
    "cat": (ingest_catalog, ["conjecture"]),
}

SWAP = "gen\n0 1\n1 0\n"
SIGN = "dim 1\ngen\n-1\n"

CASES = [
    # polytope: dim line, mode line, facet lines
    ("poly", "dimm 2\nmode compact\nfacet 1 0 1\n", "line 1: expected 'dim', got 'dimm'"),
    ("poly", "dim 2 3\nmode compact\nfacet 1 0 1\n", "line 1: expected 'dim <n>'"),
    ("poly", "dim x\nmode compact\nfacet 1 0 1\n", "line 1: bad dimension 'x'"),
    ("poly", "dim 0\nmode compact\nfacet 1 0 1\n", "line 1: dimension must be positive"),
    ("poly", "dim 2\nmodes compact\nfacet 1 0 1\n", "line 2: expected 'mode', got 'modes'"),
    ("poly", "dim 2\nmode compact vertex\nfacet 1 0 1\n", "line 2: expected 'mode compact|vertex'"),
    ("poly", "dim 2\nmode round\nfacet 1 0 1\n", "line 2: expected 'mode compact|vertex'"),
    ("poly", "dim 2\nmode compact\nfacett 1 0 1\n", "line 3: expected 'facet', got 'facett'"),
    ("poly", "dim 2\nmode compact\nfacet 1 0\n", "line 3: expected 2 normal entries and an offset"),
    ("poly", "dim 2\nmode compact\nfacet 1 x 1\n", "line 3: bad normal entry"),
    ("poly", "# header\ndim 2\n\nmode compact\nfacet 1 0 1/0\n", "line 5: bad offset '1/0'"),
    ("poly", "dim 2\nmode compact\nfacet 1 0 y\n", "line 3: bad offset 'y'"),
    ("poly", "dim 2\n", "polytope file needs dim and mode lines"),
    ("poly", "dim 2\nmode compact\n", "polytope file lists no facets"),
    # potential: dim line, term lines
    ("laurent", "dimm 2\nterm 1 1 0\n", "line 1: expected 'dim', got 'dimm'"),
    ("laurent", "dim -1\nterm 1 1\n", "line 1: dimension must be positive"),
    ("laurent", "dim 2\nterms 1 1 0\n", "line 2: expected 'term', got 'terms'"),
    ("laurent", "dim 2\nterm 1 1\n", "line 2: expected coefficient and 2 exponents"),
    ("laurent", "dim 2\nterm 1 1 z\n", "line 2: bad integer field"),
    ("laurent", "dim 2\nterm c 1 0  # comment\n", "line 2: bad integer field"),
    ("laurent", "# nothing\n", "empty potential file"),
    # group: dim line, gen blocks, trailing lines
    ("group", SWAP + SWAP, "line 1: expected 'dim', got 'gen'"),
    ("group", "dim 2\ngen\n0 1\n", "line 2: generator needs 2 rows"),
    ("group", "dim 2\ngen\n0 1 0\n1 0\n", "line 3: expected 2 integers"),
    ("group", "dim 2\ngen\n0 a\n1 0\n", "line 3: bad integer entry"),
    ("group", "dim 2\ngen 1\n0 1\n1 0\n", "line 2: expected 'gen' alone"),
    ("group", "dim 2\n" + SWAP + "foo\n", "line 5: expected 'gen', got 'foo'"),
    ("group", "dim 2\n" + SWAP + "foo bar\n", "line 5: expected 'gen', got 'foo'"),
    ("group", "", "empty group file"),
    # catalog: classes line, group headers, group blocks
    ("cat", "classes r\ngroup a\n" + SIGN, "line 1: expected 'classes z|q'"),
    ("cat", "classes\ngroup a\n" + SIGN, "line 1: expected 'classes z|q'"),
    ("cat", "classesx z\ngroup a\n" + SIGN + "group a\n" + SIGN, "line 1: expected 'group', got 'classesx'"),
    ("cat", "grp a\n" + SIGN, "line 1: expected 'group', got 'grp'"),
    ("cat", "group a b\n" + SIGN, "line 1: expected 'group <name>'"),
    ("cat", "group a\n", "line 1: group 'a' missing dim"),
    ("cat", "group a\n" + SWAP, "line 2: expected 'dim', got 'gen'"),
    ("cat", "group a\ndim 0\n", "line 2: dimension must be positive"),
    ("cat", "group a\n" + SIGN + "group a\n" + SIGN, "line 5: duplicate group name 'a'"),
    ("cat", "group a\n" + SIGN + "group b\ndim 2\n" + SWAP, "line 6: group 'b' has mismatched dimension"),
    ("cat", "group a\ndim 1\ngen 1\n-1\n", "line 3: expected 'group', got 'gen'"),
    ("cat", "group a\ndim 1\ngen\nx\n", "line 4: bad integer entry"),
]


@pytest.mark.parametrize("fmt, text, message", CASES)
def test_parser_message(fmt, text, message):
    parse, _ = FORMATS[fmt]
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("fmt, text, message", CASES)
def test_cli_exit_code(fmt, text, message, tmp_path, capsys):
    path = tmp_path / f"input.{fmt}"
    path.write_text(text)
    _, argv = FORMATS[fmt]
    assert run([*argv, str(path)]) == EXIT_PARSE == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"parse error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["toric", "PATH"],
        ["filter", "PATH"],
        ["conjecture", "PATH"],
        ["potential", "crit", "PATH", "--bound", "6"],
        ["potential", "rk1", "PATH"],
        ["clifford", "PATH", "--at", "0,0"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_undecodable_file_is_a_parse_error(argv, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe" + "dim 2\n".encode("utf-16-le"))  # a UTF-16 file, with its byte-order mark
    assert run([str(path) if token == "PATH" else token for token in argv]) == EXIT_PARSE
    captured = capsys.readouterr()
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert (captured.out, captured.err) == ("", f"parse error: cannot read {path}: {reason}\n")
