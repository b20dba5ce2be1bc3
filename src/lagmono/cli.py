"""Command-line front end.

Every subcommand builds a list of records (dicts); the text renderer prints
them one field per line and the --json flag emits the same records as JSON
lines, field for field.  Exit codes: 0 success, 2 validation failure,
3 parse error.  A plain, valid argv is read straight from COMMANDS and builds
no parser.  Any other argv builds the full parser from COMMANDS, so argparse
writes every help, usage and error message.  Nothing is cached.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import classify as classify_mod
from .errors import ParseError, ValidationError
from .floer import (
    BinaryForm,
    clifford_constants,
    reduce_binary_form,
    rk1_classify,
)
from .groups import cycle_notation
from .laurent import GRID_CAP, parse_laurent, torsion_critical_points
from .monodromy import (
    hamiltonian_monodromy,
    induced_matrices,
    partition_bound_check,
    symplectic_monodromy,
)
from .toric import Mode, monotone_normalize, parse_polytope, toric_fiber_data, validate_delzant
from .torussym import TorsionPoint, first_moved_point, forced_critical_points, parse_group

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3


def _emit(records: list[dict], as_json: bool) -> None:
    if as_json:
        # Fraction, TorsionPoint, IntMat and CyclotomicNumber are no JSON types, so each is written as its str.
        for record in records:
            print(json.dumps(record, default=str, sort_keys=True))
        return
    for record in records:
        kind = record.get("record", "")
        fields = [(k, v) for k, v in record.items() if k != "record"]
        body = "  ".join(f"{k}={_render_text_value(v)}" for k, v in fields)
        print(f"{kind}: {body}" if body else f"{kind}:")


def _render_text_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_text_value(v) for v in value) + "]"
    return str(value)


def _witness(witness) -> dict:
    """Record fields naming the first element that moves a forced point, and that point."""
    return {} if witness is None else {"witness_element": witness[0], "witness_point": witness[1]}


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def run_toric(args) -> int:
    polytope = parse_polytope(_read(args.polytope), Mode(args.mode) if args.mode else None)
    records = [
        {
            "record": "polytope",
            "dim": polytope.dim,
            "facets": polytope.nfacets,
            "mode": polytope.mode.value,
        }
    ]
    report = validate_delzant(polytope)
    records.append(
        {
            "record": "validation",
            "status": "PASS" if report.ok else "FAIL",
            "failure": report.failure or "",
            "witness": report.witness or "",
            "warnings": list(report.warnings),
        }
    )
    if not report.ok:
        _emit(records, args.json)
        return EXIT_VALIDATION
    try:
        normalized = monotone_normalize(polytope)
    except ValidationError as exc:
        records.append({"record": "monotone", "status": "FAIL", "reason": str(exc)})
        _emit(records, args.json)
        return EXIT_VALIDATION
    records.append(
        {"record": "monotone", "status": "OK", "offset": normalized.offsets[0]}
    )
    data = toric_fiber_data(normalized)
    records.append(
        {
            "record": "relations",
            "rank": data.relations.rank,
            "basis": [list(v) for v in data.relations.basis],
        }
    )
    records.append({"record": "potential", "value": str(data.potential)})
    records.append(
        {
            "record": "partition",
            "blocks": [[i + 1 for i in block] for block in data.partition.blocks],
            "bound_ok": partition_bound_check(data.partition, polytope.dim),
        }
    )
    hamiltonian = hamiltonian_monodromy(data)
    symplectic = symplectic_monodromy(data)
    # H <= S and both hold sorted element tuples, so equal orders mean equal groups:
    # then one group object serves both records and its chain is walked once.
    if symplectic.order == hamiltonian.order:
        symplectic = hamiltonian
    both = (("hamiltonian", hamiltonian), ("symplectic", symplectic))
    named = [(name, group, group.generators()) for name, group in both]
    distinct = list(dict.fromkeys(p for _, _, gens in named for p in gens))
    mats = dict(zip(distinct, induced_matrices(data, distinct)))
    for name, group, gens in named:
        records.append(
            {
                "record": name,
                "order": group.order,
                "generators": [cycle_notation(p) for p in gens] or ["id"],
                "induced": [f"{cycle_notation(p)} -> {mats[p]}" for p in gens],
                # Exact: validation rejects repeated normals, so a matrix determines its permutation.
                "matrix_group_order": group.order,
            }
        )
    records.append({"record": "equal_groups", "value": hamiltonian.order == symplectic.order})
    _emit(records, args.json)
    return EXIT_OK


def run_classify2d(args) -> int:
    records = []
    for verdict in classify_mod.classify_n2():
        record = {"record": "class", "name": verdict.name, "admissible": verdict.admissible, "tag": verdict.toric_tag}
        record.update(_witness(verdict.witness))
        if verdict.realized_by:
            record["realized_by"] = list(verdict.realized_by)
        records.append(record)
    _emit(records, args.json)
    return EXIT_OK


def run_filter(args) -> int:
    group = parse_group(_read(args.group))
    records = [{"record": "group", "dim": group.dim, "order": group.order}]
    forced = forced_critical_points(group).finite_points()
    records.append({"record": "forced_critical_points", "count": len(forced), "points": list(forced)})
    witness = first_moved_point(group, forced)
    records.append({"record": "admissible", "value": witness is None, **_witness(witness)})
    _emit(records, args.json)
    return EXIT_OK


def run_conjecture(args) -> int:
    catalog = classify_mod.ingest_catalog(_read(args.catalog))
    records = []
    if catalog.q_class:
        message = "catalog declares rational classes; fixed-point counts are only integral-class invariants"
        records.append({"record": "warning", "message": message})
    for verdict in classify_mod.conjecture_filter(catalog):
        record = {"record": "verdict", "name": verdict.name, "status": verdict.status, **_witness(verdict.witness)}
        if verdict.parts is not None:
            record["parts"] = list(verdict.parts)
        records.append(record)
    _emit(records, args.json)
    return EXIT_OK


def run_potential_crit(args) -> int:
    w = parse_laurent(_read(args.potential))
    points = torsion_critical_points(w, args.bound, grid_cap=args.cap)
    records = [
        {"record": "potential", "dim": w.dim, "terms": len(w.terms)},
        {"record": "critical_points", "bound": args.bound, "count": len(points), "points": list(points)},
    ]
    _emit(records, args.json)
    return EXIT_OK


def run_potential_rk1(args) -> int:
    w = parse_laurent(_read(args.potential))
    report = rk1_classify(w)
    record = {
        "record": "rk1",
        "case": report.case,
        "group_bound": report.group_bound,
        "shears": report.shears.kind,
    }
    if report.shears.kind == "multiples":
        record["shear_divisors"] = list(report.shears.divisors)
        record["shear_modulus"] = report.shears.modulus()
    for key in ("a", "b", "k", "sign"):
        value = getattr(report, key)
        if value is not None:
            record[key] = value
    if report.flipped:
        record["flipped"] = True
    _emit([record], args.json)
    return EXIT_OK


def run_clifford(args) -> int:
    w = parse_laurent(_read(args.potential))
    try:
        coords = tuple(Fraction(part) for part in args.at.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad point {args.at!r}") from exc
    if len(coords) != w.dim:
        raise ParseError(f"point {args.at!r} has {len(coords)} coordinates, the potential has dim {w.dim}")
    point = TorsionPoint.make(coords)
    data = clifford_constants(w, point)
    _emit(
        [
            {
                "record": "clifford",
                "point": point,
                "lam": data.lam,
                "mu": data.mu,
                "nu": data.nu,
                "half_integral": data.half_integral,
            }
        ],
        args.json,
    )
    return EXIT_OK


def run_qform(args) -> int:
    form = BinaryForm(args.lam, args.mu2, args.nu)
    canonical, u = reduce_binary_form(form)
    names = {
        BinaryForm(0, 1, 0): "hyperbolic",
        BinaryForm(1, 0, 1): "diag(1,1)",
        BinaryForm(-1, 0, -1): "diag(-1,-1)",
        BinaryForm(1, 0, -1): "diag(1,-1)",
    }
    _emit(
        [
            {
                "record": "qform",
                "canonical": names[canonical],
                "matrix": canonical.matrix(),
                "transform": u,
            }
        ],
        args.json,
    )
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a positive integer")


# name -> (help, handler name or nested table, {argument name or flag: add_argument keywords}).
# A handler is looked up in the module when its parser is built, as a rebound run_* must be.
COMMANDS = {
    "toric": ("full pipeline on a polytope file", "run_toric", {
        "polytope": {}, "--mode": {"choices": ["compact", "vertex"], "help": "override the file mode"}}),
    "classify2d": ("verdicts for the 13 planar classes", "run_classify2d", {}),
    "filter": ("forced critical points and admissibility", "run_filter", {"group": {}}),
    "conjecture": ("structural filter over a catalog", "run_conjecture", {"catalog": {}}),
    "potential": ("potential-file analyses", {
        "crit": ("torsion critical points up to a bound", "run_potential_crit", {
            "potential": {},
            "--bound": {"type": _positive_int, "required": True},
            "--cap": {"type": _positive_int, "default": GRID_CAP, "help": "grid size cap"},
        }),
        "rk1": ("rank-one shape classification", "run_potential_rk1", {"potential": {}}),
    }, {}),
    "clifford": ("Clifford constants at a torsion point", "run_clifford", {
        "potential": {}, "--at": {"required": True, "help": "comma-separated rational coordinates"}}),
    "qform": ("reduce a binary quadratic form", "run_qform", dict.fromkeys(("lam", "mu2", "nu"), {"type": int})),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagmono",
        description="Exact monodromy computations for monotone Lagrangian torus fibres",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON lines instead of text")
    _add_commands(parser, COMMANDS, "command")
    return parser


def _add_commands(parser, table: dict, dest: str) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, target, arguments) in table.items():
        child = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments.items():
            child.add_argument(flag, **keywords)
        if isinstance(target, dict):
            _add_commands(child, target, "subcommand")
        else:
            child.set_defaults(func=globals()[target])


def _command_path(argv: list[str]) -> tuple[str, ...]:
    """The command names argv starts with, or () when it names no complete command."""
    table, path = COMMANDS, ()
    for token in argv:
        if token not in table:
            return ()
        path += (token,)
        table = table[token][1]
        if not isinstance(table, dict):
            return path
    return ()


# argparse's own test: a token like this is a value, not an option, while no option string looks like one.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option_like(token: str) -> bool:
    """Whether argparse reads token as an option string: it starts with "-" and is no negative number."""
    return token.startswith("-") and not _NEGATIVE_NUMBER.match(token)


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse builds for a plain, valid argv, read from COMMANDS; None for any other argv.

    Plain: at most one --json, first; the full command path; then each declared positional and long
    option at most once, in any order, as --flag value, with no other option-like token.  A negative
    number such as -2 is a value, as for argparse while no option string looks like a negative number.
    """
    as_json = argv[:1] == ["--json"]
    rest = argv[as_json:]
    path = _command_path(rest)
    if not path:
        return None
    table, arguments = COMMANDS, {}
    for name in path:
        if arguments:  # argparse would also fill the arguments of a level above the command
            return None
        _, table, arguments = table[name]
    if any(keywords.keys() - {"type", "choices", "required", "default", "help"} for keywords in arguments.values()):
        return None
    given, tokens, positionals = {}, iter(rest[len(path):]), (name for name in arguments if name[0] != "-")
    for token in tokens:
        name, value = (token, next(tokens, "-")) if _option_like(token) else (next(positionals, None), token)
        if name not in arguments or name in given or _option_like(value):
            return None
        given[name] = value
    fields = dict(zip(["command"] + ["subcommand"] * (len(path) - 1), path), json=as_json)
    for name, keywords in arguments.items():
        if name not in given and (keywords.get("required") or name[0] != "-"):
            return None
        value = given.get(name, keywords.get("default"))
        if isinstance(value, str):  # argparse converts a given value and a str default alike
            try:
                value = keywords.get("type", str)(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if name in given and value not in keywords.get("choices", [value]):
            return None
        fields[name.lstrip("-").replace("-", "_")] = value
    return argparse.Namespace(func=globals()[table], **fields)


def run(argv: list[str]) -> int:
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed its message; keep its exit code
            return exc.code
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
