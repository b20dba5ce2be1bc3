"""List every ``def`` in src/lagmono that no command, golden, oracle argv or benchmark operation runs.

    python tests/never_run.py INPUT_DIR

A profiler goes in before ``lagmono`` is imported, so code that runs at
import counts too.  From the repository root it then runs every argv of
``test_golden``'s COMMANDS, REFUSALS and DATA_COMMANDS and of ``test_cli``'s
ORACLE_ARGV, and one seed-1 pass of each perfbench workload through
``workloads.build`` and ``worker.prepare``/``execute``, with the workload
inputs written under INPUT_DIR.  It prints, as a sorted JSON list, the
``module.qualname`` of each function and method whose code never ran.  A
code object is matched to its ``def`` by its first line, which for a
decorated function is that of its first decorator.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lagmono"


def definitions(path: pathlib.Path) -> dict[int, str]:
    """First line -> qualified name of every function and method defined in a module."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                found[min([child.lineno, *(d.lineno for d in child.decorator_list)])] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return found


def main(inputs: pathlib.Path) -> None:
    import hypothesis  # noqa: F401  the test modules' own imports, loaded before the profiler, which need not see them
    import pytest  # noqa: F401

    sys.dont_write_bytecode = True  # leaves no bytecode caches in perfbench/ or tests/
    ran = set()
    sys.setprofile(lambda frame, event, arg: ran.add(frame.f_code) if event == "call" else None)
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import lagmono.cli
    import test_cli
    import test_golden
    import worker
    import workloads

    golden = test_golden.COMMANDS, test_golden.REFUSALS, test_golden.DATA_COMMANDS
    for argv in [*(argv for table in golden for argv in table.values()), *test_cli.ORACLE_ARGV]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            lagmono.cli.run(list(argv))
    for workload in workloads.GENERATORS:
        for op in workloads.build(workload, 1, inputs / workload, ROOT / "fixtures"):
            worker.execute(op, worker.prepare(op))
    sys.setprofile(None)
    ran = {(pathlib.Path(code.co_filename).resolve(), code.co_firstlineno) for code in ran}
    never = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in definitions(path).items()
        if (path, line) not in ran
    ]
    print(json.dumps(sorted(never)))


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]))
