"""The benchmark's per-layer tracer (perfbench/tracer.py) against the package it wraps.

The tracer rebinds the package's public functions from outside and reads some
of their results, such as ``forced_critical_points(...).points``.  These tests
load it unedited and run one operation of each kind the benchmark traces, so a
change to a traced result or binding fails here, not only in a traced run.
"""

import contextlib
import importlib.util
import io
import pathlib
import time

from lagmono import floer
from lagmono.cli import run
from lagmono.cyclotomic import CyclotomicNumber
from lagmono.floer import CliffordData
from lagmono.intlat import IntMat
from lagmono.laurent import LaurentPolynomial

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
W_CP2 = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
CLI_OPS = [
    ["toric", str(FIXTURES / "bl2cp2.poly")],
    ["filter", str(FIXTURES / "swap_extension.group")],
    ["conjecture", str(FIXTURES / "rank3_extensions.cat")],
    ["classify2d"],
    ["potential", "crit", str(FIXTURES / "triangle_potential.laurent"), "--bound", "6"],
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def answers():
    """The output of each traced operation kind, the library calls made through ``lagmono.floer`` as the benchmark makes them."""
    out = []
    for argv in CLI_OPS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(argv)
        out.append((code, stdout.getvalue()))
    unit = CyclotomicNumber.from_rational(1)
    data = CliffordData(unit, CyclotomicNumber.from_rational(0), -unit)
    out.append(floer.continuation_solvable(data, IntMat.from_rows([[1, 0], [0, -1]]), "odd", 4))
    out.append(floer.hessian_theorem_check(W_CP2, "ORDER3"))
    return out


def test_traced_answers_equal_untraced_and_bindings_restore():
    start = time.perf_counter()
    untraced = answers()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.check_installed() == []
        traced = answers()
    finally:
        tracer.remove()
    assert tracer.check_removed() == []
    assert traced == untraced
    assert tracer.counters["torussym.forced.points"] > 0
    assert time.perf_counter() - start < 2.0
