"""One cold pass over a workload in a fresh interpreter.

    python3 perfbench/worker.py OPS.json RESULT.json [--trace]

Imports lagmono from ./src, then runs every operation of OPS.json once, in
order, with no warm-up: a CLI operation is one `lagmono.cli.run(argv)` call
with stdout and stderr captured, a library operation is one public call.
Each operation is timed alone, and one calibration chunk (calibrate.py)
is timed just before it, so that the caller can bring the pass's timings to
reference speed.  With --trace the per-layer tracer is
installed before the first operation and removed after the last, and its
self checks are recorded.  RESULT.json receives the raw answers and
timings; checking them is the caller's job.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import lagmono  # noqa: E402
import lagmono.cli  # noqa: E402


def _cyc(spec):
    conductor, coeffs = spec
    return lagmono.CyclotomicNumber(conductor, tuple(Fraction(c) for c in coeffs))


def _cyc_out(x):
    return [x.conductor, [str(c) for c in x.coeffs]]


def prepare(op):
    """Build a library call's arguments outside the timed region."""
    args = op.get("args")
    if op["kind"] == "continuation":
        lam, mu, nu = (_cyc(c) for c in args["constants"])
        data = lagmono.CliffordData(lam, mu, nu)
        action = lagmono.IntMat.from_rows(args["action"])
        return (data, action, args["parity"], args["conductor"])
    if op["kind"] == "hessian":
        return (lagmono.parse_laurent(args["potential"]), args["kind"])
    return tuple(op["argv"])


def execute(op, prepared) -> dict:
    """Run one operation; returns the raw answer (no timing)."""
    kind = op["kind"]
    try:
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = lagmono.cli.run(list(prepared))
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
            return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-300:]}
        if kind == "continuation":
            res = lagmono.floer.continuation_solvable(*prepared)
            witness = None
            if res.witness is not None:
                w = res.witness
                witness = [_cyc_out(x) for x in (w.a0, w.au, w.av, w.auv)]
            return {"status": res.status, "witness": witness}
        if kind == "hessian":
            rep = lagmono.floer.hessian_theorem_check(*prepared)
            return {"status": rep.status, "form": rep.form, "epsilon": rep.epsilon,
                    "eps_pair": list(rep.eps_pair) if rep.eps_pair else None}
    except Exception as exc:  # a crash is an answer too: the oracle counts it
        return {"exception": f"{type(exc).__name__}: {exc}"[:300]}
    raise ValueError(f"unknown operation kind {kind!r}")


def run_pass(ops, prepared) -> dict:
    results, chunks = [], []
    clock = time.perf_counter
    for op, args in zip(ops, prepared):
        chunks.append(calibrate.time_chunk())
        start = clock()
        answer = execute(op, args)
        answer["seconds"] = clock() - start
        results.append(answer)
    return {"results": results, "chunk_seconds": chunks,
            "pass_seconds": sum(r["seconds"] for r in results)}


def main(argv):
    ops = json.loads(Path(argv[0]).read_text())
    # Arguments are built before the tracer goes in, so that it counts only
    # the program's own calls.
    prepared = [prepare(op) for op in ops]
    tracer = None
    report = {}
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        report["unwrapped_after_install"] = tracer.check_installed()
    report.update(run_pass(ops, prepared))
    if tracer:
        tracer.remove()
        report["wrapped_after_remove"] = tracer.check_removed()
        report["trace"] = tracer.snapshot()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(argv[1]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
