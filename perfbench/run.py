"""lagmono benchmark: seeded workloads of exact verdicts, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; lagmono is imported from ./src.  One client,
one process at a time (a closed loop: the next operation starts when the
previous one has returned).  Each pass is a fresh interpreter that imports
lagmono and makes one cold pass over the workload's operations with no
warm-up, because every CLI user pays the package's cache fills on every
invocation.  The same seed gives the same inputs on every pass.

With --trace 0, passes repeat until the next one would end after S seconds
(at least one runs), and the end-to-end metrics are reported:

    setup_s      median `import lagmono.cli` time of fresh interpreters, sampled
                 before the first pass and after every pass
    ops_per_s    operations / the sum of their latencies
    op_p50_ms    median of the per-operation latencies; each operation's
    op_p90_ms    latency is its median over passes, one sample per operation
    ok_frac      operations answered correctly / operations attempted
    peak_rss_mb  ru_maxrss of a pass's interpreter (median over passes)

Times are reported at reference speed (calibrate.py): a pass runs one
calibration chunk before each operation, each latency is scaled by
REF_CHUNK_S over the median time of the chunks next to it, and each import
time by the same ratio for the chunks run in its probe interpreter.  The shared host's speed
drifts by a third or more between runs, and that drift would otherwise
swamp the program's own changes.  The unscaled figures and the host's chunk
time are printed too, on the lines above the JSON.

With --trace 1, one untraced pass and two traced passes run, and the
per-layer metrics of the first traced pass are reported (self times are the
median of the two).  The tracer's own checks fail the run: every binding
rebound and restored, traced answers identical to untraced ones, and every
count identical across the two traced passes.

Every answer is checked (oracles.py).  The run exits 1 when an answer is
wrong, except for the inputs marked as known defects, which count as failed
in `failed` and ok_frac but not against `correct`.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

PASS_TIMEOUT_S = 150
# Import samples before the first pass and after each pass: spread over the
# run, they see the same machine as the passes rather than one short burst.
SETUP_FIRST, SETUP_PER_PASS = 5, 2
# A fresh interpreter times `import lagmono.cli` between calibration chunks
# and prints [import seconds, chunk seconds].
IMPORT_PROBE = (
    "import json, sys, time; sys.path.insert(0, 'src'); sys.path.insert(0, sys.argv[1]); "
    "import calibrate; chunks = [calibrate.time_chunk() for _ in range(5)]; t = time.perf_counter(); "
    "import lagmono.cli; seconds = time.perf_counter() - t; "
    "chunks += [calibrate.time_chunk() for _ in range(4)]; print(json.dumps([seconds, chunks]))"
)

# Per-layer metrics of traced functions: (metric prefix, traced keys or None
# for the prefix itself, which of calls and self_ms to report).
TRACED = [
    ("intlat.hermite_normal_form", None, "calls self_ms"),
    ("intlat.smith_normal_form", None, "calls self_ms"),
    ("intlat.rational_rref", None, "calls self_ms"),
    ("intlat.matrix_order", None, "calls self_ms"),
    ("intlat.IntMat.matmul", ["intlat.IntMat.__matmul__"], "calls"),
    ("groups.MatrixGroup.from_generators", None, "calls self_ms"),
    ("groups.PermutationGroup.from_generators", None, "calls self_ms"),
    ("groups.generators", ["groups.MatrixGroup.generators", "groups.PermutationGroup.generators"], "calls self_ms"),
    ("toric.parse_polytope", None, "self_ms"),
    ("toric.validate_delzant", None, "self_ms"),
    ("toric.monotone_normalize", None, "self_ms"),
    ("toric.toric_fiber_data", None, "self_ms"),
    ("monodromy.hamiltonian_monodromy", None, "self_ms"),
    ("monodromy.symplectic_monodromy", None, "self_ms"),
    ("monodromy.induced_matrix_group", None, "calls self_ms"),
    ("torussym.parse_group", None, "self_ms"),
    ("torussym.forced_critical_points", None, "calls self_ms"),
    ("torussym.monomial_fixed_points", None, "calls self_ms"),
    ("torussym.admissible_group", None, "self_ms"),
    ("cyclotomic.CyclotomicNumber.new", ["cyclotomic.CyclotomicNumber.__post_init__"], "calls self_ms"),
    ("cyclotomic.mul", ["cyclotomic.CyclotomicNumber.__mul__"], "calls"),
    ("cyclotomic.inverse", ["cyclotomic.CyclotomicNumber.inverse"], "calls self_ms"),
    ("cyclotomic.norm", ["cyclotomic.CyclotomicNumber.norm"], "calls self_ms"),
    ("laurent.parse_laurent", None, "self_ms"),
    ("laurent.evaluate", None, "calls self_ms"),
    ("laurent.is_critical", None, "calls self_ms"),
    ("laurent.torsion_critical_points", None, "self_ms"),
    ("floer.clifford_constants", None, "calls self_ms"),
    ("floer.clifford_mul", None, "calls"),
    ("floer.continuation_solvable", None, "calls self_ms"),
    ("floer.hessian_theorem_check", None, "self_ms"),
    ("floer.rk1_classify", None, "self_ms"),
    ("floer.reduce_binary_form", None, "self_ms"),
    ("classify.ingest_catalog", None, "self_ms"),
    ("classify.classify_n2", None, "self_ms"),
    ("classify.conjecture_filter", None, "self_ms"),
    ("classify.embed_symmetric_product", None, "calls self_ms"),
    ("classify.gl_order_feasible", None, "calls"),
    ("cli.run", None, "calls self_ms"),
]
# Useful outcomes over attempts: (metric, numerator counter, denominator
# counter or traced function whose calls count).  Both bases are reported.
RATIOS = [
    ("groups.closure.products_per_element", "groups.closure.products", "groups.closure.elements"),
    ("torussym.forced.points_per_fixed_call", "torussym.forced.points", "torussym.monomial_fixed_points"),
    ("laurent.grid.critical_ratio", "laurent.grid.critical", "laurent.grid.tested"),
    ("floer.continuation.decided_ratio", "floer.continuation.decided", "floer.continuation_solvable"),
    ("classify.embed.found_ratio", "classify.embed.found", "classify.embed_symmetric_product"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # so that traced counts repeat exactly
    return env


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def import_times(n: int) -> list[tuple[float, float]]:
    """(unscaled, reference-speed) import time of lagmono.cli in n fresh interpreters."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], capture_output=True,
                              text=True, timeout=60, env=child_env(), check=True)
        seconds, chunks = json.loads(proc.stdout)
        out.append((seconds, seconds * calibrate.scale(chunks)))
    return out


def run_pass(ops_path: Path, out_path: Path, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(ops_path), str(out_path)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, env=child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out_path.read_text())


def answers(report) -> list:
    return [{k: v for k, v in r.items() if k != "seconds"} for r in report["results"]]


def check_answers(ops, reports):
    """(failures, known-defect failures) as lists of 'pass: op: reason' lines.

    Every pass answers the same inputs, so an answer equal to the first
    pass's shares its verdict; only answers that differ are checked again.
    """
    wrong, known = [], []
    first = answers(reports[0])
    verdicts = [oracles.check(op["expect"], result) for op, result in zip(ops, reports[0]["results"])]
    for n, report in enumerate(reports):
        for i, (op, result) in enumerate(zip(ops, answers(report))):
            reason = verdicts[i] if result == first[i] else oracles.check(op["expect"], result)
            if reason:
                line = f"pass {n}: {op['id']} {' '.join(op.get('argv', []))}: {reason}"
                (known if op.get("known_defect") else wrong).append(line)
    return wrong, known


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops, reports, setup, ok_frac, scaled=True):
    """The end-to-end metrics; scaled=False gives the unscaled times."""
    scales = [calibrate.local_scales(r["chunk_seconds"]) if scaled else [1.0] * len(ops) for r in reports]
    per_op = [statistics.median(r["results"][i]["seconds"] * k[i] for r, k in zip(reports, scales)) * 1000
              for i in range(len(ops))]
    return {
        "setup_s": (statistics.median(s[1] if scaled else s[0] for s in setup), "s"),
        "ops_per_s": (len(ops) / (sum(per_op) / 1000), "1/s"),
        "op_p50_ms": (statistics.median(per_op), "ms"),
        "op_p90_ms": (percentile(per_op, 90), "ms"),
        "ok_frac": (ok_frac, "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    }


def per_layer(plain, traced_a, traced_b):
    """Counts from the first traced pass; self times are the median of both."""
    a, b = traced_a["trace"], traced_b["trace"]
    metrics = {}
    for prefix, keys, kinds in TRACED:
        keys = keys or [prefix]
        if "calls" in kinds:
            metrics[f"{prefix}.calls"] = (sum(a["calls"].get(k, 0) for k in keys), "count")
        if "self_ms" in kinds:
            both = [sum(t["self_ms"].get(k, 0.0) for k in keys) for t in (a, b)]
            metrics[f"{prefix}.self_ms"] = (statistics.median(both), "ms")
    counts = {**a["counters"], **a["calls"]}
    for name, num, den in RATIOS:
        metrics.setdefault(num, (counts[num], "count"))
        metrics.setdefault(den if den in a["counters"] else f"{den}.calls", (counts.get(den, 0), "count"))
        metrics[name] = (counts[num] / counts[den] if counts.get(den) else 0.0, "ratio")
    def seconds(report):
        return report["pass_seconds"] * calibrate.scale(report["chunk_seconds"])

    ratio = statistics.median([seconds(traced_a), seconds(traced_b)]) / seconds(plain)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def tracer_problems(plain, traced_a, traced_b) -> list[str]:
    problems = []
    for n, rep in enumerate((traced_a, traced_b)):
        if rep["unwrapped_after_install"]:
            problems.append(f"traced pass {n}: bindings left unwrapped: {rep['unwrapped_after_install'][:5]}")
        if rep["wrapped_after_remove"]:
            problems.append(f"traced pass {n}: wrappers left after removal: "
                            f"{rep['wrapped_after_remove'][:5]}")
        if answers(rep) != answers(plain):
            problems.append(f"traced pass {n}: answers differ from the untraced pass")
    a, b = traced_a["trace"], traced_b["trace"]
    if a["calls"] != b["calls"] or a["counters"] != b["counters"]:
        diff = sorted(k for k in set(a["calls"]) | set(b["calls"]) if a["calls"].get(k) != b["calls"].get(k))
        problems.append(f"counts differ between the two traced passes: {diff[:5]}")
    return problems


def main(argv) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lagmono" / "__init__.py").is_file() or not (root / "fixtures").is_dir():
        print("perfbench: run from the repository root (src/lagmono and fixtures/ not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # input generation reads lagmono.polytopes
    work = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, work / "inputs", root / "fixtures")
        ops_path = work / "ops.json"
        ops_path.write_text(json.dumps([{k: v for k, v in op.items() if k != "expect"} for op in ops]))
        import_times(1)  # fills the bytecode cache, so that no sample pays for compiling
        problems = []
        if args.trace:
            plain = run_pass(ops_path, work / "plain.json", trace=False)
            traced = [run_pass(ops_path, work / f"traced{i}.json", trace=True) for i in range(2)]
            reports = [plain, *traced]
            problems = tracer_problems(plain, *traced)
        else:
            setup = import_times(SETUP_FIRST)
            reports = []
            start = time.perf_counter()
            while True:
                reports.append(run_pass(ops_path, work / f"pass{len(reports)}.json", trace=False))
                setup += import_times(SETUP_PER_PASS)
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(reports) > args.seconds:
                    break
        wrong, known = check_answers(ops, reports)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops) * len(reports)
    failed = len(wrong) + len(known)
    ok_frac = (attempted - failed) / attempted
    if args.trace:
        metrics = per_layer(reports[0], reports[1], reports[2])
    else:
        metrics = end_to_end(ops, reports, setup, ok_frac)
        unscaled = end_to_end(ops, reports, setup, ok_frac, scaled=False)

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}")
    print(f"python: {platform.python_version()}  nproc: {os.cpu_count()}  platform: {platform.platform()}")
    print(f"commit: {commit()}")
    print(f"passes: {len(reports)}  operations per pass: {len(ops)}  latency samples: {len(ops)}")
    for line in known:
        print(f"known defect: {line}")
    for line in wrong + problems:
        print(f"WRONG: {line}")
    chunk_ms = statistics.median(c for r in reports for c in r["chunk_seconds"]) * 1000
    print(f"calibration chunk: {chunk_ms:.4g} ms on this host, {calibrate.REF_CHUNK_S * 1000:g} ms at reference speed")
    for name, (value, unit) in metrics.items():
        raw = f"  (unscaled {unscaled[name][0]:.6g})" if not args.trace and unit in ("s", "ms", "1/s") else ""
        print(f"{name} = {value:.6g} {unit}{raw}")
    correct = not wrong and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
