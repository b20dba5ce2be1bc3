"""Record the expected answers the benchmark checks against.

    python3 perfbench/make_expected.py

Run from the repository root, only on a commit whose answers are trusted:
it writes what the current code answers into perfbench/expected/.

- golden/*.out: text output of the README commands on the shipped fixtures;
- toric.json: invariants of every untransformed base polytope;
- groups.json: the planar class generators and the invariants (order,
  forced-point count, admissibility, conjecture verdict) of every base group;
- continuation.json: continuation cases with their statuses, drawn from a
  fixed-seed pool so that every stratum the workload samples is filled, and
  Hessian-rigidity cases with their reports.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import worker
import workloads
from workloads import ROT3, laurent_text

import lagmono

ROOT = Path.cwd()
FIXTURES = ROOT / "fixtures"
OUT = Path(__file__).resolve().parent / "expected"
SCRATCH = OUT / ".inputs"


def cli(argv) -> dict:
    return worker.execute({"kind": "cli"}, argv)


def records(argv) -> dict:
    res = cli(["--json", *argv])
    assert res["code"] == 0, (argv, res)
    out = {}
    for line in res["stdout"].splitlines():
        rec = json.loads(line)
        out.setdefault(rec["record"], rec)
    return out


GOLDEN = {
    "filter-axis_extension.out": ["filter", "fixtures/axis_extension.group"],
    "filter-swap_extension.out": ["filter", "fixtures/swap_extension.group"],
    "conjecture-rank3_extensions.out": ["conjecture", "fixtures/rank3_extensions.cat"],
    "classify2d.out": ["classify2d"],
    "crit-triangle-6.out": ["potential", "crit", "fixtures/triangle_potential.laurent", "--bound", "6"],
    "crit-triangle-12.out": ["potential", "crit", "fixtures/triangle_potential.laurent", "--bound", "12"],
    "clifford-triangle.out": ["clifford", "fixtures/triangle_potential.laurent", "--at", "1/3,1/3"],
    "rk1-symmetric.out": ["potential", "rk1", "fixtures/symmetric_potential.laurent"],
    "qform-1-1-0.out": ["qform", "1", "1", "0"],
}


def golden():
    (OUT / "golden").mkdir(parents=True, exist_ok=True)
    table = dict(GOLDEN)
    for name in workloads.SHIPPED_POLYTOPES:
        table[f"toric-{name}.out"] = ["toric", f"fixtures/{name}.poly"]
    for fname, argv in table.items():
        res = cli(argv)
        assert res["code"] == 0, (argv, res)
        (OUT / "golden" / fname).write_text(res["stdout"])


def toric():
    bases = {name: f"fixtures/{name}.poly" for name in workloads.SHIPPED_POLYTOPES}
    for name, normals in workloads.generated_polytopes().items():
        path = SCRATCH / f"{name}.poly"
        path.write_text(workloads.poly_text(len(normals[0]), "compact", normals, [1] * len(normals)))
        bases[name] = str(path)
    out = {}
    for name, path in bases.items():
        rec = records(["toric", path])
        out[name] = {
            "rank": rec["relations"]["rank"],
            "blocks": sorted(len(b) for b in rec["partition"]["blocks"]),
            "hamiltonian": rec["hamiltonian"]["order"],
            "symplectic": rec["symplectic"]["order"],
            "ham_mats": rec["hamiltonian"]["matrix_group_order"],
            "sym_mats": rec["symplectic"]["matrix_group_order"],
            "equal": rec["equal_groups"]["value"],
        }
    return out


def groups():
    planar = {name: [[list(r) for r in g.rows] for g in group.generators()]
              for name, group in lagmono.catalog_n2().entries}
    (OUT / "groups.json").write_text(json.dumps({"planar_generators": planar}))
    invariants = {}
    for name, (dim, gens) in workloads.base_groups(FIXTURES).items():
        gpath = SCRATCH / f"{name}.group"
        gpath.write_text(workloads.group_text(dim, gens))
        rec = records(["filter", str(gpath)])
        inv = {"order": rec["group"]["order"], "forced": rec["forced_critical_points"]["count"],
               "admissible": rec["admissible"]["value"]}
        if workloads.GROUP_VARIANTS[name][1]:
            cpath = SCRATCH / f"{name}.cat"
            cpath.write_text(workloads.catalog_text(name, dim, gens))
            verdict = records(["conjecture", str(cpath)])["verdict"]
            inv.update(status=verdict["status"], parts=verdict.get("parts"))
        invariants[name] = inv
    return {"planar_generators": planar, "invariants": invariants}


def _cyc_spec(rng, conductor):
    width = {3: 2, 4: 2, 5: 4}[conductor]
    return [conductor, [str(rng.randint(-2, 2)) for _ in range(width)]]


def continuation_cases():
    """Fill each stratum of the case table from a fixed-seed pool.

    Cyclotomic searches that end "unknown" take seconds and have no
    stratum, so they are skipped.
    """
    rng = random.Random(2201_10507)
    quota = {("int", "solvable"): 16, ("int", "unsolvable"): 36, ("int", "unknown"): 6,
             ("cyc", "solvable"): 10, ("cyc", "unsolvable"): 40}
    have = {k: 0 for k in quota}
    cases, seen = [], set()
    while any(have[k] < quota[k] for k in quota):
        kind = rng.choice(("int", "int", "cyc"))
        if kind == "int":
            lam, mu, nu = rng.randint(-3, 3), rng.choice((0, 0, 1, -1, 2)), rng.choice((0, 0, 1, -1))
            constants = [[1, [str(lam)]], [1, [str(mu)]], [1, [str(nu)]]]
            conductor = rng.choice((1, 3, 4))
        else:
            conductor = rng.choice((3, 4, 5))
            zero = [1, ["0"]]
            constants = [_cyc_spec(rng, conductor), rng.choice((_cyc_spec(rng, conductor), zero)),
                         rng.choice((_cyc_spec(rng, conductor), zero))]
        action = [[rng.choice((1, -1)), rng.randint(-4, 4)], [0, rng.choice((1, -1))]]
        parity = rng.choice(("even", "odd"))
        key = json.dumps([constants, action, parity, conductor])
        if key in seen:
            continue
        seen.add(key)
        op = {"kind": "continuation", "args": {"constants": constants, "action": action,
                                              "parity": parity, "conductor": conductor}}
        res = worker.execute(op, worker.prepare(op))
        if "exception" in res:
            continue
        stratum = (kind, res["status"])
        if stratum not in quota or have[stratum] >= quota[stratum]:
            continue
        have[stratum] += 1
        cases.append(dict(op["args"], status=res["status"]))
    return cases


def hessian_cases():
    """Rigid model potentials (plus a constant), which pass, and random invariant ones."""
    rng = random.Random(7)
    neg = [[-1, 0], [0, -1]]
    axis = [[1, 0], [0, -1]]
    triangle = [(1, 0), (0, 1), (-1, -1)]
    split = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    models = {
        "ORDER3": [{e: s for e in triangle} for s in (1, -1)],
        "ORDER2": [{(1, 1): 1, (-1, -1): 1}] + [dict(zip(split, (a, a, b, b))) for a, b in ((1, 1), (1, -1))],
        "ORDER2_F": [dict(zip(split, (a, a, b, b))) for a, b in ((1, 1), (-1, 1))],
    }
    kinds = {"ORDER3": [ROT3], "ORDER2": [neg], "ORDER2_F": [neg, axis]}
    cases = []
    for kind, gens in kinds.items():
        for i in range(6):
            if i < 3:
                terms = dict(models[kind][i % len(models[kind])])
                terms[(0, 0)] = rng.randint(1, 5)
            else:
                terms = workloads.orbit_terms(rng, 2, gens, 1 + i % 2, ())
            terms = sorted((c, e) for e, c in terms.items())
            op = {"kind": "hessian", "args": {"potential": laurent_text(2, terms), "kind": kind}}
            res = worker.execute(op, worker.prepare(op))
            assert "exception" not in res, res
            cases.append({"terms": terms, "kind": kind, "expect": res})
    return cases


def main():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    golden()
    (OUT / "toric.json").write_text(json.dumps(toric(), indent=1) + "\n")
    (OUT / "groups.json").write_text(json.dumps(groups(), indent=1) + "\n")
    table = {"cases": continuation_cases(), "hessian": hessian_cases()}
    (OUT / "continuation.json").write_text(json.dumps(table, indent=1) + "\n")
    for path in SCRATCH.iterdir():
        path.unlink()
    SCRATCH.rmdir()


if __name__ == "__main__":
    sys.exit(main())
