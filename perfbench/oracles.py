"""Answer checks that do not call lagmono.

Each check takes an operation's expectation and the raw result the worker
recorded (exit code, captured stdout, or a library result) and returns None
when the answer is right, or a one-line reason when it is wrong.  Exact
answers come from committed expected outputs and from invariants a seeded
transform must keep; the numeric checks use complex floats only where a
nonzero algebraic integer is provably far from zero (some Galois conjugate
of it has absolute value at least 1).
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"


def load_expected(name: str):
    return json.loads((EXPECTED / name).read_text())


# -- torus points and potentials ---------------------------------------------


def coprime_units(d: int) -> list[int]:
    return [k for k in range(1, d + 1) if math.gcd(k, d) == 1] if d > 1 else [1]


def parse_point(text: str) -> tuple[Fraction, ...]:
    inner = text.strip()[1:-1]
    return tuple(Fraction(part) for part in inner.split(","))


def log_gradient(terms, point) -> list[complex]:
    """Logarithmic partials sum c e_i exp(2 pi i <e, p>) at the point."""
    grad = [0j] * len(point)
    for coeff, expo in terms:
        z = cmath.exp(2j * math.pi * float(sum(e * p for e, p in zip(expo, point)) % 1))
        for i, e in enumerate(expo):
            grad[i] += coeff * e * z
    return grad


def is_critical_float(terms, point) -> bool:
    """Exact criticality decided with floats.

    Each logarithmic partial is an algebraic integer of Q(zeta_d), d the
    order of the point, and its Galois conjugates are its values at k * p for
    k coprime to d.  A nonzero algebraic integer has a conjugate of absolute
    value at least 1, so the partials all vanish exactly when every conjugate
    of every partial is below 1/2.
    """
    d = math.lcm(*(c.denominator for c in point))
    for k in coprime_units(d):
        if any(abs(g) >= 0.5 for g in log_gradient(terms, [k * c for c in point])):
            return False
    return True


def grid_points(dim: int, bound: int):
    if dim == 0:
        yield ()
        return
    for head in range(bound):
        for rest in grid_points(dim - 1, bound):
            yield (Fraction(head, bound),) + rest


def affine_hessian(terms, point) -> list[list[complex]]:
    """Second partials d^2 W / dz_i dz_j at z = exp(2 pi i p)."""
    n = len(point)
    zs = [cmath.exp(2j * math.pi * float(p)) for p in point]
    hess = [[0j] * n for _ in range(n)]
    for coeff, expo in terms:
        mono = coeff * math.prod(z ** e for z, e in zip(zs, expo))
        for i in range(n):
            for j in range(n):
                factor = expo[i] * (expo[j] - (1 if i == j else 0))
                hess[i][j] += factor * mono / (zs[i] * zs[j])
    return hess


_CYC_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?z(\d+)(?:\^(\d+))?")


def parse_cyclotomic(text: str) -> tuple[int, dict[int, Fraction]]:
    """Parse the printed form of a cyclotomic number into (conductor, {power: coeff})."""
    text = text.strip()
    lead = re.match(r"-?\d+(?:/\d+)?(?![\d*/z])", text)
    coeffs: dict[int, Fraction] = {}
    conductor = 1
    pos = 0
    if lead and not text[lead.end():lead.end() + 1] == "*":
        coeffs[0] = Fraction(lead.group(0))
        pos = lead.end()
    for m in _CYC_TERM.finditer(text, pos):
        sign = -1 if m.group(1) == "-" else 1
        mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        conductor = int(m.group(3))
        power = int(m.group(4)) if m.group(4) else 1
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * mag
    return conductor, coeffs


def cyc_value(conductor: int, coeffs: dict[int, Fraction], k: int = 1) -> complex:
    return sum(float(c) * cmath.exp(2j * math.pi * k * i / conductor) for i, c in coeffs.items())


# -- CLI output helpers ------------------------------------------------------------


def json_records(stdout: str) -> dict[str, dict]:
    out = {}
    for line in stdout.splitlines():
        record = json.loads(line)
        out.setdefault(record["record"], record)
    return out


def _cli_ok(result) -> str | None:
    if result.get("exception"):
        return f"raised {result['exception']}"
    if result["code"] != 0:
        return f"exit {result['code']}"
    return None


# -- checks --------------------------------------------------------------------


def check_golden(expect, result):
    bad = _cli_ok(result)
    if bad:
        return bad
    golden = (EXPECTED / "golden" / expect["golden"]).read_text()
    return None if result["stdout"] == golden else "output differs from the committed expected output"


def check_exit(expect, result):
    if result.get("exception"):
        return f"raised {result['exception']}"
    return None if result["code"] in expect["exit"] else f"exit {result['code']}, expected {expect['exit']}"


def check_toric(expect, result):
    bad = _cli_ok(result)
    if bad:
        return bad
    rec = json_records(result["stdout"])
    got = {
        "rank": rec["relations"]["rank"],
        "blocks": sorted(len(b) for b in rec["partition"]["blocks"]),
        "hamiltonian": rec["hamiltonian"]["order"],
        "symplectic": rec["symplectic"]["order"],
        "ham_mats": rec["hamiltonian"]["matrix_group_order"],
        "sym_mats": rec["symplectic"]["matrix_group_order"],
        "equal": rec["equal_groups"]["value"],
    }
    want = expect["toric"]
    diff = [k for k in want if got[k] != want[k]]
    if diff:
        return f"invariants differ: {diff} got {[got[k] for k in diff]} want {[want[k] for k in diff]}"
    return None


def check_filter(expect, result):
    bad = _cli_ok(result)
    if bad:
        return bad
    rec = json_records(result["stdout"])
    got = {
        "order": rec["group"]["order"],
        "forced": rec["forced_critical_points"]["count"],
        "admissible": rec["admissible"]["value"],
    }
    if len(rec["forced_critical_points"]["points"]) != got["forced"]:
        return "forced-point list and count disagree"
    want = expect["filter"]
    diff = [k for k in want if got[k] != want[k]]
    return f"filter differs: {diff} got {[got[k] for k in diff]}" if diff else None


def check_verdict(expect, result):
    bad = _cli_ok(result)
    if bad:
        return bad
    lines = [json.loads(line) for line in result["stdout"].splitlines()]
    verdicts = [r for r in lines if r["record"] == "verdict"]
    if len(verdicts) != 1:
        return f"{len(verdicts)} verdicts for one group"
    got = {"status": verdicts[0]["status"], "parts": verdicts[0].get("parts")}
    want = expect["verdict"]
    diff = [k for k in want if got[k] != want[k]]
    return f"verdict differs: {diff} got {[got[k] for k in diff]}" if diff else None


def check_crit(expect, result):
    bad = _cli_ok(result)
    if bad:
        return bad
    rec = json_records(result["stdout"])["critical_points"]
    got = sorted(parse_point(p) for p in rec["points"])
    if rec["count"] != len(got):
        return "critical-point list and count disagree"
    terms = [(c, tuple(e)) for c, e in expect["crit"]["terms"]]
    dim = len(terms[0][1])
    want = sorted(p for p in grid_points(dim, expect["crit"]["bound"]) if is_critical_float(terms, p))
    if got != want:
        return f"critical points differ: {len(got)} reported, {len(want)} by the float check"
    return None


def check_clifford(expect, result):
    spec = expect["clifford"]
    terms = [(c, tuple(e)) for c, e in spec["terms"]]
    point = tuple(Fraction(x) for x in spec["point"])
    if not is_critical_float(terms, point):
        return check_exit({"exit": [2]}, result)
    bad = _cli_ok(result)
    if bad:
        return bad
    rec = json_records(result["stdout"])["clifford"]
    hess = affine_hessian(terms, point)
    want = {"lam": -hess[0][0] / 2, "mu": -hess[0][1], "nu": -hess[1][1] / 2}
    half = False
    for key, value in want.items():
        conductor, coeffs = parse_cyclotomic(rec[key])
        if abs(cyc_value(conductor, coeffs) - value) > 1e-6:
            return f"{key}={rec[key]} but the float Hessian gives {value:.6g}"
        half |= any(c.denominator != 1 for c in coeffs.values())
    if rec["half_integral"] != half:
        return "half_integral flag disagrees with the constants"
    return None


def check_rk1(expect, result):
    bad = _cli_ok(result)
    if bad:
        return bad
    rec = json_records(result["stdout"])["rk1"]
    want = expect["rk1"]
    diff = [k for k in want if rec.get(k) != want[k]]
    return f"rk1 differs: {diff} got {[rec.get(k) for k in diff]}" if diff else None


def check_qform(expect, result):
    bad = _cli_ok(result)
    if bad:
        return bad
    rec = json_records(result["stdout"])["qform"]
    if rec["canonical"] != expect["qform"]["canonical"]:
        return f"canonical {rec['canonical']}, expected {expect['qform']['canonical']}"
    lam, mu2, nu = expect["qform"]["form"]
    m = [[lam, mu2], [mu2, nu]]
    u = json.loads(rec["transform"])
    canon = json.loads(rec["matrix"])
    if abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) != 1:
        return "transform is not unimodular"
    ut_m_u = [[sum(u[k][i] * m[k][l] * u[l][j] for k in range(2) for l in range(2)) for j in range(2)]
              for i in range(2)]
    return None if ut_m_u == canon else "transform does not carry the form to the canonical matrix"


def _clifford_mul(a, b, lam, mu, nu):
    """Product in the Clifford algebra u^2 = lam, v^2 = nu, uv + vu = mu, basis (1, u, v, uv)."""
    out = [0j] * 4
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            for k, c in _word_product(i, j, lam, mu, nu).items():
                out[k] += x * y * c
    return out


_WORDS = {0: "", 1: "u", 2: "v", 3: "uv"}


def _word_product(i, j, lam, mu, nu) -> dict[int, complex]:
    """Reduce the word basis[i] basis[j] to the basis by rewriting."""
    todo = [(_WORDS[i] + _WORDS[j], 1 + 0j)]
    out: dict[int, complex] = {}
    while todo:
        word, coeff = todo.pop()
        if "uu" in word:
            k = word.index("uu")
            todo.append((word[:k] + word[k + 2:], coeff * lam))
        elif "vv" in word:
            k = word.index("vv")
            todo.append((word[:k] + word[k + 2:], coeff * nu))
        elif "vu" in word:
            k = word.index("vu")
            todo.append((word[:k] + word[k + 2:], coeff * mu))
            todo.append((word[:k] + "uv" + word[k + 2:], -coeff))
        else:
            index = {"": 0, "u": 1, "v": 2, "uv": 3}[word]
            out[index] = out.get(index, 0) + coeff
    return out


def check_continuation(expect, result):
    if result.get("exception"):
        return f"raised {result['exception']}"
    want = expect["continuation"]["status"]
    # "unknown" is where a bounded search gave up; finding a witness there is
    # an improvement, and the witness is checked like any other.
    if result["status"] != want and not (want == "unknown" and result["status"] == "solvable"):
        return f"status {result['status']}, expected {want}"
    if result["status"] != "solvable":
        return None
    spec = expect["continuation"]
    constants = [(cond, {i: Fraction(c) for i, c in enumerate(coeffs)}) for cond, coeffs in spec["constants"]]
    witness = [(cond, {i: Fraction(c) for i, c in enumerate(coeffs)}) for cond, coeffs in result["witness"]]
    if any(c.denominator != 1 for _, w in witness for c in w.values()):
        return "witness is not integral"
    conductor = math.lcm(*(cond for cond, _ in constants + witness))
    (e1, m), (c21, e2) = spec["action"]
    sign = -1 if spec["parity"] == "odd" else 1
    norm_abs = 1.0
    for k in coprime_units(conductor):
        lam, mu, nu = (cyc_value(cond, co, k) for cond, co in constants)
        c = [cyc_value(cond, co, k) for cond, co in witness]
        u, v = [0, 1, 0, 0], [0, 0, 1, 0]
        act_u = [0, sign * e1, sign * m, 0]
        act_v = [0, sign * c21, sign * e2, 0]
        for gen, image in ((u, act_u), (v, act_v)):
            left = _clifford_mul(c, gen, lam, mu, nu)
            right = _clifford_mul(image, c, lam, mu, nu)
            if max(abs(x - y) for x, y in zip(left, right)) > 1e-7:
                return "witness does not satisfy the conjugation equations"
        if spec["parity"] == "odd":
            square = _clifford_mul(c, c, lam, mu, nu)
        else:
            conj = [c[0] + mu * c[3], 0, 0, -c[3]]
            square = _clifford_mul(c, conj, lam, mu, nu)
        if max(abs(x) for x in square[1:]) > 1e-7:
            return "witness norm is not a scalar"
        norm_abs *= abs(square[0])
    return None if abs(norm_abs - 1) < 1e-6 else f"witness norm has absolute value {norm_abs:.6g}, not a unit"


def check_hessian(expect, result):
    if result.get("exception"):
        return f"raised {result['exception']}"
    want = expect["hessian"]
    diff = [k for k in want if result.get(k) != want[k]]
    return f"hessian check differs: {diff}" if diff else None


CHECKS = {
    "golden": check_golden,
    "exit": check_exit,
    "toric": check_toric,
    "filter": check_filter,
    "verdict": check_verdict,
    "crit": check_crit,
    "clifford": check_clifford,
    "rk1": check_rk1,
    "qform": check_qform,
    "continuation": check_continuation,
    "hessian": check_hessian,
}


def check(expect: dict, result: dict) -> str | None:
    kind = next(k for k in expect if k in CHECKS)
    try:
        return CHECKS[kind](expect, result)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"
