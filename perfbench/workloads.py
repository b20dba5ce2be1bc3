"""Seeded inputs for the four workloads.

`build(workload, seed, root, fixtures)` writes one pass's input files under
`root` and returns the operations: each names a CLI argv (run in-process
through `lagmono.cli.run`) or a library call, and carries the expectation its
answer is checked against (see oracles.py).  The same seed gives the same
files and operations.  The mix of operation kinds and input sizes is fixed;
the seed draws the transforms (facet shuffles, changes of basis,
conjugations, Galois conjugations) and the random potentials, so runs on
different seeds do comparable work.  No input file repeats within a pass.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import oracles

# -- shared integer linear algebra ----------------------------------------------------


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def matvec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def transpose(a):
    return [list(col) for col in zip(*a)]


def unimodular(rng, n, steps=None):
    """A random U in GL(n, Z) with small entries, and its inverse.

    U is a signed permutation times `steps` elementary shears, n by default.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    p = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    p_inv = transpose(p)  # signed permutations are orthogonal
    u, inv = p, p_inv
    for _ in range(steps if steps is not None else n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        e = identity(n)
        e[i][j] = s
        e_inv = identity(n)
        e_inv[i][j] = -s
        u, inv = matmul(e, u), matmul(inv, e_inv)
    return u, inv


# -- text formats -----------------------------------------------------------------------


def poly_text(dim, mode, normals, offsets):
    lines = [f"dim {dim}", f"mode {mode}"]
    lines += ["facet " + " ".join(map(str, nu)) + f" {off}" for nu, off in zip(normals, offsets)]
    return "\n".join(lines) + "\n"


def parse_poly_text(text):
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    dim = int(lines[0][1])
    mode = lines[1][1]
    normals = [tuple(int(x) for x in ln[1:1 + dim]) for ln in lines[2:]]
    offsets = [Fraction(ln[-1]) for ln in lines[2:]]
    return dim, mode, normals, offsets


def gens_text(gens):
    out = []
    for g in gens:
        out.append("gen")
        out += [" ".join(map(str, row)) for row in g]
    return "\n".join(out) + "\n"


def group_text(dim, gens):
    return f"dim {dim}\n" + (gens_text(gens) if gens else "")


def catalog_text(name, dim, gens):
    return f"group {name}\n" + group_text(dim, gens)


def parse_catalog_text(text):
    """Groups of a catalog file as {name: (dim, generators)}."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    groups = {}
    i = 0
    while i < len(lines):
        name = lines[i][1]
        dim = int(lines[i + 1][1])
        i += 2
        gens = []
        while i < len(lines) and lines[i] == ["gen"]:
            gens.append([[int(x) for x in row] for row in lines[i + 1:i + 1 + dim]])
            i += 1 + dim
        groups[name] = (dim, gens)
    return groups


def laurent_text(dim, terms):
    return f"dim {dim}\n" + "".join(f"term {c} " + " ".join(map(str, e)) + "\n" for c, e in terms)


# -- base inputs --------------------------------------------------------------------------


def generated_polytopes():
    """Monotone polytopes from lagmono.polytopes beyond the shipped fixtures.

    cube4, a projective 4-space, products of projective spaces and blow-ups
    of the plane times a line, as {name: normals}.
    """
    from lagmono import polytopes

    def times_line(poly):
        return [nu + (0,) for nu in poly.normals] + [(0,) * poly.dim + (1,), (0,) * poly.dim + (-1,)]

    return {
        "cube4": list(polytopes.cube(4).normals),
        "cp4": list(polytopes.projective_space(4).normals),
        "cp2xcp2": list(polytopes.projective_product((2, 2)).normals),
        "cp1xcp3": list(polytopes.projective_product((1, 3)).normals),
        "cp1xcp1xcp2": list(polytopes.projective_product((1, 1, 2)).normals),
        "bl1cp2xcp1": times_line(polytopes.blowup_cp2(1)),
        "bl2cp2xcp1": times_line(polytopes.blowup_cp2(2)),
    }


SHIPPED_POLYTOPES = (
    "bl1cp2", "bl2cp2", "bl3cp2", "c2", "cp1xcp1", "cp2", "cp2xcp1",
    "cp3", "cube2", "cube3", "cxcp1", "orthant2", "orthant3", "orthant4",
)

# Transformed copies of each base polytope per pass.  The seven heaviest
# bases (0.1 to 1 s each) get one copy.  cp3, cube3, cp2xcp1, bl2cp2 and
# orthant4 (25 to 80 ms) get several, and the cheap bases (under 10 ms) many,
# so that the 90th percentile falls well inside a dense band of similar
# operations rather than at the edge of the heavy tail, where a change of
# basis moves it most.
#
# The one copy of a heavy base keeps its facet order and gets a signed
# permutation of coordinates and a translation only.  A facet shuffle or a
# shear moves its cost by up to a factor of two (cube4 0.8 to 1.1 s, bl3cp2
# 0.24 to 0.55 s), and these few operations take half of a pass, so they
# would let the seed rather than the program set ops_per_s.
TORIC_VARIANTS = {
    "bl1cp2": 16, "bl2cp2": 6, "bl3cp2": 1, "c2": 16, "cp1xcp1": 16, "cp2": 16, "cp2xcp1": 8,
    "cp3": 8, "cube2": 16, "cube3": 8, "cxcp1": 16, "orthant2": 16, "orthant3": 12, "orthant4": 4,
    "cube4": 1, "cp4": 1, "cp2xcp2": 1, "cp1xcp3": 1, "cp1xcp1xcp2": 1,
    "bl1cp2xcp1": 4, "bl2cp2xcp1": 1,
}

NON_SMOOTH = [(1, 0), (0, 1), (-1, -2)]  # weighted projective plane P(1,1,2)


def _perm_matrix(p):
    n = len(p)
    return [[int(p[j] == i) for j in range(n)] for i in range(n)]


def _diag(*d):
    return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]


def _companion(low):
    """Companion matrix of x^n + low[n-1] x^(n-1) + .. + low[0]."""
    n = len(low)
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = -low[i]
    return m


# Groups beyond the planar classes and the rank-3 catalog: the
# hyperoctahedral B3, and rank-4 groups (S4 permuting coordinates, the sign
# group of order 16, cyclic groups from the companions of Phi_5, Phi_8,
# Phi_10 and Phi_12).
EXTRA_GROUPS = {
    "B3": (3, [_diag(-1, 1, 1), _perm_matrix((1, 0, 2)), _perm_matrix((1, 2, 0))]),
    "S4": (4, [_perm_matrix((1, 0, 2, 3)), _perm_matrix((1, 2, 3, 0))]),
    "signs4": (4, [_diag(-1, 1, 1, 1), _diag(1, -1, 1, 1), _diag(1, 1, -1, 1), _diag(1, 1, 1, -1)]),
    "C5": (4, [_companion((1, 1, 1, 1))]),
    "C8": (4, [_companion((1, 0, 0, 0))]),
    "C10": (4, [_companion((1, -1, 1, -1))]),
    "C12": (4, [_companion((1, 0, -1, 0))]),
}

# Per pass: (filter copies, single-group conjecture copies) for each base
# group.  The rank-4 sign group has no conjecture copy, because its embedding
# search runs for minutes; S4 and B3 have none, because at 1 to 2 s each they
# would stretch a pass that their filter copies already cover.  The planar
# classes get many cheap copies, so that the 90th percentile falls inside the
# band of rank-3 operations rather than at the edge of the heavy tail.
GROUP_VARIANTS = {
    "1": (1, 1), "1f": (5, 4), "1t": (5, 4), "2": (2, 1), "2f": (5, 4), "2t": (5, 4), "3": (5, 4),
    "3f": (5, 4), "3t": (5, 4), "4": (5, 4), "4ft": (5, 4), "6": (5, 4), "6ft": (5, 4),
    "ext3-d0": (2, 2), "ext3-d1": (2, 2), "ext4-p-d0": (2, 2), "ext4-p-d1": (2, 2),
    "ext4-m-d0": (2, 2), "ext4-m-d1": (2, 2), "signs": (2, 1),
    "B3": (1, 0), "S4": (1, 0), "signs4": (1, 0),
    "C5": (2, 1), "C8": (2, 1), "C10": (2, 1), "C12": (2, 1),
}


# -- generators --------------------------------------------------------------------------------


class Pass:
    def __init__(self, workload, seed, root: Path, fixtures: Path):
        self.rng = random.Random(f"{workload}/{seed}")
        self.root = root
        self.fixtures = fixtures
        self.ops = []
        self.texts = set()
        root.mkdir(parents=True, exist_ok=True)

    def file(self, stem, suffix, text) -> str | None:
        """Write an input file; None if the same text was written before."""
        if text in self.texts:
            return None
        self.texts.add(text)
        path = self.root / f"{stem}-{len(self.texts)}{suffix}"
        path.write_text(text)
        return str(path)

    def cli(self, name, argv, expect, known_defect=None):
        op = {"id": name, "kind": "cli", "argv": argv, "expect": expect}
        if known_defect:
            op["known_defect"] = known_defect
        self.ops.append(op)

    def lib(self, name, call, args, expect):
        self.ops.append({"id": name, "kind": call, "args": args, "expect": expect})

    def unique(self, make, count, stem, suffix, tries=60):
        """Up to `count` distinct files from a seeded text generator."""
        paths = []
        for _ in range(tries):
            if len(paths) == count:
                break
            path = self.file(stem, suffix, make())
            if path:
                paths.append(path)
        return paths


def _toric(p: Pass):
    expected = oracles.load_expected("toric.json")
    for name in SHIPPED_POLYTOPES:
        path = str(p.fixtures / f"{name}.poly")
        p.cli(f"toric {name}", ["toric", path], {"golden": f"toric-{name}.out"})
    bases = {name: parse_poly_text((p.fixtures / f"{name}.poly").read_text()) for name in SHIPPED_POLYTOPES}
    for name, normals in generated_polytopes().items():
        bases[name] = (len(normals[0]), "compact", normals, [Fraction(1)] * len(normals))
    for name, count in TORIC_VARIANTS.items():
        dim, mode, normals, offsets = bases[name]

        heavy = count == 1

        def make():
            u, _ = unimodular(p.rng, dim, steps=0 if heavy else None)
            order = list(range(len(normals)))
            if not heavy:
                p.rng.shuffle(order)
            shift = [p.rng.randint(-1, 1) for _ in range(dim)] if mode == "compact" else [0] * dim
            new = [matvec(u, normals[j]) for j in order]
            # Translating by t adds <t, nu> to each offset of the moved normals.
            offs = [offsets[j] + sum(a * b for a, b in zip(shift, nu)) for j, nu in zip(order, new)]
            return poly_text(dim, mode, new, offs)

        for path in p.unique(make, count, name, ".poly"):
            p.cli(f"toric {name}~", ["--json", "toric", path], {"toric": expected[name]})

    def non_smooth():
        u, _ = unimodular(p.rng, 2)
        return poly_text(2, "compact", [matvec(u, nu) for nu in NON_SMOOTH], [1, 1, 1])

    for path in p.unique(non_smooth, 3, "nonsmooth", ".poly"):
        p.cli("toric non-smooth", ["toric", path], {"exit": [2]})


def base_groups(fixtures: Path):
    groups = dict(oracles.load_expected("groups.json")["planar_generators"])
    groups = {name: (2, gens) for name, gens in groups.items()}
    groups.update(parse_catalog_text((fixtures / "rank3_extensions.cat").read_text()))
    groups.update(EXTRA_GROUPS)
    return groups


def _closure(gens, dim):
    elems = {tuple(map(tuple, identity(dim)))}
    frontier = list(elems)
    while frontier:
        g = frontier.pop()
        for h in gens:
            x = tuple(map(tuple, matmul([list(r) for r in g], h)))
            if x not in elems:
                elems.add(x)
                frontier.append(x)
    return elems


def signed_permutations(dim):
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            yield [[signs[i] if perm[i] == j else 0 for j in range(dim)] for i in range(dim)]


def normaliser(dim, gens):
    """Signed permutations P with P G P^-1 = G."""
    group = _closure(gens, dim)
    out = []
    for u in signed_permutations(dim):
        u_inv = transpose(u)
        if all(tuple(map(tuple, matmul(matmul(u, g), u_inv))) in group for g in gens):
            out.append((u, u_inv))
    return out


def _conjugated(p: Pass, dim, gens, conjugators=None):
    """Generators conjugated by a seeded U, shuffled, maybe with a redundant product.

    Groups of rank 3 and 4 are conjugated within their signed-permutation
    normaliser: the forced-point search costs up to 2.5 times more after a
    shear, and the generators then change with the seed but the group, and
    so the work of a pass, does not.
    """
    u, u_inv = p.rng.choice(conjugators) if conjugators else unimodular(p.rng, dim)
    new = [matmul(matmul(u, g), u_inv) for g in gens]
    if new and p.rng.random() < 0.5:
        new.append(matmul(p.rng.choice(new), p.rng.choice(new)))
    p.rng.shuffle(new)
    return new


def _groups(p: Pass):
    expected = oracles.load_expected("groups.json")["invariants"]
    for name in ("axis_extension", "swap_extension"):
        p.cli(f"filter {name}", ["filter", str(p.fixtures / f"{name}.group")],
              {"golden": f"filter-{name}.out"})
    p.cli("conjecture rank3_extensions", ["conjecture", str(p.fixtures / "rank3_extensions.cat")],
          {"golden": "conjecture-rank3_extensions.out"})
    p.cli("classify2d", ["classify2d"], {"golden": "classify2d.out"})
    for name, (dim, gens) in base_groups(p.fixtures).items():
        n_filter, n_conj = GROUP_VARIANTS[name]
        want = expected[name]
        conjugators = normaliser(dim, gens) if dim > 2 else None
        for path in p.unique(lambda: group_text(dim, _conjugated(p, dim, gens, conjugators)), n_filter,
                             f"g-{name}", ".group"):
            p.cli(f"filter {name}~", ["--json", "filter", path],
                  {"filter": {k: want[k] for k in ("order", "forced", "admissible")}})
        for path in p.unique(lambda: catalog_text(name, dim, _conjugated(p, dim, gens, conjugators)), n_conj,
                             f"c-{name}", ".cat"):
            p.cli(f"conjecture {name}~", ["--json", "conjecture", path],
                  {"verdict": {k: want[k] for k in ("status", "parts")}})

    def non_unimodular():
        u, u_inv = unimodular(p.rng, 2)
        return group_text(2, [matmul(matmul(u, _diag(2, 1)), u_inv)])

    for path in p.unique(non_unimodular, 2, "nonunimodular", ".group"):
        p.cli("filter non-unimodular", ["filter", path], {"exit": [2]})
    path = p.file("dim0", ".cat", "group empty\ndim 0\n")
    p.cli("conjecture dim-0 catalog", ["conjecture", path], {"exit": [2, 3]},
          known_defect="catalog with dim 0")


# Torsion-grid potentials.  Families are invariant under a finite group so
# that they have forced critical points; a seeded change of basis then moves
# them off the coordinate axes.
ROT3 = [[0, -1], [1, -1]]  # exponent action of the order-3 rotation


def orbit_terms(rng, dim, group_gens, n_orbits, extra=()):
    terms = {}
    for e, c in extra:
        terms[e] = terms.get(e, 0) + c
    orbits = 0
    while orbits < n_orbits:
        e = tuple(rng.randint(-2, 2) for _ in range(dim))
        if not any(e) or e in terms:
            continue
        orbit, frontier = {e}, [e]
        while frontier:
            x = frontier.pop()
            for g in group_gens:
                y = matvec(g, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        if orbit & set(terms):
            continue
        c = rng.choice((1, -1, 2, -2, 3))
        for x in orbit:
            terms[x] = c
        orbits += 1
    return terms


def potential(rng, family):
    """Integer potential as [(coeff, exponent)], after a seeded change of basis."""
    if family == "T2":
        base = [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]
        terms = orbit_terms(rng, 2, [ROT3], 1, base)
        dim = 2
    elif family == "S2":
        terms = orbit_terms(rng, 2, [[[-1, 0], [0, -1]]], 2)
        dim = 2
    else:
        terms = orbit_terms(rng, 3, [[[-1, 0, 0], [0, -1, 0], [0, 0, -1]]], 3)
        dim = 3
    u, _ = unimodular(rng, dim)
    return sorted((c, matvec(u, e)) for e, c in terms.items())


# (family, bound) of each `potential crit` operation in a pass.  Nine large
# grids (about 0.05 to 1.8 s) sit above the 90th percentile and thirteen
# grids of bound 6 around it, so that the 90th percentile falls in the middle
# of a band of grids of similar cost.  Clifford operations are the bulk of a
# pass: at three critical and two non-critical points of each of 30
# potentials, so that the median falls among the critical ones.
#
# A grid's cost moves by up to a factor of two between potentials of one
# family, and the large grids take two thirds of a pass.  So each large grid
# is on a potential drawn once, the same for every seed, and the seed picks
# only a signed permutation of its exponents; that maps the torsion grid
# onto itself and keeps every exponent's size, so the cost stays the same.
LARGE_GRIDS = [
    ("T2", 9), ("T2", 12), ("T2", 18), ("T2", 24), ("S2", 10), ("S2", 16), ("S2", 20), ("S3", 6), ("S3", 8),
]
SMALL_GRIDS = [("T2", 6)] * 7 + [("S2", 6)] * 6
CLIFFORD_POTENTIALS = ["T2"] * 15 + ["S2"] * 15
CLIFFORD_POINTS = (3, 2)  # critical, non-critical points per potential


def _new_potential(p: Pass, family, stem):
    """A seeded potential of the family whose file text is new in this pass."""
    while True:
        terms = potential(p.rng, family)
        path = p.file(stem, ".laurent", laurent_text(len(terms[0][1]), terms))
        if path:
            return terms, path


def _grid(p: Pass):
    triangle = str(p.fixtures / "triangle_potential.laurent")
    for bound in (6, 12):
        p.cli(f"crit triangle {bound}", ["potential", "crit", triangle, "--bound", str(bound)],
              {"golden": f"crit-triangle-{bound}.out"})
    p.cli("clifford triangle", ["clifford", triangle, "--at", "1/3,1/3"], {"golden": "clifford-triangle.out"})
    for family, bound in LARGE_GRIDS:
        base = potential(random.Random(f"large-grid/{family}/{bound}"), family)
        dim = len(base[0][1])
        while True:
            u, _ = unimodular(p.rng, dim, steps=0)
            terms = sorted((c, matvec(u, e)) for c, e in base)
            path = p.file(f"w-{family}", ".laurent", laurent_text(dim, terms))
            if path:
                break
        p.cli(f"crit {family} {bound}", ["--json", "potential", "crit", path, "--bound", str(bound)],
              {"crit": {"terms": terms, "bound": bound}})
    for family, bound in SMALL_GRIDS:
        terms, path = _new_potential(p, family, f"w-{family}")
        p.cli(f"crit {family} {bound}", ["--json", "potential", "crit", path, "--bound", str(bound)],
              {"crit": {"terms": terms, "bound": bound}})
    for family in CLIFFORD_POTENTIALS:
        terms, path = _new_potential(p, family, f"c-{family}")
        grid = list(oracles.grid_points(2, 6))
        crit = [q for q in grid if oracles.is_critical_float(terms, q)]
        other = [q for q in grid if q not in crit]
        chosen = p.rng.sample(crit, CLIFFORD_POINTS[0])
        chosen += p.rng.sample(other, CLIFFORD_POINTS[1])
        for q in chosen:
            at = ",".join(str(x) for x in q)
            p.cli(f"clifford {family}", ["--json", "clifford", path, "--at", at],
                  {"clifford": {"terms": terms, "point": [str(x) for x in q]}})
    _, path = _new_potential(p, "T2", "c-bad")
    for at in ("1/0,1/2", "a,1/3"):
        p.cli("clifford malformed --at", ["clifford", path, "--at", at], {"exit": [3]})
    p.cli("clifford --at with one coordinate", ["clifford", path, "--at", "1/3"], {"exit": [2, 3]},
          known_defect="clifford --at with the wrong number of coordinates")
    one = p.file("one-var", ".laurent", laurent_text(1, [(p.rng.randint(2, 9), (0,)), (1, (1,)), (1, (-1,))]))
    p.cli("clifford one-variable", ["clifford", one, "--at", "1/2"], {"exit": [2, 3]},
          known_defect="clifford on a one-variable potential")


def _galois(k, conductor, coeffs):
    """Coefficients of sigma_k(x), where sigma_k sends zeta to zeta^k."""
    out = [0] * conductor
    for i, c in enumerate(coeffs):
        out[(i * k) % conductor] += int(c)
    return [str(c) for c in out]


def _rk1_expect(const, nonconst):
    """Rank-one shape read directly from the one-variable potential."""
    out = {"a": const}
    if len(nonconst) == 1:
        (k, b), = nonconst.items()
        out.update(case="MONOMIAL", b=b, k=abs(k), group_bound="[[1, Z], [0, +-1]]")
    elif set(nonconst) == {1, -1} and nonconst[1] == nonconst[-1] and nonconst[1] in (1, -1):
        out.update(case="SYMMETRIC_PM", sign=nonconst[1], group_bound="[[+-1, 2Z], [0, 1]]")
    else:
        out.update(case="RESIDUAL", group_bound="[[1, 2Z], [0, 1]]")
    return out


QFORMS = {"hyperbolic": (0, 1, 0), "diag(1,1)": (1, 0, 1), "diag(-1,-1)": (-1, 0, -1),
          "diag(1,-1)": (1, 0, -1)}
# Continuation cases per pass from each (kind, status) stratum of the
# committed case table; kinds are integer constants and cyclotomic constants
# of conductor 3, 4 and 5.  Strata are taken whole (None) except the cheap
# integer "unsolvable" one: the six slow "unknown" searches (0.15 to 0.55 s)
# and the cyclotomic cases, among which the 90th percentile falls, then run
# on every seed (Galois conjugated), so the seed does not move the tail.
CONTINUATION_DRAWS = {("int", "solvable"): None, ("int", "unsolvable"): 24, ("int", "unknown"): None,
                      ("cyc", "solvable"): None, ("cyc", "unsolvable"): None}
HESSIAN_DRAWS = 6
RK1_OPS = 20
QFORM_OPS = 20


def _continuation(p: Pass):
    p.cli("rk1 symmetric", ["potential", "rk1", str(p.fixtures / "symmetric_potential.laurent")],
          {"golden": "rk1-symmetric.out"})
    p.cli("qform 1 1 0", ["qform", "1", "1", "0"], {"golden": "qform-1-1-0.out"})
    table = oracles.load_expected("continuation.json")
    strata = {}
    for case in table["cases"]:
        kind = "int" if all(cond == 1 for cond, _ in case["constants"]) else "cyc"
        strata.setdefault((kind, case["status"]), []).append(case)
    chosen = []
    for stratum, count in CONTINUATION_DRAWS.items():
        chosen += p.rng.sample(strata[stratum], count or len(strata[stratum]))
    p.rng.shuffle(chosen)
    for case in chosen:
        # One k for the whole problem, so the constants are conjugated together.
        k = p.rng.choice(oracles.coprime_units(case["conductor"]))
        constants = [[cond, _galois(k, cond, co) if cond > 1 else co] for cond, co in case["constants"]]
        args = {"constants": constants, "action": case["action"], "parity": case["parity"],
                "conductor": case["conductor"]}
        p.lib(f"continuation {case['status']}", "continuation", args,
              {"continuation": dict(args, status=case["status"])})
    for case in p.rng.sample(table["hessian"], HESSIAN_DRAWS):
        args = {"potential": laurent_text(2, case["terms"]), "kind": case["kind"]}
        p.lib(f"hessian {case['kind']}", "hessian", args, {"hessian": case["expect"]})
    for i in range(RK1_OPS):
        shape = i % 3
        path = None
        while path is None:
            const = p.rng.randint(-5, 5)
            if shape == 0:
                nonconst = {p.rng.choice((1, 2, 3, 4, -1, -2, -3)): p.rng.choice((1, 2, 3, -1, -2, -3))}
            elif shape == 1:
                s = p.rng.choice((1, -1))
                nonconst = {1: s, -1: s}
            else:
                exponents = p.rng.sample((1, 2, 3, -1, -2), 3)
                nonconst = {k: p.rng.randint(1, 3) * p.rng.choice((1, -1)) for k in exponents}
            terms = [(const, (0,))] + [(c, (k,)) for k, c in nonconst.items()]
            path = p.file("rk1", ".laurent", laurent_text(1, terms))
        p.cli("potential rk1", ["--json", "potential", "rk1", path], {"rk1": _rk1_expect(const, nonconst)})
    seen = set()
    for i in range(QFORM_OPS):
        name = list(QFORMS)[i % 4]
        lam, mu2, nu = QFORMS[name]
        for _ in range(20):
            u, _ = unimodular(p.rng, 2, steps=3)
            m = matmul(matmul(transpose(u), [[lam, mu2], [mu2, nu]]), u)
            form = (m[0][0], m[0][1], m[1][1])
            if form not in seen:
                break
        seen.add(form)
        p.cli(f"qform {name}", ["--json", "qform", *map(str, form)],
              {"qform": {"canonical": name, "form": list(form)}})
    for form in ((2, 1, 2), (1, 0, 3)):
        p.cli("qform bad discriminant", ["qform", *map(str, form)], {"exit": [2]})


GENERATORS = {
    "toric-sweep": _toric,
    "group-screen": _groups,
    "torsion-grid": _grid,
    "continuation": _continuation,
}


def build(workload: str, seed: int, root: Path, fixtures: Path) -> list[dict]:
    p = Pass(workload, seed, root, fixtures)
    GENERATORS[workload](p)
    return p.ops
