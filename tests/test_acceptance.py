"""Acceptance suite: one test per criterion, printing a pass line with timing.

All numeric checks are exact integer or rational equality; the only float
tolerance in the package is the gradient sanity check exercised in the unit
suite.  Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see
the pass lines).
"""

import itertools
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

from lagmono.classify import (
    catalog_n2,
    classify_n2,
    conjecture_filter,
    embed_symmetric_product,
    gl_order_feasible,
    ingest_catalog,
    toric_realized_labels,
)
from lagmono.cli import run
from lagmono.cyclotomic import CyclotomicNumber
from lagmono.floer import (
    BinaryForm,
    CliffordData,
    HYPERBOLIC,
    continuation_solvable,
    hessian_theorem_check,
    reduce_binary_form,
)
from lagmono.groups import MatrixGroup
from lagmono.intlat import IntMat, LatticeBasis
from lagmono.laurent import LaurentPolynomial, is_critical
from lagmono.monodromy import hamiltonian_monodromy, symplectic_monodromy
from lagmono.polytopes import STANDARD_FIXTURES
from lagmono.torussym import TorsionPoint, monomial_fixed_points
from lagmono.toric import toric_fiber_data
from test_classify import planar_class
from test_floer import clifford_data
from test_monodromy import permute_vector
from test_torussym import act

F = Fraction
rat = CyclotomicNumber.from_rational

W_CP2 = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
W_SQUARE = LaurentPolynomial.from_dict(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})


def fiber(name):
    return toric_fiber_data(STANDARD_FIXTURES[name])


def report(number, elapsed, text):
    print(f"PASS criterion {number} ({elapsed:.2f}s): {text}")


def test_criterion_01_blowup_example(capsys):
    start = time.monotonic()
    data = fiber("bl1cp2")
    ham = hamiltonian_monodromy(data)
    sym = symplectic_monodromy(data)
    assert ham.order == 2
    assert set(ham.elements) == {(0, 1, 2, 3), (2, 1, 0, 3)}
    assert sym == ham
    code = run(["toric", str(FIXTURES / "bl1cp2.poly")])
    out = capsys.readouterr().out
    assert code == 0 and "hamiltonian: order=2" in out and "(1 3)" in out
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, elapsed, "blow-up fibre has pointwise group {id, (1 3)} equal to setwise")


def test_criterion_02_products_of_spheres():
    start = time.monotonic()
    for n in (2, 3):
        data = fiber(f"cube{n}")
        assert hamiltonian_monodromy(data).order == 2**n
        assert symplectic_monodromy(data).order == 2**n * math.factorial(n)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, elapsed, "cube fibres give orders 2^n and 2^n n! for n = 2, 3")


def test_criterion_03_coordinate_tori():
    start = time.monotonic()
    for n in (2, 3, 4):
        data = fiber(f"orthant{n}")
        ham = hamiltonian_monodromy(data)
        sym = symplectic_monodromy(data)
        assert ham == sym
        assert ham.order == math.factorial(n)
        assert set(ham.elements) == set(itertools.permutations(range(n)))
    elapsed = time.monotonic() - start
    report(3, elapsed, "orthant fibres realise the full symmetric group S_n for n = 2, 3, 4")


def test_criterion_04_projective_spaces_and_products():
    start = time.monotonic()
    assert hamiltonian_monodromy(fiber("cp2")).order == 6
    assert hamiltonian_monodromy(fiber("cp3")).order == 24
    assert hamiltonian_monodromy(fiber("cp2xcp1")).order == 12
    elapsed = time.monotonic() - start
    report(4, elapsed, "projective fixtures give orders 6, 24 and the product gives 12")


def test_criterion_05_planar_classification(capsys):
    start = time.monotonic()
    verdicts = {v.name: v for v in classify_n2()}
    impossible = {name for name, v in verdicts.items() if not v.admissible}
    assert impossible == {"2t", "3t", "4", "4ft", "6", "6ft"}
    realized = toric_realized_labels()
    assert realized == {
        "1": ("bl2cp2", "bl3cp2"),
        "1f": ("cxcp1",),
        "1t": ("bl1cp2", "c2"),
        "2f": ("cp1xcp1",),
        "3f": ("cp2",),
    }
    for name in ("1", "1f", "1t", "2f", "3f"):
        assert verdicts[name].toric_tag == "TORIC_REALIZED"
    for name in ("2", "3"):
        assert verdicts[name].admissible
        assert verdicts[name].toric_tag == "TORIC_IMPOSSIBLE"
    code = run(["classify2d"])
    out = capsys.readouterr().out
    assert code == 0
    assert sum("tag=IMPOSSIBLE" in line for line in out.splitlines()) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(5, elapsed, "exactly six planar classes impossible, five toric, two open")


def test_criterion_06_fixed_point_counts():
    start = time.monotonic()
    minus_i = IntMat.from_rows([[-1, 0], [0, -1]])
    rot3 = IntMat.from_rows([[0, -1], [1, -1]])
    assert monomial_fixed_points([minus_i]).finite_points() == tuple(
        TorsionPoint.make((F(a, 2), F(b, 2))) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    assert monomial_fixed_points([rot3]).finite_points() == tuple(
        TorsionPoint.make((F(k, 3), F(k, 3))) for k in range(3)
    )
    ident = IntMat.identity(2)
    checked = 0
    for _, group in catalog_n2().entries:
        for g in group:
            gt = g.transpose()
            delta = IntMat.from_rows(
                [tuple(a - b for a, b in zip(r, i)) for r, i in zip(gt.rows, ident.rows)]
            )
            det = abs(delta.det())
            fixed = monomial_fixed_points([g])
            if det == 0:
                assert fixed.points is None
                continue
            points = fixed.finite_points()
            assert len(points) == det
            grid = [
                TorsionPoint.make((F(a, det), F(b, det)))
                for a in range(det)
                for b in range(det)
            ]
            assert points == tuple(sorted(p for p in grid if act(g, p) == p))
            checked += 1
    assert checked > 20
    elapsed = time.monotonic() - start
    report(6, elapsed, "fixed-point sets match determinant counts and brute force")


def test_criterion_07_hessian_rigidity():
    start = time.monotonic()
    triangle = hessian_theorem_check(W_CP2, "ORDER3")
    assert triangle.status == "PASS" and triangle.epsilon == 1
    assert len(triangle.points) == 3
    origin = next(p for p in triangle.points if p.point == TorsionPoint.make((0, 0)))
    assert origin.constants == (rat(-1), rat(-1), rat(-1))
    for entry in triangle.points:
        assert entry.normalized == (rat(-1), rat(-1), rat(-1))
    square = hessian_theorem_check(W_SQUARE, "ORDER2_F")
    assert square.status == "PASS"
    assert square.form == "SPLIT" and square.eps_pair == (1, 1)
    elapsed = time.monotonic() - start
    report(7, elapsed, "triangle potential rigid with unit sign; square splits with (1, 1)")


def test_criterion_08_continuation_and_cyclotomic_divisibility():
    start = time.monotonic()
    shear = lambda m: IntMat.from_rows([[1, m], [0, 1]])
    reflection = IntMat.from_rows([[-1, 0], [0, 1]])
    for conductor in (1, 3, 4, 5):
        for lam in (1, -1):
            data = clifford_data(lam, 0, 0)
            for m in range(-6, 7):
                result = continuation_solvable(data, shear(m), "even", conductor)
                assert result.status == ("solvable" if m % 2 == 0 else "unsolvable")
        for lam in range(-3, 4):
            data = clifford_data(lam, 0, 0)
            result = continuation_solvable(data, reflection, "odd", conductor)
            assert result.status == ("solvable" if lam in (1, -1) else "unsolvable")
    elapsed = time.monotonic() - start
    report(8, elapsed, "shear parity and unit-lambda rules hold")


def test_criterion_09_quadratic_forms():
    start = time.monotonic()
    canonicals = {HYPERBOLIC, BinaryForm(1, 0, 1), BinaryForm(-1, 0, -1), BinaryForm(1, 0, -1)}
    count = 0
    for lam, mu2, nu in itertools.product(range(-5, 6), repeat=3):
        form = BinaryForm(lam, mu2, nu)
        if form.discriminant() not in (1, -1):
            continue
        canonical, u = reduce_binary_form(form)
        assert canonical in canonicals
        assert abs(u.det()) == 1
        assert form.transform(u) == canonical
        count += 1
    assert count > 50
    canonical, _ = reduce_binary_form(BinaryForm(1, 1, 0))
    assert canonical == BinaryForm(1, 0, -1)
    elapsed = time.monotonic() - start
    report(9, elapsed, f"{count} small forms reduce to the four canonicals with verified transforms")


def test_criterion_10_rank3_filter():
    start = time.monotonic()
    catalog = ingest_catalog((FIXTURES / "rank3_extensions.cat").read_text(encoding="utf-8"))
    verdicts = {v.name: v for v in conjecture_filter(catalog)}
    for name, verdict in verdicts.items():
        if name == "signs":
            assert verdict.status in ("CASE2", "BOTH")
            assert verdict.parts == (2, 2, 2)
            assert verdict.embedding is not None
        else:
            assert verdict.status == "RULED_OUT"
            assert verdict.witness is not None
            element, point = verdict.witness
            assert act(element, point) != point
    assert [m for m in range(1, 13) if gl_order_feasible(m, 3)] == [1, 2, 3, 4, 6]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(10, elapsed, "rank-3 extensions all ruled out; sign group embeds with parts (2, 2, 2)")


def test_criterion_11_oracle_suites():
    start = time.monotonic()
    # Pointwise and setwise stabilisers against full permutation enumeration.
    for name in ("cp2", "bl1cp2", "cube2", "cp2xcp1", "bl2cp2", "cube3", "bl3cp2"):
        data = fiber(name)
        n = data.polytope.nfacets
        assert n <= 7
        pointwise, setwise = [], []
        for perm in itertools.permutations(range(n)):
            moved = [permute_vector(perm, row) for row in data.relations.basis]
            if all(m == row for m, row in zip(moved, data.relations.basis)):
                pointwise.append(perm)
            if LatticeBasis.from_vectors(n, moved) == data.relations:
                setwise.append(perm)
        assert list(hamiltonian_monodromy(data).elements) == sorted(pointwise), name
        assert list(symplectic_monodromy(data).elements) == sorted(setwise), name

    # Criticality against a termwise float gradient oracle.
    rng = random.Random(1234)
    checked = 0
    import cmath

    for _ in range(200):
        dim = rng.choice([1, 2])
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(-3, 3) for _ in range(dim))
            terms[e] = rng.randint(-4, 4)
        w = LaurentPolynomial.from_dict(dim, terms)
        p = TorsionPoint.make(
            F(rng.randint(0, 7), rng.choice([1, 2, 4, 8])) for _ in range(dim)
        )
        x = [cmath.exp(2j * cmath.pi * complex(c)) for c in p.coords]
        float_grad = []
        for i in range(dim):
            total = 0j
            for e, c in w.terms:
                if e[i] == 0:
                    continue
                mono = complex(c * e[i])
                for j in range(dim):
                    mono *= x[j] ** (e[j] - (1 if j == i else 0))
                total += mono
            float_grad.append(total)
        assert is_critical(w, p) == all(abs(v) < 1e-9 for v in float_grad)
        checked += 1
    assert checked == 200

    # Embedding witnesses re-verified on the full multiplication table.
    klein = MatrixGroup.from_generators(
        2, [IntMat.from_rows([[-1, 0], [0, 1]]), IntMat.from_rows([[1, 0], [0, -1]])]
    )
    for group, parts in ((klein, (2, 2)), (planar_class("3f"), (3,))):
        embedding = embed_symmetric_product(group, parts)
        assert embedding is not None
        images = dict(embedding)
        assert len(set(images.values())) == group.order
        for a in group:
            for b in group:
                composed = tuple(
                    tuple(pa[pb[i]] for i in range(len(pb)))
                    for pa, pb in zip(images[a], images[b])
                )
                assert composed == images[a @ b]
    elapsed = time.monotonic() - start
    report(11, elapsed, "stabiliser, criticality and embedding oracles all agree")
