"""Value semantics of lagmono's 24 immutable record classes.

Each class is pinned on its constructor (positional order, keyword names and
defaults), the fields it stores, equality within and across classes, the hash
of the tuple of its fields, the exact ``Name(field=value, ...)`` repr that
``cli._emit`` falls back to, and refusal of assignment.  ``CyclotomicNumber``
is also pinned on running ``__post_init__`` once per construction, which
perfbench's tracer counts.
"""

import inspect
from fractions import Fraction

import pytest

import lagmono
from lagmono.classify import ClassVerdict2D, ConjectureVerdict, GroupCatalog
from lagmono.cyclotomic import CyclotomicNumber
from lagmono.floer import (
    BinaryForm,
    CliffordData,
    CliffordElement,
    ContinuationResult,
    HessianCheckReport,
    HessianPointData,
    Rk1Report,
    ShearConstraints,
)
from lagmono.groups import MatrixGroup, PermutationGroup
from lagmono.intlat import IntMat, LatticeBasis
from lagmono.laurent import LaurentPolynomial
from lagmono.toric import DelzantPolytope, Mode, NormalPartition, ToricFiberData, ValidationReport, Vertex
from lagmono.torussym import FixedPointSet, TorsionPoint
from lagmono.value import Value

F = Fraction
M = IntMat(((1, 2), (3, 4)))
M_REPR = "IntMat(rows=((1, 2), (3, 4)))"
P = TorsionPoint((F(1, 3), F(1, 2)))
P_REPR = "TorsionPoint(coords=(Fraction(1, 3), Fraction(1, 2)))"
ONE, HALF = CyclotomicNumber(1, (1,)), CyclotomicNumber(1, (1,), 2)
ONE_REPR, HALF_REPR = "CyclotomicNumber(conductor=1, nums=(1,), den=1)", "CyclotomicNumber(conductor=1, nums=(1,), den=2)"
POLY = DelzantPolytope(1, ((1,), (-1,)), (F(1), F(1)))
POLY_REPR = "DelzantPolytope(dim=1, normals=((1,), (-1,)), offsets=(Fraction(1, 1), Fraction(1, 1)), mode=<Mode.COMPACT: 'compact'>)"
LATTICE = LatticeBasis(2, ((1, 1),))
LATTICE_REPR = "LatticeBasis(ambient=2, basis=((1, 1),))"
W = LaurentPolynomial(1, (((-1,), 1), ((1,), 1)))
W_REPR = "LaurentPolynomial(dim=1, terms=(((-1,), 1), ((1,), 1)))"
SHEARS = ShearConstraints("multiples", (2, 3))
SHEARS_REPR = "ShearConstraints(kind='multiples', divisors=(2, 3))"
GROUP = MatrixGroup(1, (IntMat(((1,),)), IntMat(((-1,),))))
GROUP_REPR = "MatrixGroup(dim=1, elements=(IntMat(rows=((1,),)), IntMat(rows=((-1,),))))"

# class -> (signature, field values in order, the same with one field changed, repr)
CASES = {
    IntMat: ("rows", (((1, 2), (3, 4)),), (((1, 2), (3, 5)),), M_REPR),
    LatticeBasis: ("ambient, basis", (2, ((1, 1),)), (2, ((1, 0),)), LATTICE_REPR),
    PermutationGroup: (
        "degree, elements", (2, ((0, 1), (1, 0))), (3, ((0, 1), (1, 0))),
        "PermutationGroup(degree=2, elements=((0, 1), (1, 0)))",
    ),
    MatrixGroup: ("dim, elements", (1, GROUP.elements), (1, GROUP.elements[:1]), GROUP_REPR),
    TorsionPoint: ("coords", ((F(1, 3), F(1, 2)),), ((F(1, 3), F(0)),), P_REPR),
    FixedPointSet: ("dim, points", (2, (P,)), (2, ()), f"FixedPointSet(dim=2, points=({P_REPR},))"),
    CyclotomicNumber: (
        "conductor, nums, den=1", (3, (1, 2), 5), (3, (1, 2), 7), "CyclotomicNumber(conductor=3, nums=(1, 2), den=5)",
    ),
    LaurentPolynomial: ("dim, terms", (1, W.terms), (1, W.terms[:1]), W_REPR),
    DelzantPolytope: (
        "dim, normals, offsets, mode=<Mode.COMPACT: 'compact'>", (1, POLY.normals, POLY.offsets, Mode.COMPACT),
        (1, POLY.normals, POLY.offsets, Mode.VERTEX_REQUIRED), POLY_REPR,
    ),
    Vertex: ("point, active", ((F(0), F(1, 2)), (0, 2)), ((F(0), F(1, 2)), (0, 1)),
             "Vertex(point=(Fraction(0, 1), Fraction(1, 2)), active=(0, 2))"),
    ValidationReport: (
        "ok, failure=None, witness=None, vertices=(), warnings=()", (False, "NOT_SIMPLE", "at (0, 0)", (), ("w",)),
        (False, "NOT_SIMPLE", "at (0, 0)", (), ()),
        "ValidationReport(ok=False, failure='NOT_SIMPLE', witness='at (0, 0)', vertices=(), warnings=('w',))",
    ),
    NormalPartition: ("size, blocks", (3, ((0, 1), (2,))), (3, ((0,), (1, 2))), "NormalPartition(size=3, blocks=((0, 1), (2,)))"),
    ToricFiberData: (
        "polytope, relations, potential", (POLY, LATTICE, W), (POLY, LatticeBasis(2, ()), W),
        f"ToricFiberData(polytope={POLY_REPR}, relations={LATTICE_REPR}, potential={W_REPR})",
    ),
    CliffordData: ("lam, mu, nu", (ONE, HALF, ONE), (ONE, ONE, ONE), f"CliffordData(lam={ONE_REPR}, mu={HALF_REPR}, nu={ONE_REPR})"),
    CliffordElement: (
        "a0, au, av, auv", (ONE, HALF, ONE, HALF), (ONE, HALF, ONE, ONE),
        f"CliffordElement(a0={ONE_REPR}, au={HALF_REPR}, av={ONE_REPR}, auv={HALF_REPR})",
    ),
    ContinuationResult: ("status, witness=None", ("unknown", None), ("unsolvable", None), "ContinuationResult(status='unknown', witness=None)"),
    BinaryForm: ("lam, mu2, nu", (1, 0, -1), (1, 0, 1), "BinaryForm(lam=1, mu2=0, nu=-1)"),
    ShearConstraints: ("kind, divisors=()", ("multiples", (2, 3)), ("multiples", (2,)), SHEARS_REPR),
    Rk1Report: (
        "case, group_bound, shears, a=None, b=None, k=None, sign=None, flipped=False",
        ("MONOMIAL", "C2", SHEARS, 1, -2, 3, -1, True), ("MONOMIAL", "C2", SHEARS, 1, -2, 3, -1, False),
        f"Rk1Report(case='MONOMIAL', group_bound='C2', shears={SHEARS_REPR}, a=1, b=-2, k=3, sign=-1, flipped=True)",
    ),
    HessianPointData: (
        "point, constants, normalized=None", (P, (ONE, HALF, ONE), None), (P, (ONE, HALF, ONE), (ONE, ONE, ONE)),
        f"HessianPointData(point={P_REPR}, constants=({ONE_REPR}, {HALF_REPR}, {ONE_REPR}), normalized=None)",
    ),
    HessianCheckReport: (
        "kind, status, form, epsilon=None, eps_pair=None, points=()", ("ORDER2", "PASS", "SPLIT", None, (1, -1), ()),
        ("ORDER2", "PASS", "SPLIT", None, (1, 1), ()),
        "HessianCheckReport(kind='ORDER2', status='PASS', form='SPLIT', epsilon=None, eps_pair=(1, -1), points=())",
    ),
    GroupCatalog: (
        "dim, entries, q_class=False", (1, (("a", GROUP),), True), (1, (("b", GROUP),), True),
        f"GroupCatalog(dim=1, entries=(('a', {GROUP_REPR}),), q_class=True)",
    ),
    ClassVerdict2D: (
        "name, admissible, witness, toric_tag, realized_by=()", ("2", False, (M, P), "IMPOSSIBLE", ()),
        ("2", True, None, "IMPOSSIBLE", ()),
        f"ClassVerdict2D(name='2', admissible=False, witness=({M_REPR}, {P_REPR}), toric_tag='IMPOSSIBLE', realized_by=())",
    ),
    ConjectureVerdict: (
        "name, status, witness=None, parts=None, embedding=None", ("g", "CASE2", None, (2, 3), None),
        ("g", "CASE2", None, (3,), None),
        "ConjectureVerdict(name='g', status='CASE2', witness=None, parts=(2, 3), embedding=None)",
    ),
}
CLASSES = list(CASES)


def names(cls) -> list[str]:
    return [part.split("=")[0] for part in CASES[cls][0].split(", ")]


def test_every_value_class_is_pinned():
    classes = {c for module in vars(lagmono).values() if inspect.ismodule(module) for c in vars(module).values()
               if inspect.isclass(c) and issubclass(c, Value) and c is not Value}
    assert classes == set(CLASSES) and len(CLASSES) == 24


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params) == CASES[cls][0]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_stored_in_order_by_position_or_keyword(cls):
    _, values, _, _ = CASES[cls]
    x = cls(*values)
    assert tuple(getattr(x, name) for name in names(cls)) == values
    assert cls(**dict(zip(names(cls), values))) == x


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_defaults(cls):
    signature, values, _, _ = CASES[cls]
    required = signature.count(", ") + 1 - signature.count("=")
    defaults = {p.name: p.default for p in inspect.signature(cls).parameters.values() if p.default is not p.empty}
    x = cls(*values[:required])
    assert {name: getattr(x, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    _, values, variant, _ = CASES[cls]
    x, y, z = cls(*values), cls(*values), cls(*variant)
    assert x == y and not x != y and hash(x) == hash(y) == hash(values)
    assert x != z and not x == z
    assert x.__eq__(values) is NotImplemented and x != values


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_inequality_across_classes(cls):
    x = cls(*CASES[cls][1])
    for other in CLASSES:
        if other is not cls:
            y = other(*CASES[other][1])
            assert x.__eq__(y) is NotImplemented and x != y


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr(cls):
    _, values, _, text = CASES[cls]
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_raises(cls):
    x = cls(*CASES[cls][1])
    for name in names(cls):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = None
    assert tuple(getattr(x, name) for name in names(cls)) == CASES[cls][1]


def test_value_hashes_match_their_field_tuples_in_sets():
    # Set and dict iteration orders follow hash(tuple of fields), so output built from them stays put.
    points = [TorsionPoint((F(a, 5), F(b, 7))) for a in range(5) for b in range(7)]
    assert [p.coords for p in set(points)] == [c for (c,) in set((p.coords,) for p in points)]


def test_construction_runs_post_init_once(monkeypatch):
    calls = []
    original = CyclotomicNumber.__post_init__

    def spy(*args, **kwargs):
        calls.append(args[0].__class__)
        return original(*args, **kwargs)

    monkeypatch.setattr(CyclotomicNumber, "__post_init__", spy)
    value = CyclotomicNumber(4, (1, Fraction(1, 2), 0, 0))
    assert calls == [CyclotomicNumber]
    assert (value.conductor, value.nums, value.den) == (4, (2, 1), 2)
