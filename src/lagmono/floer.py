"""Rank-2 Clifford algebras over cyclotomic integers and their obstructions.

The self-Floer cohomology of a monotone 2-torus at a critical local system is
a Clifford algebra on two odd generators u, v with u^2 = lam, uv + vu = mu,
v^2 = nu, where (lam, mu, nu) is -1/2 times the Hessian of the potential.
Conjugation by an integrally invertible continuation element realises each
monodromy action; solvability of those conjugation equations over Z[zeta]
yields divisibility obstructions.  The equations and the norm that decides
invertibility are the product multiplied out once, in closed form, and every
continuation element reported is checked against the product itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Literal, Sequence

from .cyclotomic import CyclotomicNumber, _polydivmod, cyclotomic_polynomial, euler_phi_table
from .errors import (
    BadDiscriminantError,
    DimensionError,
    NotCriticalError,
    NotInvariantError,
    NotUnivariateError,
    UnsupportedActionError,
)
from .intlat import IntMat, hermite_normal_form, primitive_vector
from .laurent import LaurentPolynomial, _first_partials, evaluate, invariance_check, is_critical
from .torussym import TorsionPoint
from .value import Value

Cyc = CyclotomicNumber
SEARCH_HEIGHT = 50  # the largest coefficient height continuation_solvable's bounded search tries


class CliffordData(Value):
    """Structure constants u^2 = lam, uv + vu = mu, v^2 = nu."""

    __slots__ = ("lam", "mu", "nu")

    def __init__(self, lam: Cyc, mu: Cyc, nu: Cyc):
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @property
    def half_integral(self) -> bool:
        """Some constant leaves the cyclotomic integers, as odd mixed second partials allow."""
        return not all(c.is_integral() for c in self.constants())

    def constants(self) -> tuple[Cyc, Cyc, Cyc]:
        return (self.lam, self.mu, self.nu)


class CliffordElement(Value):
    """a0 + au u + av v + auv uv in a fixed CliffordData."""

    __slots__ = ("a0", "au", "av", "auv")

    def __init__(self, a0: Cyc, au: Cyc, av: Cyc, auv: Cyc):
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "au", au)
        object.__setattr__(self, "av", av)
        object.__setattr__(self, "auv", auv)

    @classmethod
    def even(cls, p: Cyc | int, q: Cyc | int) -> "CliffordElement":
        return cls(_cyc(p), Cyc.zero(), Cyc.zero(), _cyc(q))

    @classmethod
    def odd(cls, s: Cyc | int, t: Cyc | int) -> "CliffordElement":
        return cls(Cyc.zero(), _cyc(s), _cyc(t), Cyc.zero())

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in (self.a0, self.au, self.av, self.auv))

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in (self.a0, self.au, self.av, self.auv))

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return CliffordElement(
            self.a0 - other.a0, self.au - other.au, self.av - other.av, self.auv - other.auv
        )

    def scale(self, c: Cyc | int) -> "CliffordElement":
        c = _cyc(c)
        return CliffordElement(self.a0 * c, self.au * c, self.av * c, self.auv * c)


def _cyc(x) -> Cyc:
    return x if isinstance(x, Cyc) else Cyc.from_rational(x)


def clifford_mul(a: CliffordElement, b: CliffordElement, d: CliffordData) -> CliffordElement:
    """Product reduced to the basis 1, u, v, uv via vu = mu - uv."""
    lam, mu, nu = d.lam, d.mu, d.nu
    c0 = (
        a.a0 * b.a0
        + lam * a.au * b.au
        + mu * a.av * b.au
        + nu * a.av * b.av
        - lam * nu * a.auv * b.auv
    )
    cu = a.a0 * b.au + a.au * b.a0 + mu * a.auv * b.au - nu * a.av * b.auv + nu * a.auv * b.av
    cv = a.a0 * b.av + a.av * b.a0 + lam * a.au * b.auv + mu * a.av * b.auv - lam * a.auv * b.au
    cuv = a.a0 * b.auv + a.auv * b.a0 + a.au * b.av - a.av * b.au + mu * a.auv * b.auv
    return CliffordElement(c0, cu, cv, cuv)


def clifford_constants(w: LaurentPolynomial, p: TorsionPoint) -> CliffordData:
    """-1/2 times the Hessian of w at a critical torsion point.

    Values may leave the cyclotomic integers when mixed second partials are
    odd; that is reported through the half_integral flag, not rejected.
    """
    if w.dim != 2:
        raise DimensionError("Clifford constants need a two-variable potential")
    if not is_critical(w, p):
        raise NotCriticalError(f"{p} is not a critical point")
    first, second = _first_partials(w)
    lam = evaluate(first.partial(0), p) * Fraction(-1, 2)
    mu = -evaluate(first.partial(1), p)
    nu = evaluate(second.partial(1), p) * Fraction(-1, 2)
    return CliffordData(lam, mu, nu)


# ---------------------------------------------------------------------------
# Continuation elements


class ContinuationResult(Value):
    __slots__ = ("status", "witness")

    def __init__(self, status: Literal["solvable", "unsolvable", "unknown"], witness: CliffordElement | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)


def _action_images(action: IntMat) -> tuple[int, int, int]:
    """Split an upper-triangular unimodular action into (eps1, m, eps2)."""
    if action.nrows != 2 or action.ncols != 2:
        raise UnsupportedActionError("action must be a 2x2 matrix")
    (a, m), (c, e) = action.rows
    if c != 0 or a not in (1, -1) or e not in (1, -1):
        raise UnsupportedActionError(
            f"action {action} is not upper-triangular with unit diagonal"
        )
    return a, m, e


def _conjugation_residuals(
    c: CliffordElement, d: CliffordData, action: IntMat, parity: str
) -> list[CliffordElement]:
    """c a - sign(action(a)) c for a = u, v; zero exactly for continuation elements."""
    eps1, m, eps2 = _action_images(action)
    sign = -1 if parity == "odd" else 1
    u = CliffordElement.odd(1, 0)
    v = CliffordElement.odd(0, 1)
    action_u = CliffordElement.odd(eps1, m).scale(sign)
    action_v = CliffordElement.odd(0, eps2).scale(sign)
    return [
        clifford_mul(c, u, d) - clifford_mul(action_u, c, d),
        clifford_mul(c, v, d) - clifford_mul(action_v, c, d),
    ]


def _parity_norm(c: CliffordElement, d: CliffordData, parity: str) -> Cyc:
    """Scalar whose unit-ness decides integral invertibility: c^2 when odd, c conj(c) when even."""
    if parity == "odd":
        prod = clifford_mul(c, c, d)
    else:
        prod = clifford_mul(c, CliffordElement.even(c.a0 + d.mu * c.auv, -c.auv), d)
    assert prod.au.is_zero() and prod.av.is_zero() and prod.auv.is_zero()
    return prod.a0


def _norm_form(d: CliffordData, parity: str) -> tuple[Cyc, Cyc, Cyc]:
    """(A, B, C) with _parity_norm(x1 e1 + x2 e2) = A x1^2 + B x1 x2 + C x2^2.

    The coefficients are central, so (s u + t v)^2 = lam s^2 + mu s t + nu t^2,
    and (uv)^2 = mu uv - lam nu gives
    (p + q uv)(p + mu q - q uv) = p^2 + mu p q + lam nu q^2.
    """
    if parity == "odd":
        return d.lam, d.mu, d.nu
    return Cyc.one(), d.mu, d.lam * d.nu


def _form_value(form: tuple[Cyc, Cyc, Cyc], x1, x2) -> Cyc:
    a, b, c = form
    return a * (x1 * x1) + b * (x1 * x2) + c * (x2 * x2)


def _residual_columns(
    d: CliffordData, action: IntMat, parity: str
) -> tuple[list[Cyc], list[Cyc]]:
    """Coordinates of _conjugation_residuals(e, d, action, parity) for the parity basis e1, e2.

    Each column lists the 1, u, v, uv coordinates of c u - s action(u) c and
    then of c v - s action(v) c, with s = -1 for odd c in {u, v} and s = 1
    for even c in {1, uv}.  Multiplied out with vu = mu - uv, u^2 = lam and
    v^2 = nu, every coordinate is an integer combination of 1, lam, mu, nu
    read off from action = [[eps1, m], [0, eps2]].
    """
    eps1, m, eps2 = _action_images(action)
    zero = Cyc.zero()

    def comb(k: int, a: int = 0, b: int = 0, c: int = 0) -> Cyc:
        """k + a lam + b mu + c nu."""
        total = Cyc.from_rational(k)
        for coeff, x in ((a, d.lam), (b, d.mu), (c, d.nu)):
            if coeff:
                total = total + x * coeff
        return total

    if parity == "odd":
        # u u = lam, v u = mu - uv, u v = uv, v v = nu
        col_u = [comb(0, 1 + eps1, m), zero, zero, comb(-m), comb(0, 0, eps2), zero, zero, comb(1 - eps2)]
        col_v = [comb(0, 0, 1, m), zero, zero, comb(eps1 - 1), comb(0, 0, 0, 1 + eps2), zero, zero, zero]
        return col_u, col_v
    # uv u = mu u - lam v, uv v = nu u, u uv = lam v, v uv = mu v - nu u
    col_1 = [zero, comb(1 - eps1), comb(-m), zero, zero, zero, comb(1 - eps2), zero]
    col_uv = [zero, comb(0, 0, 1, m), comb(0, -1 - eps1, -m), zero,
              zero, comb(0, 0, 0, 1 + eps2), comb(0, 0, -eps2), zero]
    return col_1, col_uv


def _two_column_kernel(rows: Sequence[Sequence[Cyc]]) -> list[tuple[Cyc, Cyc]]:
    """Basis over Q(zeta) of {(x1, x2) : a x1 + b x2 = 0 for every row (a, b)}.

    With no nonzero row every pair solves.  Otherwise the first nonzero row
    (a, b) leaves (-b/a, 1), or (1, 0) when a = 0, unless some row (c, e)
    has a nonzero minor a e - b c and only zero solves.
    """
    first = next(((a, b) for a, b in rows if a or b), None)
    if first is None:
        return [(Cyc.one(), Cyc.zero()), (Cyc.zero(), Cyc.one())]
    a, b = first
    if any(a * e - b * c for c, e in rows):
        return []
    return [(-b / a, Cyc.one())] if a else [(Cyc.one(), Cyc.zero())]


def _solution_space(d: CliffordData, action: IntMat, parity: str) -> list[tuple[Cyc, Cyc]]:
    """Basis over Q(zeta) of the parity-homogeneous conjugation solutions.

    The equations are linear in the coefficient pair (x1, x2) of
    x1 e1 + x2 e2, so their rows are the residual coordinates of the two
    parity basis elements e1 and e2, side by side.
    """
    return _two_column_kernel(list(zip(*_residual_columns(d, action, parity))))


def _element_from_pair(pair: tuple[Cyc | int, Cyc | int], parity: str) -> CliffordElement:
    if parity == "odd":
        return CliffordElement.odd(pair[0], pair[1])
    return CliffordElement.even(pair[0], pair[1])


def continuation_solvable(
    d: CliffordData,
    action: IntMat,
    parity: Literal["even", "odd"],
    conductor: int,
) -> ContinuationResult:
    """Decide existence of an integral continuation element for the action.

    The element c must be parity-homogeneous with coefficients in the
    cyclotomic integers of the given conductor, invertible with integral
    inverse, and satisfy c a = (-1)^parity action(a) c for a = u, v.  The
    relations and the norm come in closed form from the Clifford product,
    which checks every witness before it is returned.  With mu = nu = 0 and
    lam a rational integer, a divisibility closed form decides the even
    shear [[1, m], [0, 1]] and the odd reflection [[-1, m], [0, 1]];
    otherwise a bounded search over rational-integer coefficient pairs
    either produces a verified witness or the result is reported unknown.
    The solutions form a two-dimensional space only when lam = mu = nu = 0
    under the identity action, where every residual row vanishes: the closed
    form decides that case when even, and the parity-norm form is zero when
    odd, so the search only ever meets a line.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    eps1, m, eps2 = _action_images(action)
    for value in d.constants():
        if conductor % value.conductor != 0:
            raise ValueError(
                f"constants live in conductor {value.conductor}, not {conductor}"
            )

    shape = (parity, eps1, eps2) in (("even", 1, 1), ("odd", -1, 1))
    if shape and d.mu.is_zero() and d.nu.is_zero() and d.lam.is_rational() and d.lam.is_integral():
        lam = d.lam.nums[0]
        # Even c = p + q uv with p a unit and m p = -2 q lam; integrality over
        # any cyclotomic ring pins m to a multiple of 2 lam by coordinatewise
        # divisibility on the power basis.
        # Odd c = s u + t v with c^2 = lam s^2 a unit, forcing lam = +-1, and
        # m s = -2 t, forcing m even.
        step = 2 * lam if parity == "even" else 2
        q, r = divmod(m, step) if step else (0, m)
        if r == 0 and (parity == "even" or lam in (1, -1)):
            c = _element_from_pair((1, -q), parity)
            assert _verify_witness(c, d, action, parity)
            return ContinuationResult("solvable", c)
        return ContinuationResult("unsolvable")

    solutions = _solution_space(d, action, parity)
    if not solutions:
        return ContinuationResult("unsolvable")
    # If the parity norm vanishes identically on the solution space no
    # invertible element exists at all.
    form = _norm_form(d, parity)
    if all(_form_value(form, x1, x2).is_zero() for x1, x2 in solutions):
        return ContinuationResult("unsolvable")
    found = _bounded_search(d, action, parity, SEARCH_HEIGHT, solutions)
    if found is not None:
        return ContinuationResult("solvable", found)
    return ContinuationResult("unknown")


def _verify_witness(
    c: CliffordElement, d: CliffordData, action: IntMat, parity: str
) -> bool:
    if not c.is_integral():
        return False
    residuals = _conjugation_residuals(c, d, action, parity)
    if not all(r.is_zero() for r in residuals):
        return False
    return _parity_norm(c, d, parity).is_integral_unit()


def _bounded_search(
    d: CliffordData, action: IntMat, parity: str, height: int, solutions: list[tuple[Cyc, Cyc]]
) -> CliffordElement | None:
    """Search the rational-integer coefficient pairs of the solution line by increasing height.

    The space is one-dimensional whenever continuation_solvable searches it
    (see there).  A pair is screened by the parity-norm form, and the first
    one it takes to an integral unit is checked by the Clifford product
    itself before it is returned.
    """
    form = _norm_form(d, parity)
    for x1, x2 in _line_points(solutions, height):
        if _form_value(form, x1, x2).is_integral_unit():
            c = _element_from_pair((Cyc.from_rational(x1), Cyc.from_rational(x2)), parity)
            assert _verify_witness(c, d, action, parity)
            return c
    return None


def _line_points(solutions: list[tuple[Cyc, Cyc]], height: int):
    """Nonzero integer points of the line spanned by the one solution (v1, v2), by height up to height.

    The search only meets one-dimensional spaces (see continuation_solvable).
    The points are (0, +-h) when v1 = 0 and +-k (q, p) when v2 / v1 = p / q
    in lowest terms with q > 0; an irrational slope leaves none.
    """
    (v1, v2), = solutions
    slope = None if v1.is_zero() else v2 / v1
    if slope is not None and not slope.is_rational():
        return
    q, p = (0, 1) if slope is None else primitive_vector((1, slope.as_rational()))
    for k in range(1, height // max(q, abs(p)) + 1):
        yield -k * q, -k * p
        yield k * q, k * p


# ---------------------------------------------------------------------------
# Binary quadratic forms


class BinaryForm(Value):
    """Symmetric matrix [[lam, mu2], [mu2, nu]] with integer entries."""

    __slots__ = ("lam", "mu2", "nu")

    def __init__(self, lam: int, mu2: int, nu: int):
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "nu", nu)

    def matrix(self) -> IntMat:
        return IntMat.from_rows([[self.lam, self.mu2], [self.mu2, self.nu]])

    def discriminant(self) -> int:
        return self.mu2 * self.mu2 - self.lam * self.nu

    def transform(self, u: IntMat) -> "BinaryForm":
        m = u.transpose() @ self.matrix() @ u
        return BinaryForm(m.rows[0][0], m.rows[0][1], m.rows[1][1])


HYPERBOLIC = BinaryForm(0, 1, 0)


def reduce_binary_form(q: BinaryForm) -> tuple[BinaryForm, IntMat]:
    """Reduce a unimodular-discriminant form to its canonical representative.

    Discriminant -1 forms are definite and Gauss-reduce to plus or minus the
    identity; discriminant +1 forms are isotropic and reduce to the
    hyperbolic form when even, diag(1, -1) when odd.  Returns the canonical
    form and a unimodular u with u^T q u canonical.
    """
    disc = q.discriminant()
    if disc == -1:
        return _reduce_definite(q)
    if disc == 1:
        return _reduce_isotropic(q)
    raise BadDiscriminantError(f"discriminant {disc} is not +1 or -1")


def _reduce_definite(q: BinaryForm) -> tuple[BinaryForm, IntMat]:
    sign = 1 if q.lam > 0 else -1
    current = q if sign == 1 else BinaryForm(-q.lam, -q.mu2, -q.nu)
    u = IntMat.identity(2)
    while True:
        if current.lam > current.nu:
            s = IntMat.from_rows([[0, -1], [1, 0]])
            current, u = current.transform(s), u @ s
            continue
        if 2 * abs(current.mu2) > current.lam:
            k = round(Fraction(-current.mu2, current.lam))
            t = IntMat.from_rows([[1, k], [0, 1]])
            current, u = current.transform(t), u @ t
            continue
        break
    assert current == BinaryForm(1, 0, 1)
    canonical = BinaryForm(sign, 0, sign)
    assert q.transform(u) == canonical
    return canonical, u


def _reduce_isotropic(q: BinaryForm) -> tuple[BinaryForm, IntMat]:
    # First basis vector: a primitive isotropic direction (rational roots
    # exist because the discriminant is a perfect square).
    if q.lam == 0:
        iso = (1, 0)
    else:
        num, den = -q.mu2 + 1, q.lam
        g = math.gcd(num, den)
        iso = (num // g, den // g) if g else (num, den)
    p, r = iso
    h, v = hermite_normal_form(IntMat.from_rows([[p], [r]]))
    assert h.rows[0] == (1,), "isotropic vector must be primitive"
    x, y = v.rows[0]
    u1 = IntMat.from_rows([[p, -y], [r, x]])
    assert u1.det() == 1
    step = q.transform(u1)
    assert step.lam == 0 and step.mu2 in (1, -1)
    b, c = step.mu2, step.nu
    if c % 2 == 0:
        t = IntMat.from_rows([[1, -(c // (2 * b))], [0, 1]])
        step2 = step.transform(t)
        u = u1 @ t
        if step2.mu2 == -1:
            flip = IntMat.from_rows([[-1, 0], [0, 1]])
            step2, u = step2.transform(flip), u @ flip
        assert step2 == HYPERBOLIC
        canonical = HYPERBOLIC
    else:
        t = IntMat.from_rows([[1, (1 - c) // (2 * b)], [0, 1]])
        step2 = step.transform(t)
        assert step2.nu == 1
        final = IntMat.from_rows([[0, 1], [1, -step2.mu2]])
        u = u1 @ t @ final
        canonical = BinaryForm(1, 0, -1)
        assert step2.transform(final) == canonical
    assert q.transform(u) == canonical
    assert abs(u.det()) == 1
    return canonical, u


# ---------------------------------------------------------------------------
# Rank-one classifier


class ShearConstraints(Value):
    """Admissible off-diagonal entries m in an upper-triangular monodromy.

    kind 'any' places no constraint, 'multiples' requires every listed
    divisor to divide m, and 'zero' allows only m = 0.
    """

    __slots__ = ("kind", "divisors")

    def __init__(self, kind: Literal["any", "multiples", "zero"], divisors: tuple[int, ...] = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "divisors", divisors)

    def modulus(self) -> int | None:
        if self.kind != "multiples":
            return None
        return math.lcm(*self.divisors) if self.divisors else 1


class Rk1Report(Value):
    __slots__ = ("case", "group_bound", "shears", "a", "b", "k", "sign", "flipped")

    def __init__(
        self,
        case: Literal["MONOMIAL", "SYMMETRIC_PM", "RESIDUAL"],
        group_bound: str,
        shears: ShearConstraints,
        a: int | None = None,
        b: int | None = None,
        k: int | None = None,
        sign: int | None = None,
        flipped: bool = False,
    ):
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "group_bound", group_bound)
        object.__setattr__(self, "shears", shears)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "flipped", flipped)


def _extract_univariate(w: LaurentPolynomial) -> dict[int, int]:
    """Exponent-to-coefficient map of a genuinely one-variable potential."""
    if w.dim not in (1, 2):
        raise NotUnivariateError("rank-one analysis needs one or two variables")
    for axis in range(w.dim):
        if not any(x for e, _ in w.terms for j, x in enumerate(e) if j != axis):
            return {e[axis]: c for e, c in w.terms}
    raise NotUnivariateError("potential mixes both variables")


def _cyclotomic_factor_profile(poly: dict[int, int]) -> tuple[int, list[int]] | None:
    """Write a one-variable Laurent polynomial as c x^k prod Phi_d(x).

    Returns (c, sorted distinct d list) when the polynomial part is exactly a
    product of distinct cyclotomic polynomials, None otherwise (repeated or
    non-root-of-unity roots).
    """
    if not poly:
        return None
    low = min(poly)
    coeffs = [0] * (max(poly) - low + 1)
    for e, c in poly.items():
        coeffs[e - low] = c
    content = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    coeffs = [c // content for c in coeffs]
    if coeffs[-1] != 1 or abs(coeffs[0]) != 1:
        return None  # a product of Phi_d is monic with constant term +-1
    degree = len(coeffs) - 1
    found: list[int] = []
    # phi(d) grows at least like sqrt(d/2), so this window covers every
    # divisor whose cyclotomic polynomial could fit the remaining degree.
    window = euler_phi_table(2 * degree * degree + 2)
    for d in range(1, len(window)):
        if window[d] <= len(coeffs) - 1:
            phi = cyclotomic_polynomial(d)
            quotient, rem = _polydivmod(coeffs, phi)
            if not any(rem):
                if not any(_polydivmod(quotient, phi)[1]):
                    return None  # repeated root of unity
                coeffs = quotient
                found.append(d)
    if coeffs != [1]:
        return None  # leftover non-cyclotomic factor
    return content, sorted(found)


def rk1_classify(w: LaurentPolynomial) -> Rk1Report:
    """Classify a one-variable potential and bound the monodromy it allows.

    A monomial-plus-constant potential has no critical points and only pins
    the support axis; the symmetric a +- (x + 1/x) shape pins the group to
    sign changes and even shears; anything else allows even shears at most,
    with the admissible shear moduli read off from the cyclotomic
    factorisation of the derivative.
    """
    poly = _extract_univariate(w)
    nonconstant = {e: c for e, c in poly.items() if e != 0}
    if not nonconstant:
        raise NotUnivariateError("constant potential has no rank-one data")
    a = poly.get(0, 0)
    flipped = False

    if len(nonconstant) == 1:
        (k, b), = nonconstant.items()
        if k < 0:
            k, flipped = -k, True
        return Rk1Report(
            case="MONOMIAL",
            group_bound="[[1, Z], [0, +-1]]",
            shears=ShearConstraints("any"),
            a=a,
            b=b,
            k=k,
            flipped=flipped,
        )

    derivative = {e - 1: c * e for e, c in nonconstant.items()}
    profile = _cyclotomic_factor_profile(derivative)
    if profile is None:
        shears = ShearConstraints("zero", (0,))
    else:
        content, ds = profile
        shears = ShearConstraints("multiples", tuple(sorted(set(ds) | {2 * abs(content)})))

    if set(nonconstant) == {1, -1} and nonconstant[1] == nonconstant[-1] and nonconstant[1] in (1, -1):
        return Rk1Report(
            case="SYMMETRIC_PM",
            group_bound="[[+-1, 2Z], [0, 1]]",
            shears=shears,
            a=a,
            sign=nonconstant[1],
            flipped=flipped,
        )
    return Rk1Report(
        case="RESIDUAL",
        group_bound="[[1, 2Z], [0, 1]]",
        shears=shears,
        a=a,
        flipped=flipped,
    )


# ---------------------------------------------------------------------------
# Hessian rigidity checks


ORDER3_GENERATOR = IntMat.from_rows([[0, -1], [1, -1]])
MINUS_IDENTITY = IntMat.from_rows([[-1, 0], [0, -1]])
AXIS_REFLECTION = IntMat.from_rows([[1, 0], [0, -1]])
_INVARIANT_UNDER = {  # the generators each group kind's potential must be invariant under
    "ORDER3": (ORDER3_GENERATOR,),
    "ORDER2": (MINUS_IDENTITY,),
    "ORDER2_F": (MINUS_IDENTITY, AXIS_REFLECTION),
}

_REF_ORDER3 = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
_REF_HYPERBOLIC = LaurentPolynomial.from_dict(2, {(1, 1): 1, (-1, -1): 1})


def _ref_split(eps1: int, eps2: int) -> LaurentPolynomial:
    return LaurentPolynomial.from_dict(
        2, {(1, 0): eps1, (-1, 0): eps1, (0, 1): eps2, (0, -1): eps2}
    )


class HessianPointData(Value):
    __slots__ = ("point", "constants", "normalized")

    def __init__(
        self, point: TorsionPoint, constants: tuple[Cyc, Cyc, Cyc], normalized: tuple[Cyc, Cyc, Cyc] | None = None
    ):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "normalized", normalized)


class HessianCheckReport(Value):
    __slots__ = ("kind", "status", "form", "epsilon", "eps_pair", "points")

    def __init__(
        self,
        kind: str,
        status: Literal["PASS", "VIOLATION"],
        form: Literal["PROPORTIONAL", "SPLIT", "HYPERBOLIC", "NONE"],
        epsilon: int | None = None,
        eps_pair: tuple[int, int] | None = None,
        points: tuple[HessianPointData, ...] = (),
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "eps_pair", eps_pair)
        object.__setattr__(self, "points", points)


def hessian_theorem_check(
    w: LaurentPolynomial, group_kind: Literal["ORDER3", "ORDER2", "ORDER2_F"]
) -> HessianCheckReport:
    """Compare the Hessian of an invariant potential with its rigid models.

    For an order-3 rotation action the Hessian at each of the three forced
    diagonal critical points must be a single sign times the reference
    triangle potential's Hessian there.  For order-2 actions the four
    half-integer points must match either the hyperbolic model xy + 1/(xy)
    or a split model e1 (x + 1/x) + e2 (y + 1/y); with an axis reflection in
    the group only the split shape is possible.
    """
    if w.dim != 2:
        raise DimensionError("Hessian check needs a two-variable potential")
    if group_kind not in _INVARIANT_UNDER:
        raise ValueError(f"unknown group kind {group_kind!r}")
    for g in _INVARIANT_UNDER[group_kind]:
        if not invariance_check(w, g):
            raise NotInvariantError(f"potential is not invariant under {g}")

    if group_kind == "ORDER3":
        # At each forced diagonal point the three constants must coincide
        # and be a cyclotomic-integer unit (so the Hessian is a unit times
        # the reference triangle Hessian there); at the trivial local system
        # the units of Z are just +-1, which fixes the overall sign.
        points = [
            TorsionPoint.make((Fraction(k, 3), Fraction(k, 3))) for k in range(3)
        ]
        w_data = [clifford_constants(w, p) for p in points]
        ref_data = [clifford_constants(_REF_ORDER3, p) for p in points]
        entries = []
        ok = True
        for p, dw, dr in zip(points, w_data, ref_data):
            lam, mu, nu = dw.constants()
            if not (lam == mu == nu) or not lam.is_integral_unit():
                ok = False
            unit = dr.lam / ref_data[0].lam
            normalized = tuple(x / unit for x in dw.constants())
            entries.append(HessianPointData(p, dw.constants(), normalized))
        trivial = w_data[0].lam
        epsilon: int | None = None
        if trivial.is_rational() and trivial.as_rational() in (1, -1):
            epsilon = -int(trivial.as_rational())
        else:
            ok = False
        if ok:
            return HessianCheckReport(
                group_kind, "PASS", "PROPORTIONAL", epsilon=epsilon, points=tuple(entries)
            )
        return HessianCheckReport(group_kind, "VIOLATION", "NONE", points=tuple(entries))

    points = [
        TorsionPoint.make((Fraction(i, 2), Fraction(j, 2)))
        for i in range(2)
        for j in range(2)
    ]
    w_data = [clifford_constants(w, p) for p in points]
    entries = tuple(HessianPointData(p, dw.constants()) for p, dw in zip(points, w_data))

    def matches(ref: LaurentPolynomial) -> bool:
        return all(
            clifford_constants(ref, p).constants() == dw.constants()
            for p, dw in zip(points, w_data)
        )

    for eps1, eps2 in itertools.product((1, -1), repeat=2):
        if matches(_ref_split(eps1, eps2)):
            return HessianCheckReport(
                group_kind, "PASS", "SPLIT", eps_pair=(eps1, eps2), points=entries
            )
    if group_kind == "ORDER2" and matches(_REF_HYPERBOLIC):
        return HessianCheckReport(group_kind, "PASS", "HYPERBOLIC", points=entries)
    return HessianCheckReport(group_kind, "VIOLATION", "NONE", points=entries)
