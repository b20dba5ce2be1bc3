"""The shared exact kernels against the hand-rolled routines they replaced.

Each ``old_*`` function below is a copy of a routine that one shared kernel
replaced: the elimination loop of ``floer._solution_space``, the Fraction
determinant behind ``CyclotomicNumber.norm``, the polynomial divisions
``_polydiv_exact`` and ``floer._try_divide``, the Phi_d reduction loop of
``laurent._vanishes``, the rank-one cyclotomic factor profile, the divisor
scan of the cyclotomic canonical form (Galois-fixedness loop, descent matrix
and power table), the power-table promotion, the Euclidean inverse and the
Fraction solve that replaced it, the Clifford-product residual columns and
residual-column screen of ``floer._bounded_search``, its pair-by-pair line
screen and its line search that took one cyclotomic norm per point
(``old_line_search``, with ``old_line_points``), the block-map search of
``monodromy.symplectic_monodromy``, the word breadth-first search behind
``groups.cayley_closure`` (``old_cayley_closure``), the word expansion and
multiplication-table check of ``classify.embed_symmetric_product`` and its
search that re-walks each prefix subgroup
(``old_rewalk_embed_symmetric_product``), the fixed-point
search of ``classify.gl_order_feasible``, the subset enumeration of
``torussym.forced_critical_points`` and its lattice-state search that walks
the conjugation orbit of every new state under every generator
(``old_lattice_forced_critical_points``), the division builder of
``cyclotomic.cyclotomic_polynomial``, the Fraction vertex enumeration and
recession-ray compactness test of ``toric.validate_delzant``, the Fraction
row reduction of ``ToricFiberData.normal_base``, the square-only Bareiss
elimination behind ``IntMat.det`` and ``bareiss_solve``, and the Fraction
Gauss-Jordan family of ``intlat`` (``old_rational_rref``,
``old_rational_rank``, ``old_solve_rational_system``,
``old_rational_kernel_basis``, ``old_kernel_from_rref``) with the Fraction
forms of its callers: ``old_monotone_normalize``, ``old_extreme_ray`` (for
``toric._recession_ray``), and the Smith normal form of ``intlat`` with the
fixed locus read off it (``old_smith_normal_form``, ``old_fixed_locus``, for
``monomial_fixed_points`` of test_torussym), the Fraction action and moved-point scan
of ``torussym`` (``old_act``, ``old_first_moved_point``), and the Hermite loop
that carried its transform through every call, ``LatticeBasis.from_vectors``
included (``old_hermite_normal_form``, ``old_from_vectors``), the
Fraction-coefficient ``CyclotomicNumber`` with its Fraction polynomial
division, reduction, promotion and descent (``OldCyclotomicNumber``,
``old_polydivmod``, ``old_polymod``), and the extended Euclidean algorithm of
``floer._reduce_isotropic`` (``old_extended_gcd``), the two closed forms of
``floer.continuation_solvable`` (``old_shear_closed_form``,
``old_reflection_closed_form``) and the support-permutation predicate that
``laurent.invariance_check`` answers alike (``old_candidate_filter``), and
the grid walk of ``laurent.torsion_critical_points`` that built a Fraction
``TorsionPoint`` for every tested orbit and kept point
(``old_fraction_grid_points``), and the closure and subgroup chain of
``MatrixGroup`` walked by ``IntMat`` products (``old_matrix_from_generators``,
``old_matrix_chain``), with the residue and bound loop of
``groups.cayley_closure`` that refused infinite groups
(``old_matrix_closure``), and the group and matrix block of ``cli.run_toric``,
which walked each monodromy group and induced its generators' matrices on its
own (``old_toric_records``, run with the Fraction validation and normalisation
as ``old_toric_run``), and the Euclidean rounds of ``intlat._hermite`` that
rebuilt the list of nonzero rows for each pivot (``old_hermite``), and the
forced-point search that joined every state to every step, full-rank steps
included (``old_unpruned_forced_critical_points``).
``floer._two_column_kernel`` is checked against the old elimination loop.
They are kept here only as oracles.
"""

import contextlib
import functools
import io
import itertools
import math
import pathlib
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from lagmono.cyclotomic import (
    CyclotomicNumber,
    _fold,
    _polydivmod,
    cyclotomic_polynomial,
    euler_phi,
    prime_divisors,
)
from lagmono import floer
from lagmono.floer import (
    BinaryForm,
    CliffordData,
    CliffordElement,
    ContinuationResult,
    _bounded_search,
    _conjugation_residuals,
    _cyclotomic_factor_profile,
    _element_from_pair,
    _form_value,
    _norm_form,
    _parity_norm,
    _residual_columns,
    _solution_space,
    _two_column_kernel,
    _verify_witness,
    continuation_solvable,
    reduce_binary_form,
)
from lagmono.classify import (
    _symmetric_part_choices,
    GroupCatalog,
    catalog_n2,
    conjecture_filter,
    embed_symmetric_product,
    gl_order_feasible,
    ingest_catalog,
)
from lagmono import groups, laurent, torussym
from lagmono.errors import NotFiniteError, NotMonotoneError, SearchTooLargeError, ValidationError
from lagmono.groups import (
    MatrixGroup,
    PermutationGroup,
    cayley_closure,
    compose,
    cycle_notation,
    identity_perm,
    perm_order,
)
from lagmono.intlat import (
    IntMat,
    LatticeBasis,
    bareiss_solve,
    dot,
    hermite_normal_form,
    integer_rref,
    matrix_order,
    minkowski_bound,
    primitive_vector,
    residue_mod_3,
)
from lagmono.laurent import (
    LaurentPolynomial,
    invariance_check,
    is_critical,
    torsion_critical_points,
)
from lagmono.cli import _emit, run
from lagmono.monodromy import hamiltonian_monodromy, induced_matrices, partition_bound_check, symplectic_monodromy
from lagmono.torussym import (
    FixedPointSet,
    TorsionPoint,
    _delta_rows,
    _full_rank_locus,
    _image,
    _points,
    first_moved_point,
    forced_critical_points,
)
from lagmono.polytopes import STANDARD_FIXTURES, blowup_cp2, cube, projective_product, projective_space
from lagmono.toric import (
    DelzantPolytope,
    Mode,
    ValidationReport,
    Vertex,
    _fmt_point,
    _recession_ray,
    coefficient_partition,
    monotone_normalize,
    parse_polytope,
    toric_fiber_data,
    validate_delzant,
)
from test_classify import planar_class
from test_cyclotomic import galois, zeta
from test_floer import clifford_data
from test_groups import conjugate_group, negated
from test_laurent import add
from test_monodromy import permute_vector
from test_torussym import act, monomial_fixed_points, sorted_points

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
Cyc = CyclotomicNumber
CONDUCTORS = (1, 3, 4, 5, 12)


def divisors(d):
    return [k for k in range(1, d + 1) if d % k == 0]


# ---------------------------------------------------------------------------
# Oracles: the replaced routines


def old_rational_rref(rows):
    """Reduced row echelon form over an exact field; returns (rref rows, pivot columns).

    Integer entries become Fractions; other entries are kept as given.
    """
    m = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    if not m:
        return [], []
    nc = len(m[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        if m[r][c] != 1:
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def old_rational_rank(rows):
    _, pivots = old_rational_rref(rows)
    return len(pivots)


def old_solve_rational_system(a, b):
    """Solve a x = b over an exact field.

    Returns (particular solution with free variables set to 0, kernel basis),
    or None when the system is inconsistent.
    """
    nc = len(a[0]) if a else 0
    rref, pivots = old_rational_rref([list(r) + [v] for r, v in zip(a, b)])
    if nc in pivots:
        return None
    particular = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        particular[c] = rref[i][nc]
    return particular, old_kernel_from_rref(rref, pivots, nc)


def old_rational_kernel_basis(rows, ncols):
    """Basis of {x : rows @ x = 0} over an exact field."""
    rref, pivots = old_rational_rref(rows)
    return old_kernel_from_rref(rref, pivots, ncols)


def old_kernel_from_rref(rref, pivots, ncols):
    """One kernel vector per free column among the first ncols, with a 1 there."""
    kernel = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rref[i][fc]
        kernel.append(vec)
    return kernel


def old_monotone_normalize(p):
    """The offset-equalising translation by the Fraction solve over Q."""
    n, N = p.dim, p.nfacets
    nu1 = p.normals[0]
    rows = [[Fraction(a - b) for a, b in zip(p.normals[j], nu1)] for j in range(1, N)]
    rhs = [p.offsets[0] - p.offsets[j] for j in range(1, N)]
    if rows:
        solved = old_solve_rational_system(rows, rhs)
    else:
        solved = ([Fraction(0)] * n, [[Fraction(1) if i == j else Fraction(0) for i in range(n)] for j in range(n)])
    if solved is None:
        raise NotMonotoneError("facet offsets cannot be equalised by translation")
    q, kernel = solved

    def level(point):
        return p.offsets[0] + dot(point, nu1)

    c = level(q)
    if c <= 0:
        for direction in kernel:
            slope = dot(direction, nu1)
            if slope != 0:
                t = (1 - c) / slope
                q = [a + t * b for a, b in zip(q, direction)]
                c = Fraction(1)
                break
        else:
            raise NotMonotoneError("offset-equalising locus misses the interior")
    new_offsets = tuple(p.offsets[j] + dot(q, p.normals[j]) for j in range(N))
    assert all(o == c for o in new_offsets)
    return DelzantPolytope(p.dim, p.normals, new_offsets, p.mode)


def old_extreme_ray(p):
    """toric._recession_ray by Fraction kernels of n - 1 normals."""
    n, N = p.dim, p.nfacets
    for subset in itertools.combinations(range(N), n - 1):
        kernel = old_rational_kernel_basis([list(p.normals[j]) for j in subset], n)
        if len(kernel) != 1:
            continue
        direction = primitive_vector(kernel[0])
        for candidate in (direction, tuple(-x for x in direction)):
            if all(dot(candidate, nu) >= 0 for nu in p.normals):
                return candidate
    return None


def old_kernel_pairs(rows):
    """Elimination loop of the old floer._solution_space, for two columns."""
    pivots = []
    work = [list(r) for r in rows]
    col_used = []
    for col in range(2):
        pivot_row = next(
            (i for i, r in enumerate(work) if not r[col].is_zero() and i not in [p[0] for p in pivots]),
            None,
        )
        if pivot_row is None:
            continue
        inv = work[pivot_row][col].inverse()
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for i in range(len(work)):
            if i != pivot_row and not work[i][col].is_zero():
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[pivot_row])]
        pivots.append((pivot_row, col))
        col_used.append(col)
    out = []
    for fc in [c for c in range(2) if c not in col_used]:
        vec = [Cyc.zero(), Cyc.zero()]
        vec[fc] = Cyc.one()
        for prow, pcol in pivots:
            vec[pcol] = -work[prow][fc]
        out.append((vec[0], vec[1]))
    return out


def old_residual_columns(d, action, parity):
    """The residual coordinates of the two parity basis elements, by Clifford products."""
    basis = (
        [CliffordElement.odd(1, 0), CliffordElement.odd(0, 1)]
        if parity == "odd"
        else [CliffordElement.even(1, 0), CliffordElement.even(0, 1)]
    )
    cols = []
    for e in basis:
        residuals = _conjugation_residuals(e, d, action, parity)
        cols.append([r for res in residuals for r in (res.a0, res.au, res.av, res.auv)])
    return cols


def old_solution_space(d, action, parity):
    return old_kernel_pairs(list(zip(*old_residual_columns(d, action, parity))))


def old_det_fraction(rows):
    n = len(rows)
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


# The Fraction-coefficient class that integer numerators over one denominator
# replaced, verbatim but for the old_ names.


def old_polydivmod(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Quotient and remainder of num by den, coefficient lists constant term first.

    Generic over int and Fraction coefficients; den[-1] must be nonzero.
    When den is monic, as every Phi_d is, no division is made, so integer
    inputs give integer results.  The remainder keeps all deg(den)
    coefficients (fewer when num is shorter), trailing zeros included.
    """
    deg = len(den) - 1
    lead = den[-1]
    monic = lead == 1
    rem = list(num)
    quot = [0] * max(len(rem) - deg, 1)
    for top in range(len(rem) - 1, deg - 1, -1):
        q = rem[top]
        if q:
            if not monic:
                q = Fraction(q) / lead
            base = top - deg
            quot[base] = q
            for j in range(deg):
                rem[base + j] -= q * den[j]
    return quot, rem[:deg]


def old_polymod(coeffs: Sequence, d: int) -> list[Fraction]:
    """Reduce a polynomial in zeta_d modulo the d-th cyclotomic polynomial."""
    phi = cyclotomic_polynomial(d)
    rem = old_polydivmod(coeffs, phi)[1]
    return [Fraction(x) for x in rem] + [Fraction(0)] * (len(phi) - 1 - len(rem))


def old_promote(coeffs: Sequence, c: int, d: int) -> list[Fraction]:
    """Coefficients of a value of Q(zeta_c) on the power basis of Q(zeta_d), for c | d.

    zeta_c is zeta_d^(d/c), so coefficient i moves to exponent i d / c.
    """
    step = d // c
    spread = [0] * (step * (len(coeffs) - 1) + 1)
    spread[::step] = coeffs
    return old_polymod(spread, d)


def old_descend(d: int, p: int, coeffs: list[Fraction]) -> list[Fraction] | None:
    """Coefficients over Q(zeta_(d/p)) of a value of Q(zeta_d), or None when it is not there."""
    m = d // p
    if m % p == 0:
        if any(c for i, c in enumerate(coeffs) if i % p):
            return None
        return coeffs[::p]
    inv = pow(p, -1, m)
    trace = [0] * m
    for i, c in enumerate(coeffs):
        if c:
            trace[i * inv % m] += c if i % p == 0 else c / (1 - p)
    lowered = old_polymod(trace, m)
    return lowered if old_promote(lowered, m, d) == coeffs else None


def old_lower_conductor(d: int, coeffs: list[Fraction]) -> tuple[int, list[Fraction]]:
    """Lower the conductor to the least one whose field holds the value."""
    for p in prime_divisors(d):
        while d % p == 0:
            lowered = old_descend(d, p, coeffs)
            if lowered is None:
                break
            d, coeffs = d // p, lowered
    return d, coeffs


@dataclass(frozen=True)
class OldCyclotomicNumber:
    """Element of Q(zeta_d) in canonical least-conductor form."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        d, coeffs = self.conductor, self.coeffs
        if d == 1 and len(coeffs) == 1 and isinstance(coeffs[0], Fraction):
            return
        d, coeffs = old_lower_conductor(d, old_polymod(coeffs, d))
        object.__setattr__(self, "conductor", d)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q: Fraction | int) -> "OldCyclotomicNumber":
        return cls(1, (Fraction(q),))

    @classmethod
    def root_of_unity(cls, d: int, power: int = 1) -> "OldCyclotomicNumber":
        coeffs = [Fraction(0)] * (power % d + 1)
        coeffs[power % d] = Fraction(1)
        return cls(d, tuple(coeffs))

    @classmethod
    def _canonical(cls, d: int, coeffs: tuple[Fraction, ...]) -> "OldCyclotomicNumber":
        """The value with these coefficients, which must already be canonical at conductor d."""
        value = object.__new__(cls)
        object.__setattr__(value, "conductor", d)
        object.__setattr__(value, "coeffs", coeffs)
        return value

    @classmethod
    def zero(cls) -> "OldCyclotomicNumber":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "OldCyclotomicNumber":
        return cls.from_rational(1)

    # -- structure ----------------------------------------------------------

    def promoted_coeffs(self, d: int) -> tuple[Fraction, ...]:
        """Coefficients of this value on the power basis of Q(zeta_d)."""
        if d % self.conductor != 0:
            raise ValueError(f"conductor {self.conductor} does not divide {d}")
        if d == self.conductor:
            return self.coeffs
        return tuple(old_promote(self.coeffs, self.conductor, d))

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other, op):
        other = old_coerce(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other._scaled(op(0, 1))  # y or -y
        if self.conductor == 1 and other.conductor == 1:
            return OldCyclotomicNumber(1, (op(self.coeffs[0], other.coeffs[0]),))
        d = math.lcm(self.conductor, other.conductor)
        a = self.promoted_coeffs(d)
        b = other.promoted_coeffs(d)
        return OldCyclotomicNumber(d, tuple(op(x, y) for x, y in zip(a, b)))

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return old_coerce(other) - self

    def __neg__(self):
        return self._scaled(-1)

    def _scaled(self, q: Fraction | int) -> "OldCyclotomicNumber":
        """q times this value, with no reduction: a nonzero multiple keeps the canonical form."""
        if q == 0:
            return OldCyclotomicNumber.zero()
        if q == 1:
            return self
        return OldCyclotomicNumber._canonical(self.conductor, tuple(q * c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = old_coerce(other)
        if other.conductor == 1:
            return self._scaled(other.coeffs[0])
        if self.conductor == 1:
            return other._scaled(self.coeffs[0])
        d = math.lcm(self.conductor, other.conductor)
        a = self.promoted_coeffs(d)
        b = other.promoted_coeffs(d)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
        return OldCyclotomicNumber(d, tuple(prod))

    __rmul__ = __mul__

    def inverse(self) -> "OldCyclotomicNumber":
        """Field inverse: the x with sum of x_i (s a zeta^i) = 1, times s.

        The columns s a zeta^i are those of ``_scaled_columns``, the integral
        matrix whose determinant is the norm; it is invertible for a nonzero
        value, and the fraction-free solve gives D x in integers.  The
        inverse generates the same field, so it keeps the conductor.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return OldCyclotomicNumber.from_rational(1 / self.coeffs[0])
        scale, cols = self._scaled_columns()
        one = [1] + [0] * (len(cols) - 1)
        det, y = bareiss_solve(list(zip(*cols)), one)
        return OldCyclotomicNumber._canonical(self.conductor, tuple(Fraction(scale * c, det) for c in y))

    def __truediv__(self, other):
        return self * old_coerce(other).inverse()

    def __rtruediv__(self, other):
        return old_coerce(other) * self.inverse()

    def galois(self, a: int) -> "OldCyclotomicNumber":
        """Image under zeta -> zeta^a, for a coprime to the conductor."""
        d = self.conductor
        if math.gcd(a, d) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        out = [Fraction(0)] * d
        for i, c in enumerate(self.coeffs):
            out[(i * a) % d] += c
        return OldCyclotomicNumber(d, tuple(out))

    def _scaled_columns(self) -> tuple[int, list[list[int]]]:
        """(s, the columns s a zeta^i mod Phi_d for i < phi(d)), s the lcm of the denominators.

        They are the integral matrix of multiplication by s a on the power
        basis, built by repeated multiplication by zeta.
        """
        phi = cyclotomic_polynomial(self.conductor)
        scale = math.lcm(*(c.denominator for c in self.coeffs))
        col = [c.numerator * (scale // c.denominator) for c in self.coeffs]
        cols = []
        for _ in range(len(phi) - 1):
            cols.append(col)
            col = old_polydivmod([0] + col, phi)[1]
        return scale, cols

    def norm(self) -> Fraction:
        """Field norm down to Q: determinant of multiplication by the value.

        Bareiss gives the determinant s^phi N(a) of the integral columns
        s a zeta^i.
        """
        if self.conductor == 1:
            return self.coeffs[0]
        scale, cols = self._scaled_columns()
        return Fraction(IntMat.from_rows(cols).det(), scale ** len(cols))

    def is_integral_unit(self) -> bool:
        return self.is_integral() and abs(self.norm()) == 1

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        sym = f"z{self.conductor}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                power = sym if i == 1 else f"{sym}^{i}"
                sign = "-" if c < 0 else ("+" if parts else "")
                parts.append(f"{sign}{mag}{power}" if parts or c < 0 else f"{mag}{power}")
        return "".join(parts) if parts else "0"


def old_coerce(x) -> OldCyclotomicNumber:
    if isinstance(x, OldCyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return OldCyclotomicNumber.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to OldCyclotomicNumber")


def old_extended_gcd(a, b):
    """The extended Euclidean algorithm that gave floer._reduce_isotropic its Bezout pair."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def old_bezout_hermite(m):
    """hermite_normal_form of a column (p, r) with the Bezout pair of old_extended_gcd in its first row."""
    (p,), (r,) = m.rows
    g, x, y = old_extended_gcd(p, r)
    return IntMat.from_rows([[g], [0]]), IntMat.from_rows([[x, y], [-r // g, p // g]])


def old_norm(x):
    d = x.conductor
    phi = euler_phi(d)
    if d == 1:
        return x.coeffs[0]
    cols = [old_polymod([Fraction(0)] * i + list(x.coeffs), d) for i in range(phi)]
    return old_det_fraction([[cols[j][i] for j in range(phi)] for i in range(phi)])


def old_polydiv_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = num[i + len(den) - 1]
        if isinstance(coeff, int) and isinstance(den[-1], int) and den[-1] != 0:
            q, r = divmod(coeff, den[-1])
            assert r == 0, "non-exact polynomial division"
            coeff = q
        else:
            coeff = coeff / den[-1]
        out[i] = coeff
        for j, dj in enumerate(den):
            num[i + j] -= coeff * dj
    assert all(x == 0 for x in num)
    return out


def old_trim(p):
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def old_poly_degree(coeffs):
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0:
        deg -= 1
    return deg


def old_try_divide(num, den):
    num = num[: old_poly_degree(num) + 1]
    den = den[: old_poly_degree(den) + 1]
    if len(num) < len(den):
        return None
    work = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + len(den) - 1]
        if c % den[-1] != 0:
            return None
        q = c // den[-1]
        out[i] = q
        for j, dj in enumerate(den):
            work[i + j] -= q * dj
    if any(x != 0 for x in work):
        return None
    return out


def old_phi_residue(image, d):
    """Reduction loop of the old laurent._vanishes: image mod Phi_d."""
    image = list(image)
    phi = cyclotomic_polynomial(d)
    deg = len(phi) - 1
    for top in range(d - 1, deg - 1, -1):
        q = image[top]
        if q:
            base = top - deg
            for j in range(deg):
                image[base + j] -= q * phi[j]
    return image[:deg]


def old_factor_profile(poly):
    if not poly:
        return None
    low = min(poly)
    coeffs = [0] * (max(poly) - low + 1)
    for e, c in poly.items():
        coeffs[e - low] = c
    content = 0
    for c in coeffs:
        content = math.gcd(content, c)
    content *= 1 if coeffs[-1] > 0 else -1
    coeffs = [c // content for c in coeffs]
    degree = len(coeffs) - 1
    found = []
    d = 1
    while d <= 2 * degree * degree + 2:
        phi = list(cyclotomic_polynomial(d))
        if len(phi) - 1 <= old_poly_degree(coeffs):
            quotient = old_try_divide(coeffs, phi)
            if quotient is not None:
                if old_try_divide(quotient, phi) is not None:
                    return None
                coeffs = quotient
                found.append(d)
        d += 1
    if old_poly_degree(coeffs) != 0 or coeffs[0] != 1:
        return None
    return content, sorted(found)


@functools.lru_cache(maxsize=None)
def old_power_table(d):
    """zeta_d^k on the power basis for k = 0 .. d-1."""
    phi = euler_phi(d)
    table = []
    for k in range(d):
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        table.append(tuple(old_polymod(coeffs, d)[:phi]))
    return tuple(table)


@functools.lru_cache(maxsize=None)
def old_descent_matrix(d, sub):
    step = d // sub
    return tuple(old_power_table(d)[(j * step) % d] for j in range(euler_phi(sub)))


def old_fixed_by_subfield_galois(d, sub, coeffs):
    for a in range(1, d):
        if math.gcd(a, d) != 1 or a % sub != 1 % sub:
            continue
        out = [Fraction(0)] * d
        for i, c in enumerate(coeffs):
            out[(i * a) % d] += c
        if old_polymod(out, d) != list(coeffs):
            return False
    return True


def old_express_in_subfield(d, sub, coeffs):
    cols = old_descent_matrix(d, sub)
    rows = [[col[i] for col in cols] for i in range(euler_phi(d))]
    solved = old_solve_rational_system(rows, list(coeffs))
    if solved is None:
        return None
    particular, _ = solved
    return old_polymod(particular, sub)


def old_canonicalize(d, coeffs):
    """The divisor scan: least conductor and coefficients of a reduced value."""
    if d == 1:
        return 1, coeffs
    for sub in divisors(d)[:-1]:
        if old_fixed_by_subfield_galois(d, sub, coeffs):
            reduced = old_express_in_subfield(d, sub, coeffs)
            if reduced is not None:
                return sub, reduced
    return d, coeffs


def promoted_coeffs(x, d):
    """Coefficients of x on the power basis of Q(zeta_d), by one division by Phi_d."""
    step = d // x.conductor
    spread = [0] * (step * (len(x.nums) - 1) + 1)
    spread[::step] = x.nums
    return tuple(Fraction(n, x.den) for n in _polydivmod(spread, cyclotomic_polynomial(d))[1])


def old_promoted_coeffs(x, d):
    """Power-table promotion of x to the power basis of Q(zeta_d)."""
    table = old_power_table(d)
    step = d // x.conductor
    phi = euler_phi(d)
    out = [Fraction(0)] * phi
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
        base = table[(i * step) % d]
        for j in range(phi):
            out[j] += c * base[j]
    return tuple(out)


def old_polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def old_polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def old_inverse(x):
    """Field inverse by the extended Euclidean algorithm modulo Phi_d."""
    if x.is_rational():
        return Cyc.from_rational(1 / x.coeffs[0])
    d = x.conductor
    phi = [Fraction(c) for c in cyclotomic_polynomial(d)]
    r0, r1 = phi, old_trim(list(x.coeffs))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(old_trim(r1)) - 1 > 0:
        q, r = old_polydivmod(r0, r1)
        r0, r1 = r1, old_trim(r)
        s0, s1 = s1, old_polysub(s0, old_polymul(q, s1))
    lead = r1[0]
    return Cyc(d, tuple(old_polymod([c / lead for c in s1], d)))


def old_solve_inverse(x):
    """Field inverse by the Fraction Gauss-Jordan solve of the scaled multiplication matrix."""
    if x.is_rational():
        return Cyc.from_rational(1 / x.coeffs[0])
    scale, cols = OldCyclotomicNumber(x.conductor, x.coeffs)._scaled_columns()
    one = [1] + [0] * (len(cols) - 1)
    solution, _ = old_solve_rational_system(list(zip(*cols)), one)
    return Cyc(x.conductor, tuple(scale * c for c in solution))


def old_bounded_search(d, action, parity, height):
    """Bounded search screening each pair by its combination of the residual columns.

    Each pair's norm is the Clifford product of its element with itself or
    its conjugate.
    """
    cols = old_residual_columns(d, action, parity)
    for h in range(0, height + 1):
        ring = range(-h, h + 1)
        for x1 in ring:
            for x2 in ring:
                if max(abs(x1), abs(x2)) != h or (x1 == 0 and x2 == 0):
                    continue
                if any(not (a * x1 + b * x2).is_zero() for a, b in zip(cols[0], cols[1])):
                    continue
                c = _element_from_pair((Cyc.from_rational(x1), Cyc.from_rational(x2)), parity)
                norm = _parity_norm(c, d, parity)
                if norm is not None and norm.is_integral_unit() and c.is_integral():
                    return c
    return None


def old_line_search(d, action, parity, height, solutions):
    """The line search that took a full cyclotomic norm of the parity-norm form at every point it visited."""
    form = _norm_form(d, parity)
    for x1, x2 in old_line_points(solutions, height):
        if _form_value(form, x1, x2).is_integral_unit():
            c = _element_from_pair((Cyc.from_rational(x1), Cyc.from_rational(x2)), parity)
            assert _verify_witness(c, d, action, parity)
            return c
    return None


def old_line_points(solutions, height):
    """Nonzero integer points of the line spanned by the one solution (v1, v2), by height up to height.

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


def old_line_screen(solutions, height):
    """Pairs of the old loop that pass the screen x1 v2 = x2 v1 of a one-dimensional space."""
    return [
        (x1, x2)
        for h in range(1, height + 1)
        for x1 in range(-h, h + 1)
        for x2 in range(-h, h + 1)
        if max(abs(x1), abs(x2)) == h and any(v2 * x1 == v1 * x2 for v1, v2 in solutions)
    ]


def old_shear_closed_form(d, action, lam, m):
    # Even c = p + q uv with p a unit and m p = -2 q lam; integrality over
    # any cyclotomic ring pins m to a multiple of 2 lam by coordinatewise
    # divisibility on the power basis.
    if lam == 0:
        if m == 0:
            c = CliffordElement.even(1, 0)
            assert _verify_witness(c, d, action, "even")
            return ContinuationResult("solvable", c)
        return ContinuationResult("unsolvable")
    if m % (2 * lam) == 0:
        c = CliffordElement.even(1, -(m // (2 * lam)))
        assert _verify_witness(c, d, action, "even")
        return ContinuationResult("solvable", c)
    return ContinuationResult("unsolvable")


def old_reflection_closed_form(d, action, lam, m):
    # Odd c = s u + t v with c^2 = lam s^2 a unit, forcing lam = +-1, and
    # m s = -2 t, forcing m even.
    if lam in (1, -1) and m % 2 == 0:
        c = CliffordElement.odd(1, -(m // 2))
        assert _verify_witness(c, d, action, "odd")
        return ContinuationResult("solvable", c)
    return ContinuationResult("unsolvable")


def old_candidate_filter(w, g):
    """True when g permutes the boundary support preserving each coefficient."""
    zero = (0,) * w.dim
    b1 = {e: c for e, c in w.terms if e != zero}
    image = set()
    for e, c in b1.items():
        target = g.apply(e)
        if b1.get(target) != c:
            return False
        image.add(target)
    return len(image) == len(b1)


def old_block_map_group(partition, block_maps):
    elements = []
    for block_map in block_maps:
        arrangements = [itertools.permutations(partition.blocks[image]) for image in block_map]
        for combo in itertools.product(*arrangements):
            perm = list(range(partition.size))
            for block, images in zip(partition.blocks, combo):
                for src, dst in zip(block, images):
                    perm[src] = dst
            elements.append(tuple(perm))
    return PermutationGroup.from_elements(partition.size, elements)


def old_block_map_preserves_lattice(k, partition, block_map):
    perm = [0] * partition.size
    for b, image in enumerate(block_map):
        for src, dst in zip(partition.blocks[b], partition.blocks[image]):
            perm[src] = dst
    moved = [permute_vector(tuple(perm), row) for row in k.basis]
    return LatticeBasis.from_vectors(k.ambient, moved) == k


def old_symplectic_monodromy(data, max_degree=12, max_order=50_000):
    """Block-map backtracking with a rank test per node and an HNF comparison per leaf."""
    k = data.relations
    partition = coefficient_partition(k)
    n = partition.size
    if n > max_degree:
        raise SearchTooLargeError(f"{n} normals exceeds search bound {max_degree}")
    blocks = partition.blocks
    columns = [tuple(row[block[0]] for row in k.basis) for block in blocks]

    valid_maps = []

    def consistent(pairs):
        if not k.basis:
            return True
        srcs = [list(map(Fraction, s)) for s, _ in pairs]
        stacked = [list(map(Fraction, s)) + list(map(Fraction, t)) for s, t in pairs]
        _, piv_src = old_rational_rref(srcs)
        _, piv_stacked = old_rational_rref(stacked)
        return len(piv_src) == len(piv_stacked)

    def search(assigned, used):
        b = len(assigned)
        if b == len(blocks):
            valid_maps.append(tuple(assigned))
            return
        for image in range(len(blocks)):
            if image in used or len(blocks[image]) != len(blocks[b]):
                continue
            pairs = [(columns[i], columns[img]) for i, img in enumerate(assigned)]
            pairs.append((columns[b], columns[image]))
            if not consistent(pairs):
                continue
            search(assigned + [image], used | {image})

    search([], set())
    confirmed = [m for m in valid_maps if old_block_map_preserves_lattice(k, partition, m)]

    order = len(confirmed)
    for block in blocks:
        order *= math.factorial(len(block))
    if order > max_order:
        raise SearchTooLargeError(f"group order {order} exceeds cap {max_order}")

    return old_block_map_group(partition, confirmed)


def old_cayley_closure(identity, gens, mul, cap, residue=None):
    """Every element of the group generated by gens, mapped to a shortest word.

    Breadth-first search over the right Cayley graph, one product per element
    and generator; a word lists generator indices, multiplied left to right.
    Positive words reach every inverse in a finite group and infinitely many
    elements otherwise.  ``residue``, when given, is a homomorphism to a
    finite group that is injective on every finite subgroup, so two distinct
    elements with one residue prove the group infinite.  NotFiniteError is
    raised on such a pair, or, as a resource limit, above cap elements.
    """
    words = {identity: ()}
    seen = None if residue is None else {residue(identity)}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for idx, s in enumerate(gens):
                h = mul(g, s)
                if h not in words:
                    if seen is not None:
                        r = residue(h)
                        if r in seen:
                            raise NotFiniteError("group is infinite: two distinct elements share a residue")
                        seen.add(r)
                    words[h] = words[g] + (idx,)
                    fresh.append(h)
                    if len(words) > cap:
                        raise NotFiniteError(f"closure exceeded cap {cap}; group not verified finite")
        frontier = fresh
    return words


def old_gl_order_feasible(m, k):
    """Does some finite-order element of GL(k, Z) have order exactly m?

    An order-m element exists exactly when m is the least common multiple of
    conductors d_i whose cyclotomic degrees phi(d_i) fit in k columns, since
    companion blocks realise any such multiset.
    """
    if m < 1 or k < 0:
        raise ValueError("order and dimension must be nonnegative")
    if m == 1:
        return True
    if k == 0:
        return False
    divs = divisors(m)
    best: dict[int, int] = {1: 0}
    changed = True
    while changed:
        changed = False
        for lcm_now, cost in list(best.items()):
            for d in divs:
                new_lcm = math.lcm(lcm_now, d)
                new_cost = cost + euler_phi(d)
                if new_cost <= k and new_cost < best.get(new_lcm, k + 1):
                    best[new_lcm] = new_cost
                    changed = True
    return m in best


def old_embed_symmetric_product(group, parts):
    """Word expansion of every assignment, then the full multiplication table."""
    parts = tuple(parts)
    product_elements = list(
        itertools.product(*[itertools.permutations(range(p)) for p in parts])
    )
    ident_target = tuple(identity_perm(p) for p in parts)

    def target_mul(x, y):
        return tuple(compose(a, b) for a, b in zip(x, y))

    def target_order(x):
        k = 1
        acc = x
        while acc != ident_target:
            acc = target_mul(acc, x)
            k += 1
        return k

    orders_available = {}
    for x in product_elements:
        orders_available.setdefault(target_order(x), []).append(x)

    gens = group.generators()
    gen_orders = [matrix_order(g) for g in gens]
    candidate_lists = []
    for order in gen_orders:
        candidates = orders_available.get(order, [])
        if not candidates:
            return None
        candidate_lists.append(candidates)

    words = old_cayley_closure(IntMat.identity(group.dim), gens, IntMat.__matmul__, group.order)

    elements = list(group.elements)

    def check(assignment):
        image = {}
        for g in elements:
            acc = ident_target
            for idx in words[g]:
                acc = target_mul(acc, assignment[idx])
            image[g] = acc
        if len(set(image.values())) != group.order:
            return None
        for a in elements:
            for b in elements:
                if target_mul(image[a], image[b]) != image[a @ b]:
                    return None
        return tuple((g, image[g]) for g in elements)

    for assignment in itertools.product(*candidate_lists):
        verified = check(assignment)
        if verified is not None:
            return verified
    return None


def old_rewalk_embed_symmetric_product(group, parts):
    """Verified injective homomorphism into S_{p_1} x .. x S_{p_k}; each search node re-walks its subgroup.

    By Lagrange's theorem there is none unless |G| divides prod p_j!.
    Otherwise generator images t_s are chosen one at a time among
    order-matched target elements, in product order, and each choice walks
    the subgroup generated so far in breadth-first order of its right Cayley
    graph: every edge g -> g s must satisfy image(g) t_s = image(g s), for a
    homomorphism, and no image may repeat, for injectivity.  A broken edge
    cuts every completion of the choices made.
    """
    parts = tuple(parts)
    if math.prod(map(math.factorial, parts)) % group.order:
        return None
    # A target element as one permutation of all sum(parts) points, mapped to its parts.
    offsets = [sum(parts[:j]) for j in range(len(parts))]
    split = {
        tuple(off + i for off, perm in zip(offsets, x) for i in perm): x
        for x in itertools.product(*[itertools.permutations(range(p)) for p in parts])
    }
    identity = identity_perm(sum(parts))
    by_order: dict[int, list] = {}
    for t in split:
        order, power = 1, t
        while power != identity:
            order, power = order + 1, compose(power, t)
        by_order.setdefault(order, []).append(t)

    gens = group.generators()
    candidate_lists = [by_order.get(matrix_order(g), []) for g in gens]
    if not all(candidate_lists):
        return None

    ident = IntMat.identity(group.dim)
    walks = [list(old_cayley_closure(ident, gens[:m], IntMat.__matmul__, group.order)) for m in range(len(gens) + 1)]
    position = {g: i for i, g in enumerate(walks[-1])}
    # edges[m]: the Cayley edges of the subgroup generated by gens[:m], in its walk order.
    edges = [[(position[g], [position[g @ s] for s in gens[:m]]) for g in walk] for m, walk in enumerate(walks)]

    def search(assignment: tuple) -> list | None:
        """Images of the first completion of the assignment that embeds G, or None."""
        image: list = [identity] + [None] * (len(position) - 1)
        used = {identity}
        for i, row in edges[len(assignment)]:
            for j, t in zip(row, assignment):
                y = compose(image[i], t)
                if image[j] is None and y not in used:
                    image[j] = y
                    used.add(y)
                elif image[j] != y:  # a broken relation, or a repeated image
                    return None
        if len(assignment) == len(gens):
            return image
        return next(filter(None, (search(assignment + (t,)) for t in candidate_lists[len(assignment)])), None)

    image = search(())
    return None if image is None else tuple((g, split[image[position[g]]]) for g in group.elements)


def old_smith_normal_form(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: returns (u, d, v) with d = u @ m @ v.

    d is diagonal with nonnegative entries d1 | d2 | ..., u and v unimodular.
    """
    nr, nc = m.nrows, m.ncols
    d = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        d[dst] = [a + q * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(nr, nc):
        # Find a nonzero pivot in the trailing block.
        entries = [(abs(d[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if d[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            reduced = True
            for i in range(t + 1, nr):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, nc):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        reduced = False
            if not reduced:
                continue
            # Enforce divisibility: pivot must divide every trailing entry.
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if d[i][j] % d[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return IntMat.from_rows(u), IntMat.from_rows(d), IntMat.from_rows(v)


def old_fixed_locus(n: int, rows: Sequence[Sequence[int]]) -> tuple[TorsionPoint, ...] | None:
    """All v in (Q/Z)^n with r . v in Z for every row r, sorted, from one Smith form; None in place of infinitely many."""
    _, d, v = old_smith_normal_form(IntMat.from_rows(rows))
    divisors = [d.rows[i][i] if i < d.nrows else 0 for i in range(n)]
    if 0 in divisors:
        return None
    axes = [[Fraction(k, di) for k in range(di)] for di in divisors]
    return sorted_points(TorsionPoint.make(v.apply(combo)) for combo in itertools.product(*axes))


def old_act(g: IntMat, p: TorsionPoint) -> TorsionPoint:
    """The Fraction action v -> g^T v mod 1."""
    if len(p.coords) != g.nrows:
        raise ValueError("dimension mismatch")
    return TorsionPoint.make(sum(row[j] * c for row, c in zip(g.rows, p.coords)) for j in range(g.ncols))


def old_first_moved_point(group, points):
    """The scan of ``torussym.first_moved_point`` through the Fraction action."""
    for g in group.nonidentity():
        for p in points:
            if old_act(g, p) != p:
                return g, p
    return None


def old_hermite_normal_form(m: IntMat) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form (h, u), h = u @ m, carrying u through every row operation."""
    h = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(m.nrows)] for i in range(m.nrows)]
    nr, nc = m.nrows, m.ncols
    r = 0
    for c in range(nc):
        while True:
            nz = [i for i in range(r, nr) if h[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][c]))
            if piv != r:
                h[r], h[piv] = h[piv], h[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, nr):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < nr and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == nr:
                break
    return IntMat.from_rows(h), IntMat.from_rows(u)


def old_from_vectors(ambient, vectors):
    """``LatticeBasis.from_vectors`` through the transform-carrying Hermite form, the transform dropped."""
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if any(len(v) != ambient for v in vecs):
        raise ValueError("vector length differs from ambient rank")
    if not vecs:
        return LatticeBasis(ambient, ())
    h, _ = old_hermite_normal_form(IntMat.from_rows(vecs))
    return LatticeBasis(ambient, tuple(r for r in h.rows if any(x != 0 for x in r)))


def old_hermite(h: list[list[int]], nc: int) -> list[list[int]]:
    """Hermite row elimination of the first nc columns of h, in place; later columns ride along."""
    nr, r = len(h), 0
    for c in range(nc):
        # Euclidean row reduction in column c below row r, the smallest entry first.
        while nz := [i for i in range(r, nr) if h[i][c]]:
            piv = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[piv] = h[piv], h[r]
            if len(nz) == 1:
                break
            for i in range(r + 1, nr):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
        if r < nr and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
            r += 1
    return h


def old_hermite_pair(m: IntMat) -> tuple[IntMat, IntMat]:
    """``hermite_normal_form`` through ``old_hermite``: the transform rides along as identity columns."""
    nr, nc = m.nrows, m.ncols
    rows = old_hermite([list(r) + [int(i == j) for j in range(nr)] for i, r in enumerate(m.rows)], nc)
    return IntMat.from_rows(r[:nc] for r in rows), IntMat.from_rows(r[nc:] for r in rows)


def old_forced_critical_points(group):
    """Enumeration of subsets, in index order, whose rank rises at each element."""
    n = group.dim
    ident = IntMat.identity(n)
    candidates = group.nonidentity()
    deltas = {g: [tuple(a - b for a, b in zip(row, irow)) for row, irow in zip(g.rows, ident.rows)] for g in candidates}
    found = set()

    def extend(start, chosen, stacked_rows, rank):
        for idx in range(start, len(candidates)):
            g = candidates[idx]
            rows = stacked_rows + deltas[g]
            new_rank = old_rational_rank(rows)
            if new_rank == rank:
                continue
            subset = chosen + [g]
            if new_rank == n:
                fixed = old_fixed_locus(n, [row for g in subset for row in _delta_rows(g)])
                assert fixed is not None
                found.update(fixed)
            elif len(subset) < n:
                extend(idx + 1, subset, rows, new_rank)

    extend(0, [], [], 0)
    return sorted_points(found)


def old_lattice_forced_critical_points(group: MatrixGroup) -> FixedPointSet:
    """Points every admissible monodromy element must fix.

    A point is forced when some subset S of the group fixes it while S has
    no common fixed vector.  Fix(S) depends only on L(S), the row lattice of
    the stacked g^T - I for g in S, which has rank n exactly when S has no
    common fixed vector; L(S + g) = L(S) + L(g) and L(g^-1) = L(g).  A
    breadth-first search over canonical LatticeBasis states adds one
    distinct L(g) per step, skipping a step whose rows are members of the
    state or that does not raise its rank.  Conjugation by h maps L(S) to
    L(S) h^T, so the orbit of each new state, walked by ``cayley_closure``,
    is marked seen and only the state itself is extended.  The answer unites
    the loci of the seen states of rank n, read off their Hermite bases.  It
    is exact: a subset S of rank n holds a subset, in index order, whose rank
    rises at each element; the search marks the state of that subset seen,
    and its locus contains Fix(S).  The loci stay integer numerators over
    their det H until they are united over the lcm of those dets; then one
    TorsionPoint is built per point.
    """
    n, gens = group.dim, group.generators()
    steps = dict.fromkeys(LatticeBasis.from_vectors(n, _delta_rows(g)) for g in group.nonidentity())
    seen: set[LatticeBasis] = set()
    queue = [LatticeBasis(n, ())]
    for state in queue:  # appended to while read, so breadth first
        for step in steps:
            if all(map(state.member, step.basis)):
                continue
            joined = LatticeBasis.from_vectors(n, state.basis + step.basis)
            if joined.rank == state.rank or joined in seen:
                continue
            orbit = cayley_closure(joined, gens, lambda s, h: LatticeBasis.from_vectors(n, map(h.apply, s.basis)))
            seen.update(orbit)
            if joined.rank < n:
                queue.append(joined)
    loci = [_full_rank_locus(state.basis) for state in seen if state.rank == n]
    den = math.lcm(*(det for det, _ in loci))
    return FixedPointSet(n, _points(den, {tuple(a * (den // det) for a in x) for det, xs in loci for x in xs}))


def old_unpruned_forced_critical_points(group: MatrixGroup) -> FixedPointSet:
    """``torussym.forced_critical_points`` before it pruned joins: every queued state tries every step.

    One step per cyclic subgroup; a step joined to the zero state is the step itself; conjugation
    orbits are walked only for states below rank n, under the generators that are not central;
    the points are the full-rank loci closed under x -> g^T x.
    """
    n, gens = group.dim, group.generators()
    perm = dict(zip(group, group.perms))
    moving = [h for h in gens if any(compose(perm[h], perm[g]) != compose(perm[g], perm[h]) for g in gens)]
    steps = dict.fromkeys(LatticeBasis._of(n, [*_delta_rows(g)]) for g in group.cyclic_generators())
    seen: set[LatticeBasis] = set()
    queue = [LatticeBasis(n, ())]
    for state in queue:  # appended to while read, so breadth first
        for step in steps:
            if state.rank and all(map(state.member, step.basis)):
                continue
            joined = LatticeBasis._of(n, [*state.basis, *step.basis]) if state.rank else step
            if joined.rank == state.rank or joined in seen:
                continue
            seen.add(joined)
            if joined.rank < n:
                queue.append(joined)
                if moving:
                    orbit = cayley_closure(joined, moving, lambda s, h: LatticeBasis._of(n, [*map(h.apply, s.basis)]))
                    seen.update(orbit)
    loci = [_full_rank_locus(state.basis) for state in seen if state.rank == n]
    den = math.lcm(*(det for det, _ in loci))
    points = list({tuple(a * (den // det) for a in x) for det, xs in loci for x in xs})
    closed, transposes = set(points), [h.transpose() for h in moving]
    for x in points:  # appended to while read: the closure under every g^T
        for gt in transposes:
            if (y := _image(gt, den, x)) not in closed:
                closed.add(y)
                points.append(y)
    return FixedPointSet(n, _points(den, closed))


@functools.lru_cache(maxsize=None)
def old_cyclotomic_polynomial(d):
    """x^d - 1 divided by the cyclotomic polynomials of all proper divisors of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for k in divisors(d)[:-1]:
        poly = old_polydiv_exact(poly, list(old_cyclotomic_polynomial(k)))
    return tuple(poly)


def old_enumerate_vertices(p):
    """One Fraction solve per n-subset of facets, then a Fraction feasibility and activity test."""
    n, N = p.dim, p.nfacets
    points = {}
    for subset in itertools.combinations(range(N), n):
        rows = [list(p.normals[j]) for j in subset]
        rhs = [-p.offsets[j] for j in subset]
        solved = old_solve_rational_system(rows, rhs)
        if solved is None:
            continue
        point, kernel = solved
        if kernel:
            continue
        if all(dot(point, p.normals[j]) >= -p.offsets[j] for j in range(N)):
            points.setdefault(tuple(point), None)
    out = []
    for point in sorted(points):
        active = tuple(j for j in range(N) if dot(point, p.normals[j]) == -p.offsets[j])
        out.append(Vertex(point, active))
    return out


def old_recession_ray(p):
    """The kernel of all normals, else an extreme ray of the recession cone, by Fraction kernels."""
    n, N = p.dim, p.nfacets
    kernel = old_rational_kernel_basis([list(nu) for nu in p.normals], n)
    if kernel:
        return primitive_vector(kernel[0])
    for subset in itertools.combinations(range(N), n - 1):
        kernel = old_rational_kernel_basis([list(p.normals[j]) for j in subset], n)
        if len(kernel) != 1:
            continue
        direction = primitive_vector(kernel[0])
        for candidate in (direction, tuple(-x for x in direction)):
            if all(dot(candidate, nu) >= 0 for nu in p.normals):
                return candidate
    return None


def old_validate_delzant(p):
    """validate_delzant over the Fraction vertex enumeration, with compactness by recession ray."""
    warnings = ()
    if p.mode is Mode.VERTEX_REQUIRED:
        warnings = ("UNCHECKED_TOPOLOGY: vertex mode only checks for a vertex",)
    for j, nu in enumerate(p.normals):
        if all(x == 0 for x in nu) or math.gcd(*nu) != 1:
            return ValidationReport(False, "NON_PRIMITIVE_NORMAL", f"facet {j + 1} normal {nu}", warnings=warnings)
    if len(set(p.normals)) != p.nfacets:
        return ValidationReport(False, "DUPLICATE_NORMAL", "repeated facet normal", warnings=warnings)
    if p.nfacets < p.dim:
        return ValidationReport(False, "TOO_FEW_FACETS", f"{p.nfacets} facets in dimension {p.dim}", warnings=warnings)
    vertices = tuple(old_enumerate_vertices(p))
    if not vertices:
        code = "NOT_COMPACT" if p.mode is Mode.COMPACT else "NO_VERTEX"
        return ValidationReport(False, code, "no vertex found", warnings=warnings)
    for v in vertices:
        if len(v.active) != p.dim:
            witness = f"vertex {_fmt_point(v.point)} lies on facets {[j + 1 for j in v.active]}"
            return ValidationReport(False, "VERTEX_SIMPLICITY", witness, vertices=vertices, warnings=warnings)
    for v in vertices:
        det = IntMat.from_rows([p.normals[j] for j in v.active]).det()
        if abs(det) != 1:
            witness = f"vertex {_fmt_point(v.point)} has normal determinant {det}"
            return ValidationReport(False, "VERTEX_SMOOTHNESS", witness, vertices=vertices, warnings=warnings)
    touched = set(itertools.chain.from_iterable(v.active for v in vertices))
    for j in range(p.nfacets):
        if j not in touched:
            return ValidationReport(
                False, "REDUNDANT_FACET", f"facet {j + 1} supports no vertex", vertices=vertices, warnings=warnings
            )
    if p.mode is Mode.COMPACT:
        ray = old_recession_ray(p)
        if ray is not None:
            return ValidationReport(
                False, "NOT_COMPACT", f"unbounded along direction {ray}", vertices=vertices, warnings=warnings
            )
    return ValidationReport(True, vertices=vertices, warnings=warnings)


def old_toric_records(data):
    """The group and matrix block of ``cli.run_toric``: each group walked, and its generators induced, on its own."""
    hamiltonian = hamiltonian_monodromy(data)
    symplectic = symplectic_monodromy(data)
    records = []
    for name, group in (("hamiltonian", hamiltonian), ("symplectic", symplectic)):
        gens = group.generators()
        mats = induced_matrices(data, gens)
        records.append(
            {
                "record": name,
                "order": group.order,
                "generators": [cycle_notation(p) for p in gens] or ["id"],
                "induced": [f"{cycle_notation(p)} -> {m}" for p, m in zip(gens, mats)],
                "matrix_group_order": group.order,
            }
        )
    records.append({"record": "equal_groups", "value": hamiltonian == symplectic})
    return records


def old_toric_run(p):
    """(exit code, records) of ``toric`` on p, over the Fraction validation and normalisation and the old group block."""
    records = [{"record": "polytope", "dim": p.dim, "facets": p.nfacets, "mode": p.mode.value}]
    report = old_validate_delzant(p)
    records.append(
        {
            "record": "validation",
            "status": "PASS" if report.ok else "FAIL",
            "failure": report.failure or "",
            "witness": report.witness or "",
            "warnings": list(report.warnings),
        }
    )
    if not report.ok:
        return 2, records
    try:
        normalized = old_monotone_normalize(p)
    except NotMonotoneError as exc:
        return 2, records + [{"record": "monotone", "status": "FAIL", "reason": str(exc)}]
    data = toric_fiber_data(normalized)
    records += [
        {"record": "monotone", "status": "OK", "offset": normalized.offsets[0]},
        {"record": "relations", "rank": data.relations.rank, "basis": [list(v) for v in data.relations.basis]},
        {"record": "potential", "value": str(data.potential)},
        {
            "record": "partition",
            "blocks": [[i + 1 for i in block] for block in data.partition.blocks],
            "bound_ok": partition_bound_check(data.partition, p.dim),
        },
    ]
    return 0, records + old_toric_records(data)


def old_normal_base(data):
    """One Fraction row reduction of (normals as columns | identity), scaled by the least common denominator."""
    normals, dim = data.polytope.normals, data.polytope.dim
    nfacets = len(normals)
    reduced, pivots = old_rational_rref(
        [[nu[i] for nu in normals] + [int(i == j) for j in range(dim)] for i in range(dim)]
    )
    base = tuple(p for p in pivots if p < nfacets)
    den = math.lcm(*(x.denominator for row in reduced for x in row))
    scaled = [[x.numerator * (den // x.denominator) for x in row] for row in reduced]
    coords = tuple(tuple(row[j] for row in scaled[: len(base)]) for j in range(nfacets))
    return base, coords, IntMat.from_rows(row[nfacets:] for row in scaled), den


def old_bareiss(m):
    """Square-block Bareiss elimination that stops at the first column with no pivot."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return None
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(m[i])):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign, m


def old_det(rows):
    eliminated = old_bareiss([list(r) for r in rows])
    return 0 if eliminated is None else eliminated[0] * eliminated[1][-1][-1]


def old_bareiss_solve(a, b):
    eliminated = old_bareiss([list(r) + [v] for r, v in zip(a, b)])
    if eliminated is None:
        return None
    _, m = eliminated
    n = len(m)
    det = m[-1][n - 1]
    y = [0] * n
    for k in range(n - 1, -1, -1):
        total = det * m[k][n] - sum(m[k][j] * y[j] for j in range(k + 1, n))
        y[k] = total // m[k][k]
    return det, y


# ---------------------------------------------------------------------------
# Strategies


small = st.integers(-2, 2)


@st.composite
def cyclotomics(draw, conductors=CONDUCTORS, denominators=(1,)):
    d = draw(st.sampled_from(conductors))
    coeffs = draw(st.lists(small, min_size=d, max_size=d))
    den = draw(st.sampled_from(denominators))
    return Cyc(d, tuple(Fraction(c, den) for c in coeffs))


@st.composite
def two_column_rows(draw):
    """Rows (a, b) over one Q(zeta_d), the second column often dependent on the first."""
    field = cyclotomics(conductors=(draw(st.sampled_from(CONDUCTORS)),))
    n = draw(st.integers(1, 8))
    first = draw(st.lists(field, min_size=n, max_size=n))
    shape = draw(st.sampled_from(("random", "multiple", "zero")))
    if shape == "random":
        second = draw(st.lists(field, min_size=n, max_size=n))
    elif shape == "multiple":
        factor = draw(field)
        second = [factor * a for a in first]
    else:
        second = [Cyc.zero()] * n
    return [list(r) for r in zip(first, second)]


@st.composite
def subfield_elements(draw, max_conductor=72, conductors=None):
    """(d, coefficients of zeta_d^0 .. zeta_d^(d-1)) of a random value of a subfield Q(zeta_c).

    The value is a random element of Q(zeta_c), c | d, with denominators up
    to 3, written through zeta_c = zeta_d^(d/c) and then moved by a random
    Galois automorphism zeta_d -> zeta_d^k.
    """
    d = draw(st.sampled_from(conductors) if conductors else st.integers(1, max_conductor))
    c = draw(st.sampled_from(divisors(d)))
    numerators = draw(st.lists(st.integers(-3, 3), min_size=euler_phi(c), max_size=euler_phi(c)))
    den = draw(st.integers(1, 3))
    k = draw(st.sampled_from([k for k in range(1, d + 1) if math.gcd(k, d) == 1]))
    spread = [Fraction(0)] * d
    for i, x in enumerate(numerators):
        spread[i * (d // c) * k % d] += Fraction(x, den)
    return d, spread


@st.composite
def clifford_problems(draw):
    """Clifford data (integers, or one random conductor) with an upper-triangular action."""
    conductor = draw(st.sampled_from(CONDUCTORS))
    if draw(st.booleans()):
        constants = [Cyc.from_rational(draw(st.integers(-2, 2))) for _ in range(3)]
    else:
        constants = draw(st.lists(cyclotomics(conductors=(conductor,)), min_size=3, max_size=3))
    eps1, eps2 = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    action = IntMat.from_rows([[eps1, draw(st.integers(-4, 4))], [0, eps2]])
    return CliffordData(*constants), action, draw(st.sampled_from(("even", "odd")))


def polytope_product(a, b):
    """Product of two monotone polytopes: the normals of each, padded with zeros."""
    normals = [nu + (0,) * b.dim for nu in a.normals] + [(0,) * a.dim + nu for nu in b.normals]
    return DelzantPolytope(a.dim + b.dim, tuple(normals), a.offsets + b.offsets)


SETWISE_BASES = {
    **STANDARD_FIXTURES,
    "cube4": cube(4),
    "cp1xcp1xcp2": projective_product((1, 1, 2)),
    "bl2cp2xcp1": polytope_product(blowup_cp2(2), projective_product((1,))),
}


@st.composite
def rebased_polytopes(draw):
    """A base polytope under a facet shuffle and a unimodular change of basis.

    The change of basis is a signed permutation of coordinates followed by a
    few elementary shears; it keeps every offset, so the copy stays monotone.
    """
    name = draw(st.sampled_from(sorted(SETWISE_BASES)))
    p = SETWISE_BASES[name]
    n = p.dim
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    u = IntMat.from_rows([[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)])
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            shear = [[int(r == c) for c in range(n)] for r in range(n)]
            shear[i][j] = draw(st.sampled_from((1, -1)))
            u = IntMat.from_rows(shear) @ u
    order = draw(st.permutations(range(p.nfacets)))
    normals = tuple(u.apply(p.normals[j]) for j in order)
    return name, DelzantPolytope(n, normals, tuple(p.offsets[j] for j in order), p.mode)


@st.composite
def normal_sets(draw):
    """Distinct primitive vectors with offsets 1: no Delzant condition, any base index or rank."""
    dim = draw(st.integers(2, 3))
    vector = st.tuples(*[st.integers(-2, 2)] * dim).filter(lambda v: math.gcd(*v) == 1)
    normals = draw(st.lists(vector, min_size=dim, max_size=6, unique=True))
    return DelzantPolytope(dim, tuple(normals), (Fraction(1),) * len(normals))


def int_polys(min_size=1, max_size=12):
    return st.lists(st.integers(-4, 4), min_size=min_size, max_size=max_size)


FOLD_ORDERS = (60, 72, 105, 120, 128, 210, 243, 360, 420, 1155)


@st.composite
def fold_images(draw):
    """(d, image in Z[x]/(x^d - 1)) at an order with three or more primes or a prime power of 8 or more.

    The image is a few random terms, a wrapped multiple of Phi_d (zero in
    Z[zeta_d]), or such a multiple plus one more unit term (never zero).
    """
    d = draw(st.sampled_from(FOLD_ORDERS))
    terms = draw(st.dictionaries(st.integers(0, d - 1), st.integers(-3, 3), max_size=6))
    shape = draw(st.sampled_from(("terms", "multiple", "multiple plus one")))
    image = [0] * d
    for e, c in terms.items():
        for j, a in enumerate((1,) if shape == "terms" else cyclotomic_polynomial(d)):
            image[(e + j) % d] += c * a
    if shape == "multiple plus one":
        image[draw(st.integers(0, d - 1))] += draw(st.sampled_from((1, -1)))
    return d, image


def old_grid_scan(w, bound):
    """Every grid point, each affine partial's image reduced modulo Phi_d by the old loop."""
    partials = [w.partial(i) for i in range(w.dim)]
    out = []
    for combo in itertools.product(range(bound), repeat=w.dim):
        d = bound // math.gcd(bound, *combo)
        scaled = [k * d // bound for k in combo]
        images = [[0] * d for _ in partials]
        for image, f in zip(images, partials):
            for e, c in f.terms:
                image[dot(e, scaled) % d] += c
        if not any(any(old_phi_residue(image, d)) for image in images):
            out.append(TorsionPoint.make(Fraction(k, bound) for k in combo))
    return tuple(out)


def cyclotomic_product(ds):
    out = [1]
    for d in ds:
        phi = cyclotomic_polynomial(d)
        prod = [0] * (len(out) + len(phi) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(phi):
                prod[i + j] += x * y
        out = prod
    return out


# ---------------------------------------------------------------------------
# Elimination


class TestElimination:
    @settings(max_examples=40, deadline=None)
    @given(two_column_rows())
    def test_kernel_over_cyclotomics_equals_old_loop(self, rows):
        assert _two_column_kernel(rows) == old_kernel_pairs(rows)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(cyclotomics(), min_size=3, max_size=3),
        st.sampled_from((1, -1)),
        st.integers(-3, 3),
        st.sampled_from((1, -1)),
        st.sampled_from(("even", "odd")),
    )
    def test_solution_space_equals_old(self, constants, eps1, m, eps2, parity):
        data = CliffordData(*constants)
        action = IntMat.from_rows([[eps1, m], [0, eps2]])
        assert _solution_space(data, action, parity) == old_solution_space(data, action, parity)

    def test_solution_space_on_rational_constants(self):
        for lam in range(-2, 3):
            for mu in range(-1, 2):
                data = clifford_data(lam, mu, 1)
                for m in range(-2, 3):
                    action = IntMat.from_rows([[1, m], [0, -1]])
                    for parity in ("even", "odd"):
                        assert _solution_space(data, action, parity) == old_solution_space(data, action, parity)


class TestNorm:
    @settings(max_examples=80, deadline=None)
    @given(cyclotomics(conductors=tuple(range(1, 31)), denominators=(1, 2, 3, 6)))
    def test_norm_equals_old_fraction_determinant(self, x):
        assert x.norm() == old_norm(x)

    def test_norm_of_roots_of_unity_and_zero(self):
        for d in (3, 4, 5, 7, 8, 9, 12, 15, 60):
            assert abs(zeta(d).norm()) == 1
            assert zeta(d).norm() == old_norm(zeta(d))
        assert Cyc.zero().norm() == 0


# ---------------------------------------------------------------------------
# Division


class TestDivision:
    @settings(max_examples=60, deadline=None)
    @given(int_polys(), st.lists(st.integers(-3, 3), min_size=0, max_size=5))
    def test_monic_integer_division_equals_old_try_divide(self, num, low):
        num = old_trim(num)
        den = low + [1]
        quotient, rem = _polydivmod(num, den)
        old = old_try_divide(num, den)
        if len(num) < len(den):
            assert old is None and rem == num + [0] * (len(den) - 1 - len(num))
        elif old is None:
            assert any(rem)
        else:
            assert not any(rem) and quotient == old
        assert all(isinstance(x, int) for x in quotient + rem)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 24), min_size=1, max_size=4, unique=True), st.integers(1, 24))
    def test_exact_division_by_phi_equals_old(self, ds, k):
        num = cyclotomic_product(sorted(set(ds) | {k}))
        phi = list(cyclotomic_polynomial(k))
        quotient, rem = _polydivmod(num, phi)
        assert not any(rem)
        assert quotient == old_polydiv_exact(num, phi)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_phi_residue_equals_old_reduction(self, d, data):
        image = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        assert _polydivmod(image, cyclotomic_polynomial(d))[1] == old_phi_residue(image, d)

    def test_cyclotomic_polynomials_equal_old_construction(self):
        for d in range(1, 301):
            assert cyclotomic_polynomial(d) == old_cyclotomic_polynomial(d), d


class TestFold:
    @settings(max_examples=80, deadline=None)
    @given(fold_images())
    def test_zero_test_equals_phi_residue(self, case):
        d, image = case
        residue = old_phi_residue(image, d)
        folded = _fold(list(image), d)
        assert (not any(folded)) == (not any(residue))
        assert _polydivmod(folded, cyclotomic_polynomial(d))[1] == residue  # same value
        for p in prime_divisors(d):
            q = math.gcd(d, p**d.bit_length())
            assert all(e % q < q - q // p for e, c in enumerate(folded) if c)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(fold_images(), st.integers(-9, 9).map(lambda c: (1, [c]))), st.sampled_from((1, 2, -3)))
    def test_image_path_equals_constructor_that_leaves_its_input(self, case, den):
        d, image = case
        given = list(image)
        assert Cyc._from_image(d, list(image), den) == Cyc(d, given, den)
        assert given == image

    @pytest.mark.parametrize("bound", [30, 48, 60])
    def test_triangle_grid_equals_phi_residue_scan(self, bound):
        w = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        assert torsion_critical_points(w, bound) == old_grid_scan(w, bound)


# ---------------------------------------------------------------------------
# Bezout pair of the isotropic reduction


class TestBezout:
    FORMS = [
        BinaryForm(lam, mu2, nu)
        for lam, mu2, nu in itertools.product(range(-12, 13), repeat=3)
        if mu2 * mu2 - lam * nu in (1, -1)
    ]

    def test_reduction_equals_extended_gcd(self):
        assert len(self.FORMS) == 254
        differ = 0
        for q in self.FORMS:
            new = reduce_binary_form(q)
            with mock.patch.object(floer, "hermite_normal_form", old_bezout_hermite):
                assert reduce_binary_form(q) == new, q
            if q.discriminant() == 1 and q.lam:
                num, den = -q.mu2 + 1, q.lam
                g = math.gcd(num, den)
                p, r = num // g, den // g
                pair = hermite_normal_form(IntMat.from_rows([[p], [r]]))[1].rows[0]
                differ += pair != old_extended_gcd(p, r)[1:]
        assert differ > 0  # the pairs do differ; the shear after them absorbs it


# ---------------------------------------------------------------------------
# Rank-one cyclotomic profile


class TestFactorProfile:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(-3, 5), st.integers(-3, 3).filter(bool), min_size=1, max_size=5))
    def test_random_polynomials_equal_old_profile(self, poly):
        assert _cyclotomic_factor_profile(poly) == old_factor_profile(poly)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True),
        st.sampled_from((1, -1, 2, -3)),
        st.integers(-2, 2),
    )
    def test_products_of_distinct_phi_equal_old_profile(self, ds, content, shift):
        coeffs = cyclotomic_product(ds)
        poly = {i + shift: content * c for i, c in enumerate(coeffs) if c}
        expected = old_factor_profile(poly)
        assert expected == (content, sorted(ds))
        assert _cyclotomic_factor_profile(poly) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 12), max_size=3),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(lambda noise: noise[0] and noise[-1]),
        st.sampled_from((1, -1, 2, -3)),
        st.integers(-2, 2),
    )
    def test_noisy_products_equal_old_profile(self, ds, noise, content, shift):
        # Phi_d, repeats allowed, times a noise factor: a leading coefficient or
        # constant term other than +-1 is refused before the sieve, and only then.
        coeffs = [int(c) for c in old_polymul(cyclotomic_product(ds), noise)]
        poly = {i + shift: content * c for i, c in enumerate(coeffs) if c}
        assert _cyclotomic_factor_profile(poly) == old_factor_profile(poly)

    def test_repeated_factor_is_refused(self):
        coeffs = cyclotomic_product([3, 3, 4])
        poly = {i: c for i, c in enumerate(coeffs) if c}
        assert _cyclotomic_factor_profile(poly) is None is old_factor_profile(poly)


# ---------------------------------------------------------------------------
# Cyclotomic canonical form, promotion and inverse


class TestCanonicalForm:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(subfield_elements(), subfield_elements(conductors=(105, 120, 210))))
    def test_construction_equals_divisor_scan(self, case):
        d, spread = case
        value = Cyc(d, tuple(spread))
        conductor, coeffs = old_canonicalize(d, old_polymod(spread, d))
        assert (value.conductor, value.coeffs) == (conductor, tuple(coeffs))

    @settings(max_examples=40, deadline=None)
    @given(subfield_elements(max_conductor=36), st.integers(1, 4))
    def test_promotion_equals_power_table(self, case, multiple):
        d, spread = case
        value = Cyc(d, tuple(spread))
        target = value.conductor * multiple
        assert promoted_coeffs(value, target) == old_promoted_coeffs(value, target)

    @settings(max_examples=60, deadline=None)
    @given(cyclotomics(conductors=tuple(range(1, 31)), denominators=(1, 2, 3)))
    def test_inverse_equals_euclidean(self, x):
        if x.is_zero():
            return
        assert x.inverse() == old_inverse(x)

    @settings(max_examples=60, deadline=None)
    @given(cyclotomics(conductors=tuple(range(1, 31)) + (35, 36), denominators=(1, 2, 3, 6)))
    def test_inverse_equals_fraction_solve(self, x):
        if x.is_zero():
            return
        inverse = x.inverse()
        assert inverse == old_solve_inverse(x)
        assert x * inverse == Cyc.one()
        # The fast constructor must leave the same canonical form as the full one.
        assert inverse == Cyc(inverse.conductor, inverse.coeffs)


@st.composite
def old_and_new(draw, conductor):
    """The same value built by the new and the old class, from int entries or Fractions over 2, 3 or 6."""
    den = draw(st.sampled_from((1, 2, 3, 6)))
    nums = draw(st.lists(small, min_size=0, max_size=conductor + 2))
    entries = tuple(nums) if den == 1 else tuple(Fraction(c, den) for c in nums)
    return Cyc(conductor, entries), OldCyclotomicNumber(conductor, entries)


def assert_same(new, old):
    assert (new.conductor, new.coeffs, str(new)) == (old.conductor, old.coeffs, str(old))
    assert all(isinstance(c, Fraction) for c in new.coeffs)


class TestOldClass:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 36), st.data())
    def test_unary_operations_equal_old_class(self, d, data):
        new, old = data.draw(old_and_new(d))
        assert_same(new, old)
        assert new == Cyc(new.conductor, new.coeffs)
        assert_same(-new, -old)
        assert new.norm() == old.norm()
        assert new.is_integral() == old.is_integral()
        assert new.is_integral_unit() == old.is_integral_unit()
        c = new.conductor
        a = data.draw(st.sampled_from([a for a in range(1, 2 * c + 1) if math.gcd(a, c) == 1]))
        assert_same(galois(new, a), old.galois(a))
        multiple = data.draw(st.integers(1, 3))
        assert promoted_coeffs(new, c * multiple) == old.promoted_coeffs(c * multiple)
        if new:
            assert_same(new.inverse(), old.inverse())
        for q in (0, 1, -2, Fraction(1, 2), Fraction(-3, 4)):
            assert_same(new * q, old * q)
            assert_same(new + q, old + q)
            assert_same(Cyc.from_rational(q) - new, q - old)
            if q:
                assert_same(new / q, old / q)
            if new:
                assert_same(Cyc.from_rational(q) / new, q / old)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 36), st.integers(1, 3), st.data())
    def test_binary_operations_equal_old_class(self, d, multiple, data):
        x, old_x = data.draw(old_and_new(d))
        y, old_y = data.draw(old_and_new(data.draw(st.sampled_from(divisors(d * multiple)))))
        assert_same(x + y, old_x + old_y)
        assert_same(x - y, old_x - old_y)
        assert_same(x * y, old_x * old_y)
        if y:
            assert_same(x / y, old_x / old_y)


class TestRationalScaling:
    @settings(max_examples=80, deadline=None)
    @given(
        cyclotomics(conductors=tuple(range(1, 31)), denominators=(1, 2, 3)),
        st.sampled_from((0, 1, -1, 2, -3, Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4))),
    )
    def test_scaling_equals_canonicalising_constructor(self, x, q):
        expected = Cyc(x.conductor, tuple(q * c for c in x.coeffs))
        assert x * q == expected
        assert x * Cyc.from_rational(q) == expected
        assert Cyc.from_rational(q) * x == expected
        assert -x == Cyc(x.conductor, tuple(-c for c in x.coeffs))
        assert (x * q).conductor == (x.conductor if q else 1)

    @settings(max_examples=40, deadline=None)
    @given(cyclotomics(), cyclotomics())
    def test_sum_with_zero_is_unchanged(self, x, y):
        zero = Cyc.zero()
        assert x + zero == x and zero + x == x and x - zero == x
        assert zero - x == -x == Cyc(x.conductor, tuple(-c for c in x.coeffs))
        assert (x + y) - y == x


# ---------------------------------------------------------------------------
# Continuation search


unit_diagonal_actions = st.builds(
    lambda eps1, m, eps2: IntMat.from_rows([[eps1, m], [0, eps2]]),
    st.sampled_from((1, -1)),
    st.integers(-4, 4),
    st.sampled_from((1, -1)),
)
parities = st.sampled_from(("even", "odd"))


class TestClosedForms:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(cyclotomics(), min_size=3, max_size=3), unit_diagonal_actions, parities)
    def test_residual_columns_equal_clifford_products(self, constants, action, parity):
        data = CliffordData(*constants)
        assert list(_residual_columns(data, action, parity)) == old_residual_columns(data, action, parity)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(cyclotomics(), min_size=3, max_size=3),
        cyclotomics(denominators=(1, 2)),
        cyclotomics(denominators=(1, 3)),
        parities,
    )
    def test_norm_form_equals_clifford_product(self, constants, x1, x2, parity):
        data = CliffordData(*constants)
        c = _element_from_pair((x1, x2), parity)
        assert _form_value(_norm_form(data, parity), x1, x2) == _parity_norm(c, data, parity)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(cyclotomics(), min_size=3, max_size=3), st.integers(-6, 6), st.integers(-6, 6), parities)
    def test_norm_form_on_integer_pairs(self, constants, x1, x2, parity):
        data = CliffordData(*constants)
        c = _element_from_pair((Cyc.from_rational(x1), Cyc.from_rational(x2)), parity)
        assert _form_value(_norm_form(data, parity), x1, x2) == _parity_norm(c, data, parity)


class TestBoundedSearch:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(clifford_problems(), st.integers(0, 6))
    def test_witness_equals_residual_column_screen(self, problem, height):
        data, action, parity = problem
        solutions = _solution_space(data, action, parity)
        assume(len(solutions) == 1)  # the only spaces continuation_solvable searches
        found = _bounded_search(data, action, parity, height, solutions)
        assert found == old_bounded_search(data, action, parity, height)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(clifford_problems(), st.integers(0, 60))
    def test_witness_equals_old_line_search(self, problem, height):
        data, action, parity = problem
        solutions = _solution_space(data, action, parity)
        assume(len(solutions) == 1)  # the only spaces continuation_solvable searches
        found = _bounded_search(data, action, parity, height, solutions)
        assert found == old_line_search(data, action, parity, height, solutions)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(clifford_problems(), st.integers(0, 60))
    def test_one_norm_before_the_witness_check(self, problem, height):
        data, action, parity = problem
        solutions = _solution_space(data, action, parity)
        assume(len(solutions) == 1)
        search = functools.partial(_bounded_search, data, action, parity, height, solutions)
        assert norms_before_witness_check(search) <= 1

    @pytest.mark.parametrize("unit", [1, -1, zeta(3), zeta(4), zeta(5) + 1, zeta(12, 5), 2, zeta(4) + 1])
    def test_unit_at_depth_equals_old_line_search(self, unit):
        # With mu = nu and 2 lam != mu the odd solution line of [[1, -1], [0, -1]] is (0, 1), where
        # the parity norm at (0, k) is k^2 nu: nu = unit / j^2 puts the only witness at k = j.
        action = IntMat.from_rows([[1, -1], [0, -1]])
        is_unit = (Cyc.one() * unit).is_integral_unit()
        for j in range(1, 8):
            nu = Cyc.from_rational(Fraction(1, j * j)) * unit
            data = CliffordData(Cyc.from_rational(3), nu, nu)
            solutions = _solution_space(data, action, "odd")
            assert solutions == [(Cyc.zero(), Cyc.one())]
            for height in (j - 1, j, 60):
                found = _bounded_search(data, action, "odd", height, solutions)
                assert found == old_line_search(data, action, "odd", height, solutions)
                expected = CliffordElement.odd(0, -j) if is_unit and height >= j else None
                assert found == expected, (unit, j, height)

    @pytest.mark.parametrize(
        "nu, av, status",
        [(Fraction(1, 4), -2, "solvable"), (Fraction(1, 9), -3, "solvable"), (Fraction(1, 2601), None, "unknown")],
    )
    def test_pinned_depths(self, nu, av, status):
        # lam = 1/4, mu = nu: the unit on the line (0, 1) lies at k = 2, 3 and 51, one past SEARCH_HEIGHT.
        data = CliffordData(*(Cyc.from_rational(x) for x in (Fraction(1, 4), nu, nu)))
        action = IntMat.from_rows([[1, -1], [0, -1]])
        result = continuation_solvable(data, action, "odd", 1)
        assert result.status == status
        assert result.witness == (None if av is None else CliffordElement.odd(0, av))
        assert norms_before_witness_check(lambda: continuation_solvable(data, action, "odd", 1)) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        cyclotomics(conductors=(1, 3, 4)),
        cyclotomics(conductors=(1, 3, 4)),
        st.sampled_from((None, Fraction(2, 3), Fraction(-3), Fraction(0), Fraction(1, 4))),
        st.integers(0, 8),
    )
    def test_line_points_equal_pair_screen(self, v1, v2, slope, height):
        # A drawn slope makes v2 a rational multiple of v1, so the line has points.
        if slope is not None:
            v2 = v1 * Cyc.from_rational(slope)
        if v1.is_zero() and v2.is_zero():
            v2 = Cyc.one()
        assert list(old_line_points([(v1, v2)], height)) == old_line_screen([(v1, v2)], height)


def norms_before_witness_check(call):
    """How many CyclotomicNumber.norm calls the call makes before its first floer._verify_witness."""
    events = []
    norm, verify = CyclotomicNumber.norm, floer._verify_witness
    with mock.patch.object(CyclotomicNumber, "norm", autospec=True,
                           side_effect=lambda x: events.append("norm") or norm(x)), \
            mock.patch.object(floer, "_verify_witness",
                              side_effect=lambda *args: events.append("verify") or verify(*args)):
        call()
    return events.index("verify") if "verify" in events else len(events)


def closed_form_shapes(m):
    """(action, parity, old closed form): the even shear [[1, m], [0, 1]] and the odd reflection [[-1, m], [0, 1]]."""
    return (
        (IntMat.from_rows([[1, m], [0, 1]]), "even", old_shear_closed_form),
        (IntMat.from_rows([[-1, m], [0, 1]]), "odd", old_reflection_closed_form),
    )


def decide(d, action, parity, conductor):
    """continuation_solvable's result and whether it reached the general path (the solution space)."""
    with mock.patch.object(floer, "_solution_space", wraps=floer._solution_space) as general:
        result = continuation_solvable(d, action, parity, conductor)
    return result, general.called


class TestContinuationClosedForms:
    @pytest.mark.parametrize("conductor", (1, 3, 4, 5))
    def test_integer_lambda_equals_old_closed_forms(self, conductor):
        for lam in range(-3, 4):
            d = clifford_data(lam, 0, 0)
            for m in range(-8, 9):
                for action, parity, old in closed_form_shapes(m):
                    result, general = decide(d, action, parity, conductor)
                    assert result == old(d, action, lam, m), (lam, m, parity)
                    assert not general

    @pytest.mark.parametrize("conductor", (1, 3, 4, 5))
    def test_other_constants_reach_the_general_path(self, conductor):
        off_integer = [Cyc.from_rational(Fraction(1, 2)), Cyc.from_rational(Fraction(-3, 2))]
        if conductor > 1:
            off_integer.append(zeta(conductor))
        cases = [CliffordData(lam, Cyc.zero(), Cyc.zero()) for lam in off_integer]
        cases += [clifford_data(lam, mu, 0) for lam in (-1, 0, 1, 2) for mu in (1, -2)]
        for d in cases:
            for m in range(-3, 4):
                for action, parity, _ in closed_form_shapes(m):
                    result, general = decide(d, action, parity, conductor)
                    assert general, (d, m, parity)
                    if result.status == "solvable":
                        assert _verify_witness(result.witness, d, action, parity)


# ---------------------------------------------------------------------------
# Symmetry of a potential


@st.composite
def potentials_and_maps(draw, singular):
    """(w, g): w on up to five exponents in [-1, 1]^n, g unimodular or singular.

    Half the unimodular draws of finite order have w replaced by its sum over
    the powers of g, so invariant pairs are drawn too.
    """
    n = draw(st.integers(2, 3))
    if singular:
        rows = st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n)
        g = draw(rows.map(IntMat.from_rows).filter(lambda g: g.det() == 0))
    else:
        g = draw(unimodular_pairs(n))[0]
    exponents = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n), max_size=5, unique=True))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(exponents), max_size=len(exponents)))
    w = LaurentPolynomial.from_dict(n, dict(zip(exponents, coeffs)))
    order = None if singular else matrix_order(g)
    if order and draw(st.booleans()):
        power, total = IntMat.identity(n), LaurentPolynomial(n, ())
        for _ in range(order):
            total, power = add(total, w.relabel(power)), power @ g
        w = total
    return w, g


class TestInvarianceCheck:
    @settings(max_examples=200, deadline=None)
    @given(potentials_and_maps(singular=False))
    def test_unimodular_maps_equal_old_candidate_filter(self, case):
        w, g = case
        assert invariance_check(w, g) == old_candidate_filter(w, g)

    @settings(max_examples=200, deadline=None)
    @given(potentials_and_maps(singular=True))
    def test_singular_maps_equal_old_candidate_filter(self, case):
        w, g = case
        assert invariance_check(w, g) == old_candidate_filter(w, g)

    @pytest.mark.parametrize(
        "rows, terms, expected",
        [
            ([[0, 0], [0, 0]], {(0, 0): 3}, True),
            ([[1, 0], [0, 0]], {(1, 0): 1, (-1, 0): 2, (0, 0): 5}, True),
            ([[1, 0], [0, 0]], {(1, 0): 1, (0, 1): 1}, False),
            ([[0, 1], [0, 1]], {(1, 1): 1, (0, 1): 1}, False),
            ([[1, 1], [0, 1]], {(1, 0): 1, (0, 1): 1, (-1, -1): 1}, False),
            ([[1, 0], [0, 1]], {(1, 0): 1, (0, 1): 1, (-1, -1): 1}, True),
        ],
    )
    def test_pinned_maps(self, rows, terms, expected):
        w, g = LaurentPolynomial.from_dict(2, terms), IntMat.from_rows(rows)
        assert invariance_check(w, g) == old_candidate_filter(w, g) == expected


# ---------------------------------------------------------------------------
# Setwise stabiliser


class TestSymplecticSearch:
    @settings(max_examples=40, deadline=None)
    @given(rebased_polytopes())
    def test_group_equals_block_map_search(self, case):
        name, polytope = case
        data = toric_fiber_data(polytope)
        old = old_symplectic_monodromy(data)
        # An element limit equal to the order passes only if each block map is found once.
        with mock.patch.object(groups, "MAX_ELEMENTS", old.order):
            assert symplectic_monodromy(data).elements == old.elements, name

    @settings(max_examples=40, deadline=None)
    @given(normal_sets())
    def test_any_normal_set_equals_block_map_search(self, polytope):
        data = toric_fiber_data(polytope)
        assert symplectic_monodromy(data).elements == old_symplectic_monodromy(data).elements

    def test_fractional_image_is_refused(self):
        # Normals 1, 2 and 4 form a base of index 12 in Z^3; rounding a
        # fractional image down would land on a normal and add a permutation.
        normals = ((2, -2, 1), (1, 2, -1), (-2, -2, 1), (2, -2, -1))
        data = toric_fiber_data(DelzantPolytope(3, normals, (Fraction(1),) * 4))
        assert symplectic_monodromy(data).elements == old_symplectic_monodromy(data).elements == ((0, 1, 2, 3),)

    def test_standard_fixtures_equal_block_map_search(self):
        for name, polytope in SETWISE_BASES.items():
            data = toric_fiber_data(polytope)
            assert symplectic_monodromy(data).elements == old_symplectic_monodromy(data).elements, name

    def test_dp6_squared_order_and_time(self):
        data = toric_fiber_data(polytope_product(blowup_cp2(3), blowup_cp2(3)))
        start = time.perf_counter()
        group = symplectic_monodromy(data)
        assert time.perf_counter() - start < 1.0
        assert group.order == 288

    def test_dp6_times_two_spheres_order(self):
        data = toric_fiber_data(polytope_product(blowup_cp2(3), cube(2)))
        assert symplectic_monodromy(data).order == 96

    def test_fourteen_normals_equal_block_map_search(self):
        # Bl2 x Bl2 x Bl1 has 14 normals, past the old search's 12-normal bound.
        data = toric_fiber_data(polytope_product(polytope_product(blowup_cp2(2), blowup_cp2(2)), blowup_cp2(1)))
        assert symplectic_monodromy(data).elements == old_symplectic_monodromy(data, max_degree=100).elements

    def test_fourteen_and_thirteen_normal_orders(self):
        # Both groups equal old_symplectic_monodromy(data, max_degree=100), which takes about 60 s and 24 s.
        for factor, order in ((blowup_cp2(3), 576), (blowup_cp2(2), 48)):
            data = toric_fiber_data(polytope_product(polytope_product(blowup_cp2(3), factor), projective_space(1)))
            assert symplectic_monodromy(data).order == order

    @pytest.mark.parametrize("dim", [7, 8, 9, 10])
    def test_large_cubes_refused_at_once(self, dim):
        # B_7 already has 645,120 elements; the search stops at the first block map past the limit.
        data = toric_fiber_data(cube(dim))
        start = time.perf_counter()
        with pytest.raises(SearchTooLargeError, match="exceeds limit 50000$"):
            symplectic_monodromy(data)
        assert time.perf_counter() - start < 1.0

    def test_refusal_message_with_patched_limit(self, monkeypatch):
        # cube(3) has 6 block maps of 8 permutations each; the second one passes a limit of 10.
        data = toric_fiber_data(cube(3))
        monkeypatch.setattr(groups, "MAX_ELEMENTS", 10)
        with pytest.raises(SearchTooLargeError) as exc:
            symplectic_monodromy(data)
        assert str(exc.value) == "group order at least 16 exceeds limit 10"


# ---------------------------------------------------------------------------
# Embedding into products of symmetric groups


def companion(low):
    """Companion matrix of x^n + low[n-1] x^(n-1) + .. + low[0]."""
    n = len(low)
    rows = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][n - 1] = -low[i]
    return IntMat.from_rows(rows)


def embedding_cases():
    """The planar classes, the rank-3 catalog, and cyclic groups of orders 5, 8, 10, 12 in GL(4, Z)."""
    yield from catalog_n2().entries
    yield from ingest_catalog((FIXTURES / "rank3_extensions.cat").read_text()).entries
    # Companions of Phi_5, Phi_8, Phi_10 and Phi_12.
    for name, low in (("C5", (1, 1, 1, 1)), ("C8", (1, 0, 0, 0)), ("C10", (1, -1, 1, -1)), ("C12", (1, 0, -1, 0))):
        yield name, MatrixGroup.from_generators(4, [companion(low)])


EMBEDDING_CASES = dict(embedding_cases())


class TestEmbedding:
    @pytest.mark.parametrize("name", EMBEDDING_CASES)
    def test_embedding_equals_multiplication_table_search(self, name):
        group = EMBEDDING_CASES[name]
        for parts in _symmetric_part_choices(group.dim):
            assert embed_symmetric_product(group, parts) == old_embed_symmetric_product(group, parts), parts


class TestClosure:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.tuples(st.just(d), st.lists(st.permutations(range(d)).map(tuple), max_size=3))
        )
    )
    def test_walk_equals_word_search_order(self, case):
        degree, gens = case
        identity = identity_perm(degree)
        assert cayley_closure(identity, gens, compose) == list(old_cayley_closure(identity, gens, compose, 200))


class TestGlOrderFeasible:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 600), st.integers(0, 16))
    def test_closed_form_equals_fixed_point_search(self, m, k):
        assert gl_order_feasible(m, k) == old_gl_order_feasible(m, k)


# ---------------------------------------------------------------------------
# Forced critical points


def signed_permutation(perm, signs):
    n = len(perm)
    return IntMat.from_rows([[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)])


def diagonal(*entries):
    return signed_permutation(range(len(entries)), entries)


FORCED_HEAVY_CASES = {
    "B3": MatrixGroup.from_generators(3, [diagonal(-1, 1, 1), signed_permutation((1, 0, 2), (1,) * 3), signed_permutation((1, 2, 0), (1,) * 3)]),
    "S4": MatrixGroup.from_generators(4, [signed_permutation((1, 0, 2, 3), (1,) * 4), signed_permutation((1, 2, 3, 0), (1,) * 4)]),
    "signs4": MatrixGroup.from_generators(4, [diagonal(*(-1 if i == j else 1 for i in range(4))) for j in range(4)]),
}


MOVED_CASES = {**EMBEDDING_CASES, **FORCED_HEAVY_CASES}


HEAVY_TARGETS = [(name, parts) for name, group in FORCED_HEAVY_CASES.items() for parts in _symmetric_part_choices(group.dim)]


@pytest.mark.parametrize("name, parts", HEAVY_TARGETS, ids=[f"{name}-{parts}" for name, parts in HEAVY_TARGETS])
def test_heavy_group_embedding_equals_old_searches(name, parts):
    group = FORCED_HEAVY_CASES[name]
    found = embed_symmetric_product(group, parts)
    assert found == old_rewalk_embed_symmetric_product(group, parts)
    # The multiplication-table search has no Lagrange cut, so it walks every assignment
    # against a target that fails it, and all 19^4 of signs4 against S4 x S2: minutes each.
    if math.prod(map(math.factorial, parts)) % group.order == 0 and (name, parts) != ("signs4", (4, 2)):
        assert found == old_embed_symmetric_product(group, parts)


@st.composite
def unimodular_pairs(draw, n):
    """(u, u^-1) for a signed permutation followed by up to three elementary shears (none when n = 1)."""
    perm = draw(st.permutations(range(n)))
    u = signed_permutation(perm, draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    u_inv = u.transpose()
    for _ in range(draw(st.integers(0, 3 if n > 1 else 0))):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        c = draw(st.sampled_from((1, -1)))
        shear = [[int(r == col) for col in range(n)] for r in range(n)]
        inverse = [row[:] for row in shear]
        shear[i][j], inverse[i][j] = c, -c
        u, u_inv = u @ IntMat.from_rows(shear), IntMat.from_rows(inverse) @ u_inv
    return u, u_inv


def block_sum(a, b):
    """The block-diagonal matrix diag(a, b)."""
    n, m = a.nrows, b.nrows
    return IntMat.from_rows([list(r) + [0] * m for r in a.rows] + [[0] * n + list(r) for r in b.rows])


# Groups whose small subgroups feed the stabiliser brute force.
SMALL_GROUP_AMBIENTS = [
    planar_class("4ft"),
    planar_class("6ft"),
    FORCED_HEAVY_CASES["B3"],
    MatrixGroup.from_generators(3, [block_sum(g, IntMat.identity(1)) for g in planar_class("6ft").generators()] + [negated(IntMat.identity(3))]),
    *(group for _, group in ingest_catalog((FIXTURES / "rank3_extensions.cat").read_text()).entries),
]


@st.composite
def small_groups(draw):
    """A subgroup of order at most 12 of an ambient group, under a unimodular conjugation."""
    ambient = draw(st.sampled_from(SMALL_GROUP_AMBIENTS))
    gens = draw(st.lists(st.sampled_from(ambient.elements), min_size=1, max_size=3))
    group = MatrixGroup.from_generators(ambient.dim, gens)
    if group.order > 12:
        group = MatrixGroup.from_generators(ambient.dim, gens[:1])
    return conjugate_group(group, *draw(unimodular_pairs(ambient.dim)))


def stabiliser_forced_points(group):
    """Points p of the (1/|G|)-grid whose stabiliser in G has no common fixed vector.

    Every forced point lies on this grid: H = Stab_G(p) has no fixed vector,
    so the sum of h^T over h in H is zero, and |H| p, hence |G| p, is integral.
    """
    n, order = group.dim, group.order
    ident = IntMat.identity(n)
    transposes = [g.transpose() for g in group.elements]
    no_fixed_vector = {}
    out = []
    for k in itertools.product(range(order), repeat=n):
        stab = tuple(i for i, t in enumerate(transposes) if all((a - b) % order == 0 for a, b in zip(t.apply(k), k)))
        if stab not in no_fixed_vector:
            rows = [[a - b for a, b in zip(r, e)] for i in stab for r, e in zip(group.elements[i].rows, ident.rows)]
            no_fixed_vector[stab] = old_rational_rank(rows) == n
        if no_fixed_vector[stab]:
            out.append(TorsionPoint.make(Fraction(x, order) for x in k))
    return sorted_points(out)


def assert_forced_equals_subset_enumeration(group, u_pair):
    conjugate = conjugate_group(group, *u_pair)
    assert forced_critical_points(conjugate).points == old_forced_critical_points(conjugate)


class TestForcedCriticalPoints:
    @pytest.mark.parametrize("name", EMBEDDING_CASES)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_lattice_search_equals_subset_enumeration(self, name, data):
        group = EMBEDDING_CASES[name]
        assert_forced_equals_subset_enumeration(group, data.draw(unimodular_pairs(group.dim)))

    @pytest.mark.parametrize("name", FORCED_HEAVY_CASES)
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_rank_three_and_four_groups_equal_subset_enumeration(self, name, data):
        group = FORCED_HEAVY_CASES[name]
        assert_forced_equals_subset_enumeration(group, data.draw(unimodular_pairs(group.dim)))

    @settings(max_examples=40, deadline=None)
    @given(small_groups())
    def test_forced_points_equal_stabiliser_brute_force(self, group):
        assert forced_critical_points(group).points == stabiliser_forced_points(group)


B4 = MatrixGroup.from_generators(4, [diagonal(-1, 1, 1, 1), *(signed_permutation(p, (1,) * 4) for p in ((1, 0, 2, 3), (1, 2, 3, 0)))])


# A unimodular conjugate of an order-48 subgroup of W(F4).  The full-rank
# states that the search reaches hold 24 of its 28 forced points; the other
# four lie only in the loci of conjugates of those states.
UNWALKED_LOCI = MatrixGroup.from_generators(4, [IntMat.from_rows(g) for g in (
    [[0, 1, 1, 1], [0, -1, 0, 0], [0, 0, -1, 0], [1, 1, 1, 0]],
    [[0, 1, 1, 1], [0, -1, 0, 0], [1, -1, 0, -1], [0, 2, 0, 1]],
    [[0, 1, 1, 1], [0, -1, 0, -1], [0, 0, -1, -1], [1, 1, 1, 1]],
)])


def assert_forced_equals_lattice_search(group):
    assert forced_critical_points(group).points == old_lattice_forced_critical_points(group).points


class TestLatticeSearchOracle:
    @pytest.mark.parametrize("name", MOVED_CASES)
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_search_equals_lattice_search_on_conjugates(self, name, data):
        group = MOVED_CASES[name]
        assert_forced_equals_lattice_search(conjugate_group(group, *data.draw(unimodular_pairs(group.dim))))

    @settings(max_examples=60, deadline=None)
    @given(small_groups())
    def test_search_equals_lattice_search_on_small_groups(self, group):
        assert_forced_equals_lattice_search(group)

    def test_search_equals_lattice_search_on_b4(self):
        assert B4.order == 384
        assert_forced_equals_lattice_search(B4)

    def test_points_are_closed_under_the_group(self):
        assert UNWALKED_LOCI.order == 48
        assert len(forced_critical_points(UNWALKED_LOCI).points) == 28
        assert_forced_equals_lattice_search(UNWALKED_LOCI)


def assert_forced_equals_unpruned_search(group):
    assert forced_critical_points(group) == old_unpruned_forced_critical_points(group)


class TestUnprunedSearchOracle:
    @pytest.mark.parametrize("name", MOVED_CASES)
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_search_equals_unpruned_search_on_conjugates(self, name, data):
        group = MOVED_CASES[name]
        assert_forced_equals_unpruned_search(conjugate_group(group, *data.draw(unimodular_pairs(group.dim))))

    @settings(max_examples=60, deadline=None)
    @given(small_groups())
    def test_search_equals_unpruned_search_on_small_groups(self, group):
        assert_forced_equals_unpruned_search(group)

    @pytest.mark.parametrize("group", [B4, UNWALKED_LOCI], ids=["B4", "UNWALKED_LOCI"])
    def test_search_equals_unpruned_search_on_pinned_groups(self, group):
        assert_forced_equals_unpruned_search(group)


def lattice_eliminations(search, group):
    """(the search's answer on group, its number of LatticeBasis._of calls: steps, joins and orbit images)."""
    with mock.patch.object(LatticeBasis, "_of", wraps=LatticeBasis._of) as spy:
        answer = search(group)
    return answer, spy.call_count


class TestPrunedJoins:
    @pytest.mark.parametrize("name", FORCED_HEAVY_CASES)
    def test_full_rank_steps_join_only_the_zero_state(self, name):
        # Steps, states and orbit walks are those of the unpruned search, so the
        # eliminations saved are its joins of a nonzero state with a full-rank step.
        group = FORCED_HEAVY_CASES[name]
        pruned, calls = lattice_eliminations(forced_critical_points, group)
        unpruned, old_calls = lattice_eliminations(old_unpruned_forced_critical_points, group)
        assert pruned == unpruned
        full_rank_step = any(LatticeBasis.from_vectors(group.dim, _delta_rows(g)).rank == group.dim for g in group)
        assert calls < old_calls if full_rank_step else calls == old_calls
        assert full_rank_step == (name != "S4")  # every permutation matrix fixes (1, 1, 1, 1)


def orbit_walks(group):
    """(state, generators) of every orbit walk that forced_critical_points hands to cayley_closure."""
    with mock.patch.object(torussym, "cayley_closure", wraps=cayley_closure) as spy:
        forced_critical_points(group)
    return [(c.args[0], list(c.args[1])) for c in spy.call_args_list]


def non_central(group, gens):
    return [h for h in gens if any(h @ g != g @ h for g in group)]


class TestOrbitWalks:
    @pytest.mark.parametrize("name", ["signs4", "C12", "4"])
    def test_abelian_group_walks_no_orbit(self, name):
        assert orbit_walks(MOVED_CASES[name]) == []

    def test_b3_walks_only_states_below_full_rank_under_non_central_generators(self):
        group = FORCED_HEAVY_CASES["B3"]
        walks = orbit_walks(group)
        assert walks
        assert all(state.rank < group.dim and gens == non_central(group, group.generators()) for state, gens in walks)

    def test_central_generator_is_left_out_of_every_walk(self):
        minus = negated(IntMat.identity(3))
        planar = [block_sum(g, IntMat.identity(1)) for g in planar_class("4ft").generators()]
        group = MatrixGroup.from_generators(3, [*planar, minus])
        handed = (*group.generators(), minus)  # no greedy pick takes -I, so hand it in
        with mock.patch.object(MatrixGroup, "generators", return_value=handed):
            walks = orbit_walks(group)
            assert_forced_equals_lattice_search(group)
        assert minus not in non_central(group, handed)
        assert walks and all(gens == non_central(group, handed) for _, gens in walks)


def old_matrix_closure(identity, gens, mul, residue, bound):
    """The residue and bound loop of ``groups.cayley_closure``: every element of the group generated
    by gens, in breadth-first order.  Two distinct elements with one residue, or more than bound
    elements, prove the group infinite (NotFiniteError); past MAX_ELEMENTS elements it is not
    verified finite (SearchTooLargeError)."""
    walk, members, seen = [identity], {identity}, {residue(identity)}
    for g in walk:
        for s in gens:
            h = mul(g, s)
            if h not in members:
                r = residue(h)
                if r in seen:
                    raise NotFiniteError("group is infinite: two distinct elements share a residue")
                seen.add(r)
                members.add(h)
                walk.append(h)
                if len(walk) > bound:
                    raise NotFiniteError(f"group is infinite: order above Minkowski's bound {bound}")
                if len(walk) > groups.MAX_ELEMENTS:
                    raise SearchTooLargeError(f"more than {groups.MAX_ELEMENTS} elements; group not verified finite")
    return walk


def old_matrix_from_generators(dim, gens):
    """The sorted elements of the group generated by gens, closed by IntMat products."""
    closure = old_matrix_closure(IntMat.identity(dim), list(gens), IntMat.__matmul__, residue_mod_3, minkowski_bound(dim))
    return tuple(sorted(set(closure), key=IntMat.canonical_key))


def old_matrix_chain(elements):
    """(gens, walk, sizes) of the greedy subgroup chain over the sorted elements, walked by IntMat products."""
    identity = IntMat.identity(elements[0].nrows)
    gens, walk, sizes, members = [], [identity], [1], {identity}
    for x in elements:
        if len(walk) == len(elements):
            break
        if x not in members:
            gens.append(x)
            walk = cayley_closure(identity, gens, IntMat.__matmul__, prefix=walk)
            members.update(walk[sizes[-1]:])
            sizes.append(len(walk))
    return tuple(gens), tuple(walk), tuple(sizes)


def assert_matrix_walks_equal_old(group, gens=None):
    """Elements, chain and generators() equal the IntMat-product walks, for the group and
    for the closure of gens (by default the old chain's generators)."""
    chain = old_matrix_chain(group.elements)
    gens = chain[0] if gens is None else gens
    assert group.elements == old_matrix_from_generators(group.dim, gens)
    for g in (group, MatrixGroup.from_generators(group.dim, gens)):
        assert g.elements == group.elements
        assert g.chain == chain
        assert g.generators() == chain[0]
        assert list(map(perm_order, g.perms)) == list(map(matrix_order, g.elements))


@st.composite
def conjugated_generators(draw):
    """(dim, gens): up to three elements of an ambient group, repeats and the identity allowed, under a unimodular conjugation."""
    ambient = draw(st.sampled_from(SMALL_GROUP_AMBIENTS))
    u, u_inv = draw(unimodular_pairs(ambient.dim))
    return ambient.dim, [u @ g @ u_inv for g in draw(st.lists(st.sampled_from(ambient.elements), max_size=3))]


@st.composite
def small_unimodular_generators(draw):
    """(dim, gens): one to three unimodular matrices of rank 2 to 4 with entries in [-2, 2]."""
    dim = draw(st.integers(2, 4))
    gens = draw(st.lists(unimodular_pairs(dim), min_size=1, max_size=3))
    assume(all(abs(x) <= 2 for g, _ in gens for row in g.rows for x in row))
    return dim, [g for g, _ in gens]


def hyperoctahedral(n):
    """B_n, the signed permutation matrices, from a sign change, a transposition and an n-cycle."""
    cycle = tuple(range(1, n)) + (0,)
    return [diagonal(-1, *(1,) * (n - 1)), signed_permutation((1, 0, *range(2, n)), (1,) * n), signed_permutation(cycle, (1,) * n)]


class TestMatrixWalkOracle:
    @pytest.mark.parametrize("name", MOVED_CASES)
    def test_named_groups_equal_matrix_walks(self, name):
        assert_matrix_walks_equal_old(MOVED_CASES[name])

    @settings(max_examples=40, deadline=None)
    @given(small_groups())
    def test_small_conjugated_groups_equal_matrix_walks(self, group):
        assert_matrix_walks_equal_old(group)

    @settings(max_examples=40, deadline=None)
    @given(conjugated_generators())
    def test_closure_of_drawn_generators_equals_matrix_walks(self, case):
        dim, gens = case
        assert_matrix_walks_equal_old(MatrixGroup.from_generators(dim, gens), gens)

    @settings(max_examples=100, deadline=None)
    @given(small_unimodular_generators())
    def test_closure_or_refusal_equals_old_closure(self, case):
        # A group the IntMat walk closes has the same elements; one it refuses is refused with the same class.
        dim, gens = case
        try:
            elements = old_matrix_from_generators(dim, gens)
        except (NotFiniteError, SearchTooLargeError) as refusal:
            with pytest.raises(ValidationError) as raised:
                MatrixGroup.from_generators(dim, gens)
            assert raised.type is type(refusal)
        else:
            assert MatrixGroup.from_generators(dim, gens).elements == elements

    @pytest.mark.parametrize("n, order", [(4, 384), (5, 3840)])
    def test_hyperoctahedral_groups_equal_matrix_walks(self, n, order):
        group = MatrixGroup.from_generators(n, hyperoctahedral(n))
        assert group.order == order
        assert_matrix_walks_equal_old(group, hyperoctahedral(n))


def old_steps(group):
    """The forced-point search's steps, one elimination per nonidentity element."""
    return list(dict.fromkeys(LatticeBasis._of(group.dim, [*_delta_rows(g)]) for g in group.nonidentity()))


class TestOneStepPerCyclicSubgroup:
    @pytest.mark.parametrize("name", MOVED_CASES)
    def test_steps_equal_the_steps_of_every_element(self, name):
        group = MOVED_CASES[name]
        firsts = group.cyclic_generators()
        assert list(dict.fromkeys(LatticeBasis._of(group.dim, [*_delta_rows(g)]) for g in firsts)) == old_steps(group)
        # Each first generates its own cyclic subgroup, and every nonidentity element generates one of them.
        cyclic = [frozenset(cayley_closure(IntMat.identity(group.dim), [g], IntMat.__matmul__)) for g in firsts]
        assert len(set(cyclic)) == len(firsts)
        assert {frozenset(cayley_closure(IntMat.identity(group.dim), [g], IntMat.__matmul__)) for g in group.nonidentity()} == set(cyclic)
        assert firsts == sorted(firsts, key=IntMat.canonical_key)

    @pytest.mark.parametrize("name, before, after", [("B3", 47, 33), ("S4", 23, 16), ("C12", 11, 5), ("signs4", 15, 15)])
    def test_eliminations_counted(self, name, before, after):
        group = MOVED_CASES[name]
        assert len(group.nonidentity()) == before
        with mock.patch.object(torussym, "_delta_rows", wraps=_delta_rows) as spy:
            forced_critical_points(group)
        assert spy.call_count == after


FAST_PATH_CASES = {
    "B4": (4, hyperoctahedral(4), "RULED_OUT"),
    "3f": (2, [IntMat.from_rows([[0, -1], [1, -1]]), IntMat.from_rows([[0, 1], [1, 0]])], "CASE2"),
    "S4": (4, [signed_permutation(p, (1,) * 4) for p in ((1, 0, 2, 3), (1, 2, 3, 0))], "BOTH"),
}


class TestPermutationFastPath:
    @pytest.mark.parametrize("name", FAST_PATH_CASES)
    def test_no_matrix_products_or_matrix_orders(self, name):
        dim, gens, status = FAST_PATH_CASES[name]
        # A silent fall-back to IntMat products would give the same answers, only slower.
        with mock.patch.object(IntMat, "__matmul__", autospec=True, side_effect=IntMat.__matmul__) as products, \
                mock.patch("lagmono.intlat.matrix_order", wraps=matrix_order) as orders, \
                mock.patch("lagmono.classify.matrix_order", wraps=matrix_order) as classify_orders:
            group = MatrixGroup.from_generators(dim, gens)
            group.generators()
            forced_critical_points(group)
            (verdict,) = conjecture_filter(GroupCatalog(dim, (("G", group),)))
        assert verdict.status == status  # an admissible group also runs the embedding search and the orders
        assert products.call_count == orders.call_count == classify_orders.call_count == 0


@st.composite
def locus_rows(draw):
    """(n, rows): 1-5 rows in Z^n, n = 1-4, entries in [-4, 4], or such rows confined to rank below n.

    Confined rows (n > 1) are the drawn rows with the last entry zeroed, under
    a unimodular change of basis.
    """
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=5))
    if n > 1 and draw(st.booleans()):
        u, _ = draw(unimodular_pairs(n))
        rows = [u.transpose().apply(row[:-1] + [0]) for row in rows]
    return n, rows


@st.composite
def unimodular_families(draw):
    """1-3 matrices of GL(n, Z), n = 1-4, each a drawn unimodular change of basis or an element of a MOVED_CASES group."""
    n = draw(st.integers(1, 4))
    matrix = unimodular_pairs(n).map(lambda pair: pair[0])
    if elements := [g for group in MOVED_CASES.values() if group.dim == n for g in group.elements]:
        matrix = st.one_of(matrix, st.sampled_from(elements))
    return draw(st.lists(matrix, min_size=1, max_size=3))


class TestFixedLocus:
    @settings(max_examples=300, deadline=None)
    @given(locus_rows())
    def test_hermite_locus_equals_smith_locus(self, case):
        # Tuple for tuple when finite, None for both when not.
        n, rows = case
        lattice = LatticeBasis.from_vectors(n, rows)
        assert (_points(*_full_rank_locus(lattice.basis)) if lattice.rank == n else None) == old_fixed_locus(n, rows)

    @settings(max_examples=200, deadline=None)
    @given(unimodular_families())
    def test_monomial_fixed_points_equal_smith_locus(self, gs):
        n = gs[0].nrows
        assert monomial_fixed_points(gs) == old_fixed_locus(n, [r for g in gs for r in _delta_rows(g)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_fixes_the_whole_torus(self, n):
        assert monomial_fixed_points([IntMat.identity(n)]) is None is old_fixed_locus(n, _delta_rows(IntMat.identity(n)))


# ---------------------------------------------------------------------------
# The moved-point scan, the Hermite path and IntMat's unchecked constructor


def torsion_points(n, max_size=6):
    """Lists of points of (Q/Z)^n whose coordinates have denominators 1-12, so orders mix."""
    coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
    return st.lists(st.lists(coord, min_size=n, max_size=n).map(TorsionPoint.make), max_size=max_size)


class TestMovedPoint:
    @pytest.mark.parametrize("name", MOVED_CASES)
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_integer_scan_equals_fraction_scan_on_conjugates(self, name, data):
        group = MOVED_CASES[name]
        conjugate = conjugate_group(group, *data.draw(unimodular_pairs(group.dim)))
        forced = forced_critical_points(conjugate).points
        extra = data.draw(torsion_points(group.dim))
        for points in (forced, extra, forced + tuple(extra), tuple(extra) + forced):
            assert first_moved_point(conjugate, points) == old_first_moved_point(conjugate, points)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(MOVED_CASES.values())).flatmap(lambda g: st.tuples(st.just(g), torsion_points(g.dim, 10))))
    def test_mixed_orders_equal_fraction_scan(self, case):
        group, points = case
        assert first_moved_point(group, points) == old_first_moved_point(group, points)
        for g in group.elements[:4]:
            for p in points:
                assert act(g, p) == old_act(g, p)

    def test_admissible_and_moved_groups_equal_fraction_scan(self):
        verdicts = set()
        for name, group in MOVED_CASES.items():
            points = forced_critical_points(group).points
            assert first_moved_point(group, points) == old_first_moved_point(group, points), name
            verdicts.add(first_moved_point(group, points) is None)
        assert verdicts == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(small_groups(), st.data())
    def test_points_fixed_by_the_generators_are_fixed_by_the_group(self, group, data):
        common = monomial_fixed_points(group.generators() or [IntMat.identity(group.dim)])
        for points in (common or (), forced_critical_points(group).points + tuple(data.draw(torsion_points(group.dim, 3)))):
            assert first_moved_point(group, points) == old_first_moved_point(group, points)

    @pytest.mark.parametrize("name", ["3f", "signs", "S4", "signs4"])
    def test_admissible_group_scans_no_element(self, name):
        group = MOVED_CASES[name]
        points = forced_critical_points(group).points
        with mock.patch.object(MatrixGroup, "nonidentity", side_effect=AssertionError("element scan")):
            assert first_moved_point(group, points) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_point_list_and_trivial_group(self, n):
        trivial = MatrixGroup.from_generators(n, [])
        points = (TorsionPoint.make([Fraction(1, 2)] * n), TorsionPoint.make([Fraction(k, 7) for k in range(n)]))
        for group in (trivial, MatrixGroup.from_generators(n, [negated(IntMat.identity(n))])):
            assert first_moved_point(group, ()) is None is old_first_moved_point(group, ())
        assert first_moved_point(trivial, points) is None is old_first_moved_point(trivial, points)

    def test_dimension_mismatch_raises_like_the_fraction_scan(self):
        group = FORCED_HEAVY_CASES["B3"]
        point = TorsionPoint.make((Fraction(1, 2), 0))
        for scan in (first_moved_point, old_first_moved_point):
            with pytest.raises(ValueError, match="dimension mismatch"):
                scan(group, [point])
        for action in (act, old_act):
            with pytest.raises(ValueError, match="dimension mismatch"):
                action(group.elements[0], point)


int_matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r).map(
            lambda rows: (c, rows)
        )
    )
)


# Up to 8 rows of 0-5 entries in [-50, 50], a row all zero a third of the time:
# more rows than columns, zero rows, zero columns and negative pivots all occur.
kernel_matrices = st.integers(0, 5).flatmap(
    lambda c: st.tuples(
        st.just(c),
        st.lists(
            st.one_of(st.just([0] * c), st.lists(st.integers(-50, 50), min_size=c, max_size=c), st.lists(st.integers(-50, 50), min_size=c, max_size=c)),
            max_size=8,
        ),
    )
)

KERNEL_EDGE_CASES = [
    (3, []),
    (0, [[], [], []]),
    (2, [[0, 0], [0, 0], [0, 0]]),
    (2, [[-4, 6], [-6, 9], [-2, -50], [0, -7]]),
    (3, [[0, -5, 3], [0, -5, 3], [0, 0, -1], [-50, 50, 49]]),
    (1, [[-50], [35], [-21]]),
    (4, [[0, 0, 0, -3]]),
]


def assert_hermite_equals_old_kernel(n, rows):
    """(h, u) of the n-column matrix and the lattice its rows span equal those of ``old_hermite``."""
    m = IntMat(tuple(map(tuple, rows)))
    assert hermite_normal_form(m) == old_hermite_pair(m)
    old_basis = tuple(tuple(r) for r in old_hermite([list(r) for r in rows], n) if any(r))
    assert LatticeBasis.from_vectors(n, rows) == LatticeBasis(n, old_basis)


def int_rows(r, c):
    """r rows of c entries in [-9, 9]."""
    return st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r)


def assert_unchecked_equals_checked(m: IntMat):
    """m equals and hashes like IntMat.from_rows of its entries, and its rows are tuples of int."""
    checked = IntMat.from_rows(m.rows)
    assert m == checked and hash(m) == hash(checked)
    assert type(m.rows) is tuple
    assert all(type(r) is tuple and all(type(x) is int for x in r) for r in m.rows)


class TestHermitePath:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices)
    def test_hermite_form_equals_transform_carrying_loop(self, case):
        _, rows = case
        m = IntMat.from_rows(rows)
        assert hermite_normal_form(m) == old_hermite_normal_form(m)

    @settings(max_examples=400, deadline=None)
    @given(kernel_matrices)
    def test_hermite_form_equals_old_kernel(self, case):
        assert_hermite_equals_old_kernel(*case)

    @pytest.mark.parametrize("n, rows", KERNEL_EDGE_CASES)
    def test_edge_cases_equal_old_kernel(self, n, rows):
        assert_hermite_equals_old_kernel(n, rows)

    @settings(max_examples=300, deadline=None)
    @given(int_matrices)
    def test_echelon_rows_equal_nonzero_hermite_rows(self, case):
        n, rows = case
        basis = LatticeBasis.from_vectors(n, rows)
        assert basis == old_from_vectors(n, rows)
        if rows:
            assert basis.basis == tuple(r for r in hermite_normal_form(IntMat.from_rows(rows))[0].rows if any(r))

    @settings(max_examples=300, deadline=None)
    @given(locus_rows())
    def test_unchecked_lattice_constructor_equals_from_vectors(self, case):
        n, rows = case
        lists = [list(map(int, r)) for r in rows]
        for fresh in ([*lists], [tuple(r) for r in lists]):
            assert LatticeBasis._of(n, fresh) == LatticeBasis.from_vectors(n, rows)
        assert lists == [list(map(int, r)) for r in rows]  # rows are read, never written

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.integers(1, 4)] * 3).flatmap(lambda s: st.tuples(*(int_rows(r, c) for r, c in (s[:2], s[1:])))))
    def test_product_equals_triple_loop(self, pair):
        a, b = pair
        out = [[0] * len(b[0]) for _ in a]
        for i in range(len(a)):
            for j in range(len(b[0])):
                for k in range(len(b)):
                    out[i][j] += a[i][k] * b[k][j]
        product = IntMat.from_rows(a) @ IntMat.from_rows(b)
        assert product == IntMat.from_rows(out)
        assert_unchecked_equals_checked(product)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(1, 4)] * 4).filter(lambda s: s[1] != s[2]).flatmap(lambda s: st.tuples(int_rows(*s[:2]), int_rows(*s[2:]))))
    def test_product_of_mismatched_shapes_raises(self, pair):
        a, b = pair
        with pytest.raises(ValueError, match="dimension mismatch"):
            IntMat.from_rows(a) @ IntMat.from_rows(b)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices, st.data())
    def test_unchecked_constructor_equals_from_rows(self, case, data):
        c, rows = case
        a = IntMat.from_rows(rows)
        inner = st.lists(st.integers(-9, 9), min_size=3, max_size=3)
        b = IntMat.from_rows(data.draw(st.lists(inner, min_size=a.ncols, max_size=a.ncols)))
        h, u = hermite_normal_form(a)
        for m in (a @ b, negated(a), negated(b), a.transpose(), b.transpose(), IntMat.identity(c), h, u):
            assert_unchecked_equals_checked(m)


# ---------------------------------------------------------------------------
# Delzant validation and the normal base


offsets = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
modes = st.sampled_from((Mode.COMPACT, Mode.VERTEX_REQUIRED))

DELZANT_BASES = {
    **SETWISE_BASES,
    "cp4": projective_space(4),
    "cp2xcp2": projective_product((2, 2)),
    "cp1xcp3": projective_product((1, 3)),
}


@st.composite
def moved_polytopes(draw, p, mode):
    """p in the given mode under a unimodular change of basis, a rational translation and a facet shuffle."""
    n = p.dim
    u = draw(unimodular_pairs(n))[0]
    shift = draw(st.lists(offsets, min_size=n, max_size=n))
    order = draw(st.permutations(range(p.nfacets)))
    normals = tuple(u.apply(p.normals[j]) for j in order)
    return DelzantPolytope(n, normals, tuple(p.offsets[j] + dot(shift, nu) for j, nu in zip(order, normals)), mode)


@st.composite
def moved_fixtures(draw):
    p = DELZANT_BASES[draw(st.sampled_from(sorted(DELZANT_BASES)))]
    return draw(moved_polytopes(p, draw(modes)))


@st.composite
def redundant_polytopes(draw):
    """A fixture plus a facet at its support level or beyond.

    At the support level the facet is weakly redundant: it touches the
    polytope along a face, whose vertices stop being simple.  Beyond it the
    facet touches no vertex.
    """
    p = DELZANT_BASES[draw(st.sampled_from(sorted(DELZANT_BASES)))]
    vector = st.tuples(*[st.integers(-2, 2)] * p.dim).filter(lambda v: math.gcd(*v) == 1 and v not in p.normals)
    nu = draw(vector)
    support = -min(dot(v.point, nu) for v in old_enumerate_vertices(p))
    slack = draw(st.sampled_from((0, 0, Fraction(1, 2), 1)))
    extended = DelzantPolytope(p.dim, p.normals + (nu,), p.offsets + (support + slack,))
    return draw(moved_polytopes(extended, draw(modes)))


@st.composite
def weighted_simplices(draw):
    """Normals e_1 .. e_n and -(a_1, .., a_n): non-smooth at a vertex as soon as some a_i > 1."""
    n = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    normals = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [tuple(-a for a in weights)]
    if math.gcd(*normals[-1]) != 1:
        normals[-1] = tuple(-1 for _ in weights)
    p = DelzantPolytope(n, tuple(normals), tuple(draw(st.lists(offsets.filter(lambda o: o > 0), min_size=n + 1, max_size=n + 1))))
    return draw(moved_polytopes(p, draw(modes)))


@st.composite
def unbounded_products(draw):
    """A product of lines, rays and segments, in compact mode: strips, orthants, rays and half-strips."""
    n = draw(st.integers(1, 4))
    normals, levels = [], []
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        for sign in draw(st.sampled_from(((), (1,), (-1,), (1, -1)))):
            normals.append(tuple(sign * x for x in e))
            levels.append(draw(offsets.filter(lambda o: o > 0)))
    assume(len(normals) >= n)
    return draw(moved_polytopes(DelzantPolytope(n, tuple(normals), tuple(levels)), Mode.COMPACT))


@st.composite
def random_polytopes(draw):
    """Primitive normals with entries in [-2, 2] and rational offsets, in dimensions 1 to 4."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * n).filter(lambda v: math.gcd(*v) == 1)
    normals = draw(st.lists(vector, min_size=n, max_size=n + 4, unique=True))
    levels = draw(st.lists(offsets, min_size=len(normals), max_size=len(normals)))
    return DelzantPolytope(n, tuple(normals), tuple(levels), draw(modes))


def assert_validation_equals_old(p):
    assert validate_delzant(p) == old_validate_delzant(p), p


def fractions_of(rows, den):
    return [[Fraction(x, den) for x in row] for row in rows]


class TestDelzantValidation:
    @settings(max_examples=60, deadline=None)
    @given(moved_fixtures())
    def test_moved_fixtures_equal_fraction_enumeration(self, p):
        assert_validation_equals_old(p)

    @settings(max_examples=40, deadline=None)
    @given(redundant_polytopes())
    def test_redundant_facets_equal_fraction_enumeration(self, p):
        assert_validation_equals_old(p)

    @settings(max_examples=40, deadline=None)
    @given(weighted_simplices())
    def test_non_smooth_vertices_equal_fraction_enumeration(self, p):
        assert_validation_equals_old(p)

    @settings(max_examples=60, deadline=None)
    @given(unbounded_products())
    def test_strips_orthants_and_rays_equal_recession_ray(self, p):
        assert_validation_equals_old(p)

    @settings(max_examples=150, deadline=None)
    @given(random_polytopes())
    def test_random_polytopes_equal_fraction_enumeration(self, p):
        assert_validation_equals_old(p)

    @pytest.mark.parametrize(
        "dim, normals, levels, mode, failure",
        [
            (2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)), (1, 1, 1, 1, 2), Mode.COMPACT, "VERTEX_SIMPLICITY"),
            (2, ((1, 0), (0, 1), (-1, -2)), (1, 1, 1), Mode.COMPACT, "VERTEX_SMOOTHNESS"),
            (2, ((1, 0), (0, 1), (0, -1)), (1, 1, 1), Mode.COMPACT, "NOT_COMPACT"),
            (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1), Mode.COMPACT, "NOT_COMPACT"),
            (2, ((1, 0), (-1, 0)), (1, 1), Mode.COMPACT, "NOT_COMPACT"),
            (2, ((1, 0), (-1, 0)), (1, 1), Mode.VERTEX_REQUIRED, "NO_VERTEX"),
            (1, ((1,),), (Fraction(1, 2),), Mode.COMPACT, "NOT_COMPACT"),
            (1, ((1,), (-1,)), (Fraction(1, 2), Fraction(2, 3)), Mode.COMPACT, None),
            (2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)), (1, 1, 1, 1, 5), Mode.COMPACT, "REDUNDANT_FACET"),
        ],
    )
    def test_each_outcome_equals_fraction_enumeration(self, dim, normals, levels, mode, failure):
        p = DelzantPolytope(dim, normals, levels, mode)
        report = validate_delzant(p)
        assert report == old_validate_delzant(p)
        assert report.failure == failure

    @pytest.mark.parametrize(
        "normals, det",
        [(((1, 0), (0, 1), (-1, -2)), -2), (((-1, -2), (0, 1), (1, 0)), 2)],
    )
    def test_weighted_plane_witness_keeps_signed_determinant(self, normals, det):
        # P(1,1,2): the vertex (-1, 1) lies on (1, 0) and (-1, -2), taken in facet order.
        report = validate_delzant(DelzantPolytope(2, normals, (1, 1, 1)))
        assert (report.failure, report.witness) == ("VERTEX_SMOOTHNESS", f"vertex (-1, 1) has normal determinant {det}")


@st.composite
def offset_systems(draw):
    """Polytopes in dimensions 2 to 4 whose offset-equalising system often has a kernel.

    Before a unimodular change of basis the normals are at most n, or lie
    on the affine hyperplane <nu, e_1> = 1 (a kernel direction of slope 1),
    or in the hyperplane <nu, e_1> = 0 (a kernel direction of slope 0), or
    are unconstrained.  Offsets may be zero or negative, so the particular
    solution often sits at a level c <= 0.
    """
    n = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(("few", "affine", "flat", "free")))
    tail = st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1)
    if shape == "affine":
        vector = tail.map(lambda t: (1, *t))
    elif shape == "flat":
        vector = tail.map(lambda t: (0, *t)).filter(any)
    else:
        vector = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    count = draw(st.integers(1, n) if shape == "few" else st.integers(1, n + 3))
    normals = draw(st.lists(vector, min_size=count, max_size=count, unique=True))
    levels = draw(st.lists(offsets, min_size=count, max_size=count))
    u = draw(unimodular_pairs(n))[0]
    return DelzantPolytope(n, tuple(u.apply(nu) for nu in normals), tuple(levels), draw(modes))


def normalized_or_refusal(normalize, p):
    try:
        return normalize(p)
    except NotMonotoneError as e:
        return str(e)


class TestMonotoneNormalize:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(offset_systems(), random_polytopes().filter(lambda p: p.dim >= 2), moved_fixtures()))
    def test_translation_equals_fraction_solve(self, p):
        assert normalized_or_refusal(monotone_normalize, p) == normalized_or_refusal(old_monotone_normalize, p)


# The 14 shipped polytopes and the seven generated bases of the toric-sweep benchmark workload.
TORIC_BASES = {
    **{path.stem: parse_polytope(path.read_text()) for path in sorted(FIXTURES.glob("*.poly"))},
    "cube4": cube(4),
    "cp4": projective_space(4),
    "cp2xcp2": projective_product((2, 2)),
    "cp1xcp3": projective_product((1, 3)),
    "cp1xcp1xcp2": projective_product((1, 1, 2)),
    "bl1cp2xcp1": polytope_product(blowup_cp2(1), projective_product((1,))),
    "bl2cp2xcp1": polytope_product(blowup_cp2(2), projective_product((1,))),
}


@st.composite
def moved_toric_bases(draw):
    p = TORIC_BASES[draw(st.sampled_from(sorted(TORIC_BASES)))]
    return draw(moved_polytopes(p, p.mode))


def polytope_text(p):
    facets = [f"facet {' '.join(map(str, nu))} {offset}" for nu, offset in zip(p.normals, p.offsets)]
    return "\n".join([f"dim {p.dim}", f"mode {p.mode.value}", *facets]) + "\n"


def captured(call, *args):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = call(*args)
    return code, out.getvalue()


class TestToricPipeline:
    def test_toric_equals_old_pipeline(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("toric") / "p.poly"

        @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(st.one_of(moved_toric_bases(), weighted_simplices(), redundant_polytopes(), random_polytopes()))
        def check(p):
            path.write_text(polytope_text(p))
            code, records = old_toric_run(p)
            assert captured(run, ["--json", "toric", str(path)]) == (code, captured(_emit, records, True)[1]), p

        check()


@st.composite
def laurent_supports(draw):
    """Unit-coefficient Laurent polynomials on up to six exponents in [-2, 2]^n, the constant term allowed."""
    n = draw(st.integers(1, 4))
    exponents = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=6, unique=True))
    return LaurentPolynomial.from_dict(n, {e: 1 for e in exponents})


class TestIntegerKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(random_polytopes(), unbounded_products(), offset_systems()))
    def test_recession_ray_equals_fraction_kernel(self, p):
        assert _recession_ray(p) == old_extreme_ray(p)

    @settings(max_examples=100, deadline=None)
    @given(laurent_supports())
    def test_b1_support_rank_equals_fraction_rank(self, w):
        # The nonzero exponents of w, ranked by the integer elimination and by
        # the Hermite basis, against the Fraction rank.
        b1 = [e for e, _ in w.terms if any(e)]
        rank = old_rational_rank([list(e) for e in b1]) if b1 else 0
        assert len(integer_rref(b1)[1]) == rank == LatticeBasis.from_vectors(w.dim, b1).rank


class TestNormalBase:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(normal_sets(), rebased_polytopes().map(lambda case: case[1])))
    def test_base_equals_rational_reduction(self, p):
        data = toric_fiber_data(p)
        base, coords, inverse, den = data.normal_base
        old_base, old_coords, old_inverse, old_den = old_normal_base(data)
        assert base == old_base
        assert fractions_of(coords, den) == fractions_of(old_coords, old_den)
        assert fractions_of(inverse.rows, den) == fractions_of(old_inverse.rows, old_den)


square_systems = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    )
)


class TestSquareBareiss:
    @settings(max_examples=150, deadline=None)
    @given(square_systems)
    def test_det_and_solve_equal_square_elimination(self, system):
        a, b = system
        assert IntMat.from_rows(a).det() == old_det(a)
        assert bareiss_solve(a, b) == old_bareiss_solve(a, b)


# ---------------------------------------------------------------------------
# Torsion grid walk


def old_fraction_grid_points(w, bound):
    """The Galois-orbit grid walk with one Fraction ``TorsionPoint`` per tested orbit and kept point."""

    def grid_point(combo):
        return TorsionPoint.make(Fraction(k, bound) for k in combo)

    visited = bytearray(bound ** w.dim)
    out = []
    for index, combo in enumerate(itertools.product(range(bound), repeat=w.dim)):
        if visited[index]:
            continue
        d = bound // math.gcd(bound, *combo)
        orbit = [tuple(k * x % bound for x in combo) for k in range(d) if math.gcd(k, d) == 1]
        for image in orbit:
            mixed = 0
            for x in image:
                mixed = mixed * bound + x
            visited[mixed] = 1
        if is_critical(w, grid_point(combo)):
            out.extend(grid_point(image) for image in orbit)
    return sorted_points(set(out))


def symmetrised(dim, raw_terms):
    """w(z) + w(1/z): invariant under -1, so every half-period point is critical."""
    terms = {}
    for e, c in raw_terms:
        e = tuple(e[:dim])
        for key in (e, tuple(-x for x in e)):
            terms[key] = terms.get(key, 0) + c
    return LaurentPolynomial.from_dict(dim, terms)


TRIANGLE = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
QUARTIC = LaurentPolynomial.from_dict(2, {(2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1})
LINEAR = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1})


class TestIntegerGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 3),
        bound=st.one_of(st.integers(1, 30), st.sampled_from((12, 24, 30))),
        raw=st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * 3), st.integers(-3, 3)), min_size=1, max_size=4),
    )
    def test_grid_equals_fraction_walk(self, dim, bound, raw):
        w = symmetrised(dim, raw)
        assert torsion_critical_points(w, bound) == old_fraction_grid_points(w, bound)

    def test_triangle_at_bound_60_equals_fraction_walk(self):
        assert torsion_critical_points(TRIANGLE, 60) == old_fraction_grid_points(TRIANGLE, 60)

    @pytest.mark.parametrize("w, bound, count", [(TRIANGLE, 60, 3), (QUARTIC, 12, 16), (LINEAR, 8, 0)])
    def test_grid_builds_one_point_per_returned_point(self, w, bound, count):
        init = TorsionPoint.__init__
        with (
            mock.patch.object(TorsionPoint, "make", side_effect=AssertionError("TorsionPoint.make called")),
            mock.patch.object(laurent, "is_critical", side_effect=AssertionError("is_critical called")),
            mock.patch.object(laurent, "_points", wraps=_points) as points,
            mock.patch.object(TorsionPoint, "__init__", autospec=True, side_effect=init) as built,
        ):
            result = torsion_critical_points(w, bound)
        assert len(result) == count
        points.assert_called_once()
        den, numerators = points.call_args.args
        assert den == bound
        assert all(type(x) is tuple and all(type(a) is int for a in x) for x in numerators)
        assert built.call_count == count
