"""Exact arithmetic in cyclotomic fields Q(zeta_d).

Values are stored on the power basis 1, zeta, ..., zeta^(phi(d)-1) modulo the
d-th cyclotomic polynomial, with rational coefficients.  Every value is kept
in a canonical form: coefficients reduced, and the conductor lowered to the
least d whose field contains the value, so equality is structural.  Roots of
unity never appear as floats anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlat import IntMat, solve_rational_system


def euler_phi(d: int) -> int:
    out = d
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    if n > 1:
        out -= out // n
    return out


def divisors(d: int) -> list[int]:
    out = [k for k in range(1, d + 1) if d % k == 0]
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, constant term first."""
    if d < 1:
        raise ValueError("conductor must be positive")
    # x^d - 1 divided by the cyclotomic polynomials of all proper divisors.
    poly = [-1] + [0] * (d - 1) + [1]
    for k in divisors(d)[:-1]:
        poly, rem = _polydivmod(poly, cyclotomic_polynomial(k))
        assert not any(rem), "non-exact polynomial division"
    return tuple(poly)


def _polydivmod(num: Sequence, den: Sequence) -> tuple[list, list]:
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


def _polymod(coeffs: Sequence, d: int) -> list[Fraction]:
    """Reduce a polynomial in zeta_d modulo the d-th cyclotomic polynomial."""
    phi = cyclotomic_polynomial(d)
    rem = _polydivmod(coeffs, phi)[1]
    return [Fraction(x) for x in rem] + [Fraction(0)] * (len(phi) - 1 - len(rem))


@functools.lru_cache(maxsize=None)
def _power_table(d: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_d^k on the power basis for k = 0 .. d-1."""
    phi = euler_phi(d)
    table = []
    for k in range(d):
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        table.append(tuple(_polymod(coeffs, d)[:phi]))
    return tuple(table)


@functools.lru_cache(maxsize=None)
def _descent_matrix(d: int, sub: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns expressing the powers of zeta_sub on the power basis of zeta_d."""
    step = d // sub
    return tuple(_power_table(d)[(j * step) % d] for j in range(euler_phi(sub)))


@dataclass(frozen=True)
class CyclotomicNumber:
    """Element of Q(zeta_d) in canonical least-conductor form."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        d = self.conductor
        if d == 1:
            coeffs = self.coeffs
            if len(coeffs) == 1 and isinstance(coeffs[0], Fraction):
                return
            total = sum(Fraction(x) for x in coeffs) if coeffs else Fraction(0)
            object.__setattr__(self, "coeffs", (total,))
            return
        coeffs = [Fraction(x) for x in self.coeffs]
        coeffs = _polymod(coeffs, d)
        d, coeffs = _canonicalize(d, coeffs)
        object.__setattr__(self, "conductor", d)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q: Fraction | int) -> "CyclotomicNumber":
        return cls(1, (Fraction(q),))

    @classmethod
    def root_of_unity(cls, d: int, power: int = 1) -> "CyclotomicNumber":
        coeffs = [Fraction(0)] * (power % d + 1)
        coeffs[power % d] = Fraction(1)
        return cls(d, tuple(coeffs))

    @classmethod
    def zero(cls) -> "CyclotomicNumber":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "CyclotomicNumber":
        return cls.from_rational(1)

    # -- structure ----------------------------------------------------------

    def promoted_coeffs(self, d: int) -> tuple[Fraction, ...]:
        """Coefficients of this value on the power basis of Q(zeta_d)."""
        if d % self.conductor != 0:
            raise ValueError(f"conductor {self.conductor} does not divide {d}")
        if d == self.conductor:
            return self.coeffs
        table = _power_table(d)
        step = d // self.conductor
        phi = euler_phi(d)
        out = [Fraction(0)] * phi
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            base = table[(i * step) % d]
            for j in range(phi):
                out[j] += c * base[j]
        return tuple(out)

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
        other = _coerce(other)
        if self.conductor == 1 and other.conductor == 1:
            return CyclotomicNumber(1, (op(self.coeffs[0], other.coeffs[0]),))
        d = math.lcm(self.conductor, other.conductor)
        a = self.promoted_coeffs(d)
        b = other.promoted_coeffs(d)
        return CyclotomicNumber(d, tuple(op(x, y) for x, y in zip(a, b)))

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = _coerce(other)
        if self.conductor == 1 and other.conductor == 1:
            return CyclotomicNumber(1, (self.coeffs[0] * other.coeffs[0],))
        if self.conductor == 1:
            q = self.coeffs[0]
            return CyclotomicNumber(other.conductor, tuple(q * c for c in other.coeffs))
        if other.conductor == 1:
            q = other.coeffs[0]
            return CyclotomicNumber(self.conductor, tuple(q * c for c in self.coeffs))
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
        return CyclotomicNumber(d, tuple(prod))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Field inverse via the extended Euclidean algorithm modulo Phi_d."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return CyclotomicNumber.from_rational(1 / self.coeffs[0])
        d = self.conductor
        phi = [Fraction(c) for c in cyclotomic_polynomial(d)]
        a = list(self.coeffs)
        # Extended gcd of a and phi in Q[x]; phi is irreducible so gcd is 1.
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _deg(r1) > 0:
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, _trim(r)
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        lead = r1[0]
        inv_coeffs = [c / lead for c in s1]
        return CyclotomicNumber(d, tuple(_polymod(inv_coeffs, d)))

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def galois(self, a: int) -> "CyclotomicNumber":
        """Image under zeta -> zeta^a, for a coprime to the conductor."""
        d = self.conductor
        if math.gcd(a, d) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        out = [Fraction(0)] * d
        for i, c in enumerate(self.coeffs):
            out[(i * a) % d] += c
        return CyclotomicNumber(d, tuple(out))

    def norm(self) -> Fraction:
        """Field norm down to Q: determinant of multiplication by the value.

        With the denominators cleared by their lcm s, the columns s a zeta^i
        mod Phi_d are integral, and Bareiss gives their determinant s^phi N(a).
        """
        if self.conductor == 1:
            return self.coeffs[0]
        phi = cyclotomic_polynomial(self.conductor)
        scale = math.lcm(*(c.denominator for c in self.coeffs))
        col = [c.numerator * (scale // c.denominator) for c in self.coeffs]
        cols = []
        for _ in range(len(phi) - 1):
            cols.append(col)
            col = _polydivmod([0] + col, phi)[1]
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


def _coerce(x) -> CyclotomicNumber:
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CyclotomicNumber")


def _canonicalize(d: int, coeffs: list[Fraction]) -> tuple[int, list[Fraction]]:
    """Lower the conductor to the least divisor whose field holds the value."""
    if d == 1:
        return 1, coeffs
    for sub in divisors(d)[:-1]:
        if _fixed_by_subfield_galois(d, sub, coeffs) :
            reduced = _express_in_subfield(d, sub, coeffs)
            if reduced is not None:
                return sub, reduced
    return d, coeffs


def _fixed_by_subfield_galois(d: int, sub: int, coeffs: list[Fraction]) -> bool:
    for a in range(1, d):
        if math.gcd(a, d) != 1 or a % sub != 1 % sub:
            continue
        out = [Fraction(0)] * d
        for i, c in enumerate(coeffs):
            out[(i * a) % d] += c
        if _polymod(out, d) != list(coeffs):
            return False
    return True


def _express_in_subfield(d: int, sub: int, coeffs: list[Fraction]) -> list[Fraction] | None:
    cols = _descent_matrix(d, sub)
    rows = [[col[i] for col in cols] for i in range(euler_phi(d))]
    solved = solve_rational_system(rows, list(coeffs))
    if solved is None:
        return None
    particular, _ = solved
    return _polymod(particular, sub)


def _trim(p: list[Fraction]) -> list[Fraction]:
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _deg(p: list[Fraction]) -> int:
    return len(_trim(p)) - 1


def _polymul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polysub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
