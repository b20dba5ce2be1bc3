"""Exact arithmetic in cyclotomic fields Q(zeta_d).

Values are stored on the power basis 1, zeta, ..., zeta^(phi(d)-1) modulo the
d-th cyclotomic polynomial, with rational coefficients.  Every value is kept
in a canonical form: coefficients reduced, and the conductor lowered to the
least d whose field contains the value, so equality is structural.  Roots of
unity never appear as floats anywhere.

The conductors whose fields contain a value are closed under gcd, because
Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so the least one is
reached by dropping one prime at a time, with no linear algebra.  For a prime
p dividing d, with m = d / p:

- when p divides m, Phi_d(x) = Phi_m(x^p): the value lies in Q(zeta_m)
  exactly when its coefficients vanish off the multiples of p, and every
  p-th coefficient is then its coefficient over Q(zeta_m);
- otherwise the trace down to Q(zeta_m) sends zeta_d^i to
  zeta_m^(i p^-1 mod m), times p - 1 when p divides i and -1 when not: the
  value lies in Q(zeta_m) exactly when its trace over p - 1, reduced modulo
  Phi_m, raises back to it.

A prime that cannot be dropped at d cannot be dropped at any divisor of d
either, so one pass over the primes of d reaches the least conductor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlat import IntMat, bareiss_solve


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(d: int) -> int:
    out = d
    for p in prime_divisors(d):
        out -= out // p
    return out


def euler_phi_table(n: int) -> list[int]:
    """phi(d) for d = 0 .. n by one sieve (phi(0) reads 0)."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # no smaller prime divides p
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, constant term first.

    For d > 1, Phi_d is the product of (1 - x^(d/k))^mu(k) over the
    squarefree k | d, computed as a power series to degree phi(d).
    """
    if d < 1:
        raise ValueError("conductor must be positive")
    signed = [1]  # mu(k) k for the squarefree divisors k of d
    for p in prime_divisors(d):
        signed += [-k * p for k in signed]
    poly = [1] + [0] * euler_phi(d)
    for k in signed:  # times 1 - x^m from the top down, or over it from the bottom up
        m = d // abs(k)
        for i in range(len(poly) - 1, m - 1, -1) if k > 0 else range(m, len(poly)):
            poly[i] -= poly[i - m] if k > 0 else -poly[i - m]
    return tuple(poly) if d > 1 else (-1, 1)


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


def _promote(coeffs: Sequence, c: int, d: int) -> list[Fraction]:
    """Coefficients of a value of Q(zeta_c) on the power basis of Q(zeta_d), for c | d.

    zeta_c is zeta_d^(d/c), so coefficient i moves to exponent i d / c.
    """
    step = d // c
    spread = [0] * (step * (len(coeffs) - 1) + 1)
    spread[::step] = coeffs
    return _polymod(spread, d)


def _descend(d: int, p: int, coeffs: list[Fraction]) -> list[Fraction] | None:
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
    lowered = _polymod(trace, m)
    return lowered if _promote(lowered, m, d) == coeffs else None


def _canonicalize(d: int, coeffs: list[Fraction]) -> tuple[int, list[Fraction]]:
    """Lower the conductor to the least one whose field holds the value."""
    for p in prime_divisors(d):
        while d % p == 0:
            lowered = _descend(d, p, coeffs)
            if lowered is None:
                break
            d, coeffs = d // p, lowered
    return d, coeffs


@dataclass(frozen=True)
class CyclotomicNumber:
    """Element of Q(zeta_d) in canonical least-conductor form."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        d, coeffs = self.conductor, self.coeffs
        if d == 1 and len(coeffs) == 1 and isinstance(coeffs[0], Fraction):
            return
        d, coeffs = _canonicalize(d, _polymod(coeffs, d))
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
    def _canonical(cls, d: int, coeffs: tuple[Fraction, ...]) -> "CyclotomicNumber":
        """The value with these coefficients, which must already be canonical at conductor d."""
        value = object.__new__(cls)
        object.__setattr__(value, "conductor", d)
        object.__setattr__(value, "coeffs", coeffs)
        return value

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
        return tuple(_promote(self.coeffs, self.conductor, d))

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
        if other.is_zero():
            return self
        if self.is_zero():
            return other._scaled(op(0, 1))  # y or -y
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
        return self._scaled(-1)

    def _scaled(self, q: Fraction | int) -> "CyclotomicNumber":
        """q times this value, with no reduction: a nonzero multiple keeps the canonical form."""
        if q == 0:
            return CyclotomicNumber.zero()
        if q == 1:
            return self
        return CyclotomicNumber._canonical(self.conductor, tuple(q * c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = _coerce(other)
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
        return CyclotomicNumber(d, tuple(prod))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Field inverse: the x with sum of x_i (s a zeta^i) = 1, times s.

        The columns s a zeta^i are those of ``_scaled_columns``, the integral
        matrix whose determinant is the norm; it is invertible for a nonzero
        value, and the fraction-free solve gives D x in integers.  The
        inverse generates the same field, so it keeps the conductor.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return CyclotomicNumber.from_rational(1 / self.coeffs[0])
        scale, cols = self._scaled_columns()
        one = [1] + [0] * (len(cols) - 1)
        det, y = bareiss_solve(list(zip(*cols)), one)
        return CyclotomicNumber._canonical(self.conductor, tuple(Fraction(scale * c, det) for c in y))

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
            col = _polydivmod([0] + col, phi)[1]
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


def _coerce(x) -> CyclotomicNumber:
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CyclotomicNumber")
