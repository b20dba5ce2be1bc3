"""Exact arithmetic in cyclotomic fields Q(zeta_d).

Values are stored on the power basis 1, zeta, ..., zeta^(phi(d)-1) modulo the
d-th cyclotomic polynomial, as integer numerators over one denominator.  Every
value is kept in a canonical form: numerators reduced, the fraction in lowest
terms, and the conductor lowered to the least d whose field contains the
value, so equality is structural.  Roots of unity never appear as floats
anywhere.

Every value enters the constructor as an exponent image in Z[x]/(x^d - 1):
a root of unity, a Galois image, a sum or a product writes coefficient i of
a value of conductor c to exponent i d / c, and the constructor's fold below
is the only reduction.

Zero test and least conductor are one fold onto the tensor basis: Z[zeta_d]
is the tensor product of the Z[zeta_q] over the prime powers q = p^k exactly
dividing d (Lyubashevsky-Peikert-Regev, EUROCRYPT 2013, section 4), and the
exponent e of x^e carries one residue e mod q per factor by the CRT.  As
Phi_q(x) is the sum of x^(t q/p) for t < p, ``_fold`` writes each x^e whose
q-residue is at least (p - 1) q/p as minus its p - 1 neighbours below, in
the q-residue only.  What is left are coordinates on a Z-basis of Z[zeta_d],
and the value lies in Q(zeta_(d/g)) exactly when g divides every exponent
left: Q(zeta_(p^j)) is spanned by the exponents divisible by p^(k-j).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .intlat import IntMat, bareiss_solve
from .value import Value


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


def _polydivmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den, coefficient lists constant term first.

    No division is made, so integer inputs give integer results.  The
    remainder has exactly deg(den) coefficients, trailing zeros included.
    """
    deg = len(den) - 1
    rem = list(num) + [0] * (deg - len(num))
    quot = [0] * max(len(rem) - deg, 1)
    for top in range(len(rem) - 1, deg - 1, -1):
        q = rem[top]
        if q:
            base = top - deg
            quot[base] = q
            for j in range(deg):
                rem[base + j] -= q * den[j]
    return quot, rem[:deg]


def _fold(image: list[int], d: int) -> list[int]:
    """Rewrite the image of a value in Z[x]/(x^d - 1) in place onto the tensor basis.

    For each q = p^k exactly dividing d, with s = q/p, x^e for e mod q at
    least (p - 1) s becomes minus the x^(e - t step), t = 1 .. p - 1, where
    step is s on the q-residue and 0 on every other.
    """
    for p in prime_divisors(d):
        q = math.gcd(d, p ** d.bit_length())
        rest = d // q
        step = q // p * rest * pow(rest, -1, q) % d
        shifts = [t * step for t in range(1, p)]
        for r in range(q - q // p, q):
            for e in range(r, d, q):
                c = image[e]
                if c:
                    image[e] = 0
                    for shift in shifts:
                        image[(e - shift) % d] -= c
    return image


def _canonicalize(d: int, image: list[int]) -> tuple[int, list[int]]:
    """Least conductor d / g, g = gcd(d, folded support), and numerators there of a length-d image, folded in place."""
    folded = _fold(image, d)
    g = math.gcd(d, *(e for e, c in enumerate(folded) if c))
    return d // g, _polydivmod(folded[::g], cyclotomic_polynomial(d // g))[1]


class CyclotomicNumber(Value):
    """Element nums / den of Q(zeta_d) in canonical least-conductor form.

    Fraction entries of nums are folded into den, so rational coefficients work too.
    """

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, nums: tuple[int, ...], den: int = 1):
        self.__post_init__(conductor, nums, den)

    def __post_init__(self, d: int, nums: Sequence, den: int) -> None:
        """Reduce and store nums / den; a method of its own, which perfbench's tracer counts as one construction."""
        if d != 1 or len(nums) != 1 or type(nums[0]) is not int:  # an integer needs no reduction
            if not all(isinstance(c, int) for c in nums):
                coeffs = [Fraction(c) for c in nums]
                scale = math.lcm(*(c.denominator for c in coeffs))
                nums = [c.numerator * (scale // c.denominator) for c in coeffs]
                den *= scale
            image = [0] * d  # a copy: the caller's nums stay as they are
            for i, c in enumerate(nums):
                image[i % d] += c
            d, nums = _canonicalize(d, image)
        self._set(d, nums, den)

    def _set(self, d: int, nums: Sequence[int], den: int) -> None:
        """Store nums / den at conductor d in lowest terms, with den > 0."""
        if den == 0:
            raise ZeroDivisionError("cyclotomic number with denominator 0")
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        object.__setattr__(self, "conductor", d)
        object.__setattr__(self, "nums", tuple(nums) if g == 1 else tuple(n // g for n in nums))
        object.__setattr__(self, "den", den // g)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.conductor == other.conductor and self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.conductor, self.nums, self.den))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q: Fraction | int) -> "CyclotomicNumber":
        return cls(1, (q.numerator,), q.denominator)

    @classmethod
    def _canonical(cls, d: int, nums: Sequence[int], den: int = 1) -> "CyclotomicNumber":
        """The value nums / den, whose numerators must already be canonical at conductor d."""
        value = object.__new__(cls)
        value._set(d, nums, den)
        return value

    @classmethod
    def _from_image(cls, d: int, image: list[int], den: int = 1) -> "CyclotomicNumber":
        """The value image / den, for a fresh integer list of exactly length d, which is folded in place."""
        return cls._canonical(*(_canonicalize(d, image) if d > 1 else (1, image)), den)  # a rational needs none

    @classmethod
    def zero(cls) -> "CyclotomicNumber":
        return _ZERO

    @classmethod
    def one(cls) -> "CyclotomicNumber":
        return cls.from_rational(1)

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients on the power basis of Q(zeta_conductor)."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.nums[0] == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_integral(self) -> bool:
        return self.den == 1

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other, op):
        other = _coerce(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other._scaled(op(0, 1))  # y or -y
        d = math.lcm(self.conductor, other.conductor)
        image = [0] * d
        for value, scale in ((self, other.den), (other, op(0, self.den))):  # op(0, den) is den or -den
            step = d // value.conductor
            for i, x in enumerate(value.nums):
                image[i * step] += scale * x
        return CyclotomicNumber._from_image(d, image, self.den * other.den)

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return self._scaled(-1)

    def _scaled(self, num: int, den: int = 1) -> "CyclotomicNumber":
        """num / den times this value: a nonzero multiple keeps the conductor."""
        if num == 0:
            return _ZERO
        if num == den:
            return self
        return CyclotomicNumber._canonical(self.conductor, [num * n for n in self.nums], den * self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = _coerce(other)
        if other.conductor == 1:
            return self._scaled(other.nums[0], other.den)
        if self.conductor == 1:
            return other._scaled(self.nums[0], self.den)
        d = math.lcm(self.conductor, other.conductor)
        a, b = d // self.conductor, d // other.conductor
        image = [0] * d
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(other.nums):
                    image[(i * a + j * b) % d] += x * y
        return CyclotomicNumber._from_image(d, image, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Field inverse: den times the x with sum of x_i (nums zeta^i) = 1.

        The columns nums zeta^i are those of ``_columns``, the integral
        matrix whose determinant is den^phi times the norm; it is invertible
        for a nonzero value, and the fraction-free solve gives D x in
        integers.  The inverse generates the same field, so it keeps the
        conductor.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        cols = self._columns()
        one = [1] + [0] * (len(cols) - 1)
        det, y = bareiss_solve(list(zip(*cols)), one)
        return CyclotomicNumber._canonical(self.conductor, [self.den * c for c in y], det)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def _columns(self) -> list[list[int]]:
        """The columns nums zeta^i mod Phi_d for i < phi(d).

        They are the integral matrix of multiplication by den times the value
        on the power basis, built by repeated multiplication by zeta.
        """
        phi = cyclotomic_polynomial(self.conductor)
        col = list(self.nums)
        cols = []
        for _ in range(len(phi) - 1):
            cols.append(col)
            col = _polydivmod([0] + col, phi)[1]
        return cols

    def norm(self) -> Fraction:
        """Field norm down to Q: determinant of multiplication by the value.

        Bareiss gives the determinant den^phi N(a) of the integral columns
        nums zeta^i.
        """
        cols = self._columns()
        return Fraction(IntMat.from_rows(cols).det(), self.den ** len(cols))

    def is_integral_unit(self) -> bool:
        return self.is_integral() and abs(self.norm()) == 1

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.as_rational())
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


_ZERO = CyclotomicNumber(1, (0,))  # values are frozen, so every zero can be this one


def _coerce(x) -> CyclotomicNumber:
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CyclotomicNumber")
