"""Exact cyclotomic arithmetic: canonical forms, field operations, norms."""

import math
import random
from fractions import Fraction

import pytest

from lagmono.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    euler_phi_table,
)

F = Fraction
rat = CyclotomicNumber.from_rational


def zeta(d, power=1):
    """zeta_d ** power."""
    nums = [0] * (power % d + 1)
    nums[power % d] = 1
    return CyclotomicNumber(d, tuple(nums))


def galois(x, a):
    """Image of x under zeta -> zeta^a, for a coprime to the conductor."""
    d = x.conductor
    assert math.gcd(a, d) == 1
    image = [0] * d
    for i, c in enumerate(x.nums):
        image[(i * a) % d] += c
    return CyclotomicNumber(d, tuple(image), x.den)


class TestCyclotomicPolynomials:
    @pytest.mark.parametrize(
        "d,coeffs",
        [
            (1, (-1, 1)),
            (2, (1, 1)),
            (3, (1, 1, 1)),
            (4, (1, 0, 1)),
            (6, (1, -1, 1)),
            (12, (1, 0, -1, 0, 1)),
        ],
    )
    def test_small_values(self, d, coeffs):
        assert cyclotomic_polynomial(d) == coeffs

    def test_degree_is_phi(self):
        for d in range(1, 40):
            assert len(cyclotomic_polynomial(d)) - 1 == euler_phi(d)

    def test_phi_sieve_equals_trial_division(self):
        assert euler_phi_table(0) == [0]
        assert euler_phi_table(3000) == [0] + [euler_phi(d) for d in range(1, 3001)]


class TestCanonicalForm:
    def test_minus_one_descends_to_rationals(self):
        assert zeta(2) == rat(-1)

    def test_sixth_root_descends_to_conductor_three(self):
        # Q(zeta_6) = Q(zeta_3), and zeta_6 = 1 + zeta_3.
        z6 = zeta(6)
        assert z6.conductor == 3
        assert z6 == rat(1) + zeta(3)
        assert z6 * z6 * z6 == rat(-1)

    def test_sum_of_all_cube_roots_vanishes(self):
        assert zeta(3, 0) + zeta(3, 1) + zeta(3, 2) == rat(0)

    def test_power_wraps(self):
        assert zeta(5, 7) == zeta(5, 2)
        assert zeta(5, 5) == rat(1)

    def test_descended_conductor_from_even_embedding(self):
        # zeta_6^2 is a primitive cube root and must report conductor 3.
        z = zeta(6, 2)
        assert z.conductor == 3
        assert z == zeta(3)

    def test_zeta_2m_descends_to_odd_m(self):
        # zeta_2m = -zeta_m^((m+1)/2), and Q(zeta_2m) = Q(zeta_m) for odd m.
        for m in (1, 3, 5, 7, 9, 15, 21, 35):
            assert zeta(2 * m).conductor == m
            assert zeta(2 * m) == -zeta(m, (m + 1) // 2)

    def test_powers_of_zeta_p_squared(self):
        for p in (2, 3, 5, 7):
            for k in range(p * p):
                z = zeta(p * p, k)
                if k % p:
                    assert z.conductor == p * p
                else:
                    assert z == zeta(p, k // p)
                    assert z.conductor == (p if k and p > 2 else 1)

    def test_cross_conductor_equality(self):
        a = zeta(4) * zeta(4)  # -1 via conductor 4
        assert a.conductor == 1 and a == rat(-1)


class TestArithmetic:
    @pytest.mark.parametrize("length", [3, 12, 20])
    def test_constructor_leaves_the_callers_list_unchanged(self, length):
        nums = [(-1) ** i * (i % 5) for i in range(length)]
        before = list(nums)
        value = CyclotomicNumber(12, nums)
        assert nums == before
        assert value == sum((zeta(12, i) * c for i, c in enumerate(before)), rat(0))

    def test_mixed_conductor_product(self):
        z12 = zeta(3) * zeta(4)
        assert z12.conductor == 12
        assert z12 == zeta(12, 7)  # zeta_3 zeta_4 = zeta_12^(4+3)
        assert z12.coeffs == (F(0), F(-1), F(0), F(0))  # zeta_12^6 = -1

    def test_inverse_roundtrip(self):
        rng = random.Random(3)
        for d in (1, 3, 4, 5, 8, 12):
            for _ in range(8):
                coeffs = tuple(F(rng.randint(-4, 4)) for _ in range(euler_phi(d)))
                v = CyclotomicNumber(d, coeffs)
                if v.is_zero():
                    continue
                assert v * v.inverse() == rat(1)

    def test_galois_permutes_roots(self):
        assert galois(zeta(5), 2) == zeta(5, 2)
        assert galois(galois(zeta(5), 3), 2) == zeta(5, 6)

    def test_integrality_flags(self):
        assert (zeta(3) + 1).is_integral()
        assert not (zeta(3) / 2).is_integral()


class TestIntegerForm:
    def test_numerators_in_lowest_terms_over_positive_denominator(self):
        v = CyclotomicNumber(3, (2, 4), -6)
        assert (v.conductor, v.nums, v.den) == (3, (-1, -2), 3)
        assert v == CyclotomicNumber(3, (F(-1, 3), F(-2, 3)))
        assert v.coeffs == (F(-1, 3), F(-2, 3))

    def test_fraction_entries_fold_into_the_denominator(self):
        v = CyclotomicNumber(4, (F(1, 2), F(1, 3)), 5)
        assert (v.nums, v.den) == ((3, 2), 30)
        assert rat(F(-3, 4)) == CyclotomicNumber(1, (-3,), 4)

    def test_zero_denominator_is_refused(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber(3, (1, 2), 0)
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber(1, (0,), 0)


class TestNorm:
    def test_rational_norm(self):
        assert rat(F(3, 2)).norm() == F(3, 2)

    def test_root_of_unity_is_unit(self):
        for d in (3, 4, 5, 8, 12):
            assert zeta(d).is_integral_unit()

    def test_one_minus_zeta_p_has_norm_p(self):
        for p in (3, 5, 7, 11):
            assert (rat(1) - zeta(p)).norm() == p

    def test_rational_integer_norm_power(self):
        # The norm of a rational integer k from Q(zeta_d) is k^phi(d).
        v = rat(2) + zeta(5) - zeta(5)
        assert v.norm() == 2

    def test_norm_multiplicative(self):
        rng = random.Random(11)
        for d in (3, 4, 5):
            for _ in range(6):
                a = CyclotomicNumber(d, tuple(F(rng.randint(-3, 3)) for _ in range(euler_phi(d))))
                b = CyclotomicNumber(d, tuple(F(rng.randint(-3, 3)) for _ in range(euler_phi(d))))
                lhs = (a * b)
                # Norms taken in possibly different (canonical) fields must be
                # compared through a common conductor exponent.
                def abs_norm(x):
                    return x.norm() ** (euler_phi(d) // euler_phi(x.conductor))
                assert abs_norm(lhs) == abs_norm(a) * abs_norm(b)
