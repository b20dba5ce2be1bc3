"""Laurent potentials: exact evaluation, criticality, support data, symmetry.

The sum, product and exact derivatives of potentials live here as test helpers.
"""

import cmath
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lagmono.cyclotomic import CyclotomicNumber, euler_phi
from lagmono.errors import DimensionError, GridTooLargeError, ParseError, ValidationError
from lagmono.intlat import IntMat, LatticeBasis
from lagmono.laurent import (
    LaurentPolynomial,
    _first_partials,
    evaluate,
    invariance_check,
    is_critical,
    parse_laurent,
    torsion_critical_points,
)
from lagmono.torussym import TorsionPoint
from test_cyclotomic import zeta
from test_torussym import sorted_points

F = Fraction
rat = CyclotomicNumber.from_rational

W_CP2 = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
SWAP = IntMat.from_rows([[0, 1], [1, 0]])
ROT3 = IntMat.from_rows([[0, -1], [1, -1]])


def pt(*coords):
    return TorsionPoint.make(coords)


def add(w1, w2):
    """w1 + w2."""
    terms = dict(w1.terms)
    for e, c in w2.terms:
        terms[e] = terms.get(e, 0) + c
    return LaurentPolynomial.from_dict(w1.dim, terms)


def mul(w1, w2):
    """w1 w2."""
    terms = {}
    for (e1, c1), (e2, c2) in itertools.product(w1.terms, w2.terms):
        e = tuple(a + b for a, b in zip(e1, e2))
        terms[e] = terms.get(e, 0) + c1 * c2
    return LaurentPolynomial.from_dict(w1.dim, terms)


def gradient_hessian(w, p):
    """Affine first and second partials of w, evaluated exactly at p."""
    partials = _first_partials(w)
    grad = tuple(evaluate(f, p) for f in partials)
    hess = tuple(tuple(evaluate(f.partial(j), p) for j in range(w.dim)) for f in partials)
    return grad, hess


def to_complex(value: CyclotomicNumber) -> complex:
    root = cmath.exp(2j * cmath.pi / value.conductor)
    return sum(complex(c) * root**k for k, c in enumerate(value.coeffs))


class TestEvaluate:
    def test_three_terms_at_origin(self):
        assert evaluate(W_CP2, pt(0, 0)) == rat(3)

    def test_diagonal_cube_root_value(self):
        assert evaluate(W_CP2, pt(F(1, 3), F(1, 3))) == rat(3) * zeta(3)

    def test_symmetric_pair_at_half(self):
        w = LaurentPolynomial.from_dict(2, {(1, 0): 1, (-1, 0): 1})
        assert evaluate(w, pt(F(1, 2), F(1, 7))) == rat(-2)

    def test_ring_homomorphism_on_random_inputs(self):
        rng = random.Random(5)
        for _ in range(25):
            dim = rng.choice([1, 2])
            def rand_poly():
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(-2, 2) for _ in range(dim))
                    terms[e] = rng.randint(-3, 3)
                return LaurentPolynomial.from_dict(dim, terms)
            w1, w2 = rand_poly(), rand_poly()
            p = TorsionPoint.make(
                F(rng.randint(0, 5), rng.choice([1, 2, 3, 4, 6])) for _ in range(dim)
            )
            assert evaluate(mul(w1, w2), p) == evaluate(w1, p) * evaluate(w2, p)
            assert evaluate(add(w1, w2), p) == evaluate(w1, p) + evaluate(w2, p)


class TestDerivatives:
    def test_hessian_at_origin(self):
        grad, hess = gradient_hessian(W_CP2, pt(0, 0))
        assert all(g.is_zero() for g in grad)
        assert hess == ((rat(2), rat(1)), (rat(1), rat(2)))

    def test_one_variable_embedded_second_derivative(self):
        w = LaurentPolynomial.from_dict(1, {(1,): 1, (-1,): 1})
        grad, hess = gradient_hessian(w, pt(F(1, 2)))
        assert grad[0].is_zero()
        assert hess[0][0] == rat(-2)

    def test_constant_is_flat(self):
        w = LaurentPolynomial.from_dict(2, {(0, 0): 7})
        grad, hess = gradient_hessian(w, pt(F(1, 3), F(1, 5)))
        assert all(g.is_zero() for g in grad)
        assert all(h.is_zero() for row in hess for h in row)

    def test_float_sanity_against_finite_differences(self):
        # One loose float check; the binding tests are exact.
        rng = random.Random(9)
        w = LaurentPolynomial.from_dict(2, {(1, 0): 2, (0, 1): -1, (-1, -1): 3, (2, 1): 1})
        p = pt(F(1, 3), F(1, 4))
        grad, _ = gradient_hessian(w, p)
        h = 1e-6
        x0 = [cmath.exp(2j * cmath.pi * complex(c)) for c in p.coords]

        def value_at(coords):
            return sum(
                c * coords[0] ** e[0] * coords[1] ** e[1] for e, c in w.terms
            )

        for i in range(2):
            bumped_up = list(x0)
            bumped_dn = list(x0)
            bumped_up[i] += h
            bumped_dn[i] -= h
            fd = (value_at(bumped_up) - value_at(bumped_dn)) / (2 * h)
            assert abs(fd - to_complex(grad[i])) < 1e-6


class TestCriticality:
    def test_diagonal_cube_roots_are_critical(self):
        assert is_critical(W_CP2, pt(F(1, 3), F(1, 3)))

    def test_half_point_not_critical(self):
        assert not is_critical(W_CP2, pt(F(1, 2), 0))

    def test_constant_everywhere_critical(self):
        w = LaurentPolynomial.from_dict(2, {(0, 0): 5})
        assert is_critical(w, pt(F(2, 7), F(1, 3)))

    def test_grid_search_matches_known_critical_set(self):
        points = torsion_critical_points(W_CP2, 6)
        assert points == (pt(0, 0), pt(F(1, 3), F(1, 3)), pt(F(2, 3), F(2, 3)))

    def test_no_critical_points_for_linear_potential(self):
        w = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1})
        assert torsion_critical_points(w, 8) == ()

    def test_cube_potential_critical_on_half_lattice(self):
        w = LaurentPolynomial.from_dict(
            3, {(1, 0, 0): 1, (-1, 0, 0): 1, (0, 1, 0): 1, (0, -1, 0): 1, (0, 0, 1): 1, (0, 0, -1): 1}
        )
        points = torsion_critical_points(w, 2)
        assert len(points) == 8
        assert all(all(c in (F(0), F(1, 2)) for c in p.coords) for p in points)

    def test_grid_cap(self):
        with pytest.raises(GridTooLargeError):
            torsion_critical_points(W_CP2, 1000, grid_cap=100)

    def test_random_against_float_oracle(self):
        rng = random.Random(42)
        checked = 0
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
                    mono = c * e[i]
                    for j in range(dim):
                        mono *= x[j] ** (e[j] - (1 if j == i else 0))
                    total += mono
                float_grad.append(total)
            float_verdict = all(abs(v) < 1e-9 for v in float_grad)
            assert is_critical(w, p) == float_verdict
            checked += 1
        assert checked == 200


def oracle_critical_points(w, bound):
    """The original grid walk: every point, every affine partial evaluated exactly."""
    out = []
    for combo in itertools.product(range(bound), repeat=w.dim):
        p = TorsionPoint.make(F(k, bound) for k in combo)
        if all(evaluate(w.partial(i), p).is_zero() for i in range(w.dim)):
            out.append(p)
    return sorted_points(set(out))


def symmetrised(dim, raw_terms):
    """w(z) + w(1/z): invariant under -1, so every half-period point is critical."""
    terms = {}
    for e, c in raw_terms:
        e = tuple(e[:dim])
        for key in (e, tuple(-x for x in e)):
            terms[key] = terms.get(key, 0) + c
    return LaurentPolynomial.from_dict(dim, terms)


raw_terms = st.lists(
    st.tuples(st.tuples(*[st.integers(-3, 3)] * 3), st.integers(-3, 3)), min_size=1, max_size=4
)


class TestFastGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        dim_bound=st.one_of(
            st.tuples(st.integers(1, 2), st.integers(1, 12)), st.tuples(st.just(3), st.integers(1, 6))
        ),
        raw=raw_terms,
    )
    def test_grid_equals_pointwise_oracle(self, dim_bound, raw):
        dim, bound = dim_bound
        w = symmetrised(dim, raw)
        assert torsion_critical_points(w, bound) == oracle_critical_points(w, bound)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 3),
        raw=raw_terms,
        order=st.integers(1, 30),
        numerators=st.lists(st.integers(0, 29), min_size=3, max_size=3),
        symmetric=st.booleans(),
    )
    def test_is_critical_equals_exact_evaluation(self, dim, raw, order, numerators, symmetric):
        terms = [(tuple(e[:dim]), c) for e, c in raw]
        w = symmetrised(dim, raw) if symmetric else LaurentPolynomial(dim, tuple(terms))
        p = TorsionPoint.make(F(a, order) for a in numerators[:dim])
        expected = all(evaluate(w.partial(i), p).is_zero() for i in range(dim))
        assert is_critical(w, p) == expected

    def test_known_critical_points_agree_with_evaluation(self):
        w = symmetrised(2, [((1, 0, 0), 1), ((0, 1, 0), 1), ((1, 1, 0), 2)])
        for p in [pt(0, 0), pt(F(1, 2), 0), pt(0, F(1, 2)), pt(F(1, 2), F(1, 2))]:
            assert all(evaluate(w.partial(i), p).is_zero() for i in range(2))
            assert is_critical(w, p)
        for p in [pt(F(1, 3), F(1, 3)), pt(F(2, 3), F(2, 3))]:
            assert all(evaluate(W_CP2.partial(i), p).is_zero() for i in range(2))
            assert is_critical(W_CP2, p)

    def test_triangle_at_bound_48(self):
        assert torsion_critical_points(W_CP2, 48) == (
            pt(0, 0), pt(F(1, 3), F(1, 3)), pt(F(2, 3), F(2, 3))
        )

    def test_whole_orbits_are_reported(self):
        # x^5 + x^-5 is critical exactly where x^10 = 1; orders 1, 2, 5 and 10.
        w = LaurentPolynomial.from_dict(1, {(5,): 1, (-5,): 1})
        assert torsion_critical_points(w, 20) == tuple(pt(F(k, 10)) for k in range(10))

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 3),
        raw=raw_terms,
        order=st.integers(1, 12),
        numerators=st.lists(st.integers(0, 11), min_size=3, max_size=3),
    )
    def test_affine_and_logarithmic_partials_vanish_together(self, dim, raw, order, numerators):
        w = LaurentPolynomial(dim, tuple((tuple(e[:dim]), c) for e, c in raw))
        p = TorsionPoint.make(F(a, order) for a in numerators[:dim])
        log_zero = [
            evaluate(LaurentPolynomial(dim, tuple((e, c * e[i]) for e, c in w.terms)), p).is_zero()
            for i in range(dim)
        ]
        assert log_zero == [evaluate(w.partial(i), p).is_zero() for i in range(dim)]
        assert is_critical(w, p) == all(log_zero)


class TestLargeOrder:
    """Order 146,969 = 47 * 53 * 59, where a division by Phi_d took minutes."""

    POINT = pt(F(1, 47), F(1, 53), F(1, 59))

    def test_sum_of_zeta_47_powers_is_zero(self):
        w = LaurentPolynomial.from_dict(3, {(k, 0, 0): 1 for k in range(47)})
        assert evaluate(w, self.POINT).is_zero()

    def test_primitive_root_keeps_full_conductor(self):
        value = evaluate(LaurentPolynomial.from_dict(1, {(1,): 1}), pt(F(1, 146_969)))
        assert value.conductor == 146_969
        assert value.coeffs == (0, 1) + (0,) * (euler_phi(146_969) - 2)

    def test_is_critical_returns(self):
        rng = random.Random(146_969)
        terms = {tuple(rng.randint(-3, 3) for _ in range(3)): rng.choice((-2, -1, 1, 2)) for _ in range(8)}
        assert is_critical(LaurentPolynomial.from_dict(3, terms), self.POINT) in (True, False)
        # z2 times the 47-term sum: the z2 and z3 partials vanish, the z1 partial lies in Q(zeta_2491).
        w = LaurentPolynomial.from_dict(3, {(k, 1, 0): 1 for k in range(47)})
        assert not is_critical(w, self.POINT)
        assert evaluate(w.partial(1), self.POINT).is_zero()
        assert evaluate(w.partial(0), self.POINT).conductor == 47 * 53


class TestDimensionErrors:
    def test_evaluate(self):
        with pytest.raises(DimensionError):
            evaluate(W_CP2, pt(F(1, 3)))

    def test_is_critical(self):
        with pytest.raises(DimensionError) as info:
            is_critical(W_CP2, pt(F(1, 3)))
        assert isinstance(info.value, ValidationError)

    def test_relabel(self):
        with pytest.raises(DimensionError):
            W_CP2.relabel(IntMat.identity(3))


def support_rank(w):
    """The nonzero exponents of w and the rank of the lattice they span."""
    b1 = {e for e, _ in w.terms if any(e)}
    return b1, LatticeBasis.from_vectors(w.dim, b1).rank


class TestSupportRank:
    def test_toric_triangle_support(self):
        assert support_rank(W_CP2) == ({(1, 0), (0, 1), (-1, -1)}, 2)

    def test_constant_has_empty_support(self):
        w = LaurentPolynomial.from_dict(2, {(0, 0): 4})
        assert support_rank(w) == (set(), 0)

    def test_single_axis_rank_one(self):
        w = LaurentPolynomial.from_dict(2, {(0, 0): 3, (3, 0): 2})
        assert support_rank(w) == ({(3, 0)}, 1)


class TestSymmetryFilters:
    def test_rotation_invariance_of_triangle_potential(self):
        assert invariance_check(W_CP2, ROT3)

    def test_swap_invariance(self):
        w = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1})
        assert invariance_check(w, SWAP)

    def test_unequal_coefficients_break_invariance(self):
        w = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 2})
        assert not invariance_check(w, SWAP)

    def test_invariance_composes(self):
        for g in (ROT3, SWAP):
            for h in (ROT3, SWAP):
                if invariance_check(W_CP2, g) and invariance_check(W_CP2, h):
                    assert invariance_check(W_CP2, g @ h)


class TestTextFormat:
    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_laurent("dim 2\nterm 1 0\n")

    def test_comments_and_blank_lines(self):
        w = parse_laurent("# potential\ndim 1\n\nterm 2 3  # cubic\n")
        assert w == LaurentPolynomial.from_dict(1, {(3,): 2})
