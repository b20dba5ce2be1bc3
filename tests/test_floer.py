"""Clifford algebras, continuation obstructions, quadratic forms, rank-1 reports."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from lagmono.cyclotomic import CyclotomicNumber
from lagmono.errors import (
    BadDiscriminantError,
    DimensionError,
    NotCriticalError,
    NotInvariantError,
    NotUnivariateError,
    UnsupportedActionError,
)
from lagmono.floer import (
    AXIS_REFLECTION,
    HYPERBOLIC,
    MINUS_IDENTITY,
    ORDER3_GENERATOR,
    BinaryForm,
    CliffordData,
    CliffordElement,
    ContinuationResult,
    Rk1Report,
    ShearConstraints,
    clifford_constants,
    clifford_mul,
    continuation_solvable,
    hessian_theorem_check,
    reduce_binary_form,
    rk1_classify,
    _bounded_search,
    _solution_space,
    _verify_witness,
)
from lagmono.intlat import IntMat
from lagmono.laurent import LaurentPolynomial, torsion_critical_points
from lagmono.torussym import TorsionPoint
from test_cyclotomic import zeta
from test_laurent import add, gradient_hessian

F = Fraction
rat = CyclotomicNumber.from_rational


def clifford_data(lam, mu, nu):
    """The structure constants lam, mu, nu, each an integer."""
    return CliffordData(rat(lam), rat(mu), rat(nu))


def scalar(value):
    return CliffordElement.even(value, 0)


W_CP2 = LaurentPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
W_SQUARE = LaurentPolynomial.from_dict(
    2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
)


def pt(*coords):
    return TorsionPoint.make(coords)


def shear(m):
    return IntMat.from_rows([[1, m], [0, 1]])


def reflection(m=0):
    return IntMat.from_rows([[-1, m], [0, 1]])


class TestCliffordConstants:
    def test_triangle_potential_at_origin(self):
        data = clifford_constants(W_CP2, pt(0, 0))
        assert data.constants() == (rat(-1), rat(-1), rat(-1))
        assert not data.half_integral

    def test_embedded_one_variable(self):
        w = LaurentPolynomial.from_dict(2, {(1, 0): 1, (-1, 0): 1})
        data = clifford_constants(w, pt(F(1, 2), 0))
        assert data.constants() == (rat(1), rat(0), rat(0))

    def test_constant_potential(self):
        w = LaurentPolynomial.from_dict(2, {(0, 0): 9})
        data = clifford_constants(w, pt(F(1, 5), F(2, 5)))
        assert data.constants() == (rat(0), rat(0), rat(0))

    def test_rejects_noncritical_point(self):
        with pytest.raises(NotCriticalError):
            clifford_constants(W_CP2, pt(F(1, 2), 0))

    def test_half_integral_flagged(self):
        w = LaurentPolynomial.from_dict(2, {(1, 1): 1, (-1, -1): 1})
        data = clifford_constants(w, pt(0, 0))
        assert data.constants()[0] == rat(-1)  # -x^2 coefficient sum is even here
        odd_w = LaurentPolynomial.from_dict(2, {(1, 0): 1, (-1, 0): 1, (0, 3): 1, (0, -3): 1})
        odd_data = clifford_constants(odd_w, pt(F(1, 2), F(1, 3)))
        assert isinstance(odd_data.half_integral, bool)

    def test_half_integral_follows_the_constants(self):
        half = rat(F(1, 2))
        assert CliffordData(half, rat(0), rat(1)).half_integral
        assert CliffordData(rat(1), zeta(3) * half, rat(0)).half_integral
        assert not CliffordData(rat(-1), zeta(5), zeta(3) + 1).half_integral
        assert not clifford_data(1, 2, 3).half_integral
        for coords in ((F(1, 3), F(1, 3)), (0, 0)):
            data = clifford_constants(W_CP2, pt(*coords))
            assert CliffordData(*data.constants()).half_integral == data.half_integral


    def test_rejects_point_of_wrong_dimension(self):
        with pytest.raises(DimensionError):
            clifford_constants(W_CP2, pt(F(1, 3)))

    def test_constants_match_full_hessian(self):
        rng = random.Random(3)
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = (rng.randint(-3, 3), rng.randint(-3, 3))
                c = rng.randint(-3, 3)
                terms[e] = terms.get(e, 0) + c
                terms[(-e[0], -e[1])] = terms.get((-e[0], -e[1]), 0) + c
            w = LaurentPolynomial.from_dict(2, terms)
            for p in torsion_critical_points(w, 6):
                _, hess = gradient_hessian(w, p)
                data = clifford_constants(w, p)
                assert data.constants() == (
                    hess[0][0] * F(-1, 2), -hess[0][1], hess[1][1] * F(-1, 2)
                )


class TestCliffordProduct:
    def test_defining_relations(self):
        d = clifford_data(5, 7, -3)
        u = CliffordElement.odd(1, 0)
        v = CliffordElement.odd(0, 1)
        assert clifford_mul(u, u, d) == scalar(5)
        assert clifford_mul(v, v, d) == scalar(-3)
        assert clifford_mul(u, v, d) == scalar(7) - clifford_mul(v, u, d)

    def test_odd_square_is_quadratic_form(self):
        rng = random.Random(1)
        for _ in range(25):
            d = clifford_data(
                rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
            )
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            c = CliffordElement.odd(a, b)
            square = clifford_mul(c, c, d)
            lam, mu, nu = (int(x.coeffs[0]) for x in d.constants())
            expected = lam * a * a + mu * a * b + nu * b * b
            assert square == scalar(expected)

    def test_even_norm_expansion(self):
        d = clifford_data(2, 3, -1)
        p, q = 4, -3
        c = CliffordElement.even(p, q)
        conj = CliffordElement.even(p + 3 * q, -q)
        prod = clifford_mul(c, conj, d)
        assert prod == scalar(p * p + 3 * p * q + 2 * (-1) * q * q)

    def test_associative_and_unital(self):
        rng = random.Random(2)
        one = scalar(1)
        for _ in range(20):
            d = clifford_data(
                rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
            )
            elems = [
                CliffordElement(
                    rat(rng.randint(-2, 2)),
                    rat(rng.randint(-2, 2)),
                    rat(rng.randint(-2, 2)),
                    rat(rng.randint(-2, 2)),
                )
                for _ in range(3)
            ]
            a, b, c = elems
            assert clifford_mul(clifford_mul(a, b, d), c, d) == clifford_mul(
                a, clifford_mul(b, c, d), d
            )
            assert clifford_mul(a, one, d) == a
            assert clifford_mul(one, a, d) == a


class TestContinuation:
    def test_odd_shear_blocked_for_unit_lambda(self):
        d = clifford_data(1, 0, 0)
        result = continuation_solvable(d, shear(1), "even", 1)
        assert result.status == "unsolvable"

    def test_even_shear_solvable(self):
        d = clifford_data(1, 0, 0)
        result = continuation_solvable(d, shear(2), "even", 1)
        assert result.status == "solvable"
        assert _verify_witness(result.witness, d, shear(2), "even")

    def test_reflection_needs_unit_lambda(self):
        d = clifford_data(2, 0, 0)
        result = continuation_solvable(d, reflection(), "odd", 5)
        assert result.status == "unsolvable"

    def test_reflection_with_unit_lambda(self):
        d = clifford_data(-1, 0, 0)
        result = continuation_solvable(d, reflection(2), "odd", 3)
        assert result.status == "solvable"

    def test_unsupported_shape(self):
        d = clifford_data(1, 0, 0)
        with pytest.raises(UnsupportedActionError):
            continuation_solvable(d, IntMat.from_rows([[0, -1], [1, -1]]), "even", 3)

    @pytest.mark.parametrize("conductor", [1, 3, 4, 5])
    def test_shear_parity_rule_all_conductors(self, conductor):
        for lam in (1, -1):
            d = clifford_data(lam, 0, 0)
            for m in range(-6, 7):
                result = continuation_solvable(d, shear(m), "even", conductor)
                assert result.status == ("solvable" if m % 2 == 0 else "unsolvable")

    @pytest.mark.parametrize("conductor", [1, 3, 4, 5])
    def test_reflection_lambda_rule_all_conductors(self, conductor):
        for lam in range(-3, 4):
            d = clifford_data(lam, 0, 0)
            result = continuation_solvable(d, reflection(0), "odd", conductor)
            assert result.status == ("solvable" if lam in (1, -1) else "unsolvable")

    def test_closed_forms_agree_with_bounded_search(self):
        for conductor in (1, 3, 4, 5):
            for lam in range(-3, 4):
                d = clifford_data(lam, 0, 0)
                for m in range(-8, 9):
                    for action, parity in ((shear(m), "even"), (reflection(m), "odd")):
                        result = continuation_solvable(d, action, parity, conductor)
                        space = _solution_space(d, action, parity)
                        if len(space) == 2:  # lam = 0 under shear(0), which the closed form decides
                            assert _verify_witness(result.witness, d, action, parity)
                            continue
                        searched = _bounded_search(d, action, parity, 5, space)
                        if result.status == "solvable":
                            assert searched is not None
                        elif result.status == "unsolvable":
                            assert searched is None

    def test_two_dimensional_space_only_for_zero_constants_under_the_identity(self):
        # Every residual row vanishes only there; the closed form decides the even case, and the
        # odd parity-norm form is zero, so the bounded search never meets a two-dimensional space.
        values = [rat(F(k, 2)) for k in range(-4, 5)] + [zeta(3), zeta(4) + 1, zeta(5) * F(1, 2)]
        actions = [IntMat.from_rows([[e1, m], [0, e2]]) for e1 in (1, -1) for e2 in (1, -1) for m in range(-2, 3)]
        two_dimensional = [
            (constants, action, parity)
            for constants in itertools.product(values, repeat=3)
            for action in actions
            for parity in ("even", "odd")
            if len(_solution_space(CliffordData(*constants), action, parity)) == 2
        ]
        zero, identity = (rat(0),) * 3, IntMat.identity(2)
        assert two_dimensional == [(zero, identity, "even"), (zero, identity, "odd")]
        d = CliffordData(*zero)
        assert continuation_solvable(d, identity, "even", 1) == ContinuationResult("solvable", scalar(1))
        assert continuation_solvable(d, identity, "odd", 1) == ContinuationResult("unsolvable")

    def test_diagonal_reflection_constrains_nu(self):
        # Action fixing u and negating v: odd continuation element needs
        # mu = 0 and unit nu.
        act = IntMat.from_rows([[1, 0], [0, -1]])
        good = clifford_data(5, 0, -1)
        assert continuation_solvable(good, act, "odd", 1).status == "solvable"
        bad = clifford_data(5, 0, 2)
        assert continuation_solvable(bad, act, "odd", 1).status in ("unsolvable", "unknown")


class TestBinaryForms:
    def test_already_hyperbolic(self):
        canonical, u = reduce_binary_form(BinaryForm(0, 1, 0))
        assert canonical == HYPERBOLIC
        assert u == IntMat.identity(2)

    def test_odd_indefinite_to_split_diagonal(self):
        canonical, u = reduce_binary_form(BinaryForm(1, 1, 0))
        assert canonical == BinaryForm(1, 0, -1)
        assert BinaryForm(1, 1, 0).transform(u) == canonical

    def test_positive_definite_to_identity(self):
        canonical, u = reduce_binary_form(BinaryForm(2, 1, 1))
        assert canonical == BinaryForm(1, 0, 1)
        assert BinaryForm(2, 1, 1).transform(u) == canonical

    def test_bad_discriminant_rejected(self):
        with pytest.raises(BadDiscriminantError):
            reduce_binary_form(BinaryForm(1, 0, -2))

    def test_exhaustive_small_entries(self):
        canonicals = {
            HYPERBOLIC,
            BinaryForm(1, 0, 1),
            BinaryForm(-1, 0, -1),
            BinaryForm(1, 0, -1),
        }
        count = 0
        for lam, mu2, nu in itertools.product(range(-5, 6), repeat=3):
            q = BinaryForm(lam, mu2, nu)
            if q.discriminant() not in (1, -1):
                continue
            count += 1
            canonical, u = reduce_binary_form(q)
            assert canonical in canonicals
            assert abs(u.det()) == 1
            assert q.transform(u) == canonical
            again, _ = reduce_binary_form(canonical)
            assert again == canonical
            if q.discriminant() == -1:
                assert canonical in (BinaryForm(1, 0, 1), BinaryForm(-1, 0, -1))
            else:
                assert canonical in (HYPERBOLIC, BinaryForm(1, 0, -1))
                # Parity of the diagonal decides the class.
                if lam % 2 == 0 and nu % 2 == 0:
                    assert canonical == HYPERBOLIC
                else:
                    assert canonical == BinaryForm(1, 0, -1)
        assert count > 50


class TestRk1Classifier:
    def test_monomial_case(self):
        w = LaurentPolynomial.from_dict(1, {(0,): 5, (3,): 2})
        report = rk1_classify(w)
        assert report.case == "MONOMIAL"
        assert (report.a, report.b, report.k) == (5, 2, 3)
        assert report.shears.kind == "any"

    def test_monomial_orientation_flip(self):
        w = LaurentPolynomial.from_dict(1, {(-3,): 2})
        report = rk1_classify(w)
        assert report.case == "MONOMIAL" and report.k == 3 and report.flipped

    def test_symmetric_case(self):
        w = LaurentPolynomial.from_dict(1, {(0,): 7, (1,): 1, (-1,): 1})
        report = rk1_classify(w)
        assert report.case == "SYMMETRIC_PM"
        assert (report.a, report.sign) == (7, 1)
        assert report.shears.kind == "multiples"
        assert report.shears.modulus() == 2

    def test_residual_non_unity_roots(self):
        w = LaurentPolynomial.from_dict(1, {(2,): 1, (1,): 4})
        report = rk1_classify(w)
        assert report.case == "RESIDUAL"
        assert report.shears.kind == "zero"

    @pytest.mark.parametrize(
        "terms", [{(1,): 1, (-1,): -1}, {(1,): -1, (-1,): 1}, {(0,): 3, (1,): 1, (-1,): -1}],
        ids=["x - 1/x", "-x + 1/x", "3 + x - 1/x"],
    )
    def test_unequal_pair_is_residual(self, terms):
        assert rk1_classify(LaurentPolynomial.from_dict(1, terms)).case == "RESIDUAL"

    def test_modulus_only_for_multiples(self):
        assert ShearConstraints("any").modulus() is None
        assert ShearConstraints("zero", (0,)).modulus() is None

    def test_high_degree_potential_is_quick(self):
        # The factor profile scans d up to 2 * 31^2 + 2; it must build only the
        # Phi_d whose degree fits the remaining factor.
        w = LaurentPolynomial.from_dict(1, {(30,): 1, (-1,): 1})
        start = time.perf_counter()
        report = rk1_classify(w)
        assert time.perf_counter() - start < 1.0
        assert report.case == "RESIDUAL" and report.shears.kind == "zero"

    def test_degree_240_report_unchanged(self):
        # The window reaches d = 2 * 241^2 + 2; phi comes from one sieve over it.
        w = LaurentPolynomial.from_dict(1, {(240,): 1, (-1,): 1})
        expected = Rk1Report("RESIDUAL", "[[1, 2Z], [0, 1]]", ShearConstraints("zero", (0,)), a=0)
        assert rk1_classify(w) == expected

    def test_residual_with_cyclotomic_derivative(self):
        # x + 1/x scaled by 2: critical points survive but second derivative
        # is not +-2, so the symmetric shape is excluded.
        w = LaurentPolynomial.from_dict(1, {(1,): 2, (-1,): 2})
        report = rk1_classify(w)
        assert report.case == "RESIDUAL"
        assert report.shears.kind == "multiples"
        assert report.shears.modulus() is not None and report.shears.modulus() % 4 == 0

    def test_embedded_two_variable_input(self):
        w = LaurentPolynomial.from_dict(2, {(0, 0): 1, (0, 2): 3})
        report = rk1_classify(w)
        assert report.case == "MONOMIAL" and report.k == 2

    def test_mixed_support_rejected(self):
        with pytest.raises(NotUnivariateError):
            rk1_classify(W_CP2)

    def test_constant_rejected(self):
        with pytest.raises(NotUnivariateError):
            rk1_classify(LaurentPolynomial.from_dict(1, {(0,): 3}))

    @pytest.mark.parametrize(
        "w, message",
        [
            (LaurentPolynomial.from_dict(0, {(): 2}), "rank-one analysis needs one or two variables"),
            (LaurentPolynomial.from_dict(3, {(1, 0, 0): 1}), "rank-one analysis needs one or two variables"),
            (W_CP2, "potential mixes both variables"),
            (LaurentPolynomial.from_dict(2, {(1, 1): 1}), "potential mixes both variables"),
            (LaurentPolynomial(2, ()), "constant potential has no rank-one data"),
            (LaurentPolynomial.from_dict(2, {(0, 0): 4}), "constant potential has no rank-one data"),
        ],
    )
    def test_refusal_messages(self, w, message):
        with pytest.raises(NotUnivariateError) as info:
            rk1_classify(w)
        assert str(info.value) == message


class TestHessianTheorem:
    def test_triangle_reference_passes(self):
        report = hessian_theorem_check(W_CP2, "ORDER3")
        assert report.status == "PASS"
        assert report.epsilon == 1
        origin = next(p for p in report.points if p.point == pt(0, 0))
        assert origin.constants == (rat(-1), rat(-1), rat(-1))
        for entry in report.points:
            assert entry.normalized == (rat(-1), rat(-1), rat(-1))

    def test_rotated_triangle_variant(self):
        w = LaurentPolynomial.from_dict(2, {(-1, 0): 1, (0, -1): 1, (1, 1): 1})
        report = hessian_theorem_check(w, "ORDER3")
        assert report.status == "PASS" and report.epsilon == 1

    def test_negated_triangle_gets_minus_one(self):
        report = hessian_theorem_check(LaurentPolynomial(2, tuple((e, -c) for e, c in W_CP2.terms)), "ORDER3")
        assert report.status == "PASS" and report.epsilon == -1

    def test_square_potential_split(self):
        report = hessian_theorem_check(W_SQUARE, "ORDER2_F")
        assert report.status == "PASS"
        assert report.form == "SPLIT" and report.eps_pair == (1, 1)

    def test_hyperbolic_shape(self):
        w = LaurentPolynomial.from_dict(2, {(1, 1): 1, (-1, -1): 1})
        report = hessian_theorem_check(w, "ORDER2")
        assert report.status == "PASS" and report.form == "HYPERBOLIC"

    def test_invariance_enforced(self):
        with pytest.raises(NotInvariantError):
            hessian_theorem_check(W_SQUARE, "ORDER3")

    def test_scaled_potential_violates(self):
        doubled = add(W_CP2, W_CP2)
        report = hessian_theorem_check(doubled, "ORDER3")
        assert report.status == "VIOLATION"

    def test_signed_split_detected(self):
        w = LaurentPolynomial.from_dict(2, {(1, 0): 1, (-1, 0): 1, (0, 1): -1, (0, -1): -1})
        report = hessian_theorem_check(w, "ORDER2_F")
        assert report.status == "PASS" and report.eps_pair == (1, -1)

    def test_rejects_potential_without_two_variables(self):
        w = LaurentPolynomial.from_dict(1, {(1,): 1, (-1,): 1})
        with pytest.raises(DimensionError):
            hessian_theorem_check(w, "ORDER2")

    def test_unknown_kind_message(self):
        with pytest.raises(ValueError) as info:
            hessian_theorem_check(W_SQUARE, "ORDER5")
        assert str(info.value) == "unknown group kind 'ORDER5'"

    @pytest.mark.parametrize(
        "terms, kind, generator",
        [
            ({(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}, "ORDER3", ORDER3_GENERATOR),
            ({(1, 0): 1, (0, 1): 1, (-1, -1): 1}, "ORDER2", MINUS_IDENTITY),
            ({(1, 0): 1, (0, 1): 1, (-1, -1): 1}, "ORDER2_F", MINUS_IDENTITY),
            ({(1, 1): 1, (-1, -1): 1}, "ORDER2_F", AXIS_REFLECTION),
        ],
    )
    def test_first_missing_invariance_is_named(self, terms, kind, generator):
        with pytest.raises(NotInvariantError) as info:
            hessian_theorem_check(LaurentPolynomial.from_dict(2, terms), kind)
        assert str(info.value) == f"potential is not invariant under {generator}"
