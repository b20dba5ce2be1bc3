"""Torsion fixed points of monomial automorphisms and the admissibility filter.

``monomial_fixed_points`` lives here as the tests' oracle for fixed loci.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from lagmono import groups
from lagmono.errors import NotFiniteError, NonUnimodularError, ParseError, SearchTooLargeError
from lagmono.groups import MatrixGroup
from lagmono.intlat import IntMat, LatticeBasis
from lagmono.torussym import (
    TorsionPoint,
    _delta_rows,
    _full_rank_locus,
    _image,
    _numerators,
    _points,
    admissible_group,
    forced_critical_points,
    parse_group,
)
from test_groups import conjugate_group, negated

MINUS_I = IntMat.from_rows([[-1, 0], [0, -1]])
ROT3 = IntMat.from_rows([[0, -1], [1, -1]])
ROT4 = IntMat.from_rows([[0, -1], [1, 0]])
SWAP = IntMat.from_rows([[0, 1], [1, 0]])
DIAG_F = IntMat.from_rows([[1, 0], [0, -1]])

F = Fraction


def pt(*coords):
    return TorsionPoint.make(coords)


def act(g, p):
    """The action of g on local-system coordinates, v -> g^T v mod 1: the brute-force oracle of the fixed-point tests."""
    den, (x,) = _numerators([p])
    return _points(den, [_image(g.transpose(), den, x)])[0]


def sorted_points(points):
    """The points in the order of their coordinates, the order lagmono returns points in."""
    return tuple(sorted(points, key=lambda p: p.coords))


def monomial_fixed_points(gs):
    """The sorted v in (Q/Z)^n with g^T v = v mod 1 for every g in gs, or None when there are infinitely many.

    The locus is finite exactly when the stacked g^T - I have rank n, and is
    then read off the Hermite basis of their row lattice.
    """
    n = gs[0].nrows
    lattice = LatticeBasis.from_vectors(n, [row for g in gs for row in _delta_rows(g)])
    return _points(*_full_rank_locus(lattice.basis)) if lattice.rank == n else None


class TestActionConvention:
    def test_order_three_action_is_y_inverse_xy(self):
        # Multiplicatively (x, y) -> (y, 1/(xy)); additively (a, b) -> (b, -a-b).
        p = pt(F(1, 5), F(2, 5))
        assert act(ROT3, p) == pt(F(2, 5), F(-3, 5))

    def test_negation_action(self):
        assert act(MINUS_I, pt(F(1, 3), F(1, 4))) == pt(F(2, 3), F(3, 4))


class TestMonomialFixedPoints:
    def test_negation_fixes_half_integer_points(self):
        assert monomial_fixed_points([MINUS_I]) == (
            pt(0, 0),
            pt(0, F(1, 2)),
            pt(F(1, 2), 0),
            pt(F(1, 2), F(1, 2)),
        )

    def test_order_three_fixes_diagonal_cube_roots(self):
        assert monomial_fixed_points([ROT3]) == (
            pt(0, 0),
            pt(F(1, 3), F(1, 3)),
            pt(F(2, 3), F(2, 3)),
        )

    def test_identity_fixes_whole_torus(self):
        assert monomial_fixed_points([IntMat.identity(2)]) is None

    def test_reflection_fixed_locus_is_one_dimensional(self):
        assert monomial_fixed_points([SWAP]) is None

    def test_diagonal_reflection_locus_is_infinite(self):
        # v -> (v1, -v2) fixes the circles v2 = 0 and v2 = 1/2.
        assert monomial_fixed_points([DIAG_F]) is None

    def test_infinite_locus_coset_structure(self):
        # Brute force on the points of order dividing 12: DIAG_F fixes exactly
        # the two circles v2 = 0 and v2 = 1/2, cosets of one free direction.
        for a, b in itertools.product(range(12), repeat=2):
            point = pt(F(a, 12), F(b, 12))
            assert (act(DIAG_F, point) == point) == (b in (0, 6)), point

    def test_count_matches_determinant_brute_force(self):
        ident = IntMat.identity(2)
        for g in [MINUS_I, ROT3, ROT4, MINUS_I @ SWAP, ROT3 @ ROT3]:
            gt = g.transpose()
            delta = IntMat.from_rows(
                [tuple(a - b for a, b in zip(r, i)) for r, i in zip(gt.rows, ident.rows)]
            )
            det = abs(delta.det())
            if det == 0:
                continue
            fixed = monomial_fixed_points([g])
            assert len(fixed) == det
            grid = [
                pt(F(a, det), F(b, det)) for a in range(det) for b in range(det)
            ]
            brute = sorted_points(p for p in grid if act(g, p) == p)
            assert fixed == brute

    def test_count_for_determinants_up_to_sixty(self):
        # det(g^T - I) = 2 - trace(g) for unimodular g; companion-style
        # shears sweep every determinant size up to 60.
        for t in range(0, 59):
            g = IntMat.from_rows([[0, -1], [1, -t]])
            det = 2 + t
            fixed = monomial_fixed_points([g])
            assert len(fixed) == det
            grid = (
                pt(F(a, det), F(b, det)) for a in range(det) for b in range(det)
            )
            assert set(fixed) == {p for p in grid if act(g, p) == p}


class TestForcedCriticalPoints:
    def test_negation_group_forces_half_integer_points(self):
        group = MatrixGroup.from_generators(2, [MINUS_I])
        forced = forced_critical_points(group).points
        assert forced == monomial_fixed_points([MINUS_I])

    def test_trivial_group_forces_nothing(self):
        group = MatrixGroup.from_generators(2, [])
        assert forced_critical_points(group).points == ()

    def test_order_three_group_forces_diagonal_points(self):
        group = MatrixGroup.from_generators(2, [ROT3])
        forced = forced_critical_points(group).points
        assert forced == (pt(0, 0), pt(F(1, 3), F(1, 3)), pt(F(2, 3), F(2, 3)))

    def test_reflections_alone_force_nothing(self):
        group = MatrixGroup.from_generators(2, [DIAG_F])
        assert forced_critical_points(group).points == ()

    def test_paired_reflections_force_points(self):
        # diag(1,-1) and diag(-1,1) have no common fixed vector.
        group = MatrixGroup.from_generators(2, [DIAG_F, negated(DIAG_F)])
        forced = forced_critical_points(group).points
        assert forced == monomial_fixed_points([MINUS_I])

    def test_forced_set_is_group_stable(self):
        for gens in ([ROT4], [ROT3, SWAP], [MINUS_I, SWAP], [ROT4, DIAG_F]):
            group = MatrixGroup.from_generators(2, gens)
            forced = set(forced_critical_points(group).points)
            for g in group:
                assert {act(g, p) for p in forced} == forced


def signed_permutation_group(n):
    """B_n: every signed permutation matrix, from a sign change, a transposition and an n-cycle."""
    def perm(p):
        return IntMat.from_rows([[int(p[i] == j) for j in range(n)] for i in range(n)])

    sign = IntMat.from_rows([[(-1 if i == 0 else 1) * (i == j) for j in range(n)] for i in range(n)])
    return MatrixGroup.from_generators(n, [sign, perm([1, 0, *range(2, n)]), perm([*range(1, n), 0])])


class TestRankFourWall:
    def test_b4_forces_the_half_points(self):
        b4 = signed_permutation_group(4)
        assert b4.order == 384
        start = time.perf_counter()
        forced = forced_critical_points(b4).points
        elapsed = time.perf_counter() - start
        assert forced == sorted_points(pt(*c) for c in itertools.product((0, F(1, 2)), repeat=4))
        sign_changes = [IntMat.from_rows([[(-1 if i == k else 1) * (i == j) for j in range(4)] for i in range(4)]) for k in range(4)]
        signs = MatrixGroup.from_generators(4, sign_changes)
        assert signs.order == 16
        assert set(forced_critical_points(signs).points) <= set(forced)
        assert elapsed < 10, f"B4 forced points took {elapsed:.1f} s"


class TestAdmissibleGroup:
    def test_transposition_extension_rejected_with_witness(self):
        group = MatrixGroup.from_generators(2, [MINUS_I, SWAP])
        verdict, witness = admissible_group(group)
        assert not verdict
        assert witness == (SWAP, pt(0, F(1, 2)))

    def test_axis_reflection_extension_admissible(self):
        group = MatrixGroup.from_generators(2, [MINUS_I, DIAG_F])
        verdict, witness = admissible_group(group)
        assert verdict and witness is None

    def test_order_four_rotation_rejected(self):
        verdict, _ = admissible_group(MatrixGroup.from_generators(2, [ROT4]))
        assert not verdict

    def test_trivial_group_admissible(self):
        verdict, _ = admissible_group(MatrixGroup.from_generators(2, []))
        assert verdict

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        groups = [
            MatrixGroup.from_generators(2, [MINUS_I, SWAP]),
            MatrixGroup.from_generators(2, [MINUS_I, DIAG_F]),
            MatrixGroup.from_generators(2, [ROT3]),
            MatrixGroup.from_generators(2, [ROT4]),
        ]
        shears = [IntMat.from_rows([[1, k], [0, 1]]) for k in (-2, -1, 1, 2)]
        shears += [IntMat.from_rows([[1, 0], [k, 1]]) for k in (-2, -1, 1, 2)]
        for group in groups:
            base, _ = admissible_group(group)
            for _ in range(10):
                u = IntMat.identity(2)
                u_inv = IntMat.identity(2)
                for s in rng.sample(shears, 3):
                    u = u @ s
                    s_inv = IntMat.from_rows(
                        [[s.rows[1][1], -s.rows[0][1]], [-s.rows[1][0], s.rows[0][0]]]
                    )
                    u_inv = s_inv @ u_inv
                assert u @ u_inv == IntMat.identity(u.nrows)
                conj, _ = admissible_group(conjugate_group(group, u, u_inv))
                assert conj == base


GROUP_TEXT = """
# order-2 extension by the coordinate swap
dim 2
gen
0 1
1 0
gen
-1 0
0 -1
"""


class TestGroupParsing:
    def test_parse_and_close(self):
        group = parse_group(GROUP_TEXT)
        assert group.dim == 2 and group.order == 4

    def test_rejects_non_unimodular(self):
        with pytest.raises(NonUnimodularError):
            parse_group("dim 2\ngen\n2 0\n0 1\n")

    def test_rejects_malformed(self):
        with pytest.raises(ParseError):
            parse_group("dim 2\ngen\n1 0\n")

    def test_closure_cap(self, monkeypatch):
        # Below M(2) = 24 the element limit also caps the basis orbit and proves nothing.  The shear's
        # fifth orbit point, within a limit of 5, repeats a mark mod 3, which proves it infinite; a finite
        # group whose orbit passes a limit of 3 is only not verified finite.
        monkeypatch.setattr(groups, "MAX_ELEMENTS", 5)
        with pytest.raises(NotFiniteError, match="share a residue$"):
            parse_group("dim 2\ngen\n1 1\n0 1\n")
        monkeypatch.setattr(groups, "MAX_ELEMENTS", 3)
        with pytest.raises(SearchTooLargeError, match="not verified finite"):
            parse_group(GROUP_TEXT)
