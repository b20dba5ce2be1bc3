"""Polytope validation, monotone normalization, and fibre data."""

import pathlib
from fractions import Fraction

import pytest

from lagmono.errors import NotMonotoneError, ParseError
from lagmono.intlat import LatticeBasis
from lagmono.laurent import LaurentPolynomial
from lagmono.polytopes import (
    STANDARD_FIXTURES,
    blowup_cp2,
    cube,
    line_times_sphere,
    orthant,
    projective_space,
)
from lagmono.toric import (
    DelzantPolytope,
    Mode,
    monotone_normalize,
    parse_polytope,
    toric_fiber_data,
    validate_delzant,
)

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


class TestValidation:
    def test_projective_plane_passes(self):
        report = validate_delzant(projective_space(2))
        assert report.ok
        assert len(report.vertices) == 3

    def test_square_passes(self):
        report = validate_delzant(cube(2))
        assert report.ok
        assert len(report.vertices) == 4

    def test_non_smooth_vertex_detected(self):
        p = DelzantPolytope(2, ((1, 0), (0, 1), (-1, -2)), (F(1), F(1), F(1)))
        report = validate_delzant(p)
        assert not report.ok
        assert report.failure == "VERTEX_SMOOTHNESS"
        assert "-2" in report.witness

    def test_non_primitive_normal_detected(self):
        p = DelzantPolytope(2, ((2, 0), (0, 1), (-1, -1)), (F(1), F(1), F(1)))
        report = validate_delzant(p)
        assert report.failure == "NON_PRIMITIVE_NORMAL"

    def test_redundant_facet_detected(self):
        # x >= -2 is slack everywhere inside the triangle.
        p = DelzantPolytope(
            2, ((1, 0), (0, 1), (-1, -1), (1, 0)), (F(1), F(1), F(1), F(2))
        )
        report = validate_delzant(p)
        assert report.failure in ("REDUNDANT_FACET", "DUPLICATE_NORMAL")

    def test_strip_fails_compact_mode(self):
        strip = DelzantPolytope(2, ((1, 0), (0, 1), (0, -1)), (F(1),) * 3, Mode.COMPACT)
        report = validate_delzant(strip)
        assert report.failure == "NOT_COMPACT"

    def test_strip_passes_vertex_mode(self):
        report = validate_delzant(line_times_sphere())
        assert report.ok
        assert any("UNCHECKED_TOPOLOGY" in w for w in report.warnings)

    def test_orthant_passes_vertex_mode(self):
        for n in (2, 3, 4):
            assert validate_delzant(orthant(n)).ok

    def test_all_fixtures_validate(self):
        for name, p in STANDARD_FIXTURES.items():
            assert validate_delzant(p).ok, name

    def test_weakly_redundant_facet_breaks_simplicity(self):
        # The hyperplane x + y >= -2 touches the triangle only at a vertex.
        p = DelzantPolytope(
            2, ((1, 0), (0, 1), (-1, -1), (1, 1)), (F(1), F(1), F(1), F(2))
        )
        report = validate_delzant(p)
        assert report.failure == "VERTEX_SIMPLICITY"


class TestMonotoneNormalize:
    def test_centered_triangle_unchanged(self):
        p = projective_space(2)
        assert monotone_normalize(p) == p

    def test_off_center_triangle_recentered(self):
        p = DelzantPolytope(2, ((1, 0), (0, 1), (-1, -1)), (F(2), F(2), F(0)))
        q = monotone_normalize(p)
        assert q.offsets == (F(4, 3), F(4, 3), F(4, 3))
        assert q.normals == p.normals

    def test_unequal_rectangle_rejected(self):
        p = DelzantPolytope(
            2,
            ((1, 0), (-1, 0), (0, 1), (0, -1)),
            (F(1, 2), F(1, 2), F(1), F(1)),
        )
        with pytest.raises(NotMonotoneError, match="cannot be equalised by translation"):
            monotone_normalize(p)

    def test_strip_locus_misses_interior(self):
        # Every offset-equalising point of the strip lies at level 0.
        p = DelzantPolytope(2, ((1, 0), (-1, 0)), (F(0), F(0)), Mode.VERTEX_REQUIRED)
        with pytest.raises(NotMonotoneError, match="misses the interior"):
            monotone_normalize(p)

    def test_lattice_translation_invariance(self):
        base = projective_space(2)
        for shift in ((1, 0), (2, -3)):
            offsets = tuple(
                off + sum(s * x for s, x in zip(shift, nu))
                for nu, off in zip(base.normals, base.offsets)
            )
            translated = DelzantPolytope(2, base.normals, offsets)
            assert monotone_normalize(translated) == monotone_normalize(base)

    def test_unnormalized_orthant_shifts_to_interior(self):
        p = DelzantPolytope(2, ((1, 0), (0, 1)), (F(0), F(0)), Mode.VERTEX_REQUIRED)
        q = monotone_normalize(p)
        assert len(set(q.offsets)) == 1 and q.offsets[0] > 0


class TestFiberData:
    def test_projective_plane_data(self):
        data = toric_fiber_data(projective_space(2))
        assert data.potential == LaurentPolynomial.from_dict(
            2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
        )
        assert data.relations == LatticeBasis.from_vectors(3, [(1, 1, 1)])

    def test_blowup_relations(self):
        data = toric_fiber_data(blowup_cp2(1))
        expected = LatticeBasis.from_vectors(4, [(1, 1, 1, 0), (0, 1, 0, 1)])
        assert data.relations == expected

    def test_cube_potential_and_relations(self):
        for n in (2, 3):
            data = toric_fiber_data(cube(n))
            terms = {}
            for j in range(n):
                e = tuple(1 if i == j else 0 for i in range(n))
                terms[e] = 1
                terms[tuple(-x for x in e)] = 1
            assert data.potential == LaurentPolynomial.from_dict(n, terms)
            pair_relations = []
            for j in range(n):
                v = [0] * (2 * n)
                v[2 * j] = 1
                v[2 * j + 1] = 1
                pair_relations.append(v)
            assert data.relations == LatticeBasis.from_vectors(2 * n, pair_relations)

    def test_relation_rank_and_span(self):
        for name, p in STANDARD_FIXTURES.items():
            data = toric_fiber_data(p)
            assert data.relations.rank == p.nfacets - p.dim, name  # so the normals span Q^dim
            assert all(c == 1 for _, c in data.potential.terms), name
            assert len(data.potential.terms) == p.nfacets, name
            assert {e for e, _ in data.potential.terms} == set(p.normals), name

    def test_rejects_unnormalized(self):
        p = DelzantPolytope(2, ((1, 0), (0, 1), (-1, -1)), (F(2), F(2), F(0)))
        with pytest.raises(NotMonotoneError):
            toric_fiber_data(p)


class TestTextFormat:
    def test_fractional_offsets(self):
        text = "dim 1\nmode compact\nfacet 1 4/3\nfacet -1 4/3\n"
        p = parse_polytope(text)
        assert p.offsets == (F(4, 3), F(4, 3))

    def test_mode_override(self):
        text = (FIXTURES / "cube2.poly").read_text()
        p = parse_polytope(text, mode_override=Mode.VERTEX_REQUIRED)
        assert p.normals == cube(2).normals
        assert p.mode is Mode.VERTEX_REQUIRED

    def test_parse_error_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_polytope("dim 2\nmode compact\nfacet 1 0\n")
