"""The 13 planar classes, catalog ingestion, and the structural filter."""

import itertools
import pathlib
import random

import pytest

from lagmono.classify import (
    CLASS_NAMES_2D,
    catalog_n2,
    classify_n2,
    conjecture_filter,
    embed_symmetric_product,
    gl_order_feasible,
    identify_class_n2,
    ingest_catalog,
    toric_realized_labels,
)
from lagmono.cli import run
from lagmono import groups
from lagmono.errors import NonUnimodularError, NotFiniteError, ParseError, SearchTooLargeError
from lagmono.groups import MatrixGroup
from lagmono.intlat import IntMat, bareiss_solve, matrix_order, minkowski_bound
from test_groups import conjugate_group, negated

ROOT = pathlib.Path(__file__).resolve().parent.parent


def planar_class(name):
    """The representative of the named class in catalog_n2()."""
    return dict(catalog_n2().entries)[name]


class TestCatalog13:
    def test_thirteen_entries(self):
        catalog = catalog_n2()
        assert tuple(name for name, _ in catalog.entries) == CLASS_NAMES_2D

    def test_axis_pair_group(self):
        group = planar_class("2f")
        expected = {
            IntMat.identity(2),
            IntMat.from_rows([[-1, 0], [0, -1]]),
            IntMat.from_rows([[1, 0], [0, -1]]),
            IntMat.from_rows([[-1, 0], [0, 1]]),
        }
        assert set(group.elements) == expected

    def test_hexagonal_dihedral_order(self):
        assert planar_class("6ft").order == 12

    def test_expected_orders(self):
        orders = {name: planar_class(name).order for name in CLASS_NAMES_2D}
        assert orders == {
            "1": 1, "1f": 2, "1t": 2, "2": 2, "2f": 4, "2t": 4,
            "3": 3, "3f": 6, "3t": 6, "4": 4, "4ft": 8, "6": 6, "6ft": 12,
        }

    def test_labels_roundtrip(self):
        for name, group in catalog_n2().entries:
            assert identify_class_n2(group) == name

    def test_every_element_finite_order(self):
        for _, group in catalog_n2().entries:
            for g in group:
                assert matrix_order(g) in (1, 2, 3, 4, 6)


def random_unimodular(rng: random.Random) -> tuple[IntMat, IntMat]:
    u = IntMat.identity(2)
    u_inv = IntMat.identity(2)
    basic = []
    for k in (-2, -1, 1, 2):
        basic.append(
            (IntMat.from_rows([[1, k], [0, 1]]), IntMat.from_rows([[1, -k], [0, 1]]))
        )
        basic.append(
            (IntMat.from_rows([[1, 0], [k, 1]]), IntMat.from_rows([[1, 0], [-k, 1]]))
        )
    basic.append((IntMat.from_rows([[0, 1], [1, 0]]), IntMat.from_rows([[0, 1], [1, 0]])))
    for _ in range(4):
        s, s_inv = rng.choice(basic)
        u = u @ s
        u_inv = s_inv @ u_inv
    return u, u_inv


class TestIdentify:
    def test_transposition_class(self):
        group = MatrixGroup.from_generators(2, [IntMat.from_rows([[0, 1], [1, 0]])])
        assert identify_class_n2(group) == "1t"

    def test_axis_class(self):
        group = MatrixGroup.from_generators(2, [IntMat.from_rows([[1, 0], [0, -1]])])
        assert identify_class_n2(group) == "1f"

    def test_conjugation_invariance_hundred_conjugators(self):
        rng = random.Random(23)
        count = 0
        for name, group in catalog_n2().entries:
            for _ in range(8):
                u, u_inv = random_unimodular(rng)
                assert u @ u_inv == IntMat.identity(u.nrows)
                conj = conjugate_group(group, u, u_inv)
                assert identify_class_n2(conj) == name
                count += 1
        assert count >= 100

    def test_rejections(self):
        rank3 = MatrixGroup.from_generators(3, [negated(IntMat.identity(3))])
        with pytest.raises(ValueError, match="dimension 2"):
            identify_class_n2(rank3)
        shear = IntMat.from_rows([[1, 1], [0, 1]])
        with pytest.raises(NotFiniteError):
            identify_class_n2(MatrixGroup.from_elements(2, [IntMat.identity(2), shear]))
        # {1, r} for r of order 4 is no group, and no class has its invariant.
        not_closed = MatrixGroup.from_elements(2, [IntMat.identity(2), IntMat.from_rows([[0, -1], [1, 0]])])
        with pytest.raises(ValueError, match="no planar class"):
            identify_class_n2(not_closed)

    def test_names_certified_by_conjugator_search(self):
        """Every group closed from two small finite-order matrices is conjugate to the named representative.

        The 24 finite-order matrices of GL(2, Z) with entries in {-1, 0, 1}
        give, pair by pair, 32 distinct finite groups meeting all 13 classes.
        For each, a unimodular X with entries in [-2, 2] is found by brute
        force with X G X^-1 equal to the representative as a set.
        """
        small = [
            g for rows in itertools.product(itertools.product((-1, 0, 1), repeat=2), repeat=2)
            if abs((g := IntMat.from_rows(rows)).det()) == 1 and matrix_order(g) is not None
        ]
        assert len(small) == 24
        found = set()
        for pair in itertools.combinations_with_replacement(small, 2):
            try:
                found.add(MatrixGroup.from_generators(2, pair))
            except NotFiniteError:
                continue
        assert len(found) == 32
        conjugators = []
        for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
            det = a * d - b * c
            if abs(det) == 1:
                x_inv = IntMat.from_rows([[d * det, -b * det], [-c * det, a * det]])
                conjugators.append((IntMat.from_rows([[a, b], [c, d]]), x_inv))
        names = []
        for group in found:
            name = identify_class_n2(group)
            target = set(planar_class(name).elements)
            assert any(set(conjugate_group(group, x, x_inv).elements) == target for x, x_inv in conjugators), name
            names.append(name)
        assert sorted(set(names)) == sorted(CLASS_NAMES_2D)


def signed_permutation_group(n):
    """B_n from a sign change, a transposition and an n-cycle."""
    def perm(p):
        return [[int(p[i] == j) for j in range(n)] for i in range(n)]

    sign = [[(-1 if i == 0 else 1) * (i == j) for j in range(n)] for i in range(n)]
    return [sign, perm([1, 0, *range(2, n)]), perm([*range(1, n), 0])]


def weyl_f4():
    """W(F4) = Aut(D4): B4 and x -> H x / 2 (H a Hadamard matrix), in a basis of the D4 root lattice."""
    basis = [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)]
    columns = [list(col) for col in zip(*basis)]
    hadamard = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]

    def in_basis(g, scale):
        images = []
        for b in basis:
            den, y = bareiss_solve(columns, [sum(x * v for x, v in zip(row, b)) for row in g])
            assert all(v % (den * scale) == 0 for v in y)
            images.append([v // (den * scale) for v in y])
        return IntMat.from_rows(images).transpose()

    gens = [in_basis(g, 1) for g in signed_permutation_group(4)] + [in_basis(hadamard, 2)]
    return MatrixGroup.from_generators(4, gens)


class TestMinkowskiBound:
    def test_every_shipped_group_order_divides_it(self):
        shipped = [group for _, group in catalog_n2().entries]
        for path in (ROOT / "fixtures" / "rank3_extensions.cat", ROOT / "tests" / "data" / "s4.cat"):
            shipped += [group for _, group in ingest_catalog(path.read_text()).entries]
        reflection = [
            MatrixGroup.from_generators(n, [IntMat.from_rows(g) for g in signed_permutation_group(n)]) for n in (3, 4)
        ] + [weyl_f4()]
        assert [group.order for group in reflection] == [48, 384, 1152]
        for group in shipped + reflection:
            assert minkowski_bound(group.dim) % group.order == 0


class TestClassify2D:
    def test_impossible_set(self):
        verdicts = {v.name: v for v in classify_n2()}
        impossible = {name for name, v in verdicts.items() if not v.admissible}
        assert impossible == {"2t", "3t", "4", "4ft", "6", "6ft"}

    def test_axis_pair_admissible(self):
        verdicts = {v.name: v for v in classify_n2()}
        assert verdicts["2f"].admissible
        assert verdicts["2f"].toric_tag == "TORIC_REALIZED"

    def test_open_classes_are_toric_impossible(self):
        verdicts = {v.name: v for v in classify_n2()}
        for name in ("2", "3"):
            assert verdicts[name].admissible
            assert verdicts[name].toric_tag == "TORIC_IMPOSSIBLE"

    def test_realization_table(self):
        realized = toric_realized_labels()
        assert realized == {
            "1": ("bl2cp2", "bl3cp2"),
            "1f": ("cxcp1",),
            "1t": ("bl1cp2", "c2"),
            "2f": ("cp1xcp1",),
            "3f": ("cp2",),
        }


ORDER3_REP = "group ord3-d{d}\ndim 3\ngen\n1 0 {d}\n0 0 -1\n0 1 -1\n"
ORDER4_REP = "group ord4-d{d}\ndim 3\ngen\n1 0 {d}\n0 0 -1\n0 1 0\n"


def n3_representative_catalog() -> str:
    blocks = [ORDER3_REP.format(d=0), ORDER3_REP.format(d=1),
              ORDER4_REP.format(d=0), ORDER4_REP.format(d=1)]
    return "\n".join(blocks)


class TestIngest:
    def test_four_low_dimensional_representatives(self):
        catalog = ingest_catalog(n3_representative_catalog())
        assert len(catalog.entries) == 4
        orders = [group.order for _, group in catalog.entries]
        assert orders == [3, 3, 4, 4]

    def test_empty_catalog(self):
        assert ingest_catalog("").entries == ()

    def test_rejects_non_unimodular(self):
        with pytest.raises(NonUnimodularError):
            ingest_catalog("group bad\ndim 2\ngen\n2 0\n0 1\n")

    def test_rejects_infinite(self):
        with pytest.raises(NotFiniteError):
            ingest_catalog("group shear\ndim 2\ngen\n1 1\n0 1\n")

    def test_group_past_the_element_limit_is_named(self, monkeypatch):
        monkeypatch.setattr(groups, "MAX_ELEMENTS", 3)
        with pytest.raises(SearchTooLargeError, match="^group 'rot4': more than 3 elements; group not verified finite$"):
            ingest_catalog("group rot4\ndim 2\ngen\n0 -1\n1 0\n")

    def test_rejects_duplicate_names(self):
        text = "group a\ndim 2\ngen\n1 0\n0 1\n\ngroup a\ndim 2\ngen\n1 0\n0 1\n"
        with pytest.raises(ParseError):
            ingest_catalog(text)

    def test_q_class_flag(self):
        catalog = ingest_catalog("classes q\ngroup a\ndim 2\ngen\n-1 0\n0 -1\n")
        assert catalog.q_class


class TestEmbedding:
    def test_klein_four_into_two_swaps(self):
        group = MatrixGroup.from_generators(
            2, [IntMat.from_rows([[-1, 0], [0, 1]]), IntMat.from_rows([[1, 0], [0, -1]])]
        )
        embedding = embed_symmetric_product(group, (2, 2))
        assert embedding is not None
        images = {g: img for g, img in embedding}
        assert len(set(images.values())) == 4

    def test_cyclic_four_has_no_involution_embedding(self):
        group = MatrixGroup.from_generators(2, [IntMat.from_rows([[0, -1], [1, 0]])])
        assert embed_symmetric_product(group, (2, 2, 2)) is None

    def test_symmetric_three_realization(self):
        group = planar_class("3f")
        embedding = embed_symmetric_product(group, (3,))
        assert embedding is not None
        images = dict(embedding)
        for a in group:
            for b in group:
                pa, pb = images[a], images[b]
                composed = tuple(
                    tuple(x[y[i]] for i in range(len(y))) for x, y in zip(pa, pb)
                )
                assert composed == images[a @ b]

    def test_order_not_dividing_target_order_is_none(self):
        # Lagrange: B3 (order 48) embeds in none of S4, S3 x S2 and S2^3.
        signs = [IntMat.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])]
        perms = [IntMat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), IntMat.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]
        b3 = MatrixGroup.from_generators(3, signs + perms)
        assert b3.order == 48
        for parts in ((4,), (3, 2), (2, 2, 2)):
            assert embed_symmetric_product(b3, parts) is None
        assert embed_symmetric_product(planar_class("6ft"), (3,)) is None


class TestGlOrderFeasible:
    def test_rank_three_orders(self):
        assert [m for m in range(1, 13) if gl_order_feasible(m, 3)] == [1, 2, 3, 4, 6]

    def test_degree_obstruction(self):
        assert not gl_order_feasible(5, 3)
        assert gl_order_feasible(5, 4)

    def test_plane_rotations(self):
        assert gl_order_feasible(4, 2)
        assert gl_order_feasible(6, 2)
        assert not gl_order_feasible(8, 2)

    def test_brute_force_companion_oracle(self):
        # Independent oracle: build every block-diagonal stack of companion
        # matrices of cyclotomic polynomials fitting in k columns and record
        # the matrix orders actually achieved by powering.
        from lagmono.cyclotomic import cyclotomic_polynomial

        def companion(d):
            phi = cyclotomic_polynomial(d)
            n = len(phi) - 1
            rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
            rows.append([-phi[j] for j in range(n)])
            return IntMat.from_rows(rows)

        for k in range(1, 5):
            candidates = [
                d for d in range(1, 2 * k * k + 3)
                if len(cyclotomic_polynomial(d)) - 1 <= k
            ]
            achievable = {1}

            def extend(remaining, start, mat):
                if mat is not None:
                    full = _block_diag(mat, IntMat.identity(remaining)) if remaining else mat
                    order = matrix_order(full)
                    assert order is not None
                    achievable.add(order)
                for idx in range(start, len(candidates)):
                    d = candidates[idx]
                    size = len(cyclotomic_polynomial(d)) - 1
                    if size <= remaining:
                        block = companion(d)
                        stacked = block if mat is None else _block_diag(mat, block)
                        extend(remaining - size, idx, stacked)

            extend(k, 0, None)
            for m in range(1, 31):
                assert gl_order_feasible(m, k) == (m in achievable), (m, k)


def _block_diag(a: IntMat, b: IntMat) -> IntMat:
    n, m = a.nrows, b.nrows
    rows = []
    for i in range(n):
        rows.append(tuple(a.rows[i]) + (0,) * m)
    for i in range(m):
        rows.append((0,) * n + tuple(b.rows[i]))
    return IntMat.from_rows(rows)


class TestConjectureFilter:
    def test_reflection_extensions_ruled_out(self):
        text_parts = []
        for d in (0, 1):
            text_parts.append(
                f"group ext3-d{d}\ndim 3\ngen\n-1 0 0\n0 -1 0\n0 0 -1\ngen\n1 0 {d}\n0 0 -1\n0 1 -1\n"
            )
            for sign in ("1", "-1"):
                text_parts.append(
                    f"group ext4-{sign}-d{d}\ndim 3\ngen\n-1 0 0\n0 -1 0\n0 0 -1\ngen\n{sign} 0 {d}\n0 0 -1\n0 1 0\n"
                )
        catalog = ingest_catalog("\n".join(text_parts))
        verdicts = conjecture_filter(catalog)
        assert all(v.status == "RULED_OUT" for v in verdicts)
        assert all(v.witness is not None for v in verdicts)

    def test_sign_group_lands_in_case2(self):
        text = (
            "group signs\ndim 3\n"
            "gen\n-1 0 0\n0 1 0\n0 0 1\n"
            "gen\n1 0 0\n0 -1 0\n0 0 1\n"
            "gen\n1 0 0\n0 1 0\n0 0 -1\n"
        )
        verdicts = conjecture_filter(ingest_catalog(text))
        verdict = verdicts[0]
        assert verdict.status in ("CASE2", "BOTH")
        assert verdict.parts == (2, 2, 2)
        assert verdict.embedding is not None

    def test_planar_catalog_consistent_with_classification(self):
        verdicts = {v.name: v for v in conjecture_filter(catalog_n2())}
        ruled_out = {name for name, v in verdicts.items() if v.status == "RULED_OUT"}
        assert ruled_out == {"2t", "3t", "4", "4ft", "6", "6ft"}
        for name, v in verdicts.items():
            if name not in ruled_out:
                assert v.status in ("CASE2", "BOTH", "CASE1_NECESSARY")

    def test_rank_four_symmetric_group_matches_golden(self, capsys, monkeypatch):
        # S4 permuting coordinates: order 24 divides |S5| and |S4 x S2| only.
        monkeypatch.chdir(ROOT)
        assert run(["--json", "conjecture", "tests/data/s4.cat"]) == 0
        assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "conjecture-s4.jsonl").read_text()
