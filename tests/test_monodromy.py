"""Monodromy groups of toric fibres against the exhaustive stabiliser oracle."""

import contextlib
import functools
import io
import itertools
import pathlib

import pytest

from lagmono import cli, groups, toric
from lagmono.cli import run
from lagmono.groups import PermutationGroup
from lagmono.intlat import IntMat, LatticeBasis, matrix_order
from lagmono.monodromy import (
    hamiltonian_monodromy,
    induced_matrix_group,
    partition_bound_check,
    symplectic_monodromy,
)
from lagmono.polytopes import STANDARD_FIXTURES
from lagmono.toric import (
    NormalPartition,
    coefficient_partition,
    monotone_normalize,
    parse_polytope,
    toric_fiber_data,
    validate_delzant,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def fiber(name):
    return toric_fiber_data(STANDARD_FIXTURES[name])


def permute_vector(p, v):
    """Move the entry at position i to position p(i)."""
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[p[i]] = x
    return tuple(out)


def brute_stabilizers(k: LatticeBasis):
    """All permutations fixing the lattice pointwise / setwise, by exhaustion."""
    n = k.ambient
    pointwise, setwise = [], []
    for perm in itertools.permutations(range(n)):
        moved = [permute_vector(perm, row) for row in k.basis]
        if all(m == row for m, row in zip(moved, k.basis)):
            pointwise.append(perm)
        if LatticeBasis.from_vectors(n, moved) == k:
            setwise.append(perm)
    return sorted(pointwise), sorted(setwise)


class TestCoefficientPartition:
    def test_blowup_blocks(self):
        partition = coefficient_partition(fiber("bl1cp2").relations)
        assert partition.blocks == ((0, 2), (1,), (3,))

    def test_single_relation_single_block(self):
        partition = coefficient_partition(LatticeBasis.from_vectors(3, [(1, 1, 1)]))
        assert partition.blocks == ((0, 1, 2),)

    def test_no_relations_single_block(self):
        partition = coefficient_partition(LatticeBasis.from_vectors(4, []))
        assert partition.blocks == ((0, 1, 2, 3),)


class TestHamiltonianMonodromy:
    def test_blowup_is_single_transposition(self):
        group = hamiltonian_monodromy(fiber("bl1cp2"))
        assert group.order == 2
        assert (2, 1, 0, 3) in group.elements

    def test_projective_plane_full_symmetric(self):
        assert hamiltonian_monodromy(fiber("cp2")).order == 6

    def test_cube_pair_swaps(self):
        assert hamiltonian_monodromy(fiber("cube3")).order == 8

    def test_pointwise_oracle_small_fixtures(self):
        for name in ("cp2", "bl1cp2", "cube2", "cp2xcp1", "bl2cp2", "cube3", "bl3cp2"):
            data = fiber(name)
            if data.polytope.nfacets > 7:
                continue
            pointwise, _ = brute_stabilizers(data.relations)
            assert list(hamiltonian_monodromy(data).elements) == pointwise, name


class TestSymplecticMonodromy:
    def test_blowup_equals_hamiltonian(self):
        data = fiber("bl1cp2")
        assert symplectic_monodromy(data) == hamiltonian_monodromy(data)

    def test_square_adds_factor_swap(self):
        assert symplectic_monodromy(fiber("cube2")).order == 8

    def test_cube3_order(self):
        assert symplectic_monodromy(fiber("cube3")).order == 48

    def test_projective_plane(self):
        assert symplectic_monodromy(fiber("cp2")).order == 6

    def test_setwise_oracle_small_fixtures(self):
        for name in ("cp2", "bl1cp2", "cube2", "cp2xcp1", "bl2cp2", "cube3", "bl3cp2"):
            data = fiber(name)
            if data.polytope.nfacets > 7:
                continue
            _, setwise = brute_stabilizers(data.relations)
            assert list(symplectic_monodromy(data).elements) == setwise, name

    def test_contains_hamiltonian(self):
        for name in ("cp2", "cp3", "bl1cp2", "bl2cp2", "cube2", "cube3", "cp2xcp1", "orthant3"):
            data = fiber(name)
            assert set(hamiltonian_monodromy(data)) <= set(symplectic_monodromy(data)), name


class TestInducedMatrices:
    def test_blowup_transposition_matrix(self):
        data = fiber("bl1cp2")
        group = induced_matrix_group(data, hamiltonian_monodromy(data))
        assert IntMat.from_rows([[0, 1], [1, 0]]) in group.elements

    def test_identity_maps_to_identity(self):
        data = fiber("cp2")
        group = induced_matrix_group(
            data, PermutationGroup.from_elements(3, [(0, 1, 2)])
        )
        assert group.elements == (IntMat.identity(2),)

    def test_three_cycle_has_order_three(self):
        data = fiber("cp2")
        group = induced_matrix_group(
            data, PermutationGroup.from_elements(3, [(1, 2, 0), (0, 1, 2)])
        )
        orders = sorted(matrix_order(g) for g in group)
        assert orders == [1, 3]

    def test_faithful_on_all_fixtures(self):
        for name, _ in STANDARD_FIXTURES.items():
            data = fiber(name)
            perms = hamiltonian_monodromy(data)
            mats = induced_matrix_group(data, perms)
            assert mats.order == perms.order, name
            perms_s = symplectic_monodromy(data)
            mats_s = induced_matrix_group(data, perms_s)
            assert mats_s.order == perms_s.order, name

    def test_two_dimensional_groups_avoid_forbidden_shapes(self):
        # Order-2 pointwise groups are generated by orientation-reversing
        # matrices, and order 3 never occurs as the full pointwise group.
        for name, p in STANDARD_FIXTURES.items():
            if p.dim != 2:
                continue
            data = fiber(name)
            mats = induced_matrix_group(data, hamiltonian_monodromy(data))
            assert mats.order != 3, name
            if mats.order == 2:
                gen = next(g for g in mats if g != IntMat.identity(g.nrows))
                assert gen.det() == -1, name


class TestSearchCaps:
    def test_degree_bound_enforced(self):
        from lagmono.errors import SearchTooLargeError
        from lagmono.polytopes import cube

        data = toric_fiber_data(cube(7))  # B_7 has 645,120 elements, past the element limit
        with pytest.raises(SearchTooLargeError, match="exceeds limit 50000"):
            symplectic_monodromy(data)

    def test_order_cap_enforced(self):
        from lagmono.errors import SearchTooLargeError
        from lagmono.polytopes import orthant

        data = toric_fiber_data(orthant(9))  # single block, 9! elements
        with pytest.raises(SearchTooLargeError):
            hamiltonian_monodromy(data)


class TestPartitionBound:
    def test_blowup_instance(self):
        partition = NormalPartition(4, ((0, 2), (1,), (3,)))
        assert partition_bound_check(partition, 2)

    def test_oversized_block_fails(self):
        partition = NormalPartition(4, ((0, 1, 2, 3),))
        assert not partition_bound_check(partition, 2)

    def test_singletons_pass(self):
        partition = NormalPartition(3, ((0,), (1,), (2,)))
        assert partition_bound_check(partition, 0)

    def test_every_fixture_satisfies_bound(self):
        for name, p in STANDARD_FIXTURES.items():
            data = fiber(name)
            partition = coefficient_partition(data.relations)
            assert partition_bound_check(partition, p.dim), name


class TestProductOfHexagons:
    def test_json_output_matches_parent_golden(self, capsys, monkeypatch):
        # dP6 x dP6 has 12 singleton blocks, the old block-map search's wall.
        monkeypatch.chdir(ROOT)
        assert run(["--json", "toric", "tests/data/dp6xdp6.poly"]) == 0
        assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "toric-dp6xdp6.jsonl").read_text()


class TestSharedFrame:
    def test_toric_builds_base_and_partition_once(self, capsys, monkeypatch):
        calls = {"integer_rref": 0, "coefficient_partition": 0}

        def counted(name):
            inner = getattr(toric, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(toric, name, counted(name))
        assert run(["toric", str(ROOT / "fixtures" / "bl2cp2.poly")]) == 0
        # One elimination solves the offset system in monotone_normalize, one builds the base.
        assert calls == {"integer_rref": 2, "coefficient_partition": 1}


ONE_PASS = ["cube3", "cp2", "bl2cp2"]


def shipped(name):
    return parse_polytope((ROOT / "fixtures" / f"{name}.poly").read_text())


def quiet_toric(name):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["toric", str(ROOT / "fixtures" / f"{name}.poly")]) == 0


class TestOnePass:
    @pytest.mark.parametrize("name", ONE_PASS)
    def test_passing_validation_computes_no_determinant(self, name, monkeypatch):
        calls = []
        det = IntMat.det
        monkeypatch.setattr(IntMat, "det", lambda m: calls.append(m) or det(m))
        assert validate_delzant(shipped(name)).ok
        assert calls == []

    @pytest.mark.parametrize("name", ONE_PASS)
    def test_each_distinct_generator_is_induced_once(self, name, monkeypatch):
        seen = []
        induced = cli.induced_matrices
        monkeypatch.setattr(cli, "induced_matrices", lambda data, perms: seen.append(list(perms)) or induced(data, perms))
        quiet_toric(name)
        data = toric_fiber_data(monotone_normalize(shipped(name)))
        gens = hamiltonian_monodromy(data).generators() + symplectic_monodromy(data).generators()
        assert len(seen) == 1 and sorted(seen[0]) == sorted(set(gens))

    @pytest.mark.parametrize("name, walks", [("cube3", 2), ("cp2", 1), ("bl2cp2", 2)])
    def test_equal_groups_walk_one_chain(self, name, walks, monkeypatch):
        walked = []
        chain = groups._ElementList.chain.func
        spy = functools.cached_property(lambda group: walked.append(group) or chain(group))
        spy.__set_name__(PermutationGroup, "chain")
        monkeypatch.setattr(PermutationGroup, "chain", spy)
        quiet_toric(name)
        assert len(walked) == walks
