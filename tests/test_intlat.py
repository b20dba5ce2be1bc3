"""Exact linear algebra: normal forms, kernels, lattice comparison, orders."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lagmono.errors import NonUnimodularError
from lagmono.intlat import (
    IntMat,
    LatticeBasis,
    bareiss_solve,
    hermite_normal_form,
    kernel_lattice,
    lattice_equal,
    matrix_order,
    rational_rank,
    smith_normal_form,
    solve_rational_system,
)

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def is_row_hnf(h: IntMat) -> bool:
    pivots = []
    last = -1
    for r in h.rows:
        nz = [j for j, x in enumerate(r) if x != 0]
        if not nz:
            pivots.append(None)
            continue
        p = nz[0]
        if p <= last or r[p] <= 0:
            return False
        last = p
        pivots.append(p)
    # Zero rows must come after all nonzero rows.
    seen_zero = False
    for p in pivots:
        if p is None:
            seen_zero = True
        elif seen_zero:
            return False
    # Entries above each pivot are reduced into [0, pivot).
    for i, p in enumerate(pivots):
        if p is None:
            continue
        for k in range(i):
            if not 0 <= h.rows[k][p] < h.rows[i][p]:
                return False
    return True


class TestHermite:
    def test_identity_fixed(self):
        ident = IntMat.identity(2)
        h, u = hermite_normal_form(ident)
        assert h == ident and u == ident

    def test_hand_reduced_example(self):
        h, u = hermite_normal_form(IntMat.from_rows([[2, 4], [1, 1]]))
        assert h == IntMat.from_rows([[1, 1], [0, 2]])
        assert u @ IntMat.from_rows([[2, 4], [1, 1]]) == h

    def test_zero_matrix(self):
        z = IntMat.zero(2, 2)
        h, _ = hermite_normal_form(z)
        assert h == z

    @settings(max_examples=100, derandomize=True)
    @given(small_matrices)
    def test_transform_and_shape(self, rows):
        m = IntMat.from_rows(rows)
        h, u = hermite_normal_form(m)
        assert abs(u.det()) == 1
        assert u @ m == h
        assert is_row_hnf(h)

    @settings(max_examples=100, derandomize=True)
    @given(small_matrices)
    def test_idempotent(self, rows):
        h, _ = hermite_normal_form(IntMat.from_rows(rows))
        h2, _ = hermite_normal_form(h)
        assert h2 == h


class TestSmith:
    def test_gcd_lcm_of_divisors(self):
        _, d, _ = smith_normal_form(IntMat.from_rows([[2, 0], [0, 3]]))
        assert d == IntMat.from_rows([[1, 0], [0, 6]])

    def test_unit_pivots(self):
        m = IntMat.from_rows([[1, 1, 1, 0], [0, 1, 0, 1]])
        _, d, _ = smith_normal_form(m)
        assert d == IntMat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])

    def test_zero(self):
        z = IntMat.zero(2, 3)
        _, d, _ = smith_normal_form(z)
        assert d == z

    @settings(max_examples=100, derandomize=True)
    @given(small_matrices)
    def test_reconstruction_and_chain(self, rows):
        m = IntMat.from_rows(rows)
        u, d, v = smith_normal_form(m)
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        assert u @ m @ v == d
        diag = [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(d.nrows):
            for j in range(d.ncols):
                if i != j:
                    assert d.rows[i][j] == 0


def brute_member(v, basis):
    """Membership in the integer span via an exact rational solve."""
    if not basis:
        return all(x == 0 for x in v)
    transposed = [[Fraction(row[i]) for row in basis] for i in range(len(v))]
    sol = solve_rational_system(transposed, list(v))
    if sol is None:
        return False
    particular, kernel = sol
    assert not kernel, "basis rows are independent"
    return all(x.denominator == 1 for x in particular)


def brute_lattice_equal(a_basis, b_basis, ambient):
    a = LatticeBasis.from_vectors(ambient, a_basis)
    return all(brute_member(v, a_basis) for v in b_basis) and all(
        brute_member(v, b_basis) for v in a_basis
    )


class TestKernelLattice:
    def test_blowup_relations(self):
        normals = IntMat.from_rows([[0, 1], [-1, -1], [1, 0], [1, 1]])
        k = kernel_lattice(normals)
        expected = LatticeBasis.from_vectors(4, [(1, 1, 1, 0), (0, 1, 0, 1)])
        assert lattice_equal(k, expected)

    def test_projective_plane_relation(self):
        normals = IntMat.from_rows([[1, 0], [0, 1], [-1, -1]])
        k = kernel_lattice(normals)
        assert lattice_equal(k, LatticeBasis.from_vectors(3, [(1, 1, 1)]))

    def test_invertible_matrix_has_trivial_kernel(self):
        assert kernel_lattice(IntMat.from_rows([[2, 1], [1, 1]])).rank == 0

    @settings(max_examples=100, derandomize=True)
    @given(small_matrices)
    def test_in_kernel_and_saturated(self, rows):
        m = IntMat.from_rows(rows)
        k = kernel_lattice(m)
        assert k.rank == m.nrows - rational_rank(rows)
        for v in k.basis:
            product = IntMat.from_rows([v]) @ m
            assert all(x == 0 for x in product.rows[0])
        if k.rank:
            _, d, _ = smith_normal_form(k.matrix())
            assert all(d.rows[i][i] == 1 for i in range(k.rank))


class TestLatticeEqual:
    def test_row_equivalent_bases(self):
        a = LatticeBasis.from_vectors(4, [(1, 1, 1, 0), (0, 1, 0, 1)])
        b = LatticeBasis.from_vectors(4, [(1, 0, 1, -1), (0, 1, 0, 1)])
        assert lattice_equal(a, b)

    def test_index_two_sublattice_differs(self):
        a = LatticeBasis.from_vectors(2, [(1, 0)])
        b = LatticeBasis.from_vectors(2, [(2, 0)])
        assert not lattice_equal(a, b)

    def test_reflexive(self):
        a = LatticeBasis.from_vectors(3, [(1, 2, 3)])
        assert lattice_equal(a, a)

    @settings(max_examples=60, derandomize=True)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
            min_size=1,
            max_size=3,
        ),
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
            min_size=1,
            max_size=3,
        ),
    )
    def test_matches_mutual_membership_oracle(self, rows_a, rows_b):
        a = LatticeBasis.from_vectors(4, rows_a)
        b = LatticeBasis.from_vectors(4, rows_b)
        oracle = all(b.member(v) for v in a.basis) and all(a.member(v) for v in b.basis)
        slow = brute_lattice_equal(a.basis, b.basis, 4) if a.basis and b.basis else oracle
        assert lattice_equal(a, b) == oracle == slow


class TestMatrixOrder:
    def test_order_three_rotation(self):
        assert matrix_order(IntMat.from_rows([[0, -1], [1, -1]])) == 3

    def test_identity(self):
        assert matrix_order(IntMat.identity(3)) == 1

    def test_order_four_rotation(self):
        assert matrix_order(IntMat.from_rows([[0, -1], [1, 0]])) == 4

    def test_infinite_order_shear(self):
        assert matrix_order(IntMat.from_rows([[1, 1], [0, 1]])) is None

    def test_order_210_in_gl12(self):
        # Block sum of the companion matrices of Phi_6, Phi_5 and Phi_7.
        blocks = [[1, -1], [1, 1, 1, 1], [1, 1, 1, 1, 1, 1]]
        rows = [[0] * 12 for _ in range(12)]
        start = 0
        for coeffs in blocks:
            size = len(coeffs)
            for i in range(size):
                if i:
                    rows[start + i][start + i - 1] = 1
                rows[start + i][start + size - 1] = -coeffs[i]
            start += size
        g = IntMat.from_rows(rows)
        assert matrix_order(g) == 210
        assert matrix_order(g, cap=210) == 210
        assert matrix_order(g, cap=209) is None

    def test_rejects_non_unimodular(self):
        with pytest.raises(NonUnimodularError):
            matrix_order(IntMat.from_rows([[2, 0], [0, 1]]))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_order_divides_power_order_times_k(self, k):
        g = IntMat.from_rows([[1, -1], [1, 0]])  # order 6
        n = matrix_order(g)
        gk = g
        for _ in range(k - 1):
            gk = gk @ g
        nk = matrix_order(gk)
        assert n is not None and nk is not None
        assert (nk * k) % n == 0


square_systems = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
    )
)


def laplace_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


class TestBareiss:
    @settings(max_examples=150, deadline=None)
    @given(square_systems)
    def test_det_equals_cofactor_expansion(self, system):
        a, _ = system
        assert IntMat.from_rows(a).det() == laplace_det(a)

    @settings(max_examples=150, deadline=None)
    @given(square_systems)
    def test_solve_equals_fraction_solve(self, system):
        a, b = system
        solved = bareiss_solve(a, b)
        det = laplace_det(a)
        if det == 0:
            assert solved is None
            return
        d, y = solved
        assert abs(d) == abs(det)
        assert [sum(x * v for x, v in zip(r, y)) for r in a] == [d * v for v in b]
        particular, kernel = solve_rational_system(a, b)
        assert not kernel and particular == [Fraction(v, d) for v in y]

    def test_singular_and_pivoting_cases(self):
        assert bareiss_solve([[1, 2], [2, 4]], [1, 0]) is None
        assert bareiss_solve([[0, 1], [1, 0]], [3, 5]) == (1, [5, 3])
