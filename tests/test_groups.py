"""Group closure, greedy generators and the subgroup chain against a brute-force oracle."""

import functools
import time

import pytest
from hypothesis import given, settings, strategies as st

from lagmono import groups
from lagmono.errors import NotFiniteError, SearchTooLargeError
from lagmono.groups import (
    MatrixGroup,
    PermutationGroup,
    cayley_closure,
    compose,
    identity_perm,
)
from lagmono.intlat import IntMat, matrix_order, residue_mod_3


def left_closure(elems, frontier, gens, mul):
    """Close the set elems under left multiplication by gens, multiplying only new elements.

    Every element of elems outside frontier must already have its products
    by gens in elems.  A finite group is generated as a monoid, so from the
    identity this reaches the whole group with |G| |gens| products.
    """
    while frontier:
        fresh = []
        for h in frontier:
            for g in gens:
                prod = mul(g, h)
                if prod not in elems:
                    elems.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return elems


def generated(identity, gens, mul):
    return left_closure({identity}, [identity], gens, mul)


def greedy_oracle(elements, identity, mul):
    """The original greedy pick, extending the closure by each new generator instead of restarting it."""
    gens = []
    closure = {identity}
    for x in elements:
        if x in closure:
            continue
        gens.append(x)
        closure = left_closure(closure, list(closure), gens, mul)
        if len(closure) == len(elements):
            break
    return tuple(gens)


def check_walk(walk, gens, identity, mul):
    """Distinct elements from the identity, closed under gens, each after the first an earlier one times a generator."""
    position = {g: i for i, g in enumerate(walk)}
    assert walk[0] == identity and len(position) == len(walk)
    reached = {0}
    for i, g in enumerate(walk):
        assert i in reached
        reached.update(position[mul(g, s)] for s in gens)


def signed_permutation(perm, signs):
    n = len(perm)
    return IntMat.from_rows(
        [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    )


perm_generators = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.tuples(
        st.just(d), st.lists(st.permutations(range(d)).map(tuple), max_size=3)
    )
)
matrix_generators = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.permutations(range(n)),
                st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
            ).map(lambda ps: signed_permutation(*ps)),
            max_size=3,
        ),
    )
)


def check_group_layer(group, gens, identity, mul):
    assert set(group.elements) == generated(identity, gens, mul)
    picked, walk, sizes = group.chain
    assert group.generators() == picked == greedy_oracle(group.elements, identity, mul)
    check_walk(walk, picked, identity, mul)
    assert set(walk) == set(group.elements) and sizes[-1] == len(walk)
    assert [set(walk[:n]) for n in sizes] == [generated(identity, picked[:m], mul) for m in range(len(sizes))]
    check_resumed_walks(gens, identity, mul)


def check_resumed_walks(gens, identity, mul):
    """A walk resumed from the walk of gens[:m] keeps it, equals a fresh walk as a set, and takes
    one product per old element and |gens[:m + 1]| per new one."""
    products = []

    def counted(a, b):
        products.append(None)
        return mul(a, b)

    for m in range(len(gens)):
        prefix = cayley_closure(identity, gens[:m], mul)
        products.clear()
        resumed = cayley_closure(identity, gens[: m + 1], counted, prefix=prefix)
        assert resumed[: len(prefix)] == prefix
        assert set(resumed) == set(cayley_closure(identity, gens[: m + 1], mul))
        assert len(products) == len(prefix) + (len(resumed) - len(prefix)) * (m + 1)
        check_walk(resumed, gens[: m + 1], identity, mul)


@settings(max_examples=30, deadline=None)
@given(perm_generators)
def test_permutation_groups_match_oracle(case):
    degree, gens = case
    group = PermutationGroup.from_generators(degree, gens)
    check_group_layer(group, gens, identity_perm(degree), compose)


@settings(max_examples=60, deadline=None)
@given(matrix_generators)
def test_signed_permutation_groups_match_oracle(case):
    dim, gens = case
    group = MatrixGroup.from_generators(dim, gens)
    check_group_layer(group, gens, IntMat.identity(dim), IntMat.__matmul__)
    for g in group:
        power, k = g, 1
        while power != IntMat.identity(dim):
            power, k = power @ g, k + 1
        assert matrix_order(g) == k


def test_walk_is_breadth_first():
    rot = IntMat.from_rows([[0, -1], [1, 0]])
    assert cayley_closure(IntMat.identity(2), [rot], IntMat.__matmul__) == [
        IntMat.identity(2), rot, rot @ rot, rot @ rot @ rot
    ]
    # S3 from a transposition and a 3-cycle: the walk of <(1 2)> is resumed by the 3-cycle.
    swap, cycle = (1, 0, 2), (1, 2, 0)
    walk = cayley_closure((0, 1, 2), [swap, cycle], compose, prefix=[(0, 1, 2), swap])
    assert walk[:2] == [(0, 1, 2), swap]
    assert walk[2:4] == [cycle, compose(swap, cycle)]


def test_cap_is_exact(monkeypatch):
    # Past the element limit a closure is not verified finite; that is never a proof of infiniteness.
    rot = IntMat.from_rows([[0, -1], [1, 0]])
    monkeypatch.setattr(groups, "MAX_ELEMENTS", 4)
    assert MatrixGroup.from_generators(2, [rot]).order == 4
    monkeypatch.setattr(groups, "MAX_ELEMENTS", 3)
    with pytest.raises(SearchTooLargeError, match="not verified finite"):
        MatrixGroup.from_generators(2, [rot])
    monkeypatch.setattr(groups, "MAX_ELEMENTS", 5)
    with pytest.raises(SearchTooLargeError, match="not verified finite"):
        PermutationGroup.from_generators(3, [(1, 2, 0), (1, 0, 2)])


@pytest.mark.parametrize(
    "gens, bound",
    [
        ([[[1, 0], [0, -1]], [[-1, 1], [-1, 0]]], 24),
        ([[[0, 0, -1], [1, 0, -1], [0, -1, 1]], [[1, -1, 0], [0, 1, 0], [1, 0, -1]]], 48),
    ],
    ids=["rank-2", "rank-3"],
)
def test_infinite_group_refused_past_minkowski_bound(gens, bound, monkeypatch):
    # No two of the first M(n) + 1 elements share a residue mod 3, so only the bound refuses the group.
    walked = []

    def counted(g):
        walked.append(g)
        return residue_mod_3(g)

    monkeypatch.setattr(groups, "residue_mod_3", counted)
    with pytest.raises(NotFiniteError, match=f"Minkowski's bound {bound}$"):
        MatrixGroup.from_generators(len(gens[0]), [IntMat.from_rows(g) for g in gens])
    assert len(walked) == bound + 1


def test_rank_six_group_closes_below_the_element_limit():
    # S7 on the A6 root lattice (simple reflections in the root basis), times -I: order 10,080.
    # A transposition and minus a 7-cycle generate it, since (-c)^7 = -I.
    cartan = [[2 if i == j else -int(abs(i - j) == 1) for j in range(6)] for i in range(6)]
    reflections = [
        IntMat.from_rows([[int(k == j) - cartan[i][j] * (k == i) for j in range(6)] for k in range(6)]) for i in range(6)
    ]
    coxeter = functools.reduce(IntMat.__matmul__, reflections)
    group = MatrixGroup.from_generators(6, [reflections[0], -coxeter])
    assert group.order == 10_080


@pytest.mark.parametrize(
    "gens",
    [
        [[[1, 1], [0, 1]]],
        [[[-1, 0], [0, 1]], [[-1, 1], [0, 1]]],
    ],
    ids=["shear", "infinite-dihedral"],
)
def test_infinite_group_refused_at_once(gens):
    start = time.perf_counter()
    with pytest.raises(NotFiniteError, match="infinite"):
        MatrixGroup.from_generators(2, [IntMat.from_rows(g) for g in gens])
    assert time.perf_counter() - start < 0.01


def plus_identity(rows, n):
    """The block-diagonal matrix diag(rows, I_(n - len(rows)))."""
    k = len(rows)
    return IntMat.from_rows([list(r) + [0] * (n - k) for r in rows] + [[0] * k + [int(i == j) for j in range(n - k)] for i in range(n - k)])


INFINITE_GENERATORS = {"shear": [[[1, 1], [0, 1]]], "infinite-dihedral": [[[-1, 0], [0, 1]], [[-1, 1], [0, 1]]]}


@pytest.mark.parametrize("rank", [4, 6])
@pytest.mark.parametrize("name", INFINITE_GENERATORS)
def test_infinite_group_plus_identity_refused_at_once(name, rank):
    # A finite group has at most n M(n) basis-orbit points; these infinite ones are refused long before.
    gens = [plus_identity(g, rank) for g in INFINITE_GENERATORS[name]]
    start = time.perf_counter()
    with pytest.raises(NotFiniteError, match="^group is infinite: two distinct elements share a residue$"):
        MatrixGroup.from_generators(rank, gens)
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize(
    "make",
    [
        lambda: PermutationGroup.from_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
        lambda: MatrixGroup.from_generators(
            3, [IntMat.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), IntMat.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])]
        ),
    ],
    ids=["S4", "signed-cyclic-3"],
)
def test_generators_are_found_once_per_group(make, monkeypatch):
    group = make()
    calls = []
    original = groups.cayley_closure

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groups, "cayley_closure", counted)
    first = group.generators()
    assert len(calls) == len(first)
    assert group.generators() is first
    assert len(calls) == len(first)
