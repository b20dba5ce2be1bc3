"""Group closure, greedy generators and words against a brute-force oracle."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from lagmono import groups
from lagmono.errors import NotFiniteError
from lagmono.groups import (
    MatrixGroup,
    PermutationGroup,
    cayley_closure,
    compose,
    identity_perm,
)
from lagmono.intlat import IntMat, matrix_order


def two_sided_closure(identity, gens, mul):
    """The original quadratic closure: every new element times every known one, both sides."""
    elems = {identity, *gens}
    frontier = list(gens)
    while frontier:
        fresh = []
        for g in frontier:
            for h in list(elems):
                for prod in (mul(g, h), mul(h, g)):
                    if prod not in elems:
                        elems.add(prod)
                        fresh.append(prod)
        frontier = fresh
    return elems


def greedy_oracle(elements, identity, mul):
    """The original greedy pick: rebuild the closure after each new generator."""
    gens = []
    generated = {identity}
    for x in elements:
        if x in generated:
            continue
        gens.append(x)
        generated = two_sided_closure(identity, gens, mul)
        if len(generated) == len(elements):
            break
    return tuple(gens)


def evaluate(word, gens, identity, mul):
    acc = identity
    for idx in word:
        acc = mul(acc, gens[idx])
    return acc


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
    assert set(group.elements) == two_sided_closure(identity, gens, mul)
    picked = group.generators()
    assert picked == greedy_oracle(group.elements, identity, mul)
    words = cayley_closure(identity, picked, mul, group.order)
    assert {evaluate(w, picked, identity, mul) for w in words.values()} == set(group.elements)
    assert all(evaluate(w, picked, identity, mul) == g for g, w in words.items())


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
        while not power.is_identity():
            power, k = power @ g, k + 1
        assert matrix_order(g) == k


def test_words_are_shortest():
    rot = IntMat.from_rows([[0, -1], [1, 0]])
    words = cayley_closure(IntMat.identity(2), [rot], IntMat.__matmul__, 4)
    assert sorted(len(w) for w in words.values()) == [0, 1, 2, 3]


def test_cap_is_exact():
    rot = IntMat.from_rows([[0, -1], [1, 0]])
    assert MatrixGroup.from_generators(2, [rot], cap=4).order == 4
    with pytest.raises(NotFiniteError):
        MatrixGroup.from_generators(2, [rot], cap=3)
    with pytest.raises(NotFiniteError):
        PermutationGroup.from_generators(3, [(1, 2, 0), (1, 0, 2)], cap=5)


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
    assert calls
    made = len(calls)
    assert group.generators() is first
    assert len(calls) == made
