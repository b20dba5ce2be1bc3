"""Finite permutation groups and integer matrix groups as explicit element lists.

Desk-scale orders make explicit lists practical and keep closure checks,
subgroup tests and isomorphism searches trivial.  Element lists are stored in
a canonical sorted order so all reports are deterministic.  Closures,
generating sets and words in generators all come from one breadth-first
search over the right Cayley graph, ``cayley_closure``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import NonUnimodularError, NotFiniteError
from .intlat import IntMat

Perm = tuple[int, ...]
E = TypeVar("E", bound=Hashable)


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


def permute_vector(p: Perm, v: Sequence) -> tuple:
    """Move the entry at position i to position p(i)."""
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[p[i]] = x
    return tuple(out)


def cycle_notation(p: Perm) -> str:
    """One-indexed cycle notation, 'id' for the identity."""
    seen = set()
    cycles = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cycle = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = p[j]
        cycles.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(cycles) if cycles else "id"


def cayley_closure(
    identity: E,
    gens: Sequence[E],
    mul: Callable[[E, E], E],
    cap: int,
    residue: Callable[[E], Hashable] | None = None,
) -> dict[E, tuple[int, ...]]:
    """Every element of the group generated by gens, mapped to a shortest word.

    Breadth-first search over the right Cayley graph, one product per element
    and generator; a word lists generator indices, multiplied left to right.
    Positive words reach every inverse in a finite group and infinitely many
    elements otherwise.  ``residue``, when given, is a homomorphism to a
    finite group that is injective on every finite subgroup, so two distinct
    elements with one residue prove the group infinite.  NotFiniteError is
    raised on such a pair, or, as a resource limit, above cap elements.
    """
    words = {identity: ()}
    seen = None if residue is None else {residue(identity)}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for idx, s in enumerate(gens):
                h = mul(g, s)
                if h not in words:
                    if seen is not None:
                        r = residue(h)
                        if r in seen:
                            raise NotFiniteError("group is infinite: two distinct elements share a residue")
                        seen.add(r)
                    words[h] = words[g] + (idx,)
                    fresh.append(h)
                    if len(words) > cap:
                        raise NotFiniteError(f"closure exceeded cap {cap}; group not verified finite")
        frontier = fresh
    return words


def _residue_mod_3(g: IntMat) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x % 3 for x in row) for row in g.rows)


def _greedy_generators(elements: Sequence[E], identity: E, mul: Callable[[E, E], E]) -> tuple[E, ...]:
    """Each element, in the given order, that the ones picked before do not generate."""
    gens: list[E] = []
    generated = {identity: ()}
    for x in elements:
        if x not in generated:
            gens.append(x)
            generated = cayley_closure(identity, gens, mul, len(elements))
            if len(generated) == len(elements):
                break
    return tuple(gens)


class _ElementList:
    """Order, membership and iteration of a group held as its element tuple."""

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    @functools.cached_property
    def _generators(self) -> tuple:
        """Small generating set found greedily over the sorted element list, once per group.

        ``_cayley`` gives the identity and the product of the subclass.
        """
        identity, mul = self._cayley()
        return _greedy_generators(self.elements, identity, mul)

    def __contains__(self, x) -> bool:
        return x in self._members

    def __iter__(self) -> Iterator:
        return iter(self.elements)


@dataclass(frozen=True)
class PermutationGroup(_ElementList):
    degree: int
    elements: tuple[Perm, ...]

    @classmethod
    def from_elements(cls, degree: int, elements: Iterable[Perm]) -> "PermutationGroup":
        return cls(degree, tuple(sorted(set(elements))))

    @classmethod
    def from_generators(cls, degree: int, gens: Iterable[Perm], cap: int = 10_000_000) -> "PermutationGroup":
        return cls.from_elements(degree, cayley_closure(identity_perm(degree), list(gens), compose, cap))

    def _cayley(self):
        return identity_perm(self.degree), compose

    def generators(self) -> tuple[Perm, ...]:
        """Small generating set found greedily over the sorted element list."""
        return self._generators

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        return all(p in other for p in self.elements)


@dataclass(frozen=True)
class MatrixGroup(_ElementList):
    """Finite subgroup of GL(n, Z) stored as an explicit sorted element list."""

    dim: int
    elements: tuple[IntMat, ...]

    @classmethod
    def from_elements(cls, dim: int, elements: Iterable[IntMat]) -> "MatrixGroup":
        uniq = sorted(set(elements), key=IntMat.canonical_key)
        return cls(dim, tuple(uniq))

    @classmethod
    def from_generators(cls, dim: int, gens: Iterable[IntMat], cap: int = 10_000) -> "MatrixGroup":
        gens = list(gens)
        for g in gens:
            if g.nrows != dim or g.ncols != dim:
                raise ValueError("generator dimension mismatch")
            if abs(g.det()) != 1:
                raise NonUnimodularError(f"generator {g} has determinant {g.det()}")
        # Minkowski: the kernel of GL(n, Z) -> GL(n, Z/3) is torsion-free, so
        # reduction mod 3 is injective on finite subgroups and a collision of
        # residues proves the group infinite.
        closure = cayley_closure(IntMat.identity(dim), gens, IntMat.__matmul__, cap, _residue_mod_3)
        return cls.from_elements(dim, closure)

    def nonidentity(self) -> list[IntMat]:
        ident = IntMat.identity(self.dim)
        return [g for g in self.elements if g != ident]

    def _cayley(self):
        return IntMat.identity(self.dim), IntMat.__matmul__

    def generators(self) -> tuple[IntMat, ...]:
        """Small generating set found greedily over the sorted element list."""
        return self._generators

    def conjugate(self, u: IntMat, u_inv: IntMat) -> "MatrixGroup":
        return MatrixGroup.from_elements(self.dim, [u @ g @ u_inv for g in self.elements])
