"""Finite permutation groups and integer matrix groups as explicit element lists.

Desk-scale orders make explicit lists practical and keep closure checks and
isomorphism searches trivial.  Element lists are stored in a canonical sorted
order so all reports are deterministic.  Closures, generating sets and orbits
come from one breadth-first search over the right Cayley graph,
``cayley_closure``, which can extend the walk of a subgroup by one more
generator; each group keeps one such chain of subgroups.  No walk goes
past MAX_ELEMENTS elements, a resource limit, not a proof of infiniteness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import NonUnimodularError, NotFiniteError, SearchTooLargeError
from .intlat import IntMat, minkowski_bound, residue_mod_3

Perm = tuple[int, ...]
E = TypeVar("E", bound=Hashable)
MAX_ELEMENTS = 50_000  # the most elements any explicit list may hold


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
    gens: Sequence[Any],
    mul: Callable[[E, Any], E],
    residue: Callable[[E], Hashable] | None = None,
    bound: int | None = None,
    prefix: Sequence[E] | None = None,
) -> list[E]:
    """Every element of the group generated by gens, in breadth-first order.

    Breadth-first search over the right Cayley graph, one product per element
    and generator; positive products reach every inverse in a finite group
    and infinitely many elements otherwise.  With mul(x, g) an action of the
    group on points and identity a point, the same walk lists the orbit of
    that point.  ``prefix``, the walk for gens[:-1], is closed under
    gens[:-1]: it starts the result and only its products by the last
    generator are taken.  ``residue``, when given, is a homomorphism to a
    finite group that is injective on every finite subgroup, so two distinct
    elements with one residue prove the group infinite.  ``bound``, when
    given, divides the order of every finite group of the kind (Minkowski's
    bound), so more elements prove it infinite too.  NotFiniteError is raised
    on either proof, and SearchTooLargeError past MAX_ELEMENTS elements (not
    verified finite).
    """
    walk = [identity] if prefix is None else list(prefix)
    closed = 0 if prefix is None else len(walk)
    members = set(walk)
    seen = None if residue is None else set(map(residue, walk))
    for i, g in enumerate(walk):  # walk grows as it is read: a first-in first-out queue
        for s in gens[-1:] if i < closed else gens:
            h = mul(g, s)
            if h not in members:
                if seen is not None:
                    r = residue(h)
                    if r in seen:
                        raise NotFiniteError("group is infinite: two distinct elements share a residue")
                    seen.add(r)
                members.add(h)
                walk.append(h)
                if bound is not None and len(walk) > bound:
                    raise NotFiniteError(f"group is infinite: order above Minkowski's bound {bound}")
                if len(walk) > MAX_ELEMENTS:
                    raise SearchTooLargeError(f"more than {MAX_ELEMENTS} elements; group not verified finite")
    return walk


class _ElementList:
    """Order, membership and iteration of a group held as its element tuple."""

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    @functools.cached_property
    def chain(self) -> tuple[tuple, tuple, tuple[int, ...]]:
        """(gens, walk, sizes), found once per group.

        Each element of the sorted list that the ones picked before do not
        generate is picked, and the walk is extended by it, so the first
        sizes[m] walk elements are the subgroup generated by gens[:m].
        ``_cayley`` gives the identity and the product of the subclass.
        """
        identity, mul = self._cayley()
        gens, walk, sizes, members = [], [identity], [1], {identity}
        for x in self.elements:
            if len(walk) == self.order:
                break
            if x not in members:
                gens.append(x)
                walk = cayley_closure(identity, gens, mul, prefix=walk)
                members.update(walk[sizes[-1]:])
                sizes.append(len(walk))
        return tuple(gens), tuple(walk), tuple(sizes)

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
    def from_generators(cls, degree: int, gens: Iterable[Perm]) -> "PermutationGroup":
        return cls.from_elements(degree, cayley_closure(identity_perm(degree), list(gens), compose))

    def _cayley(self):
        return identity_perm(self.degree), compose

    def generators(self) -> tuple[Perm, ...]:
        """Small generating set found greedily over the sorted element list."""
        return self.chain[0]


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
    def from_generators(cls, dim: int, gens: Iterable[IntMat]) -> "MatrixGroup":
        gens = list(gens)
        for g in gens:
            if g.nrows != dim or g.ncols != dim:
                raise ValueError("generator dimension mismatch")
            if abs(g.det()) != 1:
                raise NonUnimodularError(f"generator {g} has determinant {g.det()}")
        closure = cayley_closure(IntMat.identity(dim), gens, IntMat.__matmul__, residue_mod_3, minkowski_bound(dim))
        return cls.from_elements(dim, closure)

    def nonidentity(self) -> list[IntMat]:
        ident = IntMat.identity(self.dim)
        return [g for g in self.elements if g != ident]

    def _cayley(self):
        return IntMat.identity(self.dim), IntMat.__matmul__

    def generators(self) -> tuple[IntMat, ...]:
        """Small generating set found greedily over the sorted element list."""
        return self.chain[0]

    def conjugate(self, u: IntMat, u_inv: IntMat) -> "MatrixGroup":
        return MatrixGroup.from_elements(self.dim, [u @ g @ u_inv for g in self.elements])
