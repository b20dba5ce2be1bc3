"""Finite permutation groups and integer matrix groups as explicit element lists.

Desk-scale orders make explicit lists practical and keep closure checks and
isomorphism searches trivial.  Element lists are stored in a canonical sorted
order so all reports are deterministic.  Closures, generating sets and orbits
come from one breadth-first search over the right Cayley graph,
``cayley_closure``, which can extend the walk of a subgroup by one more
generator; each group keeps one such chain of subgroups.  Matrix groups are
walked as permutations of their basis-vector orbit; IntMat products only refuse
groups.  No walk passes MAX_ELEMENTS elements, a limit, not proof of infiniteness.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import NonUnimodularError, NotFiniteError, SearchTooLargeError
from .intlat import IntMat, Vec, dot, minkowski_bound, residue_mod_3
from .value import Value

Perm = tuple[int, ...]
E = TypeVar("E", bound=Hashable)
MAX_ELEMENTS = 50_000  # the most elements any explicit list may hold


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p[q[i]]."""
    return tuple([p[i] for i in q])


def _cycles(p: Perm) -> list[list[int]]:
    """The cycles of p longer than 1, each from its smallest point, in that point's order."""
    seen, cycles = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cycle, j = [i], p[i]
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = p[j]
        cycles.append(cycle)
    return cycles


def cycle_notation(p: Perm) -> str:
    """One-indexed cycle notation, 'id' for the identity."""
    return "".join("(" + " ".join(str(k + 1) for k in cycle) + ")" for cycle in _cycles(p)) or "id"


def perm_order(p: Perm) -> int:
    """Order of p: the lcm of its cycle lengths."""
    return math.lcm(*map(len, _cycles(p)))


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
    """A group held as its element tuple; ``perms`` is a faithful action, in element order,
    where the product gh acts as compose(perm g, perm h)."""

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    @functools.cached_property
    def perm_chain(self) -> tuple[tuple[Perm, ...], tuple[Perm, ...], tuple[int, ...]]:
        """(gens, walk, sizes) as permutations, found once per group.

        Each element of the sorted list that the ones picked before do not
        generate is picked, and the walk is extended by it, so the first
        sizes[m] walk elements are the subgroup generated by gens[:m].
        """
        identity = identity_perm(len(self.perms[0]))
        gens, walk, sizes, members = [], [identity], [1], {identity}
        for x in self.perms:
            if len(walk) == self.order:
                break
            if x not in members:
                gens.append(x)
                walk = cayley_closure(identity, gens, compose, prefix=walk)
                members.update(walk[sizes[-1]:])
                sizes.append(len(walk))
        return tuple(gens), tuple(walk), tuple(sizes)

    @functools.cached_property
    def chain(self) -> tuple[tuple, tuple, tuple[int, ...]]:
        """``perm_chain`` with each permutation replaced by its element."""
        gens, walk, sizes = self.perm_chain
        element = dict(zip(self.perms, self.elements)).__getitem__
        return tuple(map(element, gens)), tuple(map(element, walk)), sizes

    def cyclic_generators(self) -> list:
        """The first element, in sorted order, that generates each nontrivial cyclic subgroup."""
        identity = identity_perm(len(self.perms[0]))
        firsts, covered = [], {identity}
        for x, p in zip(self.elements, self.perms):
            if p not in covered:
                firsts.append(x)
                powers = [p]
                while powers[-1] != identity:
                    powers.append(compose(powers[-1], p))
                covered.update(q for k, q in enumerate(powers, 1) if math.gcd(k, len(powers)) == 1)
        return firsts

    def __contains__(self, x) -> bool:
        return x in self._members

    def __iter__(self) -> Iterator:
        return iter(self.elements)


class PermutationGroup(_ElementList, Value):
    def __init__(self, degree: int, elements: tuple[Perm, ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def from_elements(cls, degree: int, elements: Iterable[Perm]) -> "PermutationGroup":
        return cls(degree, tuple(sorted(set(elements))))

    @classmethod
    def from_generators(cls, degree: int, gens: Iterable[Perm]) -> "PermutationGroup":
        return cls.from_elements(degree, cayley_closure(identity_perm(degree), list(gens), compose))

    @property
    def perms(self) -> tuple[Perm, ...]:
        return self.elements

    def generators(self) -> tuple[Perm, ...]:
        """Small generating set found greedily over the sorted element list."""
        return self.chain[0]


class MatrixGroup(_ElementList, Value):
    """Finite subgroup of GL(n, Z) stored as an explicit sorted element list; ``perms`` is its action on
    O, the orbit of e_1, .., e_n, which spans Z^n: perms[k][i] is the index in O of elements[k] O[i]."""

    def __init__(self, dim: int, elements: tuple[IntMat, ...]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def from_elements(cls, dim: int, elements: Iterable[IntMat]) -> "MatrixGroup":
        uniq = sorted(set(elements), key=IntMat.canonical_key)
        return cls(dim, tuple(uniq))

    @classmethod
    def from_generators(cls, dim: int, gens: Iterable[IntMat]) -> "MatrixGroup":
        """Close the generators as permutations of their basis orbit.  When the orbit walk proves the group
        infinite or passes n M(n) points (no finite group has more) or MAX_ELEMENTS, IntMat products close it."""
        gens = list(gens)
        for g in gens:
            if g.nrows != dim or g.ncols != dim:
                raise ValueError("generator dimension mismatch")
            if abs(g.det()) != 1:
                raise NonUnimodularError(f"generator {g} has determinant {g.det()}")
        action = _basis_orbit(dim, gens, min(dim * minkowski_bound(dim), MAX_ELEMENTS))
        if action is None:
            closure = cayley_closure(IntMat.identity(dim), gens, IntMat.__matmul__, residue_mod_3, minkowski_bound(dim))
            return cls.from_elements(dim, closure)
        orbit, images = action
        walk = cayley_closure(identity_perm(len(orbit)), images, compose)
        # O starts with e_1, .., e_n, so column j of g is g e_j = O[perm[j]].
        matrix = {p: IntMat._of(tuple(zip(*(orbit[i] for i in p[:dim])))) for p in walk}
        perms = tuple(sorted(walk, key=lambda p: matrix[p].canonical_key()))
        group = cls(dim, tuple(map(matrix.get, perms)))
        vars(group)["perms"] = perms  # the cached property, already known
        return group

    @functools.cached_property
    def perms(self) -> tuple[Perm, ...]:
        """Read off the elements' columns, which for a group are exactly O."""
        index = {v: i for i, v in enumerate(dict.fromkeys(c for g in self.elements for c in zip(*g.rows)))}
        return tuple(tuple(index[g.apply(v)] for v in index) for g in self.elements)

    def generators(self) -> tuple[IntMat, ...]:
        """Small generating set found greedily over the sorted element list."""
        return self.chain[0]

    def nonidentity(self) -> list[IntMat]:
        ident = IntMat.identity(self.dim)
        return [g for g in self.elements if g != ident]

    def conjugate(self, u: IntMat, u_inv: IntMat) -> "MatrixGroup":
        return MatrixGroup.from_elements(self.dim, [u @ g @ u_inv for g in self.elements])


def _basis_orbit(dim: int, gens: Sequence[IntMat], cap: int) -> tuple[list[Vec], list[Perm]] | None:
    """(O, each generator's permutation of O), or None when the group is infinite or O has more than cap points.

    O is walked breadth first from e_1, .., e_n, one matrix-vector product per point and generator.  A point
    first reached from e_j is t e_j for an element t of the walk, marked (j, t mod 3).  For one j, distinct
    points have distinct t, so a repeated mark shows two distinct elements with one residue (``residue_mod_3``).
    """
    ident = IntMat.identity(dim).rows
    orbit, marks = list(ident), [(j, ident) for j in range(dim)]
    index, seen = {v: i for i, v in enumerate(orbit)}, set(marks)
    images: list[list[int]] = [[] for _ in gens]
    for v, (j, t) in zip(orbit, marks):  # both grow while read
        for g, image in zip(gens, images):
            w = g.apply(v)
            if w not in index:
                mark = (j, tuple(tuple(dot(r, c) % 3 for c in zip(*t)) for r in g.rows))
                if mark in seen or len(orbit) >= cap:
                    return None
                seen.add(mark)
                index[w] = len(orbit)
                orbit.append(w)
                marks.append(mark)
            image.append(index[w])
    return orbit, [tuple(image) for image in images]
