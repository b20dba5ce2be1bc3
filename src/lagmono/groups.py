"""Finite permutation groups and integer matrix groups as explicit element lists.

Desk-scale orders make explicit lists practical and keep closure checks and
isomorphism searches trivial.  Element lists are stored in a canonical sorted
order so all reports are deterministic.  Closures, generating sets and orbits
come from one breadth-first search over the right Cayley graph,
``cayley_closure``, which can extend the walk of a subgroup by one more
generator; each group keeps one such chain of subgroups.  A matrix group is
walked as permutations of its basis-vector orbit, which ``_basis_orbit`` finds
by matrix-vector products; that walk alone refuses a matrix group, with a proof
that it is infinite or past a limit.  No walk passes MAX_ELEMENTS elements,
and no walk of permutations passes MAX_CELLS cells (elements times points):
limits, not proofs of infiniteness.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import NonUnimodularError, NotFiniteError, SearchTooLargeError
from .intlat import IntMat, Vec, dot, minkowski_bound
from .value import Value

Perm = tuple[int, ...]
E = TypeVar("E", bound=Hashable)
MAX_ELEMENTS = 50_000  # the most elements any explicit list may hold
MAX_CELLS = 100 * MAX_ELEMENTS  # the most entries a walk of permutations may hold, elements times degree


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
    identity: E, gens: Sequence[Any], mul: Callable[[E, Any], E], prefix: Sequence[E] | None = None, width: int = 1
) -> list[E]:
    """Every element of the group generated by gens, in breadth-first order.

    Breadth-first search over the right Cayley graph, one product per element
    and generator; positive products reach every inverse in a finite group.
    With mul(x, g) an action of the group on points and identity a point, the
    same walk lists the orbit of that point.  ``prefix``, the walk for
    gens[:-1], is closed under gens[:-1]: it starts the result and only its
    products by the last generator are taken.  The walk proves nothing:
    past MAX_ELEMENTS elements, or past MAX_CELLS cells with ``width`` cells
    per element (the degree of a permutation), it raises
    SearchTooLargeError (not verified finite), so an infinite group must be
    refused before it is walked.
    """
    most = min(MAX_ELEMENTS, MAX_CELLS // width)
    walk = [identity] if prefix is None else list(prefix)
    closed = 0 if prefix is None else len(walk)
    members = set(walk)
    for i, g in enumerate(walk):  # walk grows as it is read: a first-in first-out queue
        for s in gens[-1:] if i < closed else gens:
            h = mul(g, s)
            if h not in members:
                members.add(h)
                walk.append(h)
                if len(walk) > most:
                    if len(walk) > MAX_ELEMENTS:
                        raise SearchTooLargeError(f"more than {MAX_ELEMENTS} elements; group not verified finite")
                    raise SearchTooLargeError(
                        f"permutation table exceeds {MAX_CELLS} cells at {width} points per element, "
                        "the limit of explicit groups; this proves nothing"
                    )
    return walk


class _ElementList:
    """A group held as its element tuple; ``perms`` is a faithful action, in element order,
    where the product gh acts as compose(perm g, perm h)."""

    @property
    def order(self) -> int:
        return len(self.elements)

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
                walk = cayley_closure(identity, gens, compose, prefix=walk, width=len(identity))
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

    def __iter__(self) -> Iterator:
        return iter(self.elements)


class PermutationGroup(_ElementList, Value):
    def __init__(self, degree: int, elements: tuple[Perm, ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def from_elements(cls, degree: int, elements: Iterable[Perm]) -> "PermutationGroup":
        return cls(degree, tuple(sorted(set(elements))))

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
        """Close the generators as permutations of O, their basis orbit, which ``_basis_orbit`` walks or
        refuses; no two matrices are multiplied."""
        gens = list(gens)
        for g in gens:
            if g.nrows != dim or g.ncols != dim:
                raise ValueError("generator dimension mismatch")
            if abs(g.det()) != 1:
                raise NonUnimodularError(f"generator {g} has determinant {g.det()}")
        orbit, images = _basis_orbit(dim, gens)
        walk = cayley_closure(identity_perm(len(orbit)), images, compose, width=len(orbit))
        # O starts with e_1, .., e_n, so column j of g is g e_j = O[perm[j]]; the sort key holds g's
        # canonical_key codes row by row, read off the codes of those points, so it orders alike.
        codes = [tuple(2 * abs(x) + (x < 0) for x in v) for v in orbit]
        perms = tuple(sorted(walk, key=lambda p: tuple(zip(*map(codes.__getitem__, p[:dim])))))
        group = cls(dim, tuple(IntMat._of(tuple(zip(*map(orbit.__getitem__, p[:dim])))) for p in perms))
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


def _basis_orbit(dim: int, gens: Sequence[IntMat]) -> tuple[list[Vec], list[Perm]]:
    """(O, each generator's permutation of O), walked breadth first from e_1, .., e_n, one matrix-vector
    product per point and generator; a group that is infinite or has too large an O is refused.

    A finite group G has at most n |G| <= n M(n) points in O.  So while M(n) <= MAX_ELEMENTS (n <= 5), a point
    past n M(n) proves G infinite (NotFiniteError); otherwise a point past MAX_ELEMENTS leaves G not verified
    finite (SearchTooLargeError).  A point first reached from e_j is t e_j for an element t of the walk, marked
    (j, t mod 3).  For one j, distinct points have distinct t, so a repeated mark shows two distinct elements
    with one residue mod 3, which proves G infinite: the kernel of GL(n, Z) -> GL(n, F_3) is torsion-free.
    """
    bound = minkowski_bound(dim)
    cap = dim * bound if bound <= MAX_ELEMENTS else MAX_ELEMENTS
    ident = IntMat.identity(dim).rows
    orbit, marks = list(ident), [(j, ident) for j in range(dim)]
    index, seen = {v: i for i, v in enumerate(orbit)}, set(marks)
    images: list[list[int]] = [[] for _ in gens]
    for v, (j, t) in zip(orbit, marks):  # both grow while read
        for g, image in zip(gens, images):
            w = g.apply(v)
            if w not in index:
                if len(orbit) >= cap:
                    if bound <= MAX_ELEMENTS:
                        raise NotFiniteError(f"group is infinite: order above Minkowski's bound {bound}")
                    raise SearchTooLargeError(f"more than {cap} basis-orbit points; group not verified finite")
                mark = (j, tuple(tuple(dot(r, c) % 3 for c in zip(*t)) for r in g.rows))
                if mark in seen:
                    raise NotFiniteError("group is infinite: two distinct elements share a residue")
                seen.add(mark)
                index[w] = len(orbit)
                orbit.append(w)
                marks.append(mark)
            image.append(index[w])
    return orbit, [tuple(image) for image in images]
