"""Finite monodromy classification: the 13 planar classes and the general filter.

In rank 2 every finite subgroup of GL(2, Z) is conjugate to exactly one of
13 built-in representatives.  Four conjugation invariants (the order, the
number of det -1 elements, and the fixed residues mod 2 and mod 3) separate
the 13, so a group is named by one lookup, certified by the brute-force
conjugator search of TestIdentify in tests/test_classify.py.  The
representatives are classified by the admissibility filter and tagged with
toric realizability computed from the standard fixtures.  In higher rank,
catalogs of class representatives are ingested from files and screened:
groups moving a forced critical point are ruled out, and the survivors are
matched against products of symmetric groups or against element-order
feasibility one dimension down.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Literal, Sequence

from .cyclotomic import euler_phi, prime_divisors
from .errors import NonUnimodularError, NotFiniteError, ParseError, SearchTooLargeError
from .groups import MatrixGroup, Perm, compose, identity_perm, perm_order
from .intlat import IntMat, matrix_order
from .monodromy import hamiltonian_monodromy, induced_matrix_group
from .polytopes import STANDARD_FIXTURES
from .torussym import TorsionPoint, admissible_group, content_lines, read_fields, read_group_block
from .toric import toric_fiber_data
from .value import Value

ROT = {
    1: IntMat.identity(2),
    2: IntMat.from_rows([[-1, 0], [0, -1]]),
    3: IntMat.from_rows([[0, -1], [1, -1]]),
    4: IntMat.from_rows([[0, -1], [1, 0]]),
    6: IntMat.from_rows([[1, -1], [1, 0]]),
}
AXIS_REFLECTION = IntMat.from_rows([[1, 0], [0, -1]])
SWAP = IntMat.from_rows([[0, 1], [1, 0]])
EDGE_REFLECTION = IntMat.from_rows([[-1, 1], [0, 1]])

CLASS_NAMES_2D = ("1", "1f", "1t", "2", "2f", "2t", "3", "3f", "3t", "4", "4ft", "6", "6ft")


class GroupCatalog(Value):
    __slots__ = ("dim", "entries", "q_class")

    def __init__(self, dim: int, entries: tuple[tuple[str, MatrixGroup], ...], q_class: bool = False):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "q_class", q_class)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def group(self, name: str) -> MatrixGroup:
        for entry_name, group in self.entries:
            if entry_name == name:
                return group
        raise KeyError(name)


@functools.cache
def catalog_n2() -> GroupCatalog:
    """Built-in representatives of the 13 finite classes in GL(2, Z)."""
    gens = {
        "1": [],
        "1f": [AXIS_REFLECTION],
        "1t": [SWAP],
        "2": [ROT[2]],
        "2f": [ROT[2], AXIS_REFLECTION],
        "2t": [ROT[2], SWAP],
        "3": [ROT[3]],
        "3f": [ROT[3], SWAP],
        "3t": [ROT[3], EDGE_REFLECTION],
        "4": [ROT[4]],
        "4ft": [ROT[4], AXIS_REFLECTION],
        "6": [ROT[6]],
        "6ft": [ROT[6], SWAP],
    }
    entries = tuple(
        (name, MatrixGroup.from_generators(2, gens[name])) for name in CLASS_NAMES_2D
    )
    return GroupCatalog(2, entries)


def _invariant(group: MatrixGroup) -> tuple[int, int, int, int]:
    """(|G|, det -1 elements, |Fix_G((Z/2)^2)|, |Fix_G((Z/3)^2)|).

    Each is unchanged by conjugation in GL(2, Z): X G X^-1 fixes exactly the
    residues X v for v fixed by G, and X is invertible mod every m.
    """
    def fixed(m: int) -> int:
        return sum(
            all((x - y) % m == 0 for g in group for x, y in zip(g.apply(v), v))
            for v in itertools.product(range(m), repeat=2)
        )

    return group.order, sum(g.det() == -1 for g in group), fixed(2), fixed(3)


@functools.cache
def _class_by_invariant() -> dict[tuple[int, int, int, int], str]:
    return {_invariant(group): name for name, group in catalog_n2().entries}


def identify_class_n2(group: MatrixGroup) -> str:
    """Conjugacy-class label of a finite subgroup of GL(2, Z).

    The 13 catalog classes are all the finite subgroups up to conjugacy, and
    ``_invariant`` separates their representatives, so the group is named by
    one lookup.  test_names_certified_by_conjugator_search, in
    tests/test_classify.py, checks the names by brute force.
    """
    if group.dim != 2:
        raise ValueError("classification needs dimension 2")
    for g in group:
        if matrix_order(g) is None:
            raise NotFiniteError(f"element {g} has infinite order")
    key = _invariant(group)
    name = _class_by_invariant().get(key)
    if name is None:
        raise ValueError(f"no planar class has invariant {key}")
    return name


# The standard fixtures whose monodromy names a planar class, in sorted order.
TORIC_REALIZATIONS = ("bl1cp2", "bl2cp2", "bl3cp2", "c2", "cp1xcp1", "cp2", "cxcp1")


class ClassVerdict2D(Value):
    __slots__ = ("name", "admissible", "witness", "toric_tag", "realized_by")

    def __init__(
        self,
        name: str,
        admissible: bool,
        witness: tuple[IntMat, TorsionPoint] | None,
        toric_tag: Literal["IMPOSSIBLE", "TORIC_REALIZED", "TORIC_IMPOSSIBLE"],
        realized_by: tuple[str, ...] = (),
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "admissible", admissible)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "toric_tag", toric_tag)
        object.__setattr__(self, "realized_by", realized_by)


def toric_realized_labels() -> dict[str, tuple[str, ...]]:
    """Labels realized by the standard fixtures, computed from scratch."""
    realized: dict[str, list[str]] = {}
    for name in TORIC_REALIZATIONS:
        data = toric_fiber_data(STANDARD_FIXTURES[name])
        mats = induced_matrix_group(data, hamiltonian_monodromy(data))
        label = identify_class_n2(mats)
        realized.setdefault(label, []).append(name)
    return {label: tuple(names) for label, names in realized.items()}


def classify_n2() -> tuple[ClassVerdict2D, ...]:
    """Admissibility verdicts and toric tags for all 13 planar classes."""
    realized = toric_realized_labels()
    out = []
    for name, group in catalog_n2().entries:
        ok, witness = admissible_group(group)
        if not ok:
            tag = "IMPOSSIBLE"
        elif name in realized:
            tag = "TORIC_REALIZED"
        else:
            tag = "TORIC_IMPOSSIBLE"
        out.append(ClassVerdict2D(name, ok, witness, tag, realized.get(name, ())))
    return tuple(out)


# ---------------------------------------------------------------------------
# Catalog ingestion


def ingest_catalog(text: str) -> GroupCatalog:
    """Parse a group catalog: blocks of 'group <name>' / 'dim <n>' / 'gen' rows.

    Generators are closed and verified finite and unimodular; duplicate
    names are rejected.  An optional leading 'classes z|q' line records
    whether the representatives are integral or only rational classes.
    """
    lines = content_lines(text)
    q_class = False
    i = 0
    if lines and lines[0][1][0] == "classes":
        (classes,) = read_fields(lines[0], "classes", 1, "'classes z|q'")
        if classes not in ("z", "q"):
            raise ParseError(f"line {lines[0][0]}: expected 'classes z|q'")
        q_class = classes == "q"
        i += 1
    groups: dict[str, MatrixGroup] = {}
    dim = 0  # the dim of an empty catalog
    while i < len(lines):
        lineno = lines[i][0]
        (name,) = read_fields(lines[i], "group", 1, "'group <name>'")
        if name in groups:
            raise ParseError(f"line {lineno}: duplicate group name {name!r}")
        i += 1
        if i >= len(lines):
            raise ParseError(f"line {lineno}: group {name!r} missing dim")
        dim_lineno = lines[i][0]
        block_dim, gens, i = read_group_block(lines, i)
        if groups and block_dim != dim:
            raise ParseError(f"line {dim_lineno}: group {name!r} has mismatched dimension")
        dim = block_dim
        try:
            groups[name] = MatrixGroup.from_generators(dim, gens)
        except (NonUnimodularError, NotFiniteError, SearchTooLargeError) as exc:
            raise type(exc)(f"group {name!r}: {exc}") from exc
    return GroupCatalog(dim, tuple(groups.items()), q_class)


# ---------------------------------------------------------------------------
# Conjecture filter


class ConjectureVerdict(Value):
    __slots__ = ("name", "status", "witness", "parts", "embedding")

    def __init__(
        self,
        name: str,
        status: Literal["RULED_OUT", "CASE1_NECESSARY", "CASE2", "BOTH", "UNKNOWN"],
        witness: tuple[IntMat, TorsionPoint] | None = None,
        parts: tuple[int, ...] | None = None,
        embedding: tuple[tuple[IntMat, tuple[Perm, ...]], ...] | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "embedding", embedding)


def _symmetric_part_choices(n: int) -> list[tuple[int, ...]]:
    """Multisets n_1 >= .. >= n_k >= 2 with sum (n_j - 1) = n."""
    out: list[tuple[int, ...]] = []

    def build(remaining: int, maximum: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(maximum, remaining + 1), 1, -1):
            build(remaining - (part - 1), part, acc + [part])

    build(n, n + 1, [])
    return out


def embed_symmetric_product(
    group: MatrixGroup, parts: Sequence[int]
) -> tuple[tuple[IntMat, tuple[Perm, ...]], ...] | None:
    """Verified injective homomorphism into S_{p_1} x .. x S_{p_k}.

    By Lagrange's theorem there is none unless |G| divides prod p_j!.
    Otherwise generator images t_s are chosen one at a time among
    order-matched target elements, in product order.  Choosing t_m extends
    the images of <gens[:m]>, the first sizes[m] elements of the group's
    chain walk, along the right Cayley edges that the walk added for gens[m]:
    every edge g -> g s must satisfy image(g) t_s = image(g s), for a
    homomorphism, and no image may repeat, for injectivity.  A broken edge
    cuts every completion of the choices made.
    """
    parts = tuple(parts)
    if math.prod(map(math.factorial, parts)) % group.order:
        return None
    # A target element as one permutation of all sum(parts) points, mapped to its parts.
    offsets = [sum(parts[:j]) for j in range(len(parts))]
    split = {
        tuple(off + i for off, perm in zip(offsets, x) for i in perm): x
        for x in itertools.product(*[itertools.permutations(range(p)) for p in parts])
    }
    identity = identity_perm(sum(parts))
    by_order: dict[int, list[Perm]] = {}
    for t in split:
        by_order.setdefault(perm_order(t), []).append(t)

    gens, walk, sizes = group.perm_chain  # G as permutations of its basis orbit
    candidate_lists = [by_order.get(perm_order(g), []) for g in gens]
    if not all(candidate_lists):
        return None

    position = {g: i for i, g in enumerate(walk)}
    right = [[position[compose(g, s)] for s in gens] for g in walk]

    def extend(image: list[Perm], used: set[Perm], targets: tuple[Perm, ...]):
        """Images of <gens[:m + 1]> from those of <gens[:m]>, m = len(targets) - 1, or None."""
        m = len(targets) - 1
        image, used = image[:], set(used)
        for i in range(sizes[m + 1]):  # image grows, in walk order, as new elements are reached
            for k in range(m + 1) if i >= sizes[m] else (m,):
                j, y = right[i][k], compose(image[i], targets[k])
                if j < len(image):
                    if image[j] != y:  # a broken relation
                        return None
                elif y in used:  # a repeated image
                    return None
                else:
                    image.append(y)
                    used.add(y)
        return image, used

    def search(image: list[Perm], used: set[Perm], targets: tuple[Perm, ...]) -> list[Perm] | None:
        """Images of the first completion of the targets that embeds G, or None."""
        if len(targets) == len(gens):
            return image
        for t in candidate_lists[len(targets)]:
            extended = extend(image, used, targets + (t,))
            found = extended and search(*extended, targets + (t,))
            if found:
                return found
        return None

    image = search([identity], {identity}, ())
    return None if image is None else tuple((g, split[image[position[p]]]) for g, p in zip(group, group.perms))


def gl_order_feasible(m: int, k: int) -> bool:
    """Does some finite-order element of GL(k, Z) have order exactly m?

    Exactly when psi(m) <= k (Hiller, Acta Cryst. A41, 1985): psi(m) sums
    phi(p^a) over the prime powers p^a exactly dividing m, less 1 when
    m = 2 mod 4 and m > 2, since phi(2d) = phi(d) for odd d.
    """
    if m < 1 or k < 0:
        raise ValueError("order and dimension must be nonnegative")
    psi = sum(euler_phi(math.gcd(m, p ** m.bit_length())) for p in prime_divisors(m))
    return psi - (m % 4 == 2 and m > 2) <= k


def conjecture_filter(catalog: GroupCatalog) -> tuple[ConjectureVerdict, ...]:
    """Screen each catalog group against the two structural cases.

    Groups moving a forced critical point are ruled out.  Otherwise the
    group is matched against every product of symmetric groups with
    sum (n_j - 1) = n (an exhaustive verified embedding search) and against
    the necessary element-order condition for sitting inside GL(n-1, Z).
    """
    out = []
    for name, group in catalog.entries:
        ok, witness = admissible_group(group)
        if not ok:
            out.append(ConjectureVerdict(name, "RULED_OUT", witness=witness))
            continue
        n = catalog.dim
        found = ((parts, embed_symmetric_product(group, parts)) for parts in _symmetric_part_choices(n))
        case2_parts, case2 = next(((parts, e) for parts, e in found if e is not None), (None, None))
        orders = sorted(set(map(perm_order, group.perms)))
        case1 = all(gl_order_feasible(order, n - 1) for order in orders)
        status = {(True, True): "BOTH", (False, True): "CASE2", (True, False): "CASE1_NECESSARY"}.get(
            (case1, case2 is not None), "UNKNOWN"
        )
        out.append(ConjectureVerdict(name, status, parts=case2_parts, embedding=case2))
    return tuple(out)
