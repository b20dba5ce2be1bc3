"""Monodromy groups of monotone toric fibres.

The permutations of the facet normals fixing the relation lattice pointwise
form the Hamiltonian group; those fixing it setwise form the symplectic
group.  Both are computed exactly.  The pointwise stabiliser is the product
of symmetric groups on the blocks of the coefficient partition.  The
relation lattice is saturated, so the setwise stabiliser is the set of
permutations induced by a linear map of the normals' span; such a map is
fixed by the images of one base of normals, and the search runs over those
images only.  Neither group may hold more than groups.MAX_ELEMENTS elements.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from . import groups
from .errors import InconsistentPermutationError, SearchTooLargeError
from .groups import MatrixGroup, Perm, PermutationGroup
from .intlat import IntMat
from .toric import NormalPartition, ToricFiberData


def partition_bound_check(partition: NormalPartition, dim: int) -> bool:
    """sum over blocks of (size - 1) is at most the fibre dimension."""
    return sum(len(b) - 1 for b in partition.blocks) <= dim


def _block_map_group(partition: NormalPartition, block_maps: Iterable[Sequence[int]]) -> PermutationGroup:
    """Every permutation sending each block b onto block block_map[b], over the block maps;
    SearchTooLargeError as soon as the maps read so far give more than MAX_ELEMENTS."""
    per_map = math.prod(math.factorial(len(block)) for block in partition.blocks)
    maps = list(itertools.islice(block_maps, groups.MAX_ELEMENTS // per_map + 1))
    if len(maps) * per_map > groups.MAX_ELEMENTS:
        raise SearchTooLargeError(f"group order at least {len(maps) * per_map} exceeds limit {groups.MAX_ELEMENTS}")
    elements = []
    for block_map in maps:
        arrangements = [itertools.permutations(partition.blocks[image]) for image in block_map]
        for combo in itertools.product(*arrangements):
            perm = list(range(partition.size))
            for block, images in zip(partition.blocks, combo):
                for src, dst in zip(block, images):
                    perm[src] = dst
            elements.append(tuple(perm))
    return PermutationGroup.from_elements(partition.size, elements)


def hamiltonian_monodromy(data: ToricFiberData) -> PermutationGroup:
    """Permutations of the normals fixing every relation pointwise."""
    return _block_map_group(data.partition, [range(len(data.partition.blocks))])


def symplectic_monodromy(data: ToricFiberData) -> PermutationGroup:
    """Permutations of the normals fixing the relation lattice setwise.

    The relation lattice K is saturated, so sigma fixes K exactly when it
    fixes K (x) Q: when one linear map of the normals' span sends every nu_i
    to nu_sigma(i).  The images t_0 .. t_{r-1} of one base of normals fix
    that map, and the search backtracks over them.  Once t_k is chosen, each
    normal whose last nonzero base coordinate is k has a known image: it
    must be integral, a normal not yet hit, and at the same position of a
    block of the same size, consistent with the block map so far.  That
    keeps one order-preserving representative per block map, and the
    search stops once the maps found give too many elements.
    """
    partition = data.partition
    normals, dim = data.polytope.normals, data.polytope.dim
    base, coords, _, den = data.normal_base
    index = {nu: j for j, nu in enumerate(normals)}
    block_of = {i: b for b, block in enumerate(partition.blocks) for i in block}
    slot = {i: (len(block), pos) for block in partition.blocks for pos, i in enumerate(block)}
    # checks[k + 1]: (j, nonzero base coordinates) of each normal whose last one is k.
    checks: list[list] = [[] for _ in range(len(base) + 1)]
    for j, a in enumerate(coords):
        terms = [(i, x) for i, x in enumerate(a) if x]
        checks[terms[-1][0] + 1 if terms else 0].append((j, terms))
    # Base normal k is checked right after t_k, so t_k must share its slot.
    candidates = [[t for t in range(partition.size) if slot[t] == slot[b]] for b in base]

    def extend(images: tuple[int, ...], sigma: dict[int, int], block_map: dict[int, int]) -> Iterator[tuple]:
        for j, terms in checks[len(images)]:
            moved = [sum(x * normals[images[i]][c] for i, x in terms) for c in range(dim)]
            if any(v % den for v in moved):
                return
            image = index.get(tuple(v // den for v in moved))
            if image is None or image in sigma.values() or slot[image] != slot[j]:
                return
            if block_map.setdefault(block_of[j], block_of[image]) != block_of[image]:
                return
            sigma[j] = image
        if len(images) == len(base):
            yield tuple(block_map[b] for b in range(len(partition.blocks)))
            return
        for t in candidates[len(images)]:
            yield from extend(images + (t,), dict(sigma), dict(block_map))

    return _block_map_group(partition, extend((), {}, {}))


def induced_matrices(data: ToricFiberData, perms: Sequence[Perm]) -> list[IntMat]:
    """The unique unimodular matrix realising each permutation of the normals.

    The matrix M of a permutation sends normal j to normal perm[j].  With B
    the matrix whose columns are n independent normals and P the matrix of
    their images, M = P B^-1; B is inverted once, and every M is checked to
    be integral, unimodular and right on every normal.  Callers pass each
    permutation once: ``run_toric`` passes the distinct generators of both
    monodromy groups, one group object when H = S (H <= S, so equal orders
    mean equal groups).
    """
    normals = data.polytope.normals
    n = data.polytope.dim
    base_idx, _, inverse, den = data.normal_base
    if len(base_idx) < n:
        raise InconsistentPermutationError("facet normals do not span")
    mats = []
    for perm in perms:
        image = IntMat._of(tuple(zip(*(normals[perm[i]] for i in base_idx))))
        scaled = image @ inverse
        integral = not any(x % den for r in scaled.rows for x in r)
        mat = IntMat._of(tuple(tuple(x // den for x in r) for r in scaled.rows))
        if not integral or abs(mat.det()) != 1:
            raise InconsistentPermutationError(
                f"permutation {perm} is not induced by a unimodular map"
            )
        for j, nu in enumerate(normals):
            if mat.apply(nu) != normals[perm[j]]:
                raise InconsistentPermutationError(
                    f"permutation {perm} inconsistent on normal {j + 1}"
                )
        mats.append(mat)
    return mats


def induced_matrix_group(data: ToricFiberData, group: PermutationGroup) -> MatrixGroup:
    """Unique unimodular matrices realising each permutation of the normals."""
    return MatrixGroup.from_elements(data.polytope.dim, induced_matrices(data, group.elements))
