"""Monodromy groups of monotone toric fibres.

The permutations of the facet normals fixing the relation lattice pointwise
form the Hamiltonian group; those fixing it setwise form the symplectic
group.  Both are computed exactly: the pointwise stabiliser is the product
of symmetric groups on the blocks of the coefficient partition, and the
setwise stabiliser is found by a pruned search over block maps, each
candidate verified by canonical lattice comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InconsistentPermutationError, SearchTooLargeError
from .groups import MatrixGroup, Perm, PermutationGroup, permute_vector
from .intlat import (
    IntMat,
    LatticeBasis,
    lattice_equal,
    rational_rref,
)
from .toric import ToricFiberData


@dataclass(frozen=True)
class NormalPartition:
    """Partition of facet indices by equal coefficients in every relation."""

    size: int
    blocks: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return " ".join(
            "{" + ", ".join(str(i + 1) for i in block) + "}" for block in self.blocks
        )


def coefficient_partition(k: LatticeBasis) -> NormalPartition:
    """Group indices whose coordinates agree in every lattice element.

    Two indices are equivalent exactly when the corresponding columns of the
    canonical echelon basis are equal; with no relations at all every index
    is equivalent.
    """
    n = k.ambient
    columns: dict[tuple[int, ...], list[int]] = {}
    for i in range(n):
        col = tuple(row[i] for row in k.basis)
        columns.setdefault(col, []).append(i)
    blocks = tuple(tuple(v) for v in sorted(columns.values()))
    return NormalPartition(n, blocks)


def partition_bound_check(partition: NormalPartition, dim: int) -> bool:
    """sum over blocks of (size - 1) is at most the fibre dimension."""
    return sum(len(b) - 1 for b in partition.blocks) <= dim


def _block_map_group(partition: NormalPartition, block_maps: Iterable[Sequence[int]]) -> PermutationGroup:
    """Every permutation sending each block b onto block block_map[b], over the block maps."""
    elements = []
    for block_map in block_maps:
        arrangements = [itertools.permutations(partition.blocks[image]) for image in block_map]
        for combo in itertools.product(*arrangements):
            perm = list(range(partition.size))
            for block, images in zip(partition.blocks, combo):
                for src, dst in zip(block, images):
                    perm[src] = dst
            elements.append(tuple(perm))
    return PermutationGroup.from_elements(partition.size, elements)


def _young_subgroup(partition: NormalPartition, max_order: int) -> PermutationGroup:
    order = 1
    for block in partition.blocks:
        order *= math.factorial(len(block))
    if order > max_order:
        raise SearchTooLargeError(f"group order {order} exceeds cap {max_order}")
    return _block_map_group(partition, [range(len(partition.blocks))])


def hamiltonian_monodromy(data: ToricFiberData, max_order: int = 50_000) -> PermutationGroup:
    """Permutations of the normals fixing every relation pointwise."""
    partition = coefficient_partition(data.relations)
    return _young_subgroup(partition, max_order)


def _block_map_preserves_lattice(
    k: LatticeBasis, partition: NormalPartition, block_map: Sequence[int]
) -> bool:
    perm = [0] * partition.size
    for b, image in enumerate(block_map):
        for src, dst in zip(partition.blocks[b], partition.blocks[image]):
            perm[src] = dst
    moved = [permute_vector(tuple(perm), row) for row in k.basis]
    return lattice_equal(LatticeBasis.from_vectors(k.ambient, moved), k)


def symplectic_monodromy(
    data: ToricFiberData, max_degree: int = 12, max_order: int = 50_000
) -> PermutationGroup:
    """Permutations of the normals fixing the relation lattice setwise.

    Relations are constant on partition blocks, so within-block permutations
    act trivially on the lattice and the search reduces to bijections of the
    block set.  Candidate block maps must send blocks to blocks of equal size
    and act consistently as a single linear map on the echelon-basis columns;
    survivors are confirmed by canonical lattice comparison.
    """
    k = data.relations
    partition = coefficient_partition(k)
    n = partition.size
    if n > max_degree:
        raise SearchTooLargeError(f"{n} normals exceeds search bound {max_degree}")
    blocks = partition.blocks
    columns = [tuple(row[block[0]] for row in k.basis) for block in blocks]

    valid_maps: list[tuple[int, ...]] = []

    def consistent(pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> bool:
        # A single linear map sending each source column to its image exists
        # exactly when every dependency among the sources also kills the
        # images, i.e. stacking (source | image) does not raise the rank.
        if not k.basis:
            return True
        srcs = [list(map(Fraction, s)) for s, _ in pairs]
        stacked = [list(map(Fraction, s)) + list(map(Fraction, t)) for s, t in pairs]
        _, piv_src = rational_rref(srcs)
        _, piv_stacked = rational_rref(stacked)
        return len(piv_src) == len(piv_stacked)

    def search(assigned: list[int], used: set[int]):
        b = len(assigned)
        if b == len(blocks):
            valid_maps.append(tuple(assigned))
            return
        for image in range(len(blocks)):
            if image in used or len(blocks[image]) != len(blocks[b]):
                continue
            pairs = [(columns[i], columns[img]) for i, img in enumerate(assigned)]
            pairs.append((columns[b], columns[image]))
            if not consistent(pairs):
                continue
            search(assigned + [image], used | {image})

    search([], set())
    confirmed = [
        m for m in valid_maps if _block_map_preserves_lattice(k, partition, m)
    ]

    order = len(confirmed)
    for block in blocks:
        order *= math.factorial(len(block))
    if order > max_order:
        raise SearchTooLargeError(f"group order {order} exceeds cap {max_order}")

    return _block_map_group(partition, confirmed)


def induced_matrices(data: ToricFiberData, perms: Sequence[Perm]) -> list[IntMat]:
    """The unique unimodular matrix realising each permutation of the normals.

    The matrix M of a permutation sends normal j to normal perm[j].  With B
    the matrix whose columns are n independent normals and P the matrix of
    their images, M = P B^-1; B is inverted once, as adj(B) / det(B), and
    every M is checked to be integral, unimodular and right on every normal.
    """
    normals = data.polytope.normals
    n = data.polytope.dim
    _, pivots = rational_rref(list(zip(*normals)))
    base_idx = pivots[:n]
    if len(base_idx) < n:
        raise InconsistentPermutationError("facet normals do not span")
    base = IntMat.from_rows([normals[i] for i in base_idx]).transpose()
    det = base.det()
    augmented, _ = rational_rref([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(base.rows)])
    adjugate = IntMat.from_rows([[int(x * det) for x in r[n:]] for r in augmented])
    mats = []
    for perm in perms:
        image = IntMat.from_rows([normals[perm[i]] for i in base_idx]).transpose()
        scaled = image @ adjugate
        integral = not any(x % det for r in scaled.rows for x in r)
        mat = IntMat.from_rows([[x // det for x in r] for r in scaled.rows])
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
