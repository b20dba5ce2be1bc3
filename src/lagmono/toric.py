"""Delzant polytopes, the monotone fibre, and its combinatorial invariants.

A polytope is the set of x with <x, nu_j> >= -lambda_j for primitive integer
normals nu_j and rational offsets lambda_j.  Validation enumerates vertices
in integers: each n-subset of facets is solved by one fraction-free
elimination, and feasibility and activity are integer sign tests.  It then
checks simplicity, smoothness, read off the determinants those solves
return, non-redundancy and the mode-specific condition: compactness,
decided by counting the vertices on each edge, or existence of a vertex.
The monotone fibre sits over the point where all offsets agree, found by one
more elimination in integer numerators; its data are the relation lattice
of the normals, the potential summing one monomial per facet, and, computed
once per fibre, the coefficient partition of the normals and a base among
them, found by one fraction-free elimination.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import NotMonotoneError, ParseError
from .intlat import (
    IntMat,
    LatticeBasis,
    bareiss_solve,
    dot,
    integer_rref,
    kernel_lattice,
    primitive_vector,
    vec_gcd,
)
from .laurent import LaurentPolynomial
from .torussym import content_lines, read_dim, read_fields, read_ints
from .value import Value


class Mode(Enum):
    COMPACT = "compact"
    VERTEX_REQUIRED = "vertex"


class DelzantPolytope(Value):
    __slots__ = ("dim", "normals", "offsets", "mode")

    def __init__(
        self, dim: int, normals: tuple[tuple[int, ...], ...], offsets: tuple[Fraction, ...], mode: Mode = Mode.COMPACT
    ):
        if dim < 1:
            raise ValueError("dimension must be positive")
        normals = tuple(tuple(int(x) for x in nu) for nu in normals)
        offsets = tuple(Fraction(o) for o in offsets)
        if any(len(nu) != dim for nu in normals):
            raise ValueError("normal length differs from dimension")
        if len(normals) != len(offsets):
            raise ValueError("need one offset per facet normal")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "mode", mode)

    @property
    def nfacets(self) -> int:
        return len(self.normals)

    def normal_matrix(self) -> IntMat:
        """Facet normals as rows, one row per facet."""
        return IntMat.from_rows(self.normals)


class Vertex(Value):
    """A vertex and the indices of the facets achieving equality at it."""

    __slots__ = ("point", "active")

    def __init__(self, point: tuple[Fraction, ...], active: tuple[int, ...]):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "active", active)


class ValidationReport(Value):
    __slots__ = ("ok", "failure", "witness", "vertices", "warnings")

    def __init__(
        self,
        ok: bool,
        failure: str | None = None,
        witness: str | None = None,
        vertices: tuple[Vertex, ...] = (),
        warnings: tuple[str, ...] = (),
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "failure", failure)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "warnings", warnings)

    def __str__(self) -> str:
        if self.ok:
            text = "PASS"
        else:
            text = f"FAIL {self.failure}: {self.witness}"
        for w in self.warnings:
            text += f" [warning: {w}]"
        return text


def _integer_levels(p: DelzantPolytope) -> tuple[int, list[int]]:
    """(L, l) with L the common denominator of the offsets and l_j = L lambda_j."""
    scale = math.lcm(*(o.denominator for o in p.offsets))
    return scale, [o.numerator * (scale // o.denominator) for o in p.offsets]


def _enumerate_vertices(p: DelzantPolytope) -> tuple[tuple[Vertex, ...], set[tuple[int, ...]]]:
    """All vertices as exact rational points with their active facet sets, sorted by point, and the
    active sets whose first solving subset has |det| != 1.

    With the offsets scaled by their common denominator L to integers l_j,
    the vertex of an independent n-subset of facets solves A x = -l / L.
    ``bareiss_solve`` gives (D, y) with A y = -D l and D = +-det A, so
    x = y / (D L); with D made positive, x is feasible exactly when
    <y, nu_j> + l_j D >= 0 for every facet j, and facet j is active exactly
    when equality holds.  Only a kept vertex becomes a Fraction point.
    """
    n, N = p.dim, p.nfacets
    scale, levels = _integer_levels(p)
    facets = list(zip(p.normals, levels))
    found: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    singular = set()
    for subset in itertools.combinations(range(N), n):
        solved = bareiss_solve([p.normals[j] for j in subset], [-levels[j] for j in subset])
        if solved is None:
            continue
        d, y = solved
        if d < 0:
            d, y = -d, [-x for x in y]
        slack = [dot(y, nu) + level * d for nu, level in facets]
        if min(slack) < 0:
            continue
        active = tuple(j for j, s in enumerate(slack) if s == 0)
        if active not in found:
            found[active] = tuple(Fraction(x, d * scale) for x in y)
            if d != 1:
                singular.add(active)
    ordered = sorted(found.items(), key=lambda item: item[1])
    return tuple(Vertex(point, active) for active, point in ordered), singular


def _recession_ray(p: DelzantPolytope) -> tuple[int, ...] | None:
    """A nonzero integer direction staying inside the polytope, if one exists."""
    n, N = p.dim, p.nfacets
    # Called only once a vertex exists, so the normals span, the recession
    # cone is pointed, and it is nonzero exactly when it has an extreme ray,
    # spanned by the kernel of some n-1 independent normals: their signed
    # maximal minors, which all vanish exactly when the normals are dependent.
    for subset in itertools.combinations(range(N), n - 1):
        rows = [p.normals[j] for j in subset]
        minors = [(-1) ** c * IntMat.from_rows(r[:c] + r[c + 1 :] for r in rows).det() for c in range(n)]
        if not any(minors):
            continue
        direction = primitive_vector(minors)
        for candidate in (direction, tuple(-x for x in direction)):
            if all(dot(candidate, nu) >= 0 for nu in p.normals):
                return candidate
    return None


def validate_delzant(p: DelzantPolytope) -> ValidationReport:
    """Check the smooth-polytope conditions, reporting the first failure.

    The checks run in order: primitive and distinct normals, at least n
    facets, a vertex, then simplicity, smoothness and non-redundancy at
    every vertex, and in compact mode compactness.  Vertices come from the
    integer enumeration of ``_enumerate_vertices``.  Once every vertex is
    simple and there is one, the polytope is bounded exactly when each edge
    has two ends.  The edge at vertex v leaving facet j is cut out by the
    n - 1 facets of v.active other than j, so each such set must be shared
    by exactly two vertices; an unbounded edge has only one end.  Only then
    does ``_recession_ray`` look for the direction that the refusal names.
    Smoothness is read off the vertex solves: once every vertex is simple,
    the subset that found it is its active set, so it is smooth exactly when
    that solve's |D| is 1.  Only a failing vertex's determinant is computed
    again, for the signed value its witness names.
    """
    warnings = ()
    if p.mode is Mode.VERTEX_REQUIRED:
        warnings = ("UNCHECKED_TOPOLOGY: vertex mode only checks for a vertex",)
    vertices: tuple[Vertex, ...] = ()
    failure = _normal_failure(p)
    if failure is None:
        vertices, singular = _enumerate_vertices(p)
        failure = _vertex_failure(p, vertices, singular)
    code, witness = failure or (None, None)
    return ValidationReport(failure is None, code, witness, vertices=vertices, warnings=warnings)


def _normal_failure(p: DelzantPolytope) -> tuple[str, str] | None:
    """The first failure (code, witness) of the checks on the normals alone, or None."""
    for j, nu in enumerate(p.normals):
        if all(x == 0 for x in nu) or vec_gcd(nu) != 1:
            return "NON_PRIMITIVE_NORMAL", f"facet {j + 1} normal {nu}"
    if len(set(p.normals)) != p.nfacets:
        return "DUPLICATE_NORMAL", "repeated facet normal"
    if p.nfacets < p.dim:
        return "TOO_FEW_FACETS", f"{p.nfacets} facets in dimension {p.dim}"
    return None


def _vertex_failure(
    p: DelzantPolytope, vertices: tuple[Vertex, ...], singular: set[tuple[int, ...]]
) -> tuple[str, str] | None:
    """The first failure (code, witness) of the checks on the vertices, or None; singular holds the
    active sets whose normals have |det| != 1, as ``_enumerate_vertices`` returns them."""
    if not vertices:
        return "NOT_COMPACT" if p.mode is Mode.COMPACT else "NO_VERTEX", "no vertex found"
    for v in vertices:
        if len(v.active) != p.dim:
            return "VERTEX_SIMPLICITY", f"vertex {_fmt_point(v.point)} lies on facets {[j + 1 for j in v.active]}"
    for v in vertices:
        if v.active in singular:
            det = IntMat.from_rows([p.normals[j] for j in v.active]).det()
            return "VERTEX_SMOOTHNESS", f"vertex {_fmt_point(v.point)} has normal determinant {det}"
    touched = set(itertools.chain.from_iterable(v.active for v in vertices))
    for j in range(p.nfacets):
        if j not in touched:
            return "REDUNDANT_FACET", f"facet {j + 1} supports no vertex"
    if p.mode is Mode.COMPACT:
        edges = Counter(v.active[:k] + v.active[k + 1 :] for v in vertices for k in range(p.dim))
        if any(count != 2 for count in edges.values()):
            return "NOT_COMPACT", f"unbounded along direction {_recession_ray(p)}"
    return None


def monotone_normalize(p: DelzantPolytope) -> DelzantPolytope:
    """Translate so the point with all facet offsets equal sits at the origin.

    Solves <q, nu_j - nu_1> = lambda_1 - lambda_j by one fraction-free
    elimination: with the offsets scaled by their common denominator L to
    integers l_j, ``integer_rref`` of the rows [nu_j - nu_1 | l_1 - l_j]
    gives D times their reduced form R.  The system is inconsistent exactly
    when the last column is a pivot; otherwise q is kept as integer
    numerators over k L, k = D: R[i][n] at each pivot and 0 at each free
    column.  Facet j then sits at the level (k l_j + <q, nu_j>) / (k L), and
    these numerators must all agree.  When the level c is not positive, q
    moves to level 1 along the first kernel direction (kept D times the
    reduced one, which moves q alike) with nonzero slope s on nu_1, which
    multiplies k by s.  Only c becomes a Fraction: every offset of the
    translated polytope equals c > 0.  Raises NotMonotoneError when no
    interior such point exists.
    """
    n, N = p.dim, p.nfacets
    nu1 = p.normals[0]
    scale, levels = _integer_levels(p)
    k, pivots, reduced = integer_rref(
        [[a - b for a, b in zip(p.normals[j], nu1)] + [levels[0] - levels[j]] for j in range(1, N)]
    )
    if n in pivots:
        raise NotMonotoneError("facet offsets cannot be equalised by translation")
    q = [0] * n
    for row, col in zip(reduced, pivots):
        q[col] = row[n]
    top = k * levels[0] + dot(q, nu1)
    if top <= 0:
        for free in (j for j in range(n) if j not in pivots):
            direction = [k * (j == free) for j in range(n)]
            for row, col in zip(reduced, pivots):
                direction[col] = -row[free]
            slope = dot(direction, nu1)
            if slope != 0:
                # q / (k L) + t direction with t = (1 - c) / slope, over the denominator k L slope.
                q = [a * slope + (k * scale - top) * b for a, b in zip(q, direction)]
                k *= slope
                top = k * scale
                break
        else:
            raise NotMonotoneError("offset-equalising locus misses the interior")
    assert all(k * level + dot(q, nu) == top for nu, level in zip(p.normals, levels))
    return DelzantPolytope(p.dim, p.normals, (Fraction(top, k * scale),) * N, p.mode)


class NormalPartition(Value):
    """Partition of facet indices by equal coefficients in every relation."""

    __slots__ = ("size", "blocks")

    def __init__(self, size: int, blocks: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "blocks", blocks)

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


class ToricFiberData(Value):
    """Combinatorial data of the monotone fibre.

    relations is the saturated lattice of integer relations among the facet
    normals; the potential has one unit monomial per facet normal.  The
    coefficient partition and a base among the normals are computed on first
    use and then shared by every monodromy computation on the fibre.
    """

    def __init__(self, polytope: DelzantPolytope, relations: LatticeBasis, potential: LaurentPolynomial):
        object.__setattr__(self, "polytope", polytope)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "potential", potential)

    @cached_property
    def partition(self) -> NormalPartition:
        return coefficient_partition(self.relations)

    @cached_property
    def normal_base(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], IntMat, int]:
        """A base among the normals: the pivots of one fraction-free reduction of (normals as columns | identity).

        Returns the base indices, every normal's coordinates over the base,
        the base matrix's inverse when the normals span, all scaled to
        integers, and the positive common denominator they share (not always
        the least one).
        """
        normals, dim = self.polytope.normals, self.polytope.dim
        nfacets = len(normals)
        den, pivots, scaled = integer_rref(
            [[nu[i] for nu in normals] + [int(i == j) for j in range(dim)] for i in range(dim)]
        )
        base = tuple(p for p in pivots if p < nfacets)
        coords = tuple(tuple(row[j] for row in scaled[: len(base)]) for j in range(nfacets))
        return base, coords, IntMat.from_rows(row[nfacets:] for row in scaled), den


def toric_fiber_data(p: DelzantPolytope) -> ToricFiberData:
    offsets = set(p.offsets)
    if len(offsets) != 1 or next(iter(offsets)) <= 0:
        raise NotMonotoneError("polytope is not monotone-normalized")
    relations = kernel_lattice(p.normal_matrix())
    potential = LaurentPolynomial.from_dict(p.dim, {nu: 1 for nu in p.normals})
    return ToricFiberData(p, relations, potential)


# ---------------------------------------------------------------------------
# Text format


def parse_polytope(text: str, mode_override: Mode | None = None) -> DelzantPolytope:
    """Parse the polytope text format.

    Line 1 ``dim <n>``, line 2 ``mode compact|vertex``, then one
    ``facet <nu_1> .. <nu_n> <offset>`` line per facet with the offset a
    rational ``p/q`` or integer.  ``#`` starts a comment.
    """
    lines = content_lines(text)
    if len(lines) < 2:
        raise ParseError("polytope file needs dim and mode lines")
    dim = read_dim(lines[0])
    (mode,) = read_fields(lines[1], "mode", 1, "'mode compact|vertex'")
    if mode not in ("compact", "vertex"):
        raise ParseError(f"line {lines[1][0]}: expected 'mode compact|vertex'")
    normals = []
    offsets = []
    for line in lines[2:]:
        *normal, offset = read_fields(line, "facet", dim + 1, f"{dim} normal entries and an offset")
        normals.append(read_ints(line[0], normal, "normal entry"))
        try:
            offsets.append(Fraction(offset))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {line[0]}: bad offset {offset!r}") from exc
    if not normals:
        raise ParseError("polytope file lists no facets")
    try:
        return DelzantPolytope(dim, tuple(normals), tuple(offsets), mode_override or Mode(mode))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _fmt_point(point: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(x) for x in point) + ")"
