"""Monomial torus automorphisms, their torsion fixed points, and admissibility.

A rank 1 local system with root-of-unity coordinates is stored additively as
a point of (Q/Z)^n.  A monodromy matrix g acts on these coordinates by
v -> g^T v mod 1; the transpose convention is pinned by unit tests against
the worked order-3 action (x, y) -> (y, 1/(xy)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import ParseError
from .groups import MatrixGroup, cayley_closure, compose
from .intlat import IntMat, LatticeBasis, Vec
from .value import Value


class TorsionPoint(Value):
    """Point of (Q/Z)^n with every coordinate reduced into [0, 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]):
        object.__setattr__(self, "coords", coords)

    @classmethod
    def make(cls, coords: Iterable[Fraction | int]) -> "TorsionPoint":
        return cls(tuple(Fraction(c) % 1 for c in coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def order(self) -> int:
        return math.lcm(*(c.denominator for c in self.coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _numerators(points: Sequence[TorsionPoint]) -> tuple[int, list[Vec]]:
    """(den, x): den is the lcm of the points' orders and x[i] = den * points[i], in integers."""
    den = math.lcm(*(p.order() for p in points))
    return den, [tuple(c.numerator * (den // c.denominator) for c in p.coords) for p in points]


def _points(den: int, numerators: Iterable[Vec]) -> tuple[TorsionPoint, ...]:
    """The points x / den in sorted order; over one denominator, integer order is Fraction order."""
    return tuple(TorsionPoint(tuple(Fraction(a, den) for a in x)) for x in sorted(numerators))


def _image(gt: IntMat, den: int, x: Vec) -> Vec:
    """Numerators of g^T v mod 1 over den, for v = x / den and gt = g^T."""
    if len(x) != gt.ncols:
        raise ValueError("dimension mismatch")
    return tuple(sum(map(mul, r, x)) % den for r in gt.rows)


class FixedPointSet(Value):
    """The finitely many points of (Q/Z)^dim that forced_critical_points finds, sorted by their coordinates."""

    __slots__ = ("dim", "points")

    def __init__(self, dim: int, points: tuple[TorsionPoint, ...]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", points)


def _delta_rows(g: IntMat) -> tuple[tuple[int, ...], ...]:
    """Rows of g^T - I."""
    return tuple(tuple(a - (i == j) for j, a in enumerate(row)) for i, row in enumerate(g.transpose().rows))


def _full_rank_locus(h: Sequence[Vec]) -> tuple[int, list[Vec]]:
    """(det H, x) with x / det H = {H^-1 w mod 1 : 0 <= w_i < H_ii}, the locus of a full-rank Hermite basis H, each x_i in [0, det H)."""
    det = math.prod(h[i][i] for i in range(len(h)))
    points = [(0,) * len(h)]
    for i in range(len(h)):
        col = [0] * len(h)  # det times column i of H^-1, by back substitution: every division is exact
        col[i] = det // h[i][i]
        for r in reversed(range(i)):
            col[r] = -sum(h[r][j] * col[j] for j in range(r + 1, i + 1)) // h[r][r]
        points = [tuple(a + w * c for a, c in zip(p, col)) for p in points for w in range(h[i][i])]
    return det, [tuple(a % det for a in p) for p in points]


def forced_critical_points(group: MatrixGroup) -> FixedPointSet:
    """Points every admissible monodromy element must fix.

    A point is forced when some subset S of the group fixes it while S has no
    common fixed vector.  Fix(S) depends only on L(S), the row lattice of the
    stacked g^T - I for g in S, which has rank n exactly when S has no common
    fixed vector; L(S + g) = L(S) + L(g), and L(g^k) = L(g) for k prime to
    ord(g).  A breadth-first search over canonical LatticeBasis states adds one
    distinct L(g) per step, one g per cyclic subgroup, skipping a step whose
    rows are members of the state or that does not raise its rank; joined to the
    zero state, a step is in Hermite form.  A nonzero state tries only the steps
    of rank below n: a full-rank L(g) is seen from the zero state, and Fix(S +
    L(g)) lies in Fix(g).  Conjugation by h maps L(S) to L(S) h^T and is trivial
    for a central h, so the orbit of each new state of rank below n is walked by
    ``cayley_closure`` under the generators that are not central (none, in an
    abelian group) and marked seen, and only the state itself is extended.  It
    is exact: a subset S of rank n holds a subset, in index order, whose rank
    rises at each element, and the state of that subset, whose locus contains
    Fix(S), is conjugate to a full-rank state reached from an orbit
    representative, or its last element g has L(g) of rank n, whose locus then
    contains Fix(S).  Full-rank states are not walked: the answer unites
    their loci, read off their Hermite bases, and closes the points under x ->
    g^T x, since Fix(L h^T) = h^-T Fix(L) and the forced set is G-invariant.
    The points stay integer numerators over the lcm of the loci's det H until
    one TorsionPoint is built per point.
    """
    n, gens = group.dim, group.generators()
    perm = dict(zip(group, group.perms))  # the generators not central, found by permutation products
    moving = [h for h in gens if any(compose(perm[h], perm[g]) != compose(perm[g], perm[h]) for g in gens)]
    steps = dict.fromkeys(LatticeBasis._of(n, [*_delta_rows(g)]) for g in group.cyclic_generators())
    low = [step for step in steps if step.rank < n]
    seen: set[LatticeBasis] = set()
    queue = [LatticeBasis(n, ())]
    for state in queue:  # appended to while read, so breadth first
        for step in low if state.rank else steps:
            if state.rank and all(map(state.member, step.basis)):
                continue
            joined = LatticeBasis._of(n, [*state.basis, *step.basis]) if state.rank else step
            if joined.rank == state.rank or joined in seen:
                continue
            seen.add(joined)
            if joined.rank < n:
                queue.append(joined)
                if moving:
                    orbit = cayley_closure(joined, moving, lambda s, h: LatticeBasis._of(n, [*map(h.apply, s.basis)]))
                    seen.update(orbit)
    loci = [_full_rank_locus(state.basis) for state in seen if state.rank == n]
    den = math.lcm(*(det for det, _ in loci))
    points = list({tuple(a * (den // det) for a in x) for det, xs in loci for x in xs})
    closed, transposes = set(points), [h.transpose() for h in moving]
    for x in points:  # appended to while read: the closure under every g^T
        for gt in transposes:
            if (y := _image(gt, den, x)) not in closed:
                closed.add(y)
                points.append(y)
    return FixedPointSet(n, _points(den, closed))


def first_moved_point(group: MatrixGroup, points: Sequence[TorsionPoint]) -> tuple[IntMat, TorsionPoint] | None:
    """First element moving one of the points, with that point, or None.

    Elements and points are scanned in canonical order, each point as integer
    numerators x over den, the lcm of the points' orders: g moves x when g^T x != x (mod den).
    """
    den, xs = _numerators(points)
    if all(_image(gt, den, x) == x for gt in map(IntMat.transpose, group.generators()) for x in xs):
        return None  # each point's stabiliser holds the generators, so it is the whole group
    for g in group.nonidentity():
        gt = g.transpose()
        for p, x in zip(points, xs):
            if _image(gt, den, x) != x:
                return g, p
    return None


def admissible_group(group: MatrixGroup) -> tuple[bool, tuple[IntMat, TorsionPoint] | None]:
    """Check that every element fixes every forced critical point.

    Returns (True, None) or (False, (element, moved point)) with the first
    witness in canonical element and point order.
    """
    witness = first_moved_point(group, forced_critical_points(group).points)
    return witness is None, witness


# ---------------------------------------------------------------------------
# Text formats: the record reader all four share, and the group format


Line = tuple[int, list[str]]


def content_lines(text: str) -> list[Line]:
    """(line number, fields) of every line left with fields once ``#`` comments are cut."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            lines.append((lineno, fields))
    return lines


def read_fields(line: Line, keyword: str, count: int, shape: str) -> list[str]:
    """The count fields after a content line's keyword ('' for a line without one); shape names the line."""
    lineno, fields = line
    if keyword and fields[0] != keyword:
        raise ParseError(f"line {lineno}: expected {keyword!r}, got {fields[0]!r}")
    if len(fields) != count + bool(keyword):
        raise ParseError(f"line {lineno}: expected {shape}")
    return fields[bool(keyword) :]


def read_ints(lineno: int, fields: Sequence[str], what: str) -> tuple[int, ...]:
    """The fields as integers; one that is not raises ``line N: bad <what>``."""
    try:
        return tuple(map(int, fields))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad {what}") from exc


def read_dim(line: Line) -> int:
    """The n of a ``dim <n>`` content line; n must be at least 1."""
    (dim,) = read_ints(line[0], read_fields(line, "dim", 1, "'dim <n>'"), f"dimension {line[1][-1]!r}")
    if dim < 1:
        raise ParseError(f"line {line[0]}: dimension must be positive")
    return dim


def read_group_block(lines: Sequence[Line], i: int) -> tuple[int, list[IntMat], int]:
    """Read ``dim <n>`` at lines[i] and the ``gen`` blocks after it.

    Each ``gen`` line is followed by n rows of n integers.  Returns the
    dimension, the generators and the index of the first line not read.
    """
    dim = read_dim(lines[i])
    gens = []
    i += 1
    while i < len(lines) and lines[i][1] == ["gen"]:
        rows = lines[i + 1 : i + 1 + dim]
        if len(rows) < dim:
            raise ParseError(f"line {lines[i][0]}: generator needs {dim} rows")
        shape = f"{dim} integers"
        gens.append(IntMat.from_rows([read_ints(r[0], read_fields(r, "", dim, shape), "integer entry") for r in rows]))
        i += 1 + dim
    return dim, gens, i


def parse_group(text: str) -> MatrixGroup:
    """Parse the group text format and close the generators.

    Line 1 is ``dim <n>``, followed by ``gen`` blocks (see read_group_block).
    ``#`` starts a comment.  Closing raises NotFiniteError on an infinite
    group and SearchTooLargeError past a limit (MatrixGroup.from_generators).
    """
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty group file")
    dim, gens, i = read_group_block(lines, 0)
    if i < len(lines):  # a line no gen block took, so this raises
        read_fields(lines[i], "gen", 0, "'gen' alone")
    return MatrixGroup.from_generators(dim, gens)
