"""Exact integer linear algebra.

Everything here computes with Python integers, never floats, and a rational
answer is integer numerators over one common denominator.  Two eliminations:
the Hermite normal form, with its unimodular transform only when the caller
asks for it, answers lattice questions (saturated kernel lattices, canonical
sublattice comparison), and one fraction-free Bareiss elimination answers
rational ones (determinants, integral solves, ranks and the reduced row
echelon form scaled to integers).  Matrix orders are exact mod 3;
Minkowski's M(n) bounds groups.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import NonUnimodularError
from .value import Value

Vec = tuple[int, ...]


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def primitive_vector(a: Sequence[Fraction | int]) -> Vec:
    """Scale a nonzero rational vector to a primitive integer vector.

    The sign is normalised so the first nonzero entry is positive.
    """
    fracs = [Fraction(x) for x in a]
    denom = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    g = g if next(x for x in ints if x) > 0 else -g
    return tuple(x // g for x in ints)


class IntMat(Value):
    """Immutable integer matrix, row major, arbitrary precision entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[Vec, ...]):
        if len({len(r) for r in rows}) > 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", tuple(tuple(int(x) for x in r) for r in rows))

    def __eq__(self, other):
        return self.rows == other.rows if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))

    @classmethod
    def _of(cls, rows: tuple[Vec, ...]) -> "IntMat":
        """Wrap rows that are already equal-length tuples of int, without re-checking them."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMat":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return IntMat._of(tuple([tuple([sum(map(mul, r, c)) for c in cols]) for r in self.rows]))

    def __neg__(self) -> "IntMat":
        return IntMat._of(tuple(tuple(-x for x in r) for r in self.rows))

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector; accepts exact scalars of any type."""
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(dot(r, v) for r in self.rows)

    def transpose(self) -> "IntMat":
        return IntMat._of(tuple(zip(*self.rows))) if self.rows else self

    def det(self) -> int:
        """Determinant by the fraction-free Bareiss elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        if self.nrows == 0:
            return 1
        m = [list(r) for r in self.rows]
        sign, pivots = _bareiss(m)
        return sign * m[-1][-1] if len(pivots) == self.nrows else 0

    def canonical_key(self):
        """Total order putting entrywise-smaller and sign-positive matrices first."""
        return tuple(2 * abs(x) + (x < 0) for r in self.rows for x in r)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows) + "]"


# ---------------------------------------------------------------------------
# Normal forms


def hermite_normal_form(m: IntMat) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (h, u) with h = u @ m, u unimodular, h in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    The transform is carried as identity columns appended to the rows of m.
    """
    nr, nc = m.nrows, m.ncols
    rows = _hermite([list(r) + [int(i == j) for j in range(nr)] for i, r in enumerate(m.rows)], nc)
    return IntMat._of(tuple(tuple(r[:nc]) for r in rows)), IntMat._of(tuple(tuple(r[nc:]) for r in rows))


def _hermite(h: list[list[int]], nc: int) -> list[list[int]]:
    """Hermite row elimination of the first nc columns of h, in place; later columns ride along.

    Each Euclidean round in column c swaps up the first row with the least nonzero |entry|, which
    reduces the rows below it; the scan that reduces them picks the next round's pivot.
    """
    nr, r = len(h), 0
    for c in range(nc):
        least = 0
        for i in range(r, nr):
            if (x := abs(h[i][c])) and (x < least or not least):
                piv, least = i, x
        if not least:
            continue
        while least:
            h[r], h[piv] = h[piv], h[r]
            p, pc, least = h[r], h[r][c], 0
            for i in range(r + 1, nr):
                if (x := h[i][c]) and (q := x // pc):
                    h[i] = row = [a - q * b for a, b in zip(h[i], p)]
                    x = row[c]
                if x and (abs(x) < least or not least):
                    piv, least = i, abs(x)
        if pc < 0:
            h[r] = p = [-x for x in p]
        for i in range(r):
            if q := h[i][c] // p[c]:
                h[i] = [a - q * b for a, b in zip(h[i], p)]
        r += 1
    return h


# ---------------------------------------------------------------------------
# Lattices


class LatticeBasis(Value):
    """Sublattice of Z^ambient in canonical Hermite normal form.

    Two values span the same sublattice exactly when they compare equal, so
    lattice comparison is structural equality on the stored basis.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: tuple[Vec, ...]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ambient == other.ambient and self.basis == other.basis
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Sequence[int]]) -> "LatticeBasis":
        vecs = [list(map(int, v)) for v in vectors]
        if any(len(v) != ambient for v in vecs):
            raise ValueError("vector length differs from ambient rank")
        return cls._of(ambient, vecs)

    @classmethod
    def _of(cls, ambient: int, rows: list[Sequence[int]]) -> "LatticeBasis":
        """``from_vectors`` without its checks, for a fresh list of int rows of length ambient.

        The list is eliminated in place; the rows are only read, so they may be another basis's tuples.
        """
        return cls(ambient, tuple(tuple(r) for r in _hermite(rows, ambient) if any(r)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def member(self, v: Sequence[int]) -> bool:
        """Exact membership test against the canonical echelon basis; a non-integral vector is no member."""
        if len(v) != self.ambient:
            raise ValueError("dimension mismatch")
        w, p = list(v), 0
        for row in self.basis:  # the pivots increase, so each scan starts past the last pivot
            while not row[p]:
                if w[p]:  # no later row reaches column p
                    return False
                p += 1
            if w[p] % row[p]:
                return False
            if q := w[p] // row[p]:
                w = [a - q * b for a, b in zip(w, row)]
            p += 1
        return not any(w[p:])


def kernel_lattice(m: IntMat) -> LatticeBasis:
    """Saturated lattice of integer row relations {a : a @ m = 0}.

    The rows of the Hermite transform matching zero rows of the echelon form
    give a basis of the full integer left kernel, which is saturated because
    the quotient embeds in the row space of m.
    """
    h, u = hermite_normal_form(m)
    return LatticeBasis.from_vectors(m.nrows, [k for e, k in zip(h.rows, u.rows) if not any(e)])


def minkowski_bound(n: int) -> int:
    """Minkowski's M(n), which the order of every finite subgroup of GL(n, Z) divides:
    the product over primes p <= n + 1 of p^(sum over k >= 0 of floor(n / (p^k (p - 1))))."""
    primes = [p for p in range(2, n + 2) if all(p % q for q in range(2, p))]
    return math.prod(p ** sum(n // ((p - 1) * p**k) for k in range(n)) for p in primes)


def residue_mod_3(g: IntMat) -> tuple[Vec, ...]:
    """g mod 3, injective on finite subgroups: the kernel of GL(n, Z) -> GL(n, F_3) is torsion-free."""
    return tuple(tuple(x % 3 for x in r) for r in g.rows)


def matrix_order(g: IntMat) -> int | None:
    """Order of g, or None when g has infinite order.

    Exact, by reduction mod 3 (``residue_mod_3``): an element of finite
    order has the same order k as its residue, and g has finite order
    exactly when g^k = I.  The residue loop ends because GL(n, F_3) is
    finite; the residue order is at most 3^n - 1.
    """
    if g.nrows != g.ncols:
        raise ValueError("order of non-square matrix")
    if abs(g.det()) != 1:
        raise NonUnimodularError(f"matrix has determinant {g.det()}, not +-1")
    ident = IntMat.identity(g.nrows)
    power, k = residue_mod_3(g), 1
    cols = tuple(zip(*power))
    while power != ident.rows:
        power = tuple(tuple(dot(r, c) % 3 for c in cols) for r in power)
        k += 1
    power = g
    for _ in range(k - 1):
        power = power @ g
    return k if power == ident else None


def _bareiss(m: list[list[int]]) -> tuple[int, list[int]]:
    """Fraction-free elimination of an integer matrix, in place.

    Forward elimination steps through the columns in order and skips a
    column with no nonzero entry at or below the current row; then every
    non-pivot column is back-substituted.  Afterwards each non-pivot column
    holds D times that column of the reduced row echelon form, where D, the
    last pivot, is the determinant of the pivot columns on the top rows
    after the swaps.  The pivot columns keep the eliminated triangle.  By
    Cramer's rule D times each reduced entry is an integer, so every
    division is exact.  Returns (the sign of the row swaps, the pivot
    columns).
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    sign, prev, pivots, free = 1, 1, [], []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            free.extend(range(c, ncols))
            break
        row = m[r]
        if row[c] == 0:
            swap = next((i for i in range(r + 1, nrows) if m[i][c] != 0), None)
            if swap is None:
                free.append(c)
                continue
            m[r], m[swap] = m[swap], row
            row = m[r]
            sign = -sign
        pivot = row[c]
        for i in range(r + 1, nrows):
            other = m[i]
            f = other[c]
            for j in range(c + 1, ncols):
                other[j] = (other[j] * pivot - f * row[j]) // prev
            other[c] = 0
        prev = pivot
        pivots.append(c)
    rank = len(pivots)
    for k in range(rank - 1 if free else -1, -1, -1):
        row = m[k]
        below = [(row[pivots[l]], m[l]) for l in range(k + 1, rank)]
        for j in free:
            total = prev * row[j]
            for a, other in below:
                total -= a * other[j]
            row[j] = total // row[pivots[k]]
    return sign, pivots


def bareiss_solve(a: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[int, list[int]] | None:
    """(D, y) with a y = D b in integers, D = +-det(a), for a square a; None when a is singular."""
    m = [list(r) + [v] for r, v in zip(a, b)]
    n = len(m)
    _, pivots = _bareiss(m)
    if pivots != list(range(n)):
        return None
    return m[-1][n - 1], [row[n] for row in m]


def integer_rref(rows: Sequence[Sequence[int]]) -> tuple[int, list[int], list[list[int]]]:
    """(D, pivot columns, R) with R = D times the reduced row echelon form of rows, D > 0.

    One fraction-free elimination with no Fraction: D is the absolute
    determinant of the pivot columns' leading block, a common denominator
    of the reduced form though not always the least.
    """
    m = [list(r) for r in rows]
    _, pivots = _bareiss(m)
    den = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    for k, row in enumerate(m[: len(pivots)]):
        for l, c in enumerate(pivots):
            row[c] = den if k == l else 0
    if den < 0:
        den, m = -den, [[-x for x in r] for r in m]
    return den, pivots, m
