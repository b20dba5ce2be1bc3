"""Exact integer linear algebra.

Everything here runs on Python integers and fractions, never floats: Hermite
and Smith normal forms with unimodular transforms, saturated kernel lattices,
canonical sublattice comparison, finite matrix order, one fraction-free
Bareiss elimination (determinants and square integral solves), and one
Gauss-Jordan elimination (solving, rank, kernels) over Q or any exact field
such as Q(zeta_d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NonUnimodularError

Vec = tuple[int, ...]


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def vec_gcd(a: Sequence[int]) -> int:
    g = 0
    for x in a:
        g = math.gcd(g, x)
    return g


def primitive_vector(a: Sequence[Fraction | int]) -> Vec:
    """Scale a nonzero rational vector to a primitive integer vector.

    The sign is normalised so the first nonzero entry is positive.
    """
    fracs = [Fraction(x) for x in a]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive form")
    denom = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = vec_gcd(ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


@dataclass(frozen=True)
class IntMat:
    """Immutable integer matrix, row major, arbitrary precision entries."""

    rows: tuple[Vec, ...]

    def __post_init__(self):
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", tuple(tuple(int(x) for x in r) for r in self.rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMat":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMat":
        return cls(tuple((0,) * ncols for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows)) if other.rows else []
        return IntMat(tuple(tuple(dot(r, c) for c in cols) for r in self.rows))

    def __neg__(self) -> "IntMat":
        return IntMat(tuple(tuple(-x for x in r) for r in self.rows))

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector; accepts exact scalars of any type."""
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(dot(r, v) for r in self.rows)

    def transpose(self) -> "IntMat":
        return IntMat(tuple(zip(*self.rows))) if self.rows else self

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def det(self) -> int:
        """Determinant by the fraction-free Bareiss elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        if self.nrows == 0:
            return 1
        eliminated = _bareiss([list(r) for r in self.rows])
        if eliminated is None:
            return 0
        sign, m = eliminated
        return sign * m[-1][-1]

    def is_identity(self) -> bool:
        return self == IntMat.identity(self.nrows) if self.nrows == self.ncols else False

    def canonical_key(self):
        """Total order putting entrywise-smaller and sign-positive matrices first."""
        flat = [x for r in self.rows for x in r]
        return tuple((abs(x), 0 if x >= 0 else 1) for x in flat)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows) + "]"


# ---------------------------------------------------------------------------
# Normal forms


def hermite_normal_form(m: IntMat) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (h, u) with h = u @ m, u unimodular, h in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    """
    h = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(m.nrows)] for i in range(m.nrows)]
    nr, nc = m.nrows, m.ncols
    r = 0
    for c in range(nc):
        # Euclidean row reduction in column c below row r.
        while True:
            nz = [i for i in range(r, nr) if h[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][c]))
            if piv != r:
                h[r], h[piv] = h[piv], h[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, nr):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < nr and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == nr:
                break
    return IntMat.from_rows(h), IntMat.from_rows(u)


def smith_normal_form(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: returns (u, d, v) with d = u @ m @ v.

    d is diagonal with nonnegative entries d1 | d2 | ..., u and v unimodular.
    """
    nr, nc = m.nrows, m.ncols
    d = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        d[dst] = [a + q * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(nr, nc):
        # Find a nonzero pivot in the trailing block.
        entries = [(abs(d[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if d[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            reduced = True
            for i in range(t + 1, nr):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, nc):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        reduced = False
            if not reduced:
                continue
            # Enforce divisibility: pivot must divide every trailing entry.
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if d[i][j] % d[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return IntMat.from_rows(u), IntMat.from_rows(d), IntMat.from_rows(v)


# ---------------------------------------------------------------------------
# Lattices


@dataclass(frozen=True)
class LatticeBasis:
    """Sublattice of Z^ambient in canonical Hermite normal form.

    Two values span the same sublattice exactly when they compare equal, so
    lattice comparison is structural equality on the stored basis.
    """

    ambient: int
    basis: tuple[Vec, ...]

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Sequence[int]]) -> "LatticeBasis":
        vecs = [tuple(int(x) for x in v) for v in vectors]
        if any(len(v) != ambient for v in vecs):
            raise ValueError("vector length differs from ambient rank")
        if not vecs:
            return cls(ambient, ())
        h, _ = hermite_normal_form(IntMat.from_rows(vecs))
        rows = tuple(r for r in h.rows if any(x != 0 for x in r))
        return cls(ambient, rows)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def member(self, v: Sequence[int]) -> bool:
        """Exact membership test against the canonical echelon basis."""
        if len(v) != self.ambient:
            raise ValueError("dimension mismatch")
        w = list(int(x) for x in v)
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x != 0)
            if w[p] % row[p] != 0:
                return False
            q = w[p] // row[p]
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        return all(x == 0 for x in w)

    def matrix(self) -> IntMat:
        return IntMat.from_rows(self.basis) if self.basis else IntMat.zero(0, self.ambient)


def kernel_lattice(m: IntMat) -> LatticeBasis:
    """Saturated lattice of integer row relations {a : a @ m = 0}.

    The rows of the Hermite transform matching zero rows of the echelon form
    give a basis of the full integer left kernel, which is saturated because
    the quotient embeds in the row space of m.
    """
    h, u = hermite_normal_form(m)
    kernel_rows = [u.rows[i] for i in range(m.nrows) if all(x == 0 for x in h.rows[i])]
    return LatticeBasis.from_vectors(m.nrows, kernel_rows)


def lattice_equal(a: LatticeBasis, b: LatticeBasis) -> bool:
    if a.ambient != b.ambient:
        raise ValueError("different ambient ranks")
    return a == b


def matrix_order(g: IntMat, cap: int | None = None) -> int | None:
    """Order of g, or None when g has infinite order or (with a cap) order above cap.

    Exact, by reduction mod 3: the kernel of GL(n, Z) -> GL(n, F_3) is
    torsion-free (Minkowski), so an element of finite order has the same
    order k as its residue mod 3, and g has finite order exactly when
    g^k = I.  The residue order is at most 3^n - 1.
    """
    if g.nrows != g.ncols:
        raise ValueError("order of non-square matrix")
    if abs(g.det()) != 1:
        raise NonUnimodularError(f"matrix has determinant {g.det()}, not +-1")
    ident = IntMat.identity(g.nrows)
    residue = tuple(tuple(x % 3 for x in r) for r in g.rows)
    cols = tuple(zip(*residue))
    power, k = residue, 1
    while power != ident.rows:
        if cap is not None and k >= cap:
            return None
        power = tuple(tuple(dot(r, c) % 3 for c in cols) for r in power)
        k += 1
    power = g
    for _ in range(k - 1):
        power = power @ g
    return k if power == ident else None


def _bareiss(m: list[list[int]]) -> tuple[int, list[list[int]]] | None:
    """Fraction-free elimination of the n x n block of an n-row integer matrix, in place.

    Columns past the n-th, such as right-hand sides, are carried along.
    Returns (the sign of the row swaps, the matrix, now upper triangular on
    the block, with the block's determinant times that sign in its last
    pivot), or None when the block is singular.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return None
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(m[i])):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign, m


def bareiss_solve(a: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[int, list[int]] | None:
    """(D, y) with a y = D b in integers, D = +-det(a), for a square a; None when a is singular.

    By Cramer's rule each D x_k of the solution x is an integer, so the
    back substitution over the eliminated rows divides exactly.
    """
    eliminated = _bareiss([list(r) + [v] for r, v in zip(a, b)])
    if eliminated is None:
        return None
    _, m = eliminated
    n = len(m)
    det = m[-1][n - 1]
    y = [0] * n
    for k in range(n - 1, -1, -1):
        total = det * m[k][n] - sum(m[k][j] * y[j] for j in range(k + 1, n))
        y[k] = total // m[k][k]
    return det, y


# ---------------------------------------------------------------------------
# Exact field helpers: Fraction entries, or any exact field element that
# supports + - * /, 1 / x and truthiness (such as CyclotomicNumber)


def rational_rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over an exact field; returns (rref rows, pivot columns).

    Integer entries become Fractions; other entries are kept as given.
    """
    m = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    if not m:
        return [], []
    nc = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        if m[r][c] != 1:
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rational_rank(rows: Sequence[Sequence]) -> int:
    _, pivots = rational_rref(rows)
    return len(pivots)


def solve_rational_system(a: Sequence[Sequence], b: Sequence) -> tuple[list, list[list]] | None:
    """Solve a x = b over an exact field.

    Returns (particular solution with free variables set to 0, kernel basis),
    or None when the system is inconsistent.
    """
    nc = len(a[0]) if a else 0
    rref, pivots = rational_rref([list(r) + [v] for r, v in zip(a, b)])
    if nc in pivots:
        return None
    particular = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        particular[c] = rref[i][nc]
    return particular, _kernel_from_rref(rref, pivots, nc)


def rational_kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[list]:
    """Basis of {x : rows @ x = 0} over an exact field."""
    rref, pivots = rational_rref(rows)
    return _kernel_from_rref(rref, pivots, ncols)


def _kernel_from_rref(rref: list[list], pivots: list[int], ncols: int) -> list[list]:
    """One kernel vector per free column among the first ncols, with a 1 there."""
    kernel = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rref[i][fc]
        kernel.append(vec)
    return kernel
