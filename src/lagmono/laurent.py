"""Integer Laurent polynomials and their exact behaviour at torsion points.

These polynomials play the role of disc-counting potentials: exponent vectors
live in the first homology lattice of the torus and coefficients in Z.
Evaluation at a torsion local system lands in a cyclotomic ring and is exact.

Criticality needs only a zero test, which stays in integers.  At a point p of
order d, each term c z^e of a partial contributes c at x^((e . p d) mod d),
giving the partial's image in Z[x]/(x^d - 1), with x standing for
exp(2 pi i / d).  The partial vanishes at p exactly when that image folds to
zero on the tensor basis of Z[zeta_d] (``cyclotomic._fold``).  The torsion
grid stays in integer numerators over the bound until one ``TorsionPoint`` is
built per returned point.  ``evaluate`` builds a full ``CyclotomicNumber``
value from the same image for callers that need one.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping, Sequence

from .cyclotomic import CyclotomicNumber, _fold
from .errors import DimensionError, GridTooLargeError, ParseError, SearchTooLargeError
from .intlat import IntMat
from .torussym import TorsionPoint, _points, content_lines, read_dim, read_fields, read_ints
from .value import Value

Exponent = tuple[int, ...]
GRID_CAP = 200_000  # the most grid points torsion_critical_points walks unless told otherwise
ORDER_LIMIT = 1_000_000  # the largest point order evaluate and is_critical take; each allocates that many ints


class LaurentPolynomial(Value):
    """Finite integer combination of monomials z^alpha, alpha in Z^dim.

    Terms are stored sorted lexicographically by exponent with no zero
    coefficients, so equality and iteration order are canonical.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: tuple[tuple[Exponent, int], ...]):
        cleaned: dict[Exponent, int] = {}
        for expo, coeff in terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != dim:
                raise ValueError("exponent length differs from dim")
            coeff = int(coeff)
            if coeff:
                cleaned[expo] = cleaned.get(expo, 0) + coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", tuple(sorted((e, c) for e, c in cleaned.items() if c != 0)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.dim == other.dim and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim, self.terms))

    @classmethod
    def from_dict(cls, dim: int, terms: Mapping[Sequence[int], int]) -> "LaurentPolynomial":
        return cls(dim, tuple((tuple(e), c) for e, c in terms.items()))

    def partial(self, i: int) -> "LaurentPolynomial":
        """Affine partial derivative with respect to the i-th variable."""
        out: dict[Exponent, int] = {}
        for e, c in self.terms:
            if e[i] == 0:
                continue
            key = tuple(x - (1 if j == i else 0) for j, x in enumerate(e))
            out[key] = out.get(key, 0) + c * e[i]
        return LaurentPolynomial.from_dict(self.dim, out)

    def relabel(self, g: IntMat) -> "LaurentPolynomial":
        """Push exponents through alpha -> g alpha."""
        if g.nrows != self.dim or g.ncols != self.dim:
            raise DimensionError(f"{g.nrows}x{g.ncols} matrix on a potential in {self.dim} variables")
        out: dict[Exponent, int] = {}
        for e, c in self.terms:
            key = g.apply(e)
            out[key] = out.get(key, 0) + c
        return LaurentPolynomial.from_dict(self.dim, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = []
            for i, exp in enumerate(e):
                if exp == 0:
                    continue
                factors.append(f"z{i + 1}" + (f"^{exp}" if exp != 1 else ""))
            mono = "*".join(factors) if factors else "1"
            if abs(c) != 1 or not factors:
                mono = f"{abs(c)}*{mono}" if factors else str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + mono)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _order(w: LaurentPolynomial, p: TorsionPoint) -> int:
    """The order of p, refused past ORDER_LIMIT before an image of that length is allocated."""
    if p.dim != w.dim:
        raise DimensionError(f"point has {p.dim} coordinates, potential has {w.dim} variables")
    if (d := p.order()) > ORDER_LIMIT:
        raise SearchTooLargeError(f"point order exceeds {ORDER_LIMIT}, the limit of exact evaluation; this proves nothing")
    return d


def _image(w: LaurentPolynomial, scaled: Sequence[int], d: int) -> list[int]:
    """Image of w in Z[x]/(x^d - 1) at the point of order d with angles scaled / d.

    Each term c z^e adds c at x^((e . scaled) mod d).
    """
    image = [0] * d
    for e, c in w.terms:
        image[sum(x * a for x, a in zip(e, scaled)) % d] += c
    return image


def evaluate(w: LaurentPolynomial, p: TorsionPoint) -> CyclotomicNumber:
    """Exact value of w at the unitary point with angles p."""
    d = _order(w, p)
    scaled = [c.numerator * (d // c.denominator) for c in p.coords]
    return CyclotomicNumber._from_image(d, _image(w, scaled, d))


@functools.lru_cache(maxsize=64)
def _first_partials(w: LaurentPolynomial) -> tuple[LaurentPolynomial, ...]:
    """Affine first partials of w, kept across grid points and Hessian evaluations."""
    return tuple(w.partial(i) for i in range(w.dim))


def _vanishes(w: LaurentPolynomial, scaled: Sequence[int], d: int) -> bool:
    """True when w is zero at the point of order d with angles scaled / d.

    The image of w in Z[x]/(x^d - 1) is folded onto the tensor basis of
    Z[zeta_d], all in integers; w vanishes exactly when every folded
    coordinate is zero.
    """
    return not any(_fold(_image(w, scaled, d), d))


def _critical(w: LaurentPolynomial, scaled: Sequence[int], d: int) -> bool:
    """True when every affine first partial of w vanishes at the point of order d with angles scaled / d."""
    return all(_vanishes(f, scaled, d) for f in _first_partials(w))


def is_critical(w: LaurentPolynomial, p: TorsionPoint) -> bool:
    """True when every affine first partial of w vanishes at p.

    Only the affine partials are tested.  The logarithmic partial z_i d/dz_i w
    is z_i times the affine one, term by term, so at a unitary point its
    image is the affine image shifted mod d: the two vanish together.
    """
    d = _order(w, p)
    return _critical(w, [c.numerator * (d // c.denominator) for c in p.coords], d)


def torsion_critical_points(
    w: LaurentPolynomial, order_bound: int, grid_cap: int = GRID_CAP
) -> tuple[TorsionPoint, ...]:
    """All critical torsion points with coordinate denominators dividing the bound.

    The grid is walked by Galois orbits.  The coefficients of w are integers,
    so the automorphism zeta_d -> zeta_d^k of Q(zeta_d) maps every partial at
    p to the same partial at k p, for each k prime to d = ord(p); a point is
    critical exactly when its whole orbit {k p : gcd(k, d) = 1} is.  Each
    orbit is tested once, on the numerators over d of its first grid point,
    and kept whole, as integer numerators over the bound, when critical.
    Visited points are marked by their mixed-radix grid index.  The orbits
    are disjoint, so the kept numerators need one sort and no ``set``; one
    ``TorsionPoint`` is then built per returned point.
    """
    if order_bound < 1:
        raise ValueError("order bound must be positive")
    if order_bound ** w.dim > grid_cap:
        raise GridTooLargeError(
            f"grid of size {order_bound}^{w.dim} exceeds cap {grid_cap}"
        )
    visited = bytearray(order_bound ** w.dim)
    out = []
    for index, combo in enumerate(itertools.product(range(order_bound), repeat=w.dim)):
        if visited[index]:
            continue
        d = order_bound // math.gcd(order_bound, *combo)
        orbit = [tuple(k * x % order_bound for x in combo) for k in range(d) if math.gcd(k, d) == 1]
        for image in orbit:
            mixed = 0
            for x in image:
                mixed = mixed * order_bound + x
            visited[mixed] = 1
        if _critical(w, [x // (order_bound // d) for x in combo], d):
            out.extend(orbit)
    return _points(order_bound, out)


def invariance_check(w: LaurentPolynomial, g: IntMat) -> bool:
    """True when relabelling exponents by g returns w term for term."""
    return w.relabel(g) == w


# ---------------------------------------------------------------------------
# Text format


def parse_laurent(text: str) -> LaurentPolynomial:
    """Parse the potential text format.

    Line 1 is ``dim <n>``; each following line is ``term <coeff> <e1> .. <en>``.
    ``#`` starts a comment.
    """
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty potential file")
    dim = read_dim(lines[0])
    terms: dict[Exponent, int] = {}
    for line in lines[1:]:
        fields = read_fields(line, "term", dim + 1, f"coefficient and {dim} exponents")
        coeff, *expo = read_ints(line[0], fields, "integer field")
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + coeff
    return LaurentPolynomial.from_dict(dim, terms)
