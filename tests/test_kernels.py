"""The shared exact kernels against the hand-rolled routines they replaced.

Each ``old_*`` function below is a copy of a routine that one shared kernel
replaced: the elimination loop of ``floer._solution_space``, the Fraction
determinant behind ``CyclotomicNumber.norm``, the polynomial divisions
``_polydiv_exact``, ``_polydivmod`` (Fraction version) and
``floer._try_divide``, the Phi_d reduction loop of ``laurent._vanishes``, the
rank-one cyclotomic factor profile, the divisor scan of the cyclotomic
canonical form (Galois-fixedness loop, descent matrix and power table), the
power-table promotion, the Euclidean inverse and the Fraction solve that
replaced it, the Clifford-product residual columns and residual-column
screen of ``floer._bounded_search`` and its pair-by-pair line screen, the
block-map search of ``monodromy.symplectic_monodromy``, the word
expansion and multiplication-table check of
``classify.embed_symmetric_product``, the subset enumeration of
``torussym.forced_critical_points`` and the division builder of
``cyclotomic.cyclotomic_polynomial``.  They are kept here only as oracles.
"""

import functools
import itertools
import math
import pathlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lagmono.cyclotomic import (
    CyclotomicNumber,
    _polydivmod,
    _polymod,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
)
from lagmono.floer import (
    CliffordData,
    CliffordElement,
    _bounded_search,
    _conjugation_residuals,
    _cyclotomic_factor_profile,
    _element_from_pair,
    _line_points,
    _form_value,
    _norm_form,
    _parity_norm,
    _residual_columns,
    _solution_space,
)
from lagmono.classify import _symmetric_part_choices, catalog_n2, embed_symmetric_product, ingest_catalog
from lagmono.errors import SearchTooLargeError
from lagmono.groups import (
    MatrixGroup,
    PermutationGroup,
    cayley_closure,
    compose,
    identity_perm,
    permute_vector,
)
from lagmono.intlat import (
    IntMat,
    LatticeBasis,
    lattice_equal,
    matrix_order,
    rational_kernel_basis,
    rational_rank,
    rational_rref,
    solve_rational_system,
)
from lagmono.monodromy import symplectic_monodromy
from lagmono.torussym import TorsionPoint, forced_critical_points, monomial_fixed_points
from lagmono.polytopes import STANDARD_FIXTURES, blowup_cp2, cube, projective_product
from lagmono.toric import DelzantPolytope, coefficient_partition, toric_fiber_data

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
Cyc = CyclotomicNumber
CONDUCTORS = (1, 3, 4, 5, 12)


# ---------------------------------------------------------------------------
# Oracles: the replaced routines


def old_kernel_pairs(rows):
    """Elimination loop of the old floer._solution_space, for two columns."""
    pivots = []
    work = [list(r) for r in rows]
    col_used = []
    for col in range(2):
        pivot_row = next(
            (i for i, r in enumerate(work) if not r[col].is_zero() and i not in [p[0] for p in pivots]),
            None,
        )
        if pivot_row is None:
            continue
        inv = work[pivot_row][col].inverse()
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for i in range(len(work)):
            if i != pivot_row and not work[i][col].is_zero():
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[pivot_row])]
        pivots.append((pivot_row, col))
        col_used.append(col)
    out = []
    for fc in [c for c in range(2) if c not in col_used]:
        vec = [Cyc.zero(), Cyc.zero()]
        vec[fc] = Cyc.one()
        for prow, pcol in pivots:
            vec[pcol] = -work[prow][fc]
        out.append((vec[0], vec[1]))
    return out


def old_residual_columns(d, action, parity):
    """The residual coordinates of the two parity basis elements, by Clifford products."""
    basis = (
        [CliffordElement.odd(1, 0), CliffordElement.odd(0, 1)]
        if parity == "odd"
        else [CliffordElement.even(1, 0), CliffordElement.even(0, 1)]
    )
    cols = []
    for e in basis:
        residuals = _conjugation_residuals(e, d, action, parity)
        cols.append([r for res in residuals for r in (res.a0, res.au, res.av, res.auv)])
    return cols


def old_solution_space(d, action, parity):
    return old_kernel_pairs(list(zip(*old_residual_columns(d, action, parity))))


def old_det_fraction(rows):
    n = len(rows)
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def old_norm(x):
    d = x.conductor
    phi = euler_phi(d)
    if d == 1:
        return x.coeffs[0]
    cols = [_polymod([Fraction(0)] * i + list(x.coeffs), d) for i in range(phi)]
    return old_det_fraction([[cols[j][i] for j in range(phi)] for i in range(phi)])


def old_polydiv_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = num[i + len(den) - 1]
        if isinstance(coeff, int) and isinstance(den[-1], int) and den[-1] != 0:
            q, r = divmod(coeff, den[-1])
            assert r == 0, "non-exact polynomial division"
            coeff = q
        else:
            coeff = coeff / den[-1]
        out[i] = coeff
        for j, dj in enumerate(den):
            num[i + j] -= coeff * dj
    assert all(x == 0 for x in num)
    return out


def old_trim(p):
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def old_fraction_divmod(num, den):
    num = old_trim(list(num))
    den = old_trim(list(den))
    if len(num) < len(den):
        return [Fraction(0)], num
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    work = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + len(den) - 1] / den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                work[i + j] -= c * dj
    return out, old_trim(work)


def old_poly_degree(coeffs):
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0:
        deg -= 1
    return deg


def old_try_divide(num, den):
    num = num[: old_poly_degree(num) + 1]
    den = den[: old_poly_degree(den) + 1]
    if len(num) < len(den):
        return None
    work = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + len(den) - 1]
        if c % den[-1] != 0:
            return None
        q = c // den[-1]
        out[i] = q
        for j, dj in enumerate(den):
            work[i + j] -= q * dj
    if any(x != 0 for x in work):
        return None
    return out


def old_phi_residue(image, d):
    """Reduction loop of the old laurent._vanishes: image mod Phi_d."""
    image = list(image)
    phi = cyclotomic_polynomial(d)
    deg = len(phi) - 1
    for top in range(d - 1, deg - 1, -1):
        q = image[top]
        if q:
            base = top - deg
            for j in range(deg):
                image[base + j] -= q * phi[j]
    return image[:deg]


def old_factor_profile(poly):
    if not poly:
        return None
    low = min(poly)
    coeffs = [0] * (max(poly) - low + 1)
    for e, c in poly.items():
        coeffs[e - low] = c
    content = 0
    for c in coeffs:
        content = math.gcd(content, c)
    content *= 1 if coeffs[-1] > 0 else -1
    coeffs = [c // content for c in coeffs]
    degree = len(coeffs) - 1
    found = []
    d = 1
    while d <= 2 * degree * degree + 2:
        phi = list(cyclotomic_polynomial(d))
        if len(phi) - 1 <= old_poly_degree(coeffs):
            quotient = old_try_divide(coeffs, phi)
            if quotient is not None:
                if old_try_divide(quotient, phi) is not None:
                    return None
                coeffs = quotient
                found.append(d)
        d += 1
    if old_poly_degree(coeffs) != 0 or coeffs[0] != 1:
        return None
    return content, sorted(found)


@functools.lru_cache(maxsize=None)
def old_power_table(d):
    """zeta_d^k on the power basis for k = 0 .. d-1."""
    phi = euler_phi(d)
    table = []
    for k in range(d):
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        table.append(tuple(_polymod(coeffs, d)[:phi]))
    return tuple(table)


@functools.lru_cache(maxsize=None)
def old_descent_matrix(d, sub):
    step = d // sub
    return tuple(old_power_table(d)[(j * step) % d] for j in range(euler_phi(sub)))


def old_fixed_by_subfield_galois(d, sub, coeffs):
    for a in range(1, d):
        if math.gcd(a, d) != 1 or a % sub != 1 % sub:
            continue
        out = [Fraction(0)] * d
        for i, c in enumerate(coeffs):
            out[(i * a) % d] += c
        if _polymod(out, d) != list(coeffs):
            return False
    return True


def old_express_in_subfield(d, sub, coeffs):
    cols = old_descent_matrix(d, sub)
    rows = [[col[i] for col in cols] for i in range(euler_phi(d))]
    solved = solve_rational_system(rows, list(coeffs))
    if solved is None:
        return None
    particular, _ = solved
    return _polymod(particular, sub)


def old_canonicalize(d, coeffs):
    """The divisor scan: least conductor and coefficients of a reduced value."""
    if d == 1:
        return 1, coeffs
    for sub in divisors(d)[:-1]:
        if old_fixed_by_subfield_galois(d, sub, coeffs):
            reduced = old_express_in_subfield(d, sub, coeffs)
            if reduced is not None:
                return sub, reduced
    return d, coeffs


def old_promoted_coeffs(x, d):
    """Power-table promotion of x to the power basis of Q(zeta_d)."""
    table = old_power_table(d)
    step = d // x.conductor
    phi = euler_phi(d)
    out = [Fraction(0)] * phi
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
        base = table[(i * step) % d]
        for j in range(phi):
            out[j] += c * base[j]
    return tuple(out)


def old_polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def old_polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def old_inverse(x):
    """Field inverse by the extended Euclidean algorithm modulo Phi_d."""
    if x.is_rational():
        return Cyc.from_rational(1 / x.coeffs[0])
    d = x.conductor
    phi = [Fraction(c) for c in cyclotomic_polynomial(d)]
    r0, r1 = phi, old_trim(list(x.coeffs))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(old_trim(r1)) - 1 > 0:
        q, r = _polydivmod(r0, r1)
        r0, r1 = r1, old_trim(r)
        s0, s1 = s1, old_polysub(s0, old_polymul(q, s1))
    lead = r1[0]
    return Cyc(d, tuple(_polymod([c / lead for c in s1], d)))


def old_solve_inverse(x):
    """Field inverse by the Fraction Gauss-Jordan solve of the scaled multiplication matrix."""
    if x.is_rational():
        return Cyc.from_rational(1 / x.coeffs[0])
    scale, cols = x._scaled_columns()
    one = [1] + [0] * (len(cols) - 1)
    solution, _ = solve_rational_system(list(zip(*cols)), one)
    return Cyc(x.conductor, tuple(scale * c for c in solution))


def old_bounded_search(d, action, parity, height):
    """Bounded search screening each pair by its combination of the residual columns.

    Each pair's norm is the Clifford product of its element with itself or
    its conjugate.
    """
    cols = old_residual_columns(d, action, parity)
    for h in range(0, height + 1):
        ring = range(-h, h + 1)
        for x1 in ring:
            for x2 in ring:
                if max(abs(x1), abs(x2)) != h or (x1 == 0 and x2 == 0):
                    continue
                if any(not (a * x1 + b * x2).is_zero() for a, b in zip(cols[0], cols[1])):
                    continue
                c = _element_from_pair((Cyc.from_rational(x1), Cyc.from_rational(x2)), parity)
                norm = _parity_norm(c, d, parity)
                if norm is not None and norm.is_integral_unit() and c.is_integral():
                    return c
    return None


def old_line_screen(solutions, height):
    """Pairs of the old loop that pass the screen x1 v2 = x2 v1 of a one-dimensional space."""
    return [
        (x1, x2)
        for h in range(1, height + 1)
        for x1 in range(-h, h + 1)
        for x2 in range(-h, h + 1)
        if max(abs(x1), abs(x2)) == h and any(x1 * v2 == x2 * v1 for v1, v2 in solutions)
    ]


def old_block_map_group(partition, block_maps):
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


def old_block_map_preserves_lattice(k, partition, block_map):
    perm = [0] * partition.size
    for b, image in enumerate(block_map):
        for src, dst in zip(partition.blocks[b], partition.blocks[image]):
            perm[src] = dst
    moved = [permute_vector(tuple(perm), row) for row in k.basis]
    return lattice_equal(LatticeBasis.from_vectors(k.ambient, moved), k)


def old_symplectic_monodromy(data, max_degree=12, max_order=50_000):
    """Block-map backtracking with a rank test per node and an HNF comparison per leaf."""
    k = data.relations
    partition = coefficient_partition(k)
    n = partition.size
    if n > max_degree:
        raise SearchTooLargeError(f"{n} normals exceeds search bound {max_degree}")
    blocks = partition.blocks
    columns = [tuple(row[block[0]] for row in k.basis) for block in blocks]

    valid_maps = []

    def consistent(pairs):
        if not k.basis:
            return True
        srcs = [list(map(Fraction, s)) for s, _ in pairs]
        stacked = [list(map(Fraction, s)) + list(map(Fraction, t)) for s, t in pairs]
        _, piv_src = rational_rref(srcs)
        _, piv_stacked = rational_rref(stacked)
        return len(piv_src) == len(piv_stacked)

    def search(assigned, used):
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
    confirmed = [m for m in valid_maps if old_block_map_preserves_lattice(k, partition, m)]

    order = len(confirmed)
    for block in blocks:
        order *= math.factorial(len(block))
    if order > max_order:
        raise SearchTooLargeError(f"group order {order} exceeds cap {max_order}")

    return old_block_map_group(partition, confirmed)


def old_embed_symmetric_product(group, parts):
    """Word expansion of every assignment, then the full multiplication table."""
    parts = tuple(parts)
    product_elements = list(
        itertools.product(*[itertools.permutations(range(p)) for p in parts])
    )
    ident_target = tuple(identity_perm(p) for p in parts)

    def target_mul(x, y):
        return tuple(compose(a, b) for a, b in zip(x, y))

    def target_order(x):
        k = 1
        acc = x
        while acc != ident_target:
            acc = target_mul(acc, x)
            k += 1
        return k

    orders_available = {}
    for x in product_elements:
        orders_available.setdefault(target_order(x), []).append(x)

    gens = group.generators()
    gen_orders = [matrix_order(g, cap=group.order + 1) for g in gens]
    candidate_lists = []
    for order in gen_orders:
        candidates = orders_available.get(order, [])
        if not candidates:
            return None
        candidate_lists.append(candidates)

    words = cayley_closure(IntMat.identity(group.dim), gens, IntMat.__matmul__, group.order)

    elements = list(group.elements)

    def check(assignment):
        image = {}
        for g in elements:
            acc = ident_target
            for idx in words[g]:
                acc = target_mul(acc, assignment[idx])
            image[g] = acc
        if len(set(image.values())) != group.order:
            return None
        for a in elements:
            for b in elements:
                if target_mul(image[a], image[b]) != image[a @ b]:
                    return None
        return tuple((g, image[g]) for g in elements)

    for assignment in itertools.product(*candidate_lists):
        verified = check(assignment)
        if verified is not None:
            return verified
    return None


def old_forced_critical_points(group):
    """Enumeration of subsets, in index order, whose rank rises at each element."""
    n = group.dim
    ident = IntMat.identity(n)
    candidates = group.nonidentity()
    deltas = {g: [tuple(a - b for a, b in zip(row, irow)) for row, irow in zip(g.rows, ident.rows)] for g in candidates}
    found = set()

    def extend(start, chosen, stacked_rows, rank):
        for idx in range(start, len(candidates)):
            g = candidates[idx]
            rows = stacked_rows + deltas[g]
            new_rank = rational_rank(rows)
            if new_rank == rank:
                continue
            subset = chosen + [g]
            if new_rank == n:
                fixed = monomial_fixed_points(subset)
                assert fixed.is_finite
                found.update(fixed.finite_points())
            elif len(subset) < n:
                extend(idx + 1, subset, rows, new_rank)

    extend(0, [], [], 0)
    return tuple(sorted(found))


@functools.lru_cache(maxsize=None)
def old_cyclotomic_polynomial(d):
    """x^d - 1 divided by the cyclotomic polynomials of all proper divisors of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for k in divisors(d)[:-1]:
        poly = old_polydiv_exact(poly, list(old_cyclotomic_polynomial(k)))
    return tuple(poly)


# ---------------------------------------------------------------------------
# Strategies


small = st.integers(-2, 2)


@st.composite
def cyclotomics(draw, conductors=CONDUCTORS, denominators=(1,)):
    d = draw(st.sampled_from(conductors))
    coeffs = draw(st.lists(small, min_size=d, max_size=d))
    den = draw(st.sampled_from(denominators))
    return Cyc(d, tuple(Fraction(c, den) for c in coeffs))


@st.composite
def two_column_rows(draw):
    """Rows (a, b) over one Q(zeta_d), the second column often dependent on the first."""
    field = cyclotomics(conductors=(draw(st.sampled_from(CONDUCTORS)),))
    n = draw(st.integers(1, 8))
    first = draw(st.lists(field, min_size=n, max_size=n))
    shape = draw(st.sampled_from(("random", "multiple", "zero")))
    if shape == "random":
        second = draw(st.lists(field, min_size=n, max_size=n))
    elif shape == "multiple":
        factor = draw(field)
        second = [factor * a for a in first]
    else:
        second = [Cyc.zero()] * n
    return [list(r) for r in zip(first, second)]


@st.composite
def subfield_elements(draw, max_conductor=72):
    """(d, coefficients of zeta_d^0 .. zeta_d^(d-1)) of a random value of a subfield Q(zeta_c).

    The value is a random element of Q(zeta_c), c | d, with denominators up
    to 3, written through zeta_c = zeta_d^(d/c) and then moved by a random
    Galois automorphism zeta_d -> zeta_d^k.
    """
    d = draw(st.integers(1, max_conductor))
    c = draw(st.sampled_from(divisors(d)))
    numerators = draw(st.lists(st.integers(-3, 3), min_size=euler_phi(c), max_size=euler_phi(c)))
    den = draw(st.integers(1, 3))
    k = draw(st.sampled_from([k for k in range(1, d + 1) if math.gcd(k, d) == 1]))
    spread = [Fraction(0)] * d
    for i, x in enumerate(numerators):
        spread[i * (d // c) * k % d] += Fraction(x, den)
    return d, spread


@st.composite
def clifford_problems(draw):
    """Clifford data (integers, or one random conductor) with an upper-triangular action."""
    conductor = draw(st.sampled_from(CONDUCTORS))
    if draw(st.booleans()):
        constants = [Cyc.from_rational(draw(st.integers(-2, 2))) for _ in range(3)]
    else:
        constants = draw(st.lists(cyclotomics(conductors=(conductor,)), min_size=3, max_size=3))
    eps1, eps2 = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    action = IntMat.from_rows([[eps1, draw(st.integers(-4, 4))], [0, eps2]])
    return CliffordData(*constants), action, draw(st.sampled_from(("even", "odd"))), conductor


def polytope_product(a, b):
    """Product of two monotone polytopes: the normals of each, padded with zeros."""
    normals = [nu + (0,) * b.dim for nu in a.normals] + [(0,) * a.dim + nu for nu in b.normals]
    return DelzantPolytope(a.dim + b.dim, tuple(normals), a.offsets + b.offsets)


SETWISE_BASES = {
    **STANDARD_FIXTURES,
    "cube4": cube(4),
    "cp1xcp1xcp2": projective_product((1, 1, 2)),
    "bl2cp2xcp1": polytope_product(blowup_cp2(2), projective_product((1,))),
}


@st.composite
def rebased_polytopes(draw):
    """A base polytope under a facet shuffle and a unimodular change of basis.

    The change of basis is a signed permutation of coordinates followed by a
    few elementary shears; it keeps every offset, so the copy stays monotone.
    """
    name = draw(st.sampled_from(sorted(SETWISE_BASES)))
    p = SETWISE_BASES[name]
    n = p.dim
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    u = IntMat.from_rows([[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)])
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            shear = [[int(r == c) for c in range(n)] for r in range(n)]
            shear[i][j] = draw(st.sampled_from((1, -1)))
            u = IntMat.from_rows(shear) @ u
    order = draw(st.permutations(range(p.nfacets)))
    normals = tuple(u.apply(p.normals[j]) for j in order)
    return name, DelzantPolytope(n, normals, tuple(p.offsets[j] for j in order), p.mode)


@st.composite
def normal_sets(draw):
    """Distinct primitive vectors with offsets 1: no Delzant condition, any base index or rank."""
    dim = draw(st.integers(2, 3))
    vector = st.tuples(*[st.integers(-2, 2)] * dim).filter(lambda v: math.gcd(*v) == 1)
    normals = draw(st.lists(vector, min_size=dim, max_size=6, unique=True))
    return DelzantPolytope(dim, tuple(normals), (Fraction(1),) * len(normals))


def int_polys(min_size=1, max_size=12):
    return st.lists(st.integers(-4, 4), min_size=min_size, max_size=max_size)


def cyclotomic_product(ds):
    out = [1]
    for d in ds:
        phi = cyclotomic_polynomial(d)
        prod = [0] * (len(out) + len(phi) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(phi):
                prod[i + j] += x * y
        out = prod
    return out


# ---------------------------------------------------------------------------
# Elimination


class TestElimination:
    @settings(max_examples=40, deadline=None)
    @given(two_column_rows())
    def test_kernel_over_cyclotomics_equals_old_loop(self, rows):
        new = [tuple(Cyc.from_rational(x) if isinstance(x, Fraction) else x for x in v)
               for v in rational_kernel_basis(rows, 2)]
        assert new == old_kernel_pairs(rows)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(cyclotomics(), min_size=3, max_size=3),
        st.sampled_from((1, -1)),
        st.integers(-3, 3),
        st.sampled_from((1, -1)),
        st.sampled_from(("even", "odd")),
    )
    def test_solution_space_equals_old(self, constants, eps1, m, eps2, parity):
        data = CliffordData(*constants)
        action = IntMat.from_rows([[eps1, m], [0, eps2]])
        assert _solution_space(data, action, parity) == old_solution_space(data, action, parity)

    def test_solution_space_on_rational_constants(self):
        for lam in range(-2, 3):
            for mu in range(-1, 2):
                data = CliffordData.from_integers(lam, mu, 1)
                for m in range(-2, 3):
                    action = IntMat.from_rows([[1, m], [0, -1]])
                    for parity in ("even", "odd"):
                        assert _solution_space(data, action, parity) == old_solution_space(data, action, parity)


class TestNorm:
    @settings(max_examples=80, deadline=None)
    @given(cyclotomics(conductors=tuple(range(1, 31)), denominators=(1, 2, 3, 6)))
    def test_norm_equals_old_fraction_determinant(self, x):
        assert x.norm() == old_norm(x)

    def test_norm_of_roots_of_unity_and_zero(self):
        for d in (3, 4, 5, 7, 8, 9, 12, 15, 60):
            assert abs(Cyc.root_of_unity(d).norm()) == 1
            assert Cyc.root_of_unity(d).norm() == old_norm(Cyc.root_of_unity(d))
        assert Cyc.zero().norm() == 0


# ---------------------------------------------------------------------------
# Division


class TestDivision:
    @settings(max_examples=60, deadline=None)
    @given(int_polys(), st.lists(st.integers(-3, 3), min_size=0, max_size=5))
    def test_monic_integer_division_equals_old_try_divide(self, num, low):
        num = old_trim(num)
        den = low + [1]
        quotient, rem = _polydivmod(num, den)
        old = old_try_divide(num, den)
        if len(num) < len(den):
            assert old is None and rem == num[: len(den) - 1]
        elif old is None:
            assert any(rem)
        else:
            assert not any(rem) and quotient == old
        assert all(isinstance(x, int) for x in quotient + rem)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=1, max_size=9),
        st.lists(st.integers(-3, 3), min_size=0, max_size=4),
        st.integers(-3, 3).filter(bool),
    )
    def test_fraction_division_equals_old(self, num, low, lead):
        num = [Fraction(x) for x in num]
        den = [Fraction(x) for x in low] + [Fraction(lead)]
        quotient, rem = _polydivmod(old_trim(num), den)
        old_quotient, old_rem = old_fraction_divmod(num, den)
        assert old_trim(quotient) == old_trim(old_quotient)
        assert old_trim(rem or [Fraction(0)]) == old_rem

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 24), min_size=1, max_size=4, unique=True), st.integers(1, 24))
    def test_exact_division_by_phi_equals_old(self, ds, k):
        num = cyclotomic_product(sorted(set(ds) | {k}))
        phi = list(cyclotomic_polynomial(k))
        quotient, rem = _polydivmod(num, phi)
        assert not any(rem)
        assert quotient == old_polydiv_exact(num, phi)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_phi_residue_equals_old_reduction(self, d, data):
        image = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        assert _polydivmod(image, cyclotomic_polynomial(d))[1] == old_phi_residue(image, d)

    def test_cyclotomic_polynomials_equal_old_construction(self):
        for d in range(1, 301):
            assert cyclotomic_polynomial(d) == old_cyclotomic_polynomial(d), d


# ---------------------------------------------------------------------------
# Rank-one cyclotomic profile


class TestFactorProfile:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(-3, 5), st.integers(-3, 3).filter(bool), min_size=1, max_size=5))
    def test_random_polynomials_equal_old_profile(self, poly):
        assert _cyclotomic_factor_profile(poly) == old_factor_profile(poly)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True),
        st.sampled_from((1, -1, 2, -3)),
        st.integers(-2, 2),
    )
    def test_products_of_distinct_phi_equal_old_profile(self, ds, content, shift):
        coeffs = cyclotomic_product(ds)
        poly = {i + shift: content * c for i, c in enumerate(coeffs) if c}
        expected = old_factor_profile(poly)
        assert expected == (content, sorted(ds))
        assert _cyclotomic_factor_profile(poly) == expected

    def test_repeated_factor_is_refused(self):
        coeffs = cyclotomic_product([3, 3, 4])
        poly = {i: c for i, c in enumerate(coeffs) if c}
        assert _cyclotomic_factor_profile(poly) is None is old_factor_profile(poly)


# ---------------------------------------------------------------------------
# Cyclotomic canonical form, promotion and inverse


class TestCanonicalForm:
    @settings(max_examples=80, deadline=None)
    @given(subfield_elements())
    def test_construction_equals_divisor_scan(self, case):
        d, spread = case
        value = Cyc(d, tuple(spread))
        conductor, coeffs = old_canonicalize(d, _polymod(spread, d))
        assert (value.conductor, value.coeffs) == (conductor, tuple(coeffs))

    @settings(max_examples=40, deadline=None)
    @given(subfield_elements(max_conductor=36), st.integers(1, 4))
    def test_promotion_equals_power_table(self, case, multiple):
        d, spread = case
        value = Cyc(d, tuple(spread))
        target = value.conductor * multiple
        assert value.promoted_coeffs(target) == old_promoted_coeffs(value, target)

    @settings(max_examples=60, deadline=None)
    @given(cyclotomics(conductors=tuple(range(1, 31)), denominators=(1, 2, 3)))
    def test_inverse_equals_euclidean(self, x):
        if x.is_zero():
            return
        assert x.inverse() == old_inverse(x)

    @settings(max_examples=60, deadline=None)
    @given(cyclotomics(conductors=tuple(range(1, 31)) + (35, 36), denominators=(1, 2, 3, 6)))
    def test_inverse_equals_fraction_solve(self, x):
        if x.is_zero():
            return
        inverse = x.inverse()
        assert inverse == old_solve_inverse(x)
        assert x * inverse == Cyc.one()
        # The fast constructor must leave the same canonical form as the full one.
        assert inverse == Cyc(inverse.conductor, inverse.coeffs)


class TestRationalScaling:
    @settings(max_examples=80, deadline=None)
    @given(
        cyclotomics(conductors=tuple(range(1, 31)), denominators=(1, 2, 3)),
        st.sampled_from((0, 1, -1, 2, -3, Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4))),
    )
    def test_scaling_equals_canonicalising_constructor(self, x, q):
        expected = Cyc(x.conductor, tuple(q * c for c in x.coeffs))
        assert x * q == expected
        assert q * x == expected
        assert x * Cyc.from_rational(q) == expected
        assert Cyc.from_rational(q) * x == expected
        assert -x == Cyc(x.conductor, tuple(-c for c in x.coeffs))
        assert (x * q).conductor == (x.conductor if q else 1)

    @settings(max_examples=40, deadline=None)
    @given(cyclotomics(), cyclotomics())
    def test_sum_with_zero_is_unchanged(self, x, y):
        zero = Cyc.zero()
        assert x + zero == x and zero + x == x and x - zero == x
        assert zero - x == -x == Cyc(x.conductor, tuple(-c for c in x.coeffs))
        assert (x + y) - y == x


# ---------------------------------------------------------------------------
# Continuation search


unit_diagonal_actions = st.builds(
    lambda eps1, m, eps2: IntMat.from_rows([[eps1, m], [0, eps2]]),
    st.sampled_from((1, -1)),
    st.integers(-4, 4),
    st.sampled_from((1, -1)),
)
parities = st.sampled_from(("even", "odd"))


class TestClosedForms:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(cyclotomics(), min_size=3, max_size=3), unit_diagonal_actions, parities)
    def test_residual_columns_equal_clifford_products(self, constants, action, parity):
        data = CliffordData(*constants)
        assert list(_residual_columns(data, action, parity)) == old_residual_columns(data, action, parity)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(cyclotomics(), min_size=3, max_size=3),
        cyclotomics(denominators=(1, 2)),
        cyclotomics(denominators=(1, 3)),
        parities,
    )
    def test_norm_form_equals_clifford_product(self, constants, x1, x2, parity):
        data = CliffordData(*constants)
        c = _element_from_pair((x1, x2), parity)
        assert _form_value(_norm_form(data, parity), x1, x2) == _parity_norm(c, data, parity)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(cyclotomics(), min_size=3, max_size=3), st.integers(-6, 6), st.integers(-6, 6), parities)
    def test_norm_form_on_integer_pairs(self, constants, x1, x2, parity):
        data = CliffordData(*constants)
        c = _element_from_pair((Cyc.from_rational(x1), Cyc.from_rational(x2)), parity)
        assert _form_value(_norm_form(data, parity), x1, x2) == _parity_norm(c, data, parity)


class TestBoundedSearch:
    @settings(max_examples=60, deadline=None)
    @given(clifford_problems(), st.integers(0, 6))
    def test_witness_equals_residual_column_screen(self, problem, height):
        data, action, parity, conductor = problem
        found = _bounded_search(data, action, parity, conductor, height)
        assert found == old_bounded_search(data, action, parity, height)

    @settings(max_examples=60, deadline=None)
    @given(
        cyclotomics(conductors=(1, 3, 4)),
        cyclotomics(conductors=(1, 3, 4)),
        st.sampled_from((None, Fraction(2, 3), Fraction(-3), Fraction(0), Fraction(1, 4))),
        st.integers(0, 8),
    )
    def test_line_points_equal_pair_screen(self, v1, v2, slope, height):
        # A drawn slope makes v2 a rational multiple of v1, so the line has points.
        if slope is not None:
            v2 = v1 * Cyc.from_rational(slope)
        if v1.is_zero() and v2.is_zero():
            v2 = Cyc.one()
        assert list(_line_points([(v1, v2)], height)) == old_line_screen([(v1, v2)], height)


# ---------------------------------------------------------------------------
# Setwise stabiliser


class TestSymplecticSearch:
    @settings(max_examples=40, deadline=None)
    @given(rebased_polytopes())
    def test_group_equals_block_map_search(self, case):
        name, polytope = case
        data = toric_fiber_data(polytope)
        old = old_symplectic_monodromy(data)
        # A cap equal to the order passes only if each block map is found once.
        assert symplectic_monodromy(data, max_order=old.order).elements == old.elements, name

    @settings(max_examples=40, deadline=None)
    @given(normal_sets())
    def test_any_normal_set_equals_block_map_search(self, polytope):
        data = toric_fiber_data(polytope)
        assert symplectic_monodromy(data).elements == old_symplectic_monodromy(data).elements

    def test_fractional_image_is_refused(self):
        # Normals 1, 2 and 4 form a base of index 12 in Z^3; rounding a
        # fractional image down would land on a normal and add a permutation.
        normals = ((2, -2, 1), (1, 2, -1), (-2, -2, 1), (2, -2, -1))
        data = toric_fiber_data(DelzantPolytope(3, normals, (Fraction(1),) * 4))
        assert symplectic_monodromy(data).elements == old_symplectic_monodromy(data).elements == ((0, 1, 2, 3),)

    def test_standard_fixtures_equal_block_map_search(self):
        for name, polytope in SETWISE_BASES.items():
            data = toric_fiber_data(polytope)
            assert symplectic_monodromy(data).elements == old_symplectic_monodromy(data).elements, name

    def test_dp6_squared_order_and_time(self):
        data = toric_fiber_data(polytope_product(blowup_cp2(3), blowup_cp2(3)))
        start = time.perf_counter()
        group = symplectic_monodromy(data)
        assert time.perf_counter() - start < 1.0
        assert group.order == 288

    def test_dp6_times_two_spheres_order(self):
        data = toric_fiber_data(polytope_product(blowup_cp2(3), cube(2)))
        assert symplectic_monodromy(data).order == 96

    @pytest.mark.parametrize(
        "polytope, kwargs, message",
        [
            (cube(7), {}, "14 normals exceeds search bound 12"),
            (cube(3), {"max_order": 10}, "group order 48 exceeds cap 10"),
        ],
    )
    def test_refusal_messages_unchanged(self, polytope, kwargs, message):
        data = toric_fiber_data(polytope)
        for search in (symplectic_monodromy, old_symplectic_monodromy):
            with pytest.raises(SearchTooLargeError) as exc:
                search(data, **kwargs)
            assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Embedding into products of symmetric groups


def companion(low):
    """Companion matrix of x^n + low[n-1] x^(n-1) + .. + low[0]."""
    n = len(low)
    rows = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][n - 1] = -low[i]
    return IntMat.from_rows(rows)


def embedding_cases():
    """The planar classes, the rank-3 catalog, and cyclic groups of orders 5, 8, 10, 12 in GL(4, Z)."""
    yield from catalog_n2().entries
    yield from ingest_catalog((FIXTURES / "rank3_extensions.cat").read_text()).entries
    # Companions of Phi_5, Phi_8, Phi_10 and Phi_12.
    for name, low in (("C5", (1, 1, 1, 1)), ("C8", (1, 0, 0, 0)), ("C10", (1, -1, 1, -1)), ("C12", (1, 0, -1, 0))):
        yield name, MatrixGroup.from_generators(4, [companion(low)])


EMBEDDING_CASES = dict(embedding_cases())


class TestEmbedding:
    @pytest.mark.parametrize("name", EMBEDDING_CASES)
    def test_embedding_equals_multiplication_table_search(self, name):
        group = EMBEDDING_CASES[name]
        for parts in _symmetric_part_choices(group.dim):
            assert embed_symmetric_product(group, parts) == old_embed_symmetric_product(group, parts), parts


# ---------------------------------------------------------------------------
# Forced critical points


def signed_permutation(perm, signs):
    n = len(perm)
    return IntMat.from_rows([[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)])


def diagonal(*entries):
    return signed_permutation(range(len(entries)), entries)


FORCED_HEAVY_CASES = {
    "B3": MatrixGroup.from_generators(3, [diagonal(-1, 1, 1), signed_permutation((1, 0, 2), (1,) * 3), signed_permutation((1, 2, 0), (1,) * 3)]),
    "S4": MatrixGroup.from_generators(4, [signed_permutation((1, 0, 2, 3), (1,) * 4), signed_permutation((1, 2, 3, 0), (1,) * 4)]),
    "signs4": MatrixGroup.from_generators(4, [diagonal(*(-1 if i == j else 1 for i in range(4))) for j in range(4)]),
}


@st.composite
def unimodular_pairs(draw, n):
    """(u, u^-1) for a signed permutation followed by up to three elementary shears."""
    perm = draw(st.permutations(range(n)))
    u = signed_permutation(perm, draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    u_inv = u.transpose()
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        c = draw(st.sampled_from((1, -1)))
        shear = [[int(r == col) for col in range(n)] for r in range(n)]
        inverse = [row[:] for row in shear]
        shear[i][j], inverse[i][j] = c, -c
        u, u_inv = u @ IntMat.from_rows(shear), IntMat.from_rows(inverse) @ u_inv
    return u, u_inv


def block_sum(a, b):
    """The block-diagonal matrix diag(a, b)."""
    n, m = a.nrows, b.nrows
    return IntMat.from_rows([list(r) + [0] * m for r in a.rows] + [[0] * n + list(r) for r in b.rows])


# Groups whose small subgroups feed the stabiliser brute force.
SMALL_GROUP_AMBIENTS = [
    catalog_n2().group("4ft"),
    catalog_n2().group("6ft"),
    FORCED_HEAVY_CASES["B3"],
    MatrixGroup.from_generators(3, [block_sum(g, IntMat.identity(1)) for g in catalog_n2().group("6ft").generators()] + [-IntMat.identity(3)]),
    *(group for _, group in ingest_catalog((FIXTURES / "rank3_extensions.cat").read_text()).entries),
]


@st.composite
def small_groups(draw):
    """A subgroup of order at most 12 of an ambient group, under a unimodular conjugation."""
    ambient = draw(st.sampled_from(SMALL_GROUP_AMBIENTS))
    gens = draw(st.lists(st.sampled_from(ambient.elements), min_size=1, max_size=3))
    group = MatrixGroup.from_generators(ambient.dim, gens)
    if group.order > 12:
        group = MatrixGroup.from_generators(ambient.dim, gens[:1])
    return group.conjugate(*draw(unimodular_pairs(ambient.dim)))


def stabiliser_forced_points(group):
    """Points p of the (1/|G|)-grid whose stabiliser in G has no common fixed vector.

    Every forced point lies on this grid: H = Stab_G(p) has no fixed vector,
    so the sum of h^T over h in H is zero, and |H| p, hence |G| p, is integral.
    """
    n, order = group.dim, group.order
    ident = IntMat.identity(n)
    transposes = [g.transpose() for g in group.elements]
    no_fixed_vector = {}
    out = []
    for k in itertools.product(range(order), repeat=n):
        stab = tuple(i for i, t in enumerate(transposes) if all((a - b) % order == 0 for a, b in zip(t.apply(k), k)))
        if stab not in no_fixed_vector:
            rows = [[a - b for a, b in zip(r, e)] for i in stab for r, e in zip(group.elements[i].rows, ident.rows)]
            no_fixed_vector[stab] = rational_rank(rows) == n
        if no_fixed_vector[stab]:
            out.append(TorsionPoint.make(Fraction(x, order) for x in k))
    return tuple(sorted(out))


def assert_forced_equals_subset_enumeration(group, u_pair):
    conjugate = group.conjugate(*u_pair)
    assert forced_critical_points(conjugate).finite_points() == old_forced_critical_points(conjugate)


class TestForcedCriticalPoints:
    @pytest.mark.parametrize("name", EMBEDDING_CASES)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_lattice_search_equals_subset_enumeration(self, name, data):
        group = EMBEDDING_CASES[name]
        assert_forced_equals_subset_enumeration(group, data.draw(unimodular_pairs(group.dim)))

    @pytest.mark.parametrize("name", FORCED_HEAVY_CASES)
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_rank_three_and_four_groups_equal_subset_enumeration(self, name, data):
        group = FORCED_HEAVY_CASES[name]
        assert_forced_equals_subset_enumeration(group, data.draw(unimodular_pairs(group.dim)))

    @settings(max_examples=40, deadline=None)
    @given(small_groups())
    def test_forced_points_equal_stabiliser_brute_force(self, group):
        assert forced_critical_points(group).finite_points() == stabiliser_forced_points(group)
