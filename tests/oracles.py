"""Reference implementations that the library itself never calls.

The tests check the library against them: a dense Gauss-Jordan
eliminator beside the sparse one, rational roots by trial division
beside the p-adic lifting, the minimal polynomial of a matrix from the
first dependence among its powers, the centre as the nullspace of the
stacked ad(v_i), unimodularity by the traces of ad, the
matrix of ad(x) on a graded component, the bracket through a dense
vector per pair of basis vectors with the sign rule applied beside it,
the Jacobi check as a triple loop over that bracket, the common kernel
of ad(v) as one system of the whole degree and by successive
intersection, the canonical echelon basis of a span, the
weight of joint eigenvalues by a dense solve, the eigen split of the
graded search by characteristic polynomials and one nullspace per
root, the minimal generators as complements of the lower-degree
products by dense elimination, the leading monomials of the lower
generators' products reached degree by degree, a derivation as a sum
of partial derivatives, the derivation of a weight, the Poisson
bracket from the structure matrix, the substitution of polynomials for
variables, the anchor system read from the entries of the structure
matrix, the anchor-map kernel generators from the dense nullspace and
from the whole anchor system eliminated before any multiple is
ranked, the pivots of the anchor multiples listed off the generators'
leading terms, a spot check that the fundamental semi-invariant
divides the rank-size minors of the structure matrix, the generic rank
certified by a greedy Pfaffian search that always ends with a bordered
round finding no extension, Buchberger's
algorithm with each pair chosen by a ``min`` over all pairs,
recomputing the leading monomials, and the semi-invariant dimensions
of ``L(n)`` by the Cayley-Sylvester formula."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import gcd, isqrt
from typing import Iterable, Sequence

from coregular import invariants, linalg
from coregular.invariants import WeightVector
from coregular.kernel import _shift
from coregular.linalg import SparseEchelon, kernel_of_columns
from coregular.pfaffian import (DEFAULT_PROBE_SEED, PROBE_COUNT, PROBE_RANGE,
                                RankCertificate, pfaffian, rank_certificate)
from coregular.grobner import s_polynomial
from coregular.poly import (DEGREVLEX, MonomialOrder, Polynomial, divide,
                            monomial_degree, monomial_divides, monomial_lcm,
                            monomial_mul, monomials_of_degree, try_exact_div)

# ---------------------------------------------------------------------------
# dense Gauss-Jordan elimination
# ---------------------------------------------------------------------------


def rref(rows: Iterable[Iterable]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv if x else x for x in m[r]]
        # the entries a row operation changes: the pivot row's nonzeros
        support = [(j, y) for j, y in enumerate(m[r]) if y]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                row = m[i]
                for j, y in support:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Iterable[Iterable]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Iterable[Iterable], ncols: int) -> list[list[Fraction]]:
    """Canonical basis of {x : A x = 0}; one vector per free column."""
    reduced, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(a: Sequence[Sequence], b: Sequence) -> list[Fraction] | None:
    """One solution of A x = b (free unknowns zero), or None."""
    if not a:
        return [] if all(Fraction(x) == 0 for x in b) else None
    ncols = len(a[0])
    reduced, pivots = rref(list(row) + [bv] for row, bv in zip(a, b))
    x = [Fraction(0)] * ncols
    for row, pc in zip(reduced, pivots):
        if pc == ncols:
            return None
        x[pc] = row[ncols]
    return x


# ---------------------------------------------------------------------------
# rational roots by trial division, and minimal polynomials
# ---------------------------------------------------------------------------


def trial_division_roots(cs: Sequence
                         ) -> tuple[list[tuple[Fraction, int]], int]:
    """(roots with multiplicities, residual degree) of sum cs[i] t^i,
    trying every +-a/b with a dividing the constant term and b the
    leading coefficient; roots ascend."""
    coeffs = [Fraction(c) for c in cs]
    roots = []
    mult = 0
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs, mult = coeffs[1:], mult + 1
    if mult:
        roots.append((Fraction(0), mult))
    found = True
    while found and len(coeffs) > 1:
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        a0, an = int(coeffs[0] * den), int(coeffs[-1] * den)
        found = False
        for cand in (Fraction(sign * a, b) for a in _divisors(abs(a0))
                     for b in _divisors(abs(an)) for sign in (1, -1)):
            mult = 0
            while len(coeffs) > 1 and _value(coeffs, cand) == 0:
                coeffs, mult = _divide_linear(coeffs, cand), mult + 1
            if mult:
                roots.append((cand, mult))
                found = True
                break
    return sorted(roots), len(coeffs) - 1


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _value(cs: list[Fraction], r: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * r + c
    return acc


def _divide_linear(cs: list[Fraction], r: Fraction) -> list[Fraction]:
    """The quotient of sum cs[i] t^i by (t - r)."""
    quot = [Fraction(0)] * (len(cs) - 1)
    acc = cs[-1]
    for i in range(len(cs) - 2, -1, -1):
        quot[i] = acc
        acc = cs[i] + r * acc
    return quot


def minimal_polynomial(a: Sequence[Sequence]) -> list[Fraction]:
    """The monic minimal polynomial of a square matrix as a coefficient
    list, from the first linear dependence of its powers."""
    n = len(a)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    vectors = [[x for row in power for x in row]]
    while True:
        power = [[sum(Fraction(a[i][t]) * power[t][j] for t in range(n))
                  for j in range(n)] for i in range(n)]
        vectors.append([x for row in power for x in row])
        k = len(vectors)
        for v in nullspace([[vec[i] for vec in vectors]
                            for i in range(n * n)], k):
            if v[-1]:
                return [c / v[-1] for c in v]


# ---------------------------------------------------------------------------
# the adjoint action as matrices
# ---------------------------------------------------------------------------


def table_bracket_basis(g, i: int, j: int) -> list:
    """[v_i, v_j] as a coordinate vector, read from the i < j table of g
    with the sign rule applied here."""
    out = [0] * g.dim
    if i == j:
        return out
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    for k, c in g.brackets.get((i, j), {}).items():
        out[k] = sign * c
    return out


def dense_bracket(g, x: Sequence, y: Sequence) -> list:
    """The bilinear extension of the bracket, through a dense vector
    [v_i, v_j] for each pair of nonzero coordinates x_i, y_j."""
    n = g.dim
    out = [0] * n
    xv = [Fraction(a) for a in x]
    yv = [Fraction(a) for a in y]
    for i in range(n):
        if xv[i] == 0:
            continue
        for j in range(n):
            if yv[j] == 0:
                continue
            c = xv[i] * yv[j]
            for k, v in enumerate(table_bracket_basis(g, i, j)):
                if v:
                    out[k] += c * v
    return out


def jacobi_violation(g) -> tuple[tuple[int, int, int], list] | None:
    """The first triple i < j < k, 1-based, on which the table of g
    breaks the Jacobi identity, with the residual
    [vi,[vj,vk]] + [vj,[vk,vi]] + [vk,[vi,vj]], or None: the triple loop
    over ``dense_bracket``."""
    n = g.dim
    unit = [[int(t == i) for t in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r1 = dense_bracket(g, unit[i], table_bracket_basis(g, j, k))
                r2 = dense_bracket(g, unit[j], table_bracket_basis(g, k, i))
                r3 = dense_bracket(g, unit[k], table_bracket_basis(g, i, j))
                residual = [a + b + c for a, b, c in zip(r1, r2, r3)]
                if any(residual):
                    return (i + 1, j + 1, k + 1), residual
    return None


def ad_of_vector(g, x: Sequence) -> list[list[Fraction]]:
    """Matrix of ad(x) on g: column j = [x, v_j]."""
    n = g.dim
    cols = [dense_bracket(g, x, [1 if t == j else 0 for t in range(n)])
            for j in range(n)]
    return [[cols[j][k] for j in range(n)] for k in range(n)]


def center(g) -> list[list[Fraction]]:
    """A basis of Z(g): the x with [v_i, x] = ad(v_i) x = 0 for every i."""
    return nullspace([row for i in range(g.dim) for row in g.ad_matrix(i)],
                     g.dim)


def unimodular(g) -> bool:
    """Whether every ad(v_i) has trace zero."""
    return all(linalg.trace(g.ad_matrix(i)) == 0 for i in range(g.dim))


def ad_on_graded(g, x: Sequence, degree: int,
                 order: MonomialOrder = DEGREVLEX
                 ) -> tuple[list, list[list[Fraction]]]:
    """Matrix of ad(x) on the degree-``degree`` component.

    Returns (basis monomials descending under ``order``, matrix); column
    j holds the coordinates of ad(x) applied to monomial j.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    basis = monomials_of_degree(g.dim, degree, order)
    index = {m: t for t, m in enumerate(basis)}
    images = g.bracket_images(x)
    matrix = [[Fraction(0)] * len(basis) for _ in range(len(basis))]
    for j, m in enumerate(basis):
        img = derivation_by_partials(
            Polynomial._new(g.dim, {m: Fraction(1)}), images)
        for mm, c in img.terms.items():
            matrix[index[mm]][j] = c
    return basis, matrix


def _echelonize(polys: Sequence[Polynomial], nvars: int,
                order: MonomialOrder) -> list[Polynomial]:
    """Canonical reduced basis of the span, pivots = leading monomials:
    each monomial is keyed by its place among those of ``polys``,
    descending, so the least key is the leading monomial."""
    monos = sorted({m for p in polys for m in p.terms}, key=order.key,
                   reverse=True)
    place = {m: t for t, m in enumerate(monos)}
    ech = SparseEchelon()
    for p in polys:
        if not p.is_zero:
            ech.add({place[m]: c for m, c in p.terms.items()})
    return [Polynomial._new(nvars, {monos[t]: c
                                    for t, c in ech.row(p).items()})
            for p in sorted(ech.rows)]


def common_kernel_system(g, degree: int, vectors: Sequence[Sequence],
                         order: MonomialOrder = DEGREVLEX):
    """The degree-``degree`` polynomials that ad(v) kills for every v in
    ``vectors``, as one eliminated system of the whole degree, and its
    unknowns: the monomials ascending under ``order``."""
    monos = monomials_of_degree(g.dim, degree, order)[::-1]
    images = [g.bracket_images(v) for v in vectors]
    return monos, linalg.SolutionSpace(
        invariants._ad_equations(images, monos), len(monos))


def common_kernel(g, degree: int, vectors: Sequence[Sequence],
                  order: MonomialOrder = DEGREVLEX) -> list[Polynomial]:
    """Canonical echelon basis of the degree-``degree`` polynomials that
    ad(v) kills for every v in ``vectors``, from one system of the whole
    degree, with no weight classes."""
    monos, space = common_kernel_system(g, degree, vectors, order)
    return invariants._kernel_basis(g.dim, monos, space)


def kernel_intersection(g, degree: int, vectors: Sequence[Sequence],
                        order: MonomialOrder = DEGREVLEX) -> list[Polynomial]:
    """The degree-``degree`` polynomials killed by ad(v) for every v in
    ``vectors``, as ``common_kernel`` returns them, by
    successive intersection: one kernel of ad(v) on the space left by
    the vectors before it, each time brought back to its canonical
    echelon basis."""
    n = g.dim
    space = [Polynomial._new(n, {m: Fraction(1)})
             for m in monomials_of_degree(n, degree, order)]
    for v in vectors:
        if not space:
            break
        ad_v = g.bracket_images(v)
        images = [derivation_by_partials(f, ad_v) for f in space]
        if all(img.is_zero for img in images):
            continue
        combined = []
        for coeffs in kernel_of_columns([img.terms for img in images]):
            acc = Polynomial.zero(n)
            for j, c in coeffs.items():
                acc = acc + space[j] * c
            combined.append(acc)
        space = _echelonize(combined, n, order)
    return space


# ---------------------------------------------------------------------------
# semi-invariants, relations and the fundamental semi-invariant
# ---------------------------------------------------------------------------


def weight_from_eigenvalues(g, complement: Sequence[int],
                            eigenvalues: Sequence[Fraction]) -> WeightVector:
    """The functional vanishing on [g,g] with the given values on the
    complement coordinates, as the solution of one dense system."""
    rows = [list(b) for b in g.derived_subalgebra()]
    rhs = [Fraction(0)] * len(rows)
    for idx, lam in zip(complement, eigenvalues):
        rows.append([Fraction(int(t == idx)) for t in range(g.dim)])
        rhs.append(Fraction(lam))
    sol = linalg.solve(rows, rhs)
    assert sol is not None, "no weight takes the joint eigenvalues"
    return WeightVector.of(sol)


def eigen_blocks(g, degree: int, order: MonomialOrder = DEGREVLEX):
    """The blocks and irrational flag of
    ``invariants.graded_semi_invariants`` by the eigen loop it replaced:
    for every restricted matrix its characteristic polynomial, the
    rational roots of that (each required to be one of the sums of
    ``degree`` eigenvalues on g when that spectrum is rational, with no
    degree left over), and one dense nullspace per root."""
    n = g.dim
    derived = g.derived_subalgebra()
    pivots = [next(i for i, x in enumerate(b) if x) for b in derived]
    if invariants.structural_no_proper_reason(g):
        vectors = [[int(t == i) for t in range(n)] for i in range(n)]
        complement = []
    else:
        vectors = derived
        complement = [i for i in range(n) if i not in pivots]
    space = common_kernel(g, degree, vectors, order)
    blocks = [((), space)] if space else []
    flag = False
    for idx in complement:
        v = [int(t == idx) for t in range(n)]
        spectrum, residual = linalg.rational_roots(
            linalg.charpoly(g.ad_matrix(idx)))
        candidates = None if residual else {
            sum(combo, Fraction(0)) for combo in combinations_with_replacement(
                [r for r, _ in spectrum], degree)}
        split = []
        for eigs, sub in blocks:
            ascending = sub[::-1]
            m = invariants._restricted_matrix(g, v, ascending, order)
            roots, residual = linalg.rational_roots(linalg.charpoly(m))
            if candidates is not None:
                assert not residual and all(lam in candidates
                                            for lam, _ in roots), \
                    "an eigenvalue lies outside the candidate set"
            flag = flag or residual > 0
            for lam, _ in roots:
                shifted = [row[:] for row in m]
                for t in range(len(m)):
                    shifted[t][t] -= lam
                eig = nullspace(shifted, len(m))
                if eig:
                    split.append((eigs + (lam,), [
                        invariants._combine(enumerate(coords), ascending, n)
                        for coords in reversed(eig)]))
        blocks = split
    out = [(invariants._weight(g, complement, pivots, eigs), tuple(sub))
           for eigs, sub in blocks]
    out.sort(key=lambda bw: (not bw[0].is_zero, bw[0].values))
    return tuple(out), flag


def generator_complements(g, bound: int, order: MonomialOrder,
                          invariant: bool = False) -> list[tuple]:
    """The semi-invariant generators of ``invariants.minimal_generators``
    (the invariant ones when ``invariant``) as (polynomial, weight,
    degree) triples, by dense Gauss-Jordan elimination.  In each degree
    and weight block of the graded search the columns are the degree's
    monomials, descending under ``order``, and the rows the products of
    the generators of lower degree that have the block's weight; the
    block's basis polynomials are appended one at a time, and each one
    that raises the rank gives the row of the reduced echelon form at
    its new pivot column."""
    n = g.dim
    found: list[tuple] = []
    for d in range(1, bound + 1):
        monos = monomials_of_degree(n, d, order)
        products = []
        for size in range(1, d + 1):
            for combo in combinations_with_replacement(found, size):
                if sum(deg for _, _, deg in combo) == d:
                    prod = Polynomial.one(n)
                    for f, _, _ in combo:
                        prod = prod * f
                    weight = tuple(sum(vs) for vs in
                                   zip(*(w.values for _, w, _ in combo)))
                    products.append((prod, weight))
        new = []
        for w, basis in invariants.graded_semi_invariants(g, d, order).blocks:
            if invariant and not w.is_zero:
                continue
            rows = [[f.terms.get(m, 0) for m in monos]
                    for f, weight in products if weight == w.values]
            pivots = rref(rows)[1]
            for f in basis:
                rows.append([f.terms.get(m, 0) for m in monos])
                reduced, grown = rref(rows)
                if len(grown) > len(pivots):
                    (col,) = set(grown) - set(pivots)
                    row = reduced[grown.index(col)]
                    new.append((Polynomial._new(n, {
                        monos[t]: c for t, c in enumerate(row) if c}), w, d))
                pivots = grown
        found += new
    return found


def leading_products(gens, degree: int, nvars: int,
                     order: MonomialOrder) -> set[int]:
    """The codes (see ``invariants._classes``) of the distinct leading
    monomials of the degree-``degree`` products of the semi-invariants
    ``gens``, with no product built: a monomial order is multiplicative,
    so each is the product of its factors' leading monomials, and its
    code the sum of theirs.  They are reached degree by degree, one
    generator at a time, each degree's set kept free of repeats."""
    powers = [(degree + 1) ** v for v in range(nvars)]
    reach: list[set[int]] = [set() for _ in range(degree + 1)]
    reach[0].add(0)
    for s in gens:
        lead = sum(e * p for e, p in zip(s.poly.leading_monomial(order),
                                         powers))
        for t in range(s.degree, degree + 1):
            reach[t].update([c + lead for c in reach[t - s.degree]])
    return reach[degree]


def weight_derivation(f: Polynomial, w) -> Polynomial:
    """The constant-coefficient derivation sum_i w_i d/dv_i applied to f."""
    out = Polynomial.zero(f.nvars)
    for i, c in enumerate(w.values):
        if c:
            out = out + f.partial_derivative(i) * c
    return out


def derivation_by_partials(f: Polynomial, images) -> Polynomial:
    """sum_i images[i] * df/dx_i for linear images {k: c}, each made a
    degree-one polynomial, one partial derivative and one product at a
    time; ``poly.apply_derivation`` computes the same sum term by term."""
    n = f.nvars
    out = Polynomial.zero(n)
    for i, image in enumerate(images):
        img = sum((c * Polynomial.variable(n, k) for k, c in image.items()),
                  Polynomial.zero(n))
        if img.is_zero:
            continue
        d = f.partial_derivative(i)
        if not d.is_zero:
            out = out + img * d
    return out


def poisson_bracket(a: Polynomial, b: Polynomial, g) -> Polynomial:
    """Kostant-Kirillov bracket from the structure matrix:
    {a, b} = sum_{i<j} (a_i b_j - a_j b_i) [v_i, v_j], subscripts
    denoting partial derivatives."""
    n = g.dim
    da = [a.partial_derivative(i) for i in range(n)]
    db = [b.partial_derivative(i) for i in range(n)]
    matrix = g.structure_matrix()
    out = Polynomial.zero(n)
    for i in range(n):
        for j in range(i + 1, n):
            entry = matrix[i, j]
            if entry.is_zero:
                continue
            coeff = da[i] * db[j] - da[j] * db[i]
            if not coeff.is_zero:
                out = out + coeff * entry
    return out


def compose(p: Polynomial, values: Sequence[Polynomial]) -> Polynomial:
    """Substitute values[i] for variable i of p; values share one ring."""
    if len(values) != p.nvars:
        raise ValueError("need one substitution value per variable")
    if not values:
        raise ValueError("composition needs at least one variable")
    total = Polynomial.zero(values[0].nvars)
    for m, c in p.terms.items():
        term = Polynomial.constant(values[0].nvars, c)
        for v, e in zip(values, m):
            if e:
                term = term * v ** e
        total = total + term
    return total


def substitute_generators(rel, gens) -> Polynomial:
    """A relation with the generators substituted for its symbols."""
    return compose(rel.poly, [s.poly for s in gens.generators])


def poly_det(m: list[list[Polynomial]]) -> Polynomial:
    """Determinant by Laplace expansion along the rows, memoized on the
    remaining columns."""
    n = len(m)
    nvars = m[0][0].nvars
    memo: dict = {}

    def rec(cols: tuple[int, ...]) -> Polynomial:
        row = n - len(cols)
        if not cols:
            return Polynomial.one(nvars)
        if cols not in memo:
            total = Polynomial.zero(nvars)
            for t, c in enumerate(cols):
                entry = m[row][c]
                if not entry.is_zero:
                    sign = 1 if t % 2 == 0 else -1
                    total = total + sign * (entry * rec(cols[:t] + cols[t + 1:]))
            memo[cols] = total
        return memo[cols]

    return rec(tuple(range(n)))


def bordered_rank_certificate(b, seed: int = DEFAULT_PROBE_SEED
                              ) -> RankCertificate:
    """The generic rank of a skew polynomial matrix with no upper bound
    known in advance: rank the matrix at the seeded probe points, then
    grow the witness rows by the first pair in ``combinations`` order
    whose principal Pfaffian is nonzero, until a whole bordered round
    finds none."""
    rng = random.Random(seed)
    probe_ranks = []
    for _ in range(PROBE_COUNT):
        point = [rng.randint(-PROBE_RANGE, PROBE_RANGE) for _ in range(b.size)]
        probe_ranks.append(rank([[b[i, j].evaluate(point)
                                  for j in range(b.size)]
                                 for i in range(b.size)]))
    memo: dict = {}
    current: tuple[int, ...] = ()
    while True:
        grown = None
        for a, c in combinations([i for i in range(b.size)
                                  if i not in current], 2):
            candidate = tuple(sorted(current + (a, c)))
            if not pfaffian(b, candidate, memo).is_zero:
                grown = candidate
                break
        if grown is None:
            return RankCertificate(len(current), current,
                                   pfaffian(b, current, memo), seed,
                                   tuple(probe_ranks))
        current = grown


def verify_divides_minors(g, fsi, samples: int = 5,
                          seed: int = DEFAULT_PROBE_SEED) -> bool:
    """Spot-check that the fundamental semi-invariant divides rank-size
    minors of the structure matrix (general minors, not just principal)."""
    b = g.structure_matrix()
    r = rank_certificate(g, seed).rank
    if r == 0:
        return True
    rng = random.Random(seed + 1)
    all_rows = list(combinations(range(g.dim), r))
    for _ in range(samples):
        rows = rng.choice(all_rows)
        cols = rng.choice(all_rows)
        minor = poly_det([[b[i, j] for j in cols] for i in rows])
        if not minor.is_zero and try_exact_div(minor, fsi.value) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# the anchor-map kernel from the dense nullspace
# ---------------------------------------------------------------------------


def anchor_kernel_generators(g, degree_bound: int,
                             order: MonomialOrder = DEGREVLEX
                             ) -> list[tuple[int, tuple[Polynomial, ...]]]:
    """(degree, components) of the minimal generators of ker rho, as
    ``kernel.kernel_of_rho`` defines them.

    Degree by degree: the dense nullspace of the ``kernel._shift``
    columns, then each kernel vector in turn reduced against the reduced
    echelon form of the lower-degree multiples and the vectors kept
    before it.  The unknowns (i, m) run through i, then m descending, so
    a vector's pivot is its first nonzero entry; a nonzero remainder,
    scaled to pivot 1, is a new generator, and the new generators of a
    degree come in pivot order.
    """
    n = g.dim
    b = g.structure_matrix()
    found: list[tuple[int, tuple[Polynomial, ...]]] = []
    for d in range(degree_bound + 1):
        monos = monomials_of_degree(n, d, order)
        rank = {m: t for t, m in enumerate(monos)}
        images = {m: t for t, m in
                  enumerate(monomials_of_degree(n, d + 1, order))}
        size = n * len(monos)

        def dense(vec: dict) -> list[Fraction]:
            out = [Fraction(0)] * size
            for t, c in vec.items():
                out[t] = c
            return out

        # the column of unknown (i, m) is m times row i of B
        columns = [_shift(b.entries[i], m, images)
                   for i in range(n) for m in monos]
        keys = sorted({k for col in columns for k in col})
        solutions = nullspace([[col.get(k, 0) for col in columns]
                               for k in keys], size)
        span = [dense(_shift(comps, m, rank))
                for deg, comps in found
                for m in monomials_of_degree(n, d - deg, order)]
        new = []
        reduced, pivots = rref(span)
        for sol in solutions:
            rest = list(sol)
            for row, pc in zip(reduced, pivots):
                if rest[pc]:
                    c = rest[pc]
                    rest = [x - c * y for x, y in zip(rest, row)]
            lead = next((x for x in rest if x), None)
            if lead is not None:
                new.append([x / lead for x in rest])
                span.append(sol)
                reduced, pivots = rref(span)
        new.sort(key=lambda vec: next(t for t, x in enumerate(vec) if x))
        for vec in new:
            comps = [{} for _ in range(n)]
            for t, c in enumerate(vec):
                if c:
                    comps[t // len(monos)][monos[t % len(monos)]] = c
            found.append((d, tuple(Polynomial(n, c) for c in comps)))
    return found


def anchor_equations_from_matrix(b, monos: Sequence):
    """The degree's anchor system sum_i A_i B[i][j] = 0 as sparse rows,
    one per key (j, monomial), as ``kernel._anchor_equations`` yields
    them, read from the entries of the structure matrix ``b``: the unit
    exponent of each term of B[i][j] names the v_k it raises."""
    nm = len(monos)
    raised = [[m[:k] + (m[k] + 1,) + m[k + 1:] for m in monos]
              for k in range(b.size)]
    for j in range(b.size):
        rows: dict = {}
        for i, row in enumerate(b.entries):
            for mm, c in row[j].terms.items():
                for t, mono in enumerate(raised[mm.index(1)], i * nm):
                    rows.setdefault(mono, {})[t] = c
        yield from rows.values()


def anchor_kernel_fully_eliminated(g, degree_bound: int,
                                   order: MonomialOrder = DEGREVLEX
                                   ) -> list[tuple[int, tuple[Polynomial, ...]]]:
    """(degree, components) of the minimal generators of ker rho, as
    ``kernel.kernel_of_rho`` defines them, with no certificate: each
    degree's anchor system is eliminated in full, then the multiples of
    the lower-degree generators are ranked, none skipped, until they
    span the kernel or run out, and the kernel basis is reduced against
    them.  A remainder is a new generator, read out with a unit pivot;
    they come in pivot order."""
    n = g.dim
    b = g.structure_matrix()
    found: list[tuple[int, tuple[Polynomial, ...]]] = []
    for d in range(degree_bound + 1):
        monos = monomials_of_degree(n, d, order)
        nm = len(monos)
        space = linalg.SolutionSpace(anchor_equations_from_matrix(b, monos),
                                     n * nm)
        if not space.dim:
            continue
        rank = {m: t for t, m in enumerate(monos)}
        lower = SparseEchelon()
        for deg, comps in found:
            for m in monomials_of_degree(n, d - deg, order):
                if len(lower.rows) < space.dim:
                    lower.add(_shift(comps, m, rank))
        new = [lower.row(p) for p in map(lower.add, space.basis())
               if p is not None]
        for row in sorted(new, key=min):
            comps = [{} for _ in range(n)]
            for t, c in row.items():
                comps[t // nm][monos[t % nm]] = c
            found.append((d, tuple(Polynomial._new(n, c) for c in comps)))
    return found


def multiple_pivots(generators, d: int, n: int, rank: dict,
                    order: MonomialOrder) -> set[int]:
    """The pivots of the degree-d multiples m w of the anchor-kernel
    ``generators``, keyed as ``kernel._shift`` keys them, with no
    multiple built: that of m lm(w_i) in A_i for the first nonzero w_i,
    since a monomial order is multiplicative."""
    pivots = set()
    for gen in generators:
        i, comp = next((i, comp) for i, comp in enumerate(gen.components)
                       if not comp.is_zero)
        lead = comp.leading_monomial(order)
        pivots.update(i * len(rank) + rank[monomial_mul(m, lead)] for m in
                      monomials_of_degree(n, d - gen.degree, order))
    return pivots


# ---------------------------------------------------------------------------
# Buchberger's algorithm with the pair chosen by min
# ---------------------------------------------------------------------------


def buchberger_by_min(generators: Sequence[Polynomial],
                      order: MonomialOrder = DEGREVLEX
                      ) -> tuple[tuple[Polynomial, ...], int]:
    """(reduced Groebner basis, number of S-polynomial reductions), by
    sugar-degree selection where each step takes the pair of least
    (sugar, order key of the lcm of the leading monomials, (i, j)) by a
    ``min`` over the pairs left; no budget."""
    basis: list[Polynomial] = []
    sugar: list[int] = []
    pairs: dict[tuple[int, int], int] = {}

    def lcm_of(i: int, j: int):
        return monomial_lcm(basis[i].leading_monomial(order),
                            basis[j].leading_monomial(order))

    def add_element(f: Polynomial, s: int):
        basis.append(f)
        sugar.append(s)
        j = len(basis) - 1
        lj = f.leading_monomial(order)
        for i in range(j):
            li = basis[i].leading_monomial(order)
            lcm = lcm_of(i, j)
            if lcm == monomial_mul(li, lj):
                continue
            pairs[(i, j)] = max(
                sugar[i] + monomial_degree(lcm) - monomial_degree(li),
                sugar[j] + monomial_degree(lcm) - monomial_degree(lj))

    for g in generators:
        if not g.is_zero:
            add_element(g.monic(order), g.total_degree())
    reductions = 0
    while pairs:
        i, j = min(pairs, key=lambda p: (pairs[p], order.key(lcm_of(*p)), p))
        s = pairs.pop((i, j))
        reductions += 1
        r = divide(s_polynomial(basis[i], basis[j], order), basis, order)[1]
        if not r.is_zero:
            add_element(r.monic(order), max(s, r.total_degree()))

    lead = [g.leading_monomial(order) for g in basis]
    minimal = [g for i, g in enumerate(basis) if not any(
        j != i and monomial_divides(lead[j], lead[i])
        and (lead[j] != lead[i] or j < i) for j in range(len(basis)))]
    reduced = []
    for idx, g in enumerate(minimal):
        r = divide(g, minimal[:idx] + minimal[idx + 1:], order)[1]
        if not r.is_zero:
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return tuple(reduced), reductions


# ---------------------------------------------------------------------------
# semi-invariant dimensions of L(n) by Cayley-Sylvester
# ---------------------------------------------------------------------------

def filiform_semicenter_dims(n: int, bound: int) -> tuple[int, ...]:
    """The dimensions of L(n)'s semi-invariant spaces of degrees 1..bound,
    from the Cayley-Sylvester formula.

    L(n) is nilpotent, so its semi-invariants are its invariants.  It is
    v1 acting on the abelian ideal V = <v2..vn> by one nilpotent Jordan
    block e.  A polynomial that V brackets to zero has no v1 in it, since
    {v_i, f} is -df/dv1 [v1, v_i]; so the invariants are S(V)^e.  Take
    V to be the irreducible sl2-module of highest weight n - 2 with e
    its raising operator: the degree-d invariants are the highest weight
    vectors of S^d(V), one per irreducible summand, as many as the
    vectors of the middle weight.  That weight space of S^d(V) counts
    the partitions of floor(d (n - 2) / 2) into at most d parts, each at
    most n - 2."""
    top = n - 2

    @cache
    def partitions(total: int, parts: int, largest: int) -> int:
        # the largest part is below ``largest``, or one part equals it
        if total == 0:
            return 1
        if parts == 0 or largest == 0:
            return 0
        return partitions(total, parts, largest - 1) + (
            partitions(total - largest, parts - 1, largest)
            if total >= largest else 0)

    return tuple(partitions(d * top // 2, d, top)
                 for d in range(1, bound + 1))
