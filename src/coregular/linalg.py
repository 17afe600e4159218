"""Exact linear algebra over the rationals.

Dense routines work on lists of lists of ``Fraction``.  The sparse
eliminator operates on vectors stored as dicts keyed by arbitrary
sortable labels (monomials, column indices) and is the workhorse behind
the graded kernel computations.  It indexes each key to the rows that
hold it, so a system that splits into independent blocks (for instance
under a grading of the algebra) is solved block by block without the
caller naming the blocks.

Inside the eliminator a value is a Python ``int`` when it is integral
and a ``Fraction`` only while a denominator remains; most entries of the
graded systems are small integers, and ``int`` arithmetic is far cheaper.
Division by a pivot stays exact, and a quotient whose denominator is 1
becomes an ``int`` again.  Values leave the eliminator as ``Fraction``:
``SparseEchelon.row`` and ``add`` return them so, and so does
``kernel_of_columns``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .poly import Polynomial, _q, exact_div, poly_gcd

Vec = list[Fraction]
Mat = list[list[Fraction]]


class InternalCheckError(RuntimeError):
    """An internal consistency check failed: a bug, not a property of the
    input.  Raised explicitly, so the check also runs under ``python -O``."""


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def mat(rows: Iterable[Iterable]) -> Mat:
    return [[_q(x) for x in row] for row in rows]


def identity(n: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def zeros(n: int, m: int) -> Mat:
    return [[Fraction(0)] * m for _ in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j]:
                    oi[j] += c * bt[j]
    return out


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_vec(a: Mat, v: Sequence) -> Vec:
    return [sum((x * _q(y) for x, y in zip(row, v)), Fraction(0)) for row in a]


def trace(a: Mat) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def mat_eq_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def rref(rows: Iterable[Iterable]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [[_q(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Iterable[Iterable]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Iterable[Iterable], ncols: int) -> list[Vec]:
    """Canonical basis of {x : A x = 0}; one vector per free column."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Vec] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(a: Mat, b: Sequence) -> Vec | None:
    """One solution of A x = b, or None if inconsistent."""
    if not a:
        return [] if all(_q(x) == 0 for x in b) else None
    ncols = len(a[0])
    aug = [list(row) + [_q(bv)] for row, bv in zip(a, b)]
    reduced, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for row, pc in zip(reduced, pivots):
        if pc == ncols:
            return None
        x[pc] = row[ncols]
    return x


def inverse(a: Mat) -> Mat:
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials (univariate, as Polynomial in 1 var)
# ---------------------------------------------------------------------------

def charpoly(a: Mat) -> Polynomial:
    """Characteristic polynomial det(tI - A) by Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [Fraction(1)]  # of t^n, t^{n-1}, ...
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -trace(m) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            terms[(n - i,)] = c
    return Polynomial(1, terms)


def minimal_polynomial(a: Mat) -> Polynomial:
    """Monic minimal polynomial, by the first linear dependence of powers."""
    n = len(a)
    powers: list[Mat] = [identity(n)]
    vectors: list[Vec] = [[x for row in powers[0] for x in row]]
    cur = identity(n)
    for _ in range(n):
        cur = mat_mul(a, cur)
        powers.append(cur)
        vectors.append([x for row in cur for x in row])
        cols = len(vectors)
        system = [[vectors[j][i] for j in range(cols)]
                  for i in range(n * n)]
        ker = nullspace(system, cols)
        for v in ker:
            if v[cols - 1] != 0:
                scaled = [c / v[cols - 1] for c in v]
                terms = {(i,): c for i, c in enumerate(scaled) if c != 0}
                return Polynomial(1, terms)
    raise InternalCheckError(  # pragma: no cover
        "minimal polynomial not found")


def poly_of_matrix(p: Polynomial, a: Mat) -> Mat:
    """Evaluate a univariate polynomial at a square matrix (Horner)."""
    if p.nvars != 1:
        raise ValueError("need a univariate polynomial")
    n = len(a)
    deg = p.degree_in(0)
    coeffs = [Fraction(0)] * (deg + 1)
    for m, c in p.terms.items():
        coeffs[m[0]] = c
    out = zeros(n, n)
    for c in reversed(coeffs):
        out = mat_mul(out, a)
        for i in range(n):
            out[i][i] += c
    return out


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), monic, for univariate p."""
    d = p.partial_derivative(0)
    if d.is_zero:
        return p.monic()
    g = poly_gcd(p, d)
    return exact_div(p, g).monic()


def rational_roots(p: Polynomial, candidates: Iterable[Fraction] | None = None
                   ) -> tuple[list[tuple[Fraction, int]], int]:
    """Rational roots with multiplicities of a univariate polynomial.

    Returns (roots, residual_degree) where residual_degree is the degree
    left over after all rational roots are divided out; a positive value
    means irrational or complex roots exist.  Roots come in ascending
    order.

    ``candidates``, when given, must contain every root of ``p``: the
    polynomial is deflated only by them, in ascending order, and no
    divisor search runs.  A degree left over then means the set was not
    complete, which raises ``InternalCheckError``.
    """
    if p.nvars != 1 or p.is_zero:
        raise ValueError("need a nonzero univariate polynomial")
    deg = p.degree_in(0)
    coeffs = [Fraction(0)] * (deg + 1)
    for m, c in p.terms.items():
        coeffs[m[0]] = c

    roots: list[tuple[Fraction, int]] = []
    if candidates is not None:
        for cand in sorted(set(candidates)):
            coeffs, mult = _deflate(coeffs, cand)
            if mult:
                roots.append((cand, mult))
        if len(coeffs) > 1:
            raise InternalCheckError(
                "a root lies outside the complete candidate set")
        return roots, 0

    coeffs, zero_mult = _deflate(coeffs, Fraction(0))
    if zero_mult:
        roots.append((Fraction(0), zero_mult))

    while len(coeffs) > 1:
        denom_lcm = 1
        for c in coeffs:
            denom_lcm = denom_lcm * c.denominator // _gcd_int(denom_lcm, c.denominator)
        a0, an = int(coeffs[0] * denom_lcm), int(coeffs[-1] * denom_lcm)
        if a0 == 0:  # pragma: no cover
            raise InternalCheckError("zero constant term after deflation")
        qdens = sorted(_divisors(abs(an)))
        for cand in (Fraction(sign * pnum, qden)
                     for pnum in sorted(_divisors(abs(a0)))
                     for qden in qdens for sign in (1, -1)):
            quot, mult = _deflate(coeffs, cand)
            if mult:
                break
        else:
            break
        coeffs = quot
        roots.append((cand, mult))

    residual_degree = len(coeffs) - 1
    roots.sort(key=lambda rm: rm[0])
    return roots, residual_degree


def _deflate(cs: list[Fraction], r: Fraction) -> tuple[list[Fraction], int]:
    """Divide sum cs[i] t^i by (t - r) as often as it divides, by
    synthetic division; returns (quotient, multiplicity)."""
    mult = 0
    while len(cs) > 1:
        quot = [Fraction(0)] * (len(cs) - 1)
        acc = cs[-1]
        for i in range(len(cs) - 2, -1, -1):
            quot[i] = acc
            acc = cs[i] + r * acc
        if acc != 0:
            break
        cs, mult = quot, mult + 1
    return cs, mult


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a) if a else 1


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


# ---------------------------------------------------------------------------
# sparse elimination over keyed vectors
# ---------------------------------------------------------------------------

def _compact(x):
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if x.__class__ is int:
        return x
    x = _q(x)
    return x.numerator if x.denominator == 1 else x


def _quotient(a, b):
    """a / b exactly, compacted."""
    if a.__class__ is int and b.__class__ is int and not a % b:
        return a // b
    return _compact(Fraction(a, b))


class SparseEchelon:
    """Incremental reduced echelon form of sparse vectors.

    Vectors are dicts {key: value} with rational values.  ``choose_pivot``
    picks the pivot key of a nonzero vector (e.g. ``min`` for column
    indices, or largest-under-monomial-order for polynomials).  Pivot
    rows are kept fully reduced against each other, so the final row set
    is canonical for the span, independent of insertion order.
    ``holders`` maps each non-pivot key to the pivots of the rows that
    hold it, so a new pivot re-reduces only those rows.  The stored
    values are compact (``int`` when integral, see the module notes);
    ``row`` reads one out as ``Fraction`` values.
    """

    def __init__(self, choose_pivot: Callable[[Iterable[Hashable]], Hashable]):
        self.choose_pivot = choose_pivot
        self.rows: dict[Hashable, dict] = {}
        self.holders: dict[Hashable, set] = {}

    def row(self, pivot: Hashable) -> dict[Hashable, Fraction]:
        """A ``Fraction``-valued copy of the row with this pivot."""
        return {k: _q(v) for k, v in self.rows[pivot].items()}

    def reduce(self, vec: dict) -> dict:
        """Fully reduce ``vec`` against the current pivot rows; the
        result holds compact values."""
        work = {k: _compact(v) for k, v in vec.items() if v != 0}
        rows = self.rows
        # rows hold no pivot but their own, so one pass clears them all
        for k in [k for k in work if k in rows]:
            c = work[k]
            for kk, v in rows[k].items():
                s = work.get(kk, 0) - c * v
                if not s:
                    del work[kk]
                else:
                    work[kk] = s if s.__class__ is int else _compact(s)
        return work

    def add(self, vec: dict) -> dict | None:
        """Insert a vector; returns the new pivot row, reduced, with unit
        pivot coefficient and ``Fraction`` values, or None if the vector
        was already in the span.  The returned row is a copy: the echelon
        keeps its own reduced against later pivots."""
        work = self.reduce(vec)
        if not work:
            return None
        p = self.choose_pivot(work.keys())
        lead = work[p]
        row = work if lead == 1 else {k: _quotient(v, lead)
                                      for k, v in work.items()}
        holders = self.holders
        # keep the rows that hold p reduced against the new pivot
        for q in holders.pop(p, ()):
            other = self.rows[q]
            c = other[p]
            for k, v in row.items():
                s = other.get(k, 0) - c * v
                if s:
                    if k not in other:
                        holders.setdefault(k, set()).add(q)
                    other[k] = s if s.__class__ is int else _compact(s)
                else:
                    del other[k]
                    if k != p:
                        holders[k].discard(q)
        for k in row:
            if k != p:
                holders.setdefault(k, set()).add(p)
        self.rows[p] = row
        return self.row(p)


def kernel_of_columns(images: Sequence[dict]) -> list[dict[int, Fraction]]:
    """Basis of {c : sum_j c_j * images[j] = 0} for sparse columns.

    Each basis vector is a sparse dict {column: coefficient} with its
    columns ascending.  The basis is canonical: one vector per free
    column, free columns in ascending index order, unit coefficient at
    the free column.
    """
    equations: dict[Hashable, dict[int, int | Fraction]] = {}
    for j, img in enumerate(images):
        for key, c in img.items():
            if c != 0:
                equations.setdefault(key, {})[j] = _compact(c)
    ech = SparseEchelon(min)
    for key in sorted(equations):
        ech.add(equations.pop(key))
    basis: list[dict[int, Fraction]] = []
    for fc in range(len(images)):
        if fc in ech.rows:
            continue
        vec = {pc: _q(-ech.rows[pc][fc]) for pc in ech.holders.get(fc, ())}
        vec[fc] = Fraction(1)
        basis.append(dict(sorted(vec.items())))
    return basis
