"""Exact linear algebra over the rationals.

One eliminator, ``SparseEchelon``, does every elimination.  It works on
vectors stored as dicts keyed by sortable labels, and the pivot of a row
is its least key: a caller that wants another pivot, such as a leading
monomial, numbers its keys so that this one comes first (column
indices, or monomials by their place in a descending list).  It is the
workhorse behind the graded kernel computations.  It indexes each key
to the rows that hold it, so a new pivot reduces only those rows again.
The dense routines (``rref``, ``rank``, ``nullspace``, ``solve``,
``inverse``) take lists of rows, run them through the same eliminator
keyed by column index and read the result back out; ``nullspace`` and
``SolutionSpace`` (behind ``kernel_of_columns``) share that readout.  A
``SolutionSpace`` eliminates its whole system once, when it is built,
by descending least key, so a new pivot is seldom held by a stored
row, and its dimension needs the rank alone, not a basis.

The eliminator is fraction-free, in the spirit of Bareiss (1968).
Every stored row is a primitive integer vector whose pivot entry is
positive and serves as the row's scale.  A vector is first multiplied by
the lcm of its denominators; a reduction step by a row with pivot entry
``a`` then replaces the vector ``v`` by ``(a/g) v - (c/g) row``, where
``c`` is the entry of ``v`` at the pivot and ``g = gcd(a, c)``.  Each row
a new pivot changes has its content divided out, so the row set stays
canonical.  Rationals appear only on readout: ``SparseEchelon.row``, the
dense routines and ``kernel_of_columns`` divide by the pivot entry, and
a value is read out as an ``int`` when the pivot entry divides it and as
a ``Fraction`` otherwise.

A univariate polynomial has one form, a dense coefficient list ``cs``
with ``cs[i]`` the coefficient of t^i and a nonzero last entry:
``charpoly`` returns one, and ``poly_of_matrix``, ``derivative``,
``squarefree_part`` and ``rational_roots`` take one.  ``rational_roots``
has one mode, a search: the roots of the square-free part modulo a
small prime, lifted p-adically and checked by exact deflation, so no
coefficient is ever factored.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Sequence

from .poly import _q, _ratio

Vec = list[int | Fraction]
Mat = list[Vec]


class InternalCheckError(RuntimeError):
    """An internal consistency check failed: a bug, not a property of the
    input.  Raised explicitly, so the check also runs under ``python -O``."""


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def mat(rows: Iterable[Iterable]) -> Mat:
    return [[_q(x) for x in row] for row in rows]


def identity(n: int) -> Mat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zeros(n: int, m: int) -> Mat:
    return [[0] * m for _ in range(n)]


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
    return [sum(x * _q(y) for x, y in zip(row, v)) for row in a]


def trace(a: Mat) -> int | Fraction:
    return sum(a[i][i] for i in range(len(a)))


def mat_eq_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def rref(rows: Iterable[Iterable]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns),
    pivots ascending.  The rows are read out of ``SparseEchelon``."""
    rows = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    ech = _column_echelon(rows)
    pivots = sorted(ech.rows)
    return [[row.get(j, 0) for j in range(ncols)]
            for row in map(ech.row, pivots)], pivots


def rank(rows: Iterable[Iterable]) -> int:
    return len(_column_echelon(rows).rows)


def nullspace(rows: Iterable[Iterable], ncols: int) -> list[Vec]:
    """Canonical basis of {x : A x = 0}; one vector per free column."""
    return [[vec.get(j, 0) for j in range(ncols)]
            for vec in _free_columns(_column_echelon(rows), ncols)]


def solve(a: Mat, b: Sequence) -> Vec | None:
    """One solution of A x = b, or None if inconsistent."""
    if not a:
        return [] if all(_q(x) == 0 for x in b) else None
    ncols = len(a[0])
    ech = _column_echelon(list(row) + [bv] for row, bv in zip(a, b))
    if ncols in ech.rows:
        return None
    x = [0] * ncols
    for pc, row in ech.rows.items():
        x[pc] = _ratio(row.get(ncols, 0), row[pc])
    return x


def inverse(a: Mat) -> Mat:
    n = len(a)
    reduced, pivots = rref(list(row) + [int(i == j) for j in range(n)]
                           for i, row in enumerate(a))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


# ---------------------------------------------------------------------------
# univariate polynomials: a dense coefficient list cs, cs[i] the
# coefficient of t^i and cs[-1] != 0
# ---------------------------------------------------------------------------

def charpoly(a: Mat) -> Vec:
    """The coefficient list of det(tI - A), by Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [1]  # of t^n, t^{n-1}, ...
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = _ratio(-trace(m), k)
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs[::-1]


def poly_of_matrix(cs: Sequence, a: Mat) -> Mat:
    """Evaluate sum cs[i] t^i at a square matrix (Horner)."""
    n = len(a)
    out = zeros(n, n)
    for c in reversed(cs):
        out = mat_mul(out, a)
        for i in range(n):
            out[i][i] += c
    return out


def derivative(cs: Sequence) -> Vec:
    """d/dt of sum cs[i] t^i; a constant gives the empty list."""
    return [i * c for i, c in enumerate(cs)][1:]


def squarefree_part(cs: Sequence) -> Vec:
    """The monic square-free part cs / gcd(cs, cs') by Euclid's
    algorithm."""
    if not cs or cs[-1] == 0:
        raise ValueError("need a nonzero leading coefficient")
    a, b = cs, derivative(cs)
    while b:
        a, b = b, _divmod_dense(a, b)[1]
    part = _divmod_dense(cs, a)[0]
    return [_ratio(c, part[-1]) for c in part]


def _divmod_dense(a: list[Fraction], b: list[Fraction]
                  ) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of dense polynomials, b[-1] != 0; the
    remainder has no trailing zeros."""
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        q = quot[k] = _ratio(rem[k + len(b) - 1], b[-1])
        for i, c in enumerate(b):
            rem[k + i] -= q * c
    del rem[len(b) - 1:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def rational_roots(cs: Sequence) -> tuple[list[tuple[Fraction, int]], int]:
    """Rational roots with multiplicities of sum cs[i] t^i.

    Returns (roots, residual_degree) where residual_degree is the degree
    left over after all rational roots are divided out; a positive value
    means irrational or complex roots exist.  Roots come in ascending
    order.
    """
    if not cs or cs[-1] == 0:
        raise ValueError("need a nonzero leading coefficient")

    roots: list[tuple[Fraction, int]] = []
    cs, zero_mult = _deflate(cs, 0)
    if zero_mult:
        roots.append((0, zero_mult))

    if len(cs) > 1:
        for cand in _lifted_root_candidates(cs):
            cs, mult = _deflate(cs, cand)
            if mult:
                roots.append((cand, mult))

    residual_degree = len(cs) - 1
    roots.sort(key=lambda rm: rm[0])
    return roots, residual_degree


def _deflate(cs: list[Fraction], r: Fraction) -> tuple[list[Fraction], int]:
    """Divide sum cs[i] t^i by (t - r) as often as it divides, by
    synthetic division; returns (quotient, multiplicity)."""
    mult = 0
    while len(cs) > 1:
        quot = [0] * (len(cs) - 1)
        acc = cs[-1]
        for i in range(len(cs) - 2, -1, -1):
            quot[i] = acc
            acc = cs[i] + r * acc
        if acc != 0:
            break
        cs, mult = quot, mult + 1
    return cs, mult


def _lifted_root_candidates(coeffs: list[Fraction]) -> list[Fraction]:
    """A list holding every rational root of sum coeffs[i] t^i, and
    perhaps some non-roots, found without factoring a coefficient.

    Let c be the leading coefficient of the square-free part, cleared
    to integers.  A rational root r then has c*r integral and
    |c*r| <= bound.  The roots of that part modulo a prime l that leaves
    them simple lift by Newton's iteration to roots modulo l^k > 2*bound,
    and c*r is the symmetric residue of c times one of them.
    """
    part = squarefree_part(coeffs)
    cleared = _integral(dict(enumerate(part)))
    ints = [cleared.get(i, 0) for i in range(len(part))]
    deriv = derivative(ints)
    lead = ints[-1]
    bound = abs(lead) + max(abs(c) for c in ints)
    ell = 1
    while True:
        ell += 1
        if any(ell % q == 0 for q in range(2, ell)) or lead % ell == 0:
            continue
        residues = [x for x in range(ell) if _horner(ints, x, ell) == 0]
        if all(_horner(deriv, x, ell) for x in residues):
            break
    out = []
    for x in residues:
        mod = ell
        while mod <= 2 * bound:
            mod *= mod
            x = (x - _horner(ints, x, mod)
                 * pow(_horner(deriv, x, mod), -1, mod)) % mod
        s = lead * x % mod
        out.append(_ratio(s - mod if 2 * s > mod else s, lead))
    return sorted(out)


def _horner(cs: list[int], x: int, mod: int) -> int:
    """sum cs[i] x^i modulo mod."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % mod
    return acc


# ---------------------------------------------------------------------------
# sparse elimination over keyed vectors
# ---------------------------------------------------------------------------

def _integral(vec: dict) -> dict[Hashable, int]:
    """The nonzero entries of ``vec`` times the lcm of their denominators,
    as ``int`` values."""
    work: dict[Hashable, int | Fraction] = {}
    den = 1
    for k, v in vec.items():
        if v.__class__ is not int:
            v = _q(v)
            if v.__class__ is not int:
                den = lcm(den, v.denominator)
        if v:
            work[k] = v
    if den == 1:
        return work
    return {k: v * den if v.__class__ is int
            else v.numerator * (den // v.denominator)
            for k, v in work.items()}


class SparseEchelon:
    """Incremental reduced echelon form of sparse vectors.

    Vectors are dicts {key: value} with rational values and sortable
    keys; the pivot of a row is its least key.  Pivot rows are kept fully
    reduced against each other, so the final row set is canonical for
    the span, independent of insertion order.  ``holders`` maps each
    non-pivot key to the pivots of the rows that hold it, so a new pivot
    re-reduces only those rows.

    A stored row is fraction-free: a primitive integer vector (the gcd
    of its entries is 1) whose pivot entry is positive, the unique such
    multiple of the reduced row with a unit pivot.  ``row`` reads that
    reduced row out, each value an ``int`` when the pivot entry divides
    it and a ``Fraction`` otherwise.
    """

    def __init__(self):
        self.rows: dict[Hashable, dict[Hashable, int]] = {}
        self.holders: dict[Hashable, set] = {}

    def row(self, pivot: Hashable) -> dict[Hashable, int | Fraction]:
        """The row with this pivot, divided by its pivot entry."""
        row = self.rows[pivot]
        lead = row[pivot]
        return {k: _ratio(v, lead) for k, v in row.items()}

    def reduce(self, vec: dict) -> dict[Hashable, int]:
        """Fully reduce ``vec`` against the current pivot rows; the
        result is a nonzero integer multiple of the reduced vector, or
        empty when ``vec`` lies in the span."""
        work = _integral(vec)
        rows = self.rows
        # rows hold no pivot but their own, so one pass clears them all
        for k in [k for k in work if k in rows]:
            row = rows[k]
            a, c = row[k], work[k]
            g = gcd(a, c)
            a, c = a // g, c // g
            # work <- a * work - c * row, which cancels the entry at k
            if a != 1:
                for kk in work:
                    work[kk] *= a
            for kk, v in row.items():
                s = work.get(kk, 0) - c * v
                if s:
                    work[kk] = s
                else:
                    del work[kk]
        return work

    def add(self, vec: dict) -> Hashable | None:
        """Insert a vector; returns the pivot key of its new row, or None
        if the vector was already in the span.  The row is kept reduced
        against later pivots."""
        work = self.reduce(vec)
        if not work:
            return None
        p = min(work)
        content = gcd(*work.values())
        if work[p] < 0:
            content = -content
        row = work if content == 1 else {k: v // content
                                         for k, v in work.items()}
        lead = row[p]
        holders = self.holders
        # keep the rows that hold p reduced against the new pivot
        for q in holders.pop(p, ()):
            other = self.rows[q]
            g = gcd(lead, other[p])
            a, c = lead // g, other[p] // g
            # other <- a * other - c * row, then divided by its content;
            # a > 0, so the pivot entry of other stays positive
            if a != 1:
                for k in other:
                    other[k] *= a
            for k, v in row.items():
                s = other.get(k, 0) - c * v
                if s:
                    if k not in other:
                        holders.setdefault(k, set()).add(q)
                    other[k] = s
                else:
                    del other[k]
                    if k != p:
                        holders[k].discard(q)
            content = gcd(*other.values())
            if content != 1:
                for k in other:
                    other[k] //= content
        for k in row:
            if k != p:
                holders.setdefault(k, set()).add(p)
        self.rows[p] = row
        return p

    def extend(self, vectors: Iterable[dict]
               ) -> list[tuple[int, dict[Hashable, int | Fraction]]]:
        """Insert the vectors in turn; returns ``(place, row)`` for each
        one that enlarges the span: its place in ``vectors`` and its row
        as inserted, read with ``row`` right away, before a later pivot
        reduces it."""
        new = []
        for place, vec in enumerate(vectors):
            pivot = self.add(vec)
            if pivot is not None:
                new.append((place, self.row(pivot)))
        return new


def _column_echelon(rows: Iterable[Iterable]) -> SparseEchelon:
    """The echelon of a dense matrix's rows, keyed by column index."""
    ech = SparseEchelon()
    for row in rows:
        ech.add(dict(enumerate(row)))
    return ech


def _free_columns(ech: SparseEchelon, ncols: int) -> list[dict[int, Fraction]]:
    """The canonical kernel basis of an echelon over the columns
    ``0..ncols-1``, as ``kernel_of_columns`` describes it."""
    basis: list[dict[int, Fraction]] = []
    rows = ech.rows
    for fc in range(ncols):
        if fc in rows:
            continue
        vec = {pc: _ratio(-rows[pc][fc], rows[pc][pc])
               for pc in ech.holders.get(fc, ())}
        vec[fc] = 1
        basis.append(dict(sorted(vec.items())))
    return basis


class SolutionSpace:
    """The solutions c of the equations ``sum_j equation[j] * c_j = 0``
    in the unknowns ``0..ncols-1``, eliminated in full on construction.

    Each equation is a sparse row {unknown: value}, in any order: this
    is the one place that orders a system, by descending least key, so
    no stored row holds a new pivot unless two equations share their
    least key or one holds a zero there.  ``dim`` is the number of
    unknowns less the rank, so a caller that only needs the dimension
    never reads out a basis; ``basis`` reads out that of
    ``kernel_of_columns``, each value an ``int`` when it is integral and
    a ``Fraction`` otherwise.
    """

    def __init__(self, equations: Iterable[dict[int, int | Fraction]],
                 ncols: int):
        self.ncols = ncols
        self.echelon = SparseEchelon()
        for equation in sorted(filter(None, equations), key=min,
                               reverse=True):
            self.echelon.add(equation)
        self.dim = ncols - len(self.echelon.rows)

    def basis(self) -> list[dict[int, Fraction]]:
        return _free_columns(self.echelon, self.ncols)


def kernel_of_columns(images: Sequence[dict]) -> list[dict[int, Fraction]]:
    """Basis of {c : sum_j c_j * images[j] = 0} for sparse columns.

    Each basis vector is a sparse dict {column: coefficient} with its
    columns ascending.  The basis is canonical: one vector per free
    column, free columns in ascending index order, unit coefficient at
    the free column.  The equations, one per key, go in unsorted.
    """
    equations: dict[Hashable, dict[int, int | Fraction]] = {}
    for j, img in enumerate(images):
        for key, c in img.items():
            equations.setdefault(key, {})[j] = c
    return SolutionSpace(equations.values(), len(images)).basis()
