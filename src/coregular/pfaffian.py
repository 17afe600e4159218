"""Certified generic rank of the structure matrix, Pfaffians, index,
the fundamental semi-invariant and the non-regular locus.

The rank certificate is exact.  It is bounded on both sides before any
Pfaffian is expanded: below by the rank at seeded integer probe points,
above by the term rank of B (the most nonzero entries with no two in a
row or a column), rounded down to even.  A t x t minor with t above the
term rank is a sum of products that each hold a zero entry, Pf^2 = det,
and a skew matrix has even rank.  A nonzero principal Pfaffian
witnesses rank >= r; where r meets both bounds it is the rank.  Where
the bounds stay apart, identical vanishing of every bordered Pfaffian
Pf(I + {a,b}) certifies rank <= r, because for a skew matrix the
determinant of such a bordered principal block equals det(B_I) times
the square of a Schur-complement entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from . import linalg
from .grobner import (GroebnerBasis, Ideal, buchberger, check_ring_dim,
                      krull_dimension)
from .lie import LieAlgebra, SkewPolyMatrix
from .linalg import InternalCheckError
from .poly import DEGREVLEX, MonomialOrder, Polynomial, poly_gcd

DEFAULT_PROBE_SEED = 20_240_601
PROBE_COUNT = 5
PROBE_RANGE = 7


def pfaffian(b: SkewPolyMatrix, rows, memo: dict | None = None) -> Polynomial:
    """Pfaffian of the principal submatrix on ``rows`` (even cardinality),
    by recursive expansion along the first index."""
    rows = tuple(sorted(rows))
    if len(rows) % 2:
        raise ValueError("Pfaffian needs an even index set")
    if memo is None:
        memo = {}

    def rec(idx: tuple[int, ...]) -> Polynomial:
        if not idx:
            return Polynomial.one(b.size)
        cached = memo.get(idx)
        if cached is not None:
            return cached
        first = idx[0]
        rest = idx[1:]
        total = Polynomial.zero(b.size)
        for t, other in enumerate(rest):
            entry = b[first, other]
            if entry.is_zero:
                continue
            sub = rest[:t] + rest[t + 1:]
            sign = 1 if t % 2 == 0 else -1
            total = total + sign * (entry * rec(sub))
        memo[idx] = total
        return total

    return rec(rows)


@dataclass(frozen=True)
class RankCertificate:
    """Exact generic rank of a skew polynomial matrix with its witnesses."""

    rank: int
    witness_rows: tuple[int, ...]
    witness_pfaffian: Polynomial
    probe_seed: int
    probe_ranks: tuple[int, ...]


def term_rank(b: SkewPolyMatrix) -> int:
    """The largest number of nonzero entries of B with no two in one row
    or one column: a maximum matching of rows to columns, grown by
    augmenting paths."""
    support = [[j for j in range(b.size) if not b[i, j].is_zero]
               for i in range(b.size)]
    owner = [-1] * b.size  # the row matched to each column

    def augment(i: int, seen: set) -> bool:
        for j in support[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(b.size))


@cache
def _probe_points(seed: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The PROBE_COUNT seeded integer points of an n-variable probe."""
    rng = random.Random(seed)
    return tuple(tuple(rng.randint(-PROBE_RANGE, PROBE_RANGE)
                       for _ in range(n)) for _ in range(PROBE_COUNT))


def certified_rank(b: SkewPolyMatrix, seed: int = DEFAULT_PROBE_SEED) -> RankCertificate:
    """Generic rank over the fraction field, certified symbolically.

    The rank lies between two bounds computed before any expansion.
    Below: the exact rank of B at seeded small-integer probe points.
    Above: the term rank of B rounded down to even, since every t x t
    minor with t above the term rank is a sum of products that each hold
    a zero entry, Pf^2 = det, and the rank of a skew matrix is even.
    The greedy search grows the witness rows by the first pair whose
    principal Pfaffian is nonzero, and stops once their count meets both
    bounds; only where the bounds stay apart does it finish with the
    bordered round, which then finds no extension.  The returned rank
    does not depend on probe luck, and a rank outside the two bounds
    raises InternalCheckError.
    """
    n = b.size
    probe_ranks = []
    for point in _probe_points(seed, n):
        probe_ranks.append(linalg.rank(
            row for row in b.evaluate(point) if any(row)))
    lower, upper = max(probe_ranks, default=0), term_rank(b) // 2 * 2

    memo: dict = {}
    current: tuple[int, ...] = ()
    while not len(current) == lower == upper:
        grown = None
        for a, c in combinations([i for i in range(n) if i not in current], 2):
            candidate = tuple(sorted(current + (a, c)))
            if not pfaffian(b, candidate, memo).is_zero:
                grown = candidate
                break
        if grown is None:
            break
        current = grown
    if not lower <= len(current) <= upper:
        raise InternalCheckError(
            "the certified rank lies outside its probe and term-rank bounds")
    return RankCertificate(rank=len(current), witness_rows=current,
                           witness_pfaffian=pfaffian(b, current, memo),
                           probe_seed=seed, probe_ranks=tuple(probe_ranks))


def rank_certificate(g: LieAlgebra, seed: int = DEFAULT_PROBE_SEED
                     ) -> RankCertificate:
    """The certified rank of g's structure matrix, computed once per
    algebra and probe seed.  The seed picks only the probe points, so
    every exact answer below reads the certificate of the default seed."""
    return g.cached(("rank", seed),
                    lambda: certified_rank(g.structure_matrix(), seed))


def index(g: LieAlgebra) -> int:
    """dim g minus the generic rank of the structure matrix."""
    return g.dim - rank_certificate(g).rank


def c_value(g: LieAlgebra) -> int:
    """(dim + index)/2; an integer because the rank is even."""
    two_c = g.dim + index(g)
    if two_c % 2:
        raise InternalCheckError("skew rank must be even")
    return two_c // 2


def principal_pfaffians(g: LieAlgebra) -> tuple[Polynomial, ...]:
    """Every principal Pfaffian of the certified rank size, in the order
    of their row sets; expanded once per algebra, for the fundamental
    semi-invariant and the Pfaffian ideal."""
    def expand() -> tuple[Polynomial, ...]:
        b = g.structure_matrix()
        memo: dict = {}
        return tuple(pfaffian(b, rows, memo) for rows in combinations(
            range(g.dim), rank_certificate(g).rank))
    return g.cached("pfaffians", expand)


@dataclass(frozen=True)
class FundamentalSemiInvariant:
    """Monic gcd g of the principal rank-size Pfaffians, its square f,
    and the degree d of f (zero for abelian algebras by convention)."""

    pfaffian_gcd: Polynomial
    value: Polynomial
    degree: int


def fundamental_semi_invariant(g: LieAlgebra,
                               order: MonomialOrder = DEGREVLEX
                               ) -> FundamentalSemiInvariant:
    one = Polynomial.one(g.dim)
    if rank_certificate(g).rank == 0:
        return FundamentalSemiInvariant(one, one, 0)
    gcd: Polynomial | None = None
    for pf in principal_pfaffians(g):
        if pf.is_zero:
            continue
        gcd = pf if gcd is None else poly_gcd(gcd, pf, order)
        if gcd.is_constant:
            break
    if gcd is None:
        raise InternalCheckError("every principal rank-size Pfaffian vanishes")
    gcd = gcd.monic(order)
    value = gcd * gcd
    deg = 0 if value.is_constant else value.total_degree()
    return FundamentalSemiInvariant(gcd, value, deg)


def pfaffian_ideal(g: LieAlgebra) -> Ideal:
    """Ideal of all principal rank-size Pfaffians; its zero set is the
    non-regular locus."""
    return Ideal.of(g.dim, principal_pfaffians(g))


def singular_locus_codim(g: LieAlgebra) -> int | None:
    """Codimension of the non-regular locus in the dual space.

    Returns None when the locus is empty (abelian algebras: every point
    is regular).  May raise BudgetExceededError from the Groebner run,
    or from its ring dimension cap.  Every monomial order gives the same
    Krull dimension; DEGREVLEX serves.  When every principal Pfaffian is
    a single term, no Buchberger run is needed: the S-polynomial of two
    monic monomials vanishes, so the monomials are already a Groebner
    basis (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
    ch. 2, sec. 6).
    """
    if g.is_abelian:
        return None
    ideal = pfaffian_ideal(g)
    if all(len(pf.terms) == 1 for pf in ideal.generators):
        check_ring_dim(ideal.nvars)
        basis = GroebnerBasis(ideal.nvars, DEGREVLEX, tuple(
            pf.monic(DEGREVLEX) for pf in ideal.generators))
    else:
        basis = buchberger(ideal, DEGREVLEX)
    dim = krull_dimension(basis)
    if dim is None:
        return None
    return g.dim - dim
