"""Certified generic rank of the structure matrix, Pfaffians, index,
the fundamental semi-invariant and the non-regular locus.

The rank certificate is exact: a nonzero principal Pfaffian witnesses
rank >= r, and identical vanishing of every bordered Pfaffian
Pf(I + {a,b}) certifies rank <= r, because for a skew matrix the
determinant of such a bordered principal block equals det(B_I) times
the square of a Schur-complement entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .grobner import Ideal, buchberger, krull_dimension
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


def certified_rank(b: SkewPolyMatrix, seed: int = DEFAULT_PROBE_SEED) -> RankCertificate:
    """Generic rank over the fraction field, certified symbolically.

    Random small-integer probes give a quick numeric guess; the returned
    rank does not depend on probe luck, only on the Pfaffian checks.
    """
    n = b.size
    rng = random.Random(seed)
    probe_ranks = []
    for _ in range(PROBE_COUNT):
        point = [rng.randint(-PROBE_RANGE, PROBE_RANGE) for _ in range(n)]
        probe_ranks.append(linalg.rank(b.evaluate(point)))

    memo: dict = {}
    current: tuple[int, ...] = ()
    while True:
        grown = None
        for a, c in combinations([i for i in range(n) if i not in current], 2):
            candidate = tuple(sorted(current + (a, c)))
            if not pfaffian(b, candidate, memo).is_zero:
                grown = candidate
                break
        if grown is None:
            break
        current = grown
    witness = pfaffian(b, current, memo)
    cert = RankCertificate(rank=len(current), witness_rows=current,
                           witness_pfaffian=witness, probe_seed=seed,
                           probe_ranks=tuple(probe_ranks))
    if max(probe_ranks, default=0) > cert.rank:
        raise InternalCheckError("a probe rank exceeds the certified rank")
    return cert


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
    is regular).  May raise BudgetExceededError from the Groebner run.
    Every monomial order gives the same Krull dimension; DEGREVLEX serves.
    """
    if g.is_abelian:
        return None
    basis = buchberger(pfaffian_ideal(g), DEGREVLEX)
    dim = krull_dimension(basis)
    if dim is None:
        return None
    return g.dim - dim
