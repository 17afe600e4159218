"""Buchberger's algorithm, normal forms, ideal membership, Krull dimension.

Designed for desk-scale ideals (ring dimension <= 10 by default).  Work
is bounded by an explicit budget; exceeding it raises
:class:`BudgetExceededError` instead of returning a possibly wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations

from .poly import (DEGREVLEX, MonomialOrder, Polynomial, _ratio, divide,
                   monomial_degree, monomial_div, monomial_divides,
                   monomial_lcm, monomial_mul)


class BudgetExceededError(RuntimeError):
    """A Groebner run blew through its configured work budget."""


@dataclass(frozen=True)
class GrobnerBudget:
    max_basis: int = 400
    max_degree: int = 60
    max_reductions: int = 100_000
    max_ring_dim: int = 10


DEFAULT_BUDGET = GrobnerBudget()


@dataclass(frozen=True)
class Ideal:
    """An ideal given by generators over a common ring."""

    nvars: int
    generators: tuple[Polynomial, ...]

    @classmethod
    def of(cls, nvars: int, gens) -> "Ideal":
        kept = tuple(g for g in gens if not g.is_zero)
        for g in kept:
            if g.nvars != nvars:
                raise ValueError("generator ring dimension mismatch")
        return cls(nvars, kept)


@dataclass(frozen=True)
class GroebnerBasis:
    nvars: int
    order: MonomialOrder
    elements: tuple[Polynomial, ...]

    @property
    def is_zero_ideal(self) -> bool:
        return not self.elements

    @property
    def is_unit_ideal(self) -> bool:
        return any(e.is_constant and not e.is_zero for e in self.elements)


def normal_form(f: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Remainder of f under multivariate division by the elements of a
    Groebner basis, in its own order: the unique normal form of f
    modulo the ideal."""
    if f.nvars != basis.nvars:
        raise ValueError("ring dimension mismatch")
    return divide(f, basis.elements, basis.order)[1]


def s_polynomial(f: Polynomial, g: Polynomial,
                 order: MonomialOrder = DEGREVLEX) -> Polynomial:
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = monomial_lcm(lf, lg)
    mf = Polynomial._new(f.nvars, {monomial_div(lcm, lf):
                                   _ratio(1, f.leading_coefficient(order))})
    mg = Polynomial._new(g.nvars, {monomial_div(lcm, lg):
                                   _ratio(1, g.leading_coefficient(order))})
    return mf * f - mg * g


def check_ring_dim(nvars: int, budget: GrobnerBudget = DEFAULT_BUDGET):
    """Raise BudgetExceededError above the budget's ring dimension cap."""
    if nvars > budget.max_ring_dim:
        raise BudgetExceededError(
            f"ring dimension {nvars} exceeds cap {budget.max_ring_dim}")


def buchberger(ideal: Ideal, order: MonomialOrder = DEGREVLEX,
               budget: GrobnerBudget = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis via Buchberger with sugar-degree selection.

    The pairs wait in a heap keyed (sugar, order key of the lcm of the
    leading monomials, i, j), so the smallest key is taken first, and
    each element's leading monomial is computed once, when it enters."""
    check_ring_dim(ideal.nvars, budget)
    gens = [g.monic(order) for g in ideal.generators]
    if not gens:
        return GroebnerBasis(ideal.nvars, order, ())

    basis: list[Polynomial] = []
    lead: list = []  # leading monomial of each element
    sugar: list[int] = []
    pairs: list[tuple] = []

    def add_element(f: Polynomial, s: int):
        if len(basis) >= budget.max_basis:
            raise BudgetExceededError("basis size cap exceeded")
        lj = f.leading_monomial(order)
        for i, li in enumerate(lead):
            lcm = monomial_lcm(li, lj)
            # skip coprime leading monomials (Buchberger's first criterion)
            if lcm == monomial_mul(li, lj):
                continue
            deg = monomial_degree(lcm)
            heappush(pairs, (max(sugar[i] + deg - monomial_degree(li),
                                 s + deg - monomial_degree(lj)),
                             order.key(lcm), i, len(basis)))
        basis.append(f)
        lead.append(lj)
        sugar.append(s)

    for g in gens:
        add_element(g, g.total_degree())

    reductions = 0
    while pairs:
        s, _, i, j = heappop(pairs)
        sp = s_polynomial(basis[i], basis[j], order)
        reductions += 1
        if reductions > budget.max_reductions:
            raise BudgetExceededError("reduction count cap exceeded")
        r = divide(sp, basis, order, lead)[1]
        if r.is_zero:
            continue
        if r.total_degree() > budget.max_degree:
            raise BudgetExceededError("degree cap exceeded")
        add_element(r.monic(order), max(s, r.total_degree()))

    # minimalize: drop elements whose leading monomial another element divides
    minimal = []
    for i, g in enumerate(basis):
        redundant = any(
            j != i and monomial_divides(lead[j], lead[i])
            and (lead[j] != lead[i] or j < i)
            for j in range(len(basis)))
        if not redundant:
            minimal.append(g)

    # inter-reduce to the unique reduced basis
    reduced: list[Polynomial] = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        r = divide(g, others, order)[1]
        if not r.is_zero:
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return GroebnerBasis(ideal.nvars, order, tuple(reduced))


def ideal_membership(f: Polynomial, basis: GroebnerBasis) -> bool:
    return normal_form(f, basis).is_zero


def krull_dimension(basis: GroebnerBasis) -> int | None:
    """Krull dimension of ring/ideal (= dimension of the affine zero set).

    Returns None for the unit ideal (empty zero set).  Computed as the
    largest set of variables meeting no leading monomial's support,
    by exhaustive search over variable subsets.
    """
    if basis.is_zero_ideal:
        return basis.nvars
    if basis.is_unit_ideal:
        return None
    n = basis.nvars
    supports = [frozenset(i for i, e in
                          enumerate(g.leading_monomial(basis.order)) if e)
                for g in basis.elements]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(not s <= chosen for s in supports):
                return size
    return 0  # pragma: no cover
