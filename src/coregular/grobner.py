"""Buchberger's algorithm, normal forms, ideal membership, Krull dimension.

Designed for desk-scale ideals (ring dimension <= 10 by default).  Work
is bounded by an explicit budget; exceeding it raises
:class:`BudgetExceededError` instead of returning a possibly wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .poly import (DEGREVLEX, MonomialOrder, Polynomial, divide,
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


def normal_form(f: Polynomial, basis, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Remainder of f under multivariate division by ``basis``."""
    elements = list(basis.elements) if isinstance(basis, GroebnerBasis) else list(basis)
    if isinstance(basis, GroebnerBasis):
        order = basis.order
    if not elements:
        return f
    _, r = divide(f, elements, order)
    return r


def s_polynomial(f: Polynomial, g: Polynomial,
                 order: MonomialOrder = DEGREVLEX) -> Polynomial:
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = monomial_lcm(lf, lg)
    mf = Polynomial._new(f.nvars, {monomial_div(lcm, lf):
                                   1 / f.leading_coefficient(order)})
    mg = Polynomial._new(g.nvars, {monomial_div(lcm, lg):
                                   1 / g.leading_coefficient(order)})
    return mf * f - mg * g


def buchberger(ideal: Ideal, order: MonomialOrder = DEGREVLEX,
               budget: GrobnerBudget = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis via Buchberger with sugar-degree selection."""
    if ideal.nvars > budget.max_ring_dim:
        raise BudgetExceededError(
            f"ring dimension {ideal.nvars} exceeds cap {budget.max_ring_dim}")
    gens = [g.monic(order) for g in ideal.generators]
    if not gens:
        return GroebnerBasis(ideal.nvars, order, ())

    basis: list[Polynomial] = []
    sugar: list[int] = []
    pairs: dict[tuple[int, int], int] = {}  # (i, j) -> pair sugar

    def pair_sugar(i: int, j: int) -> int:
        li = basis[i].leading_monomial(order)
        lj = basis[j].leading_monomial(order)
        lcm = monomial_lcm(li, lj)
        return max(sugar[i] + monomial_degree(lcm) - monomial_degree(li),
                   sugar[j] + monomial_degree(lcm) - monomial_degree(lj))

    def add_element(f: Polynomial, s: int):
        if len(basis) >= budget.max_basis:
            raise BudgetExceededError("basis size cap exceeded")
        basis.append(f)
        sugar.append(s)
        j = len(basis) - 1
        for i in range(j):
            li = basis[i].leading_monomial(order)
            lj = f.leading_monomial(order)
            # skip coprime leading monomials (Buchberger's first criterion)
            if monomial_lcm(li, lj) == monomial_mul(li, lj):
                continue
            pairs[(i, j)] = pair_sugar(i, j)

    for g in gens:
        add_element(g, g.total_degree())

    reductions = 0
    while pairs:
        (i, j) = min(pairs,
                     key=lambda p: (pairs[p],
                                    order.key(monomial_lcm(
                                        basis[p[0]].leading_monomial(order),
                                        basis[p[1]].leading_monomial(order))),
                                    p))
        s = pairs.pop((i, j))
        sp = s_polynomial(basis[i], basis[j], order)
        reductions += 1
        if reductions > budget.max_reductions:
            raise BudgetExceededError("reduction count cap exceeded")
        r = normal_form(sp, basis, order)
        if r.is_zero:
            continue
        if r.total_degree() > budget.max_degree:
            raise BudgetExceededError("degree cap exceeded")
        add_element(r.monic(order), max(s, r.total_degree()))

    # minimalize: drop elements whose leading monomial another element divides
    lead = [g.leading_monomial(order) for g in basis]
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
        r = normal_form(g, others, order)
        if not r.is_zero:
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return GroebnerBasis(ideal.nvars, order, tuple(reduced))


def ideal_membership(f: Polynomial, basis: GroebnerBasis) -> bool:
    if f.nvars != basis.nvars:
        raise ValueError("ring dimension mismatch")
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
