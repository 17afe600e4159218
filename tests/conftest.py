from fractions import Fraction

import pytest
from hypothesis import strategies as st

from coregular.lie import LieAlgebra
from coregular.poly import Polynomial


def is_exact(x) -> bool:
    """Whether x is an exact value in the library's readout form: an
    ``int`` (never a ``bool``) when it is integral, else a ``Fraction``
    with a denominator above 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def is_rational(x) -> bool:
    """Whether x is an ``int`` or a ``Fraction``: never a ``float`` or a
    ``bool``."""
    return type(x) in (int, Fraction)


def verdict_of(report, name):
    """The verdict of ``report`` on the criterion called ``name``."""
    for verdict in report.criteria:
        if verdict.criterion == name:
            return verdict
    raise KeyError(name)


def poly_strategy(nvars, max_degree=3, max_terms=4, coeff_bound=4):
    monomial = st.tuples(
        *[st.integers(0, max_degree) for _ in range(nvars)]
    ).filter(lambda m: sum(m) <= max_degree)
    coeff = st.fractions(
        min_value=-coeff_bound, max_value=coeff_bound, max_denominator=3
    ).filter(lambda c: c != 0)
    return st.dictionaries(monomial, coeff, max_size=max_terms).map(
        lambda d: Polynomial(nvars, d))


@st.composite
def poly_pairs(draw, max_nvars=3):
    n = draw(st.integers(1, max_nvars))
    strat = poly_strategy(n)
    return draw(strat), draw(strat)


@st.composite
def poly_triples(draw, max_nvars=3):
    n = draw(st.integers(1, max_nvars))
    strat = poly_strategy(n)
    return draw(strat), draw(strat), draw(strat)


@st.composite
def nonzero_poly_pairs(draw, max_nvars=3):
    n = draw(st.integers(1, max_nvars))
    strat = poly_strategy(n, max_degree=2, max_terms=3, coeff_bound=3).filter(
        lambda p: not p.is_zero)
    return draw(strat), draw(strat)


@pytest.fixture(scope="session")
def catalog_algebras():
    """The instantiated catalog used by the cross-cutting property suite."""
    from coregular.catalog import (abelian, example32, filiform, heisenberg,
                                   panyushev, sl2, two_dim_nonabelian)
    return [
        filiform(3), filiform(4), filiform(5), filiform(6),
        abelian(3), panyushev(), example32(), two_dim_nonabelian(),
        sl2(), heisenberg([[0, 1], [0, 0]]), heisenberg([[1, 0], [0, 1]]),
    ]


@pytest.fixture(scope="session")
def rotated_sl2():
    """sl2 in the basis e + f, e - f, h: no diagonal grading survives."""
    from coregular.catalog import sl2
    return sl2().induced_algebra([[1, 1, 0], [1, -1, 0], [0, 0, 1]],
                                 ["a", "b", "c"], label="sl2-rotated")


@pytest.fixture(scope="session")
def order_test_algebras(rotated_sl2):
    """(algebra, degree bound) pairs on which a count is compared under
    every monomial order: the entries of ``scripts/run_catalog.py`` at
    their bounds capped at 4, t x| V with weights (5, -7, 11), sl2 in a
    rotated basis and four seaweeds."""
    from coregular.catalog import (abelian, example32, filiform, heisenberg,
                                   panyushev, sl2, two_dim_nonabelian)
    weights = LieAlgebra(["v1", "v2", "v3", "v4"],
                         {(0, 1): {1: 5}, (0, 2): {2: -7}, (0, 3): {3: 11}},
                         label="weights(5,-7,11)")
    return [
        (filiform(3), 3), (filiform(4), 4), (filiform(5), 4),
        (filiform(6), 4), (filiform(7), 4), (abelian(4), 4),
        (panyushev(), 2), (example32(), 3), (two_dim_nonabelian(), 2),
        (sl2(), 3), (heisenberg([[0, 1], [0, 0]]), 2),
        (heisenberg([[1, 0], [0, 1]]), 2), (weights, 3), (rotated_sl2, 3),
    ] + [(seaweed(a, b), 4) for a, b in [((2, 1), (1, 2)), ((1, 2), (3,)),
                                         ((3,), (1, 1, 1)), ((2, 1), (3,))]]


def seaweed(a, b):
    """The seaweed subalgebra of sl_n, n = sum(a) = sum(b), that is
    block upper triangular for the composition a and block lower
    triangular for b: its E_ij (i != j), then H_i = E_ii - E_{i+1,i+1}."""
    n = sum(a)
    block_a = [k for k, size in enumerate(a) for _ in range(size)]
    block_b = [k for k, size in enumerate(b) for _ in range(size)]
    units = [(i, j) for i in range(n) for j in range(n) if i != j
             and block_a[i] <= block_a[j] and block_b[i] >= block_b[j]]
    basis = [{ij: 1} for ij in units] + [
        {(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]

    def coordinates(z):
        out = {units.index(ij): c for ij, c in z.items() if ij[0] != ij[1]}
        for i in range(n - 1):  # E_ii - E_jj sums the H between them
            h = sum(z.get((t, t), 0) for t in range(i + 1))
            if h:
                out[len(units) + i] = h
        return out

    brackets = {}
    for p, x in enumerate(basis):
        for q in range(p + 1, len(basis)):
            z = {}
            for (i, j), c in x.items():
                for (k, l), d in basis[q].items():
                    if j == k:
                        z[(i, l)] = z.get((i, l), 0) + c * d
                    if l == i:
                        z[(k, j)] = z.get((k, j), 0) - c * d
            z = coordinates({ij: c for ij, c in z.items() if c})
            if z:
                brackets[(p, q)] = z
    return LieAlgebra([f"x{t + 1}" for t in range(len(basis))], brackets,
                      label=f"seaweed{a}|{b}")
