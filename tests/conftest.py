from fractions import Fraction

import pytest
from hypothesis import strategies as st

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
