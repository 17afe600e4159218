"""Cross-cutting exact properties over the whole built-in catalog.

Everything here is an exact identity of rational arithmetic; there are
no tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from coregular.catalog import filiform
from coregular.invariants import minimal_generators, verify_semi_invariant
from coregular.kernel import kernel_of_rho, reduce_one_step
from coregular.pfaffian import (certified_rank, fundamental_semi_invariant,
                                index, pfaffian, singular_locus_codim)
from coregular.poly import Polynomial
from oracles import poisson_bracket, poly_det, weight_derivation

SEARCH_DEGREE = 2


@pytest.fixture(scope="module")
def analyzed(catalog_algebras):
    """Generator sets computed once per algebra for the suite."""
    return [(g, minimal_generators(g, SEARCH_DEGREE)[0])
            for g in catalog_algebras]


def test_semi_invariant_defining_identity(analyzed):
    for g, gens in analyzed:
        for s in gens.generators:
            assert verify_semi_invariant(g, s.poly, s.weight), g.label


def test_weights_vanish_on_derived_subalgebra(analyzed):
    for g, gens in analyzed:
        derived = g.derived_subalgebra()
        for s in gens.generators:
            for b in derived.basis:
                assert sum(c * x for c, x in
                           zip(s.weight.values, b)) == 0, g.label


def test_semi_invariants_poisson_commute_pairwise(analyzed):
    for g, gens in analyzed:
        polys = [s.poly for s in gens.generators]
        for a, b in combinations(polys, 2):
            assert poisson_bracket(a, b, g).is_zero, g.label


def test_poisson_bracket_with_semi_invariant_factors(analyzed):
    rng = random.Random(11)
    for g, gens in analyzed:
        n = g.dim
        probe = Polynomial(n, {
            tuple(rng.randint(0, 1) for _ in range(n)): Fraction(rng.randint(1, 3))
            for _ in range(3)})
        for s in gens.generators:
            lhs = poisson_bracket(probe, s.poly, g)
            rhs = weight_derivation(probe, s.weight) * s.poly
            assert lhs == rhs, g.label


def test_pfaffian_square_is_determinant_on_random_blocks(catalog_algebras):
    rng = random.Random(23)
    for g in catalog_algebras:
        b = g.structure_matrix()
        choices = [rows for k in (2, 4) if k <= g.dim
                   for rows in combinations(range(g.dim), k)]
        for rows in rng.sample(choices, min(5, len(choices))):
            pf = pfaffian(b, rows)
            det = poly_det([[b[i, j] for j in rows] for i in rows])
            assert pf * pf == det, g.label


def test_rank_evenness(catalog_algebras):
    for g in catalog_algebras:
        assert certified_rank(g.structure_matrix()).rank % 2 == 0, g.label


def test_degree_zero_iff_codim_at_least_two(catalog_algebras):
    for g in catalog_algebras:
        d = fundamental_semi_invariant(g).degree
        codim = singular_locus_codim(g)
        locus_small = codim is None or codim >= 2
        assert (d == 0) == locus_small, g.label


def test_c_value_preserved_across_reduction_steps(analyzed):
    for g, gens in analyzed:
        for s in gens.generators:
            if s.weight.is_zero:
                continue
            step = reduce_one_step(g, s, compare_degree=2)
            if step.chosen_algebra is not None:
                assert step.c_after == step.c_before, g.label


def test_kernel_generators_annihilate_exactly(catalog_algebras):
    for g in catalog_algebras:
        b = g.structure_matrix()
        kernel = kernel_of_rho(g, SEARCH_DEGREE)
        assert kernel.rank == index(g), g.label
        for w in kernel.generators:
            for j in range(g.dim):
                acc = Polynomial.zero(g.dim)
                for i in range(g.dim):
                    acc = acc + w.components[i] * b[i, j]
                assert acc.is_zero, g.label


def test_nilpotent_algebras_have_only_zero_weights():
    for n in range(3, 7):
        g = filiform(n)
        gens = minimal_generators(g, 3)[0]
        assert gens.generators, g.label
        assert all(s.weight.is_zero for s in gens.generators), g.label


def test_semi_invariant_degree_sum_monotone_in_bound():
    for g in (filiform(4), filiform(5)):
        sums = [minimal_generators(g, d)[0].degree_sum()
                for d in range(1, 5)]
        assert sums == sorted(sums), g.label
