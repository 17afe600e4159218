from dataclasses import replace
from itertools import product

import pytest

import oracles
from conftest import seaweed
from coregular.catalog import filiform, panyushev, sl2
from coregular.grobner import (DEFAULT_BUDGET, BudgetExceededError,
                               GrobnerBudget,
                               GroebnerBasis, Ideal, buchberger,
                               ideal_membership, krull_dimension, normal_form,
                               s_polynomial)
from coregular.pfaffian import index, pfaffian_ideal
from coregular.poly import (DEGREVLEX, GRLEX, LEX, Polynomial,
                            monomial_divides)
from polytext import parse_polynomial


def variables(n):
    return [Polynomial.variable(n, i) for i in range(n)]


def assert_is_groebner(basis: GroebnerBasis):
    els = list(basis.elements)
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            sp = s_polynomial(els[i], els[j], basis.order)
            assert normal_form(sp, basis).is_zero
    leads = [g.leading_monomial(basis.order) for g in els]
    for i, li in enumerate(leads):
        for j, lj in enumerate(leads):
            if i != j:
                assert not monomial_divides(li, lj)
        assert els[i].leading_coefficient(basis.order) == 1


def staircase_dimension_oracle(generators, nvars):
    """Growth-rate dimension of a monomial ideal: count staircase points
    in boxes of side N and 2N and compare."""
    gens = [g.leading_monomial(DEGREVLEX) for g in generators]

    def count(box):
        total = 0
        for point in product(range(box), repeat=nvars):
            if not any(monomial_divides(g, point) for g in gens):
                total += 1
        return total

    n1, n2 = count(4), count(8)
    if n1 == 0:
        return None
    ratio = n2 / n1
    dim = round(__import__("math").log2(ratio))
    return dim


class TestBuchberger:
    def test_principal_ideal(self):
        v = variables(3)
        basis = buchberger(Ideal.of(3, [2 * v[2]]))
        assert basis.elements == (v[2],)
        assert_is_groebner(basis)

    def test_monomial_ideal(self):
        v = variables(5)
        basis = buchberger(Ideal.of(5, [v[2], v[3], v[4]]))
        assert set(basis.elements) == {v[2], v[3], v[4]}
        assert_is_groebner(basis)

    def test_filiform5_pfaffian_ideal_zero_set(self):
        # zero set must be {x : x(v3) = x(v4) = x(v5) = 0}
        basis = buchberger(pfaffian_ideal(filiform(5)))
        v = variables(5)
        assert set(basis.elements) == {v[2], v[3], v[4]}
        assert_is_groebner(basis)

    def test_nontrivial_spolys(self):
        v = variables(3)
        x, y, z = v
        basis = buchberger(Ideal.of(3, [x * y - z, y * z - x, x * z - y]))
        assert_is_groebner(basis)
        # the circle of relations implies x(y^2 - 1) etc. lie inside
        assert ideal_membership(x * (y * y - 1), basis)
        assert ideal_membership(y * (z * z - 1), basis)

    def test_idempotent(self):
        basis = buchberger(pfaffian_ideal(panyushev()))
        again = buchberger(Ideal.of(basis.nvars, list(basis.elements)),
                           basis.order)
        assert again.elements == basis.elements

    def test_budget_exceeded_is_an_error_not_an_answer(self):
        v = variables(3)
        x, y, z = v
        ideal = Ideal.of(3, [x * y - z, y * z - x, x * z - y])
        tight = GrobnerBudget(max_reductions=1, max_basis=2)
        with pytest.raises(BudgetExceededError):
            buchberger(ideal, budget=tight)
        # a remainder of degree 3 turns up
        with pytest.raises(BudgetExceededError, match="degree cap exceeded"):
            buchberger(ideal, budget=GrobnerBudget(max_degree=2))
        assert buchberger(ideal, budget=GrobnerBudget(max_degree=3)) == \
            buchberger(ideal)

    def test_ring_dimension_cap(self):
        with pytest.raises(BudgetExceededError):
            buchberger(Ideal.of(11, [Polynomial.variable(11, 0)]))


    @pytest.mark.parametrize("order", [DEGREVLEX, GRLEX, LEX])
    def test_pair_heap_makes_the_reductions_of_the_min_selection(
            self, catalog_algebras, order):
        """The heap takes the pairs in the order of the ``min`` selection
        it replaced, so the basis, the reduction count and with it every
        budget verdict stay the same: the count is the least reduction
        cap under which the run finishes."""
        algebras = catalog_algebras + [filiform(7), seaweed((1, 1, 1), (3,)),
                                       seaweed((1, 1, 1, 1), (1, 3)),
                                       seaweed((2, 2), (2, 2))]
        counts = []
        for g in algebras:
            if g.is_abelian:
                continue
            ideal = pfaffian_ideal(g)
            expected, count = oracles.buchberger_by_min(ideal.generators,
                                                        order)
            capped = replace(DEFAULT_BUDGET, max_reductions=count)
            assert buchberger(ideal, order, capped).elements == expected
            if count:
                with pytest.raises(BudgetExceededError):
                    buchberger(ideal, order,
                               replace(capped, max_reductions=count - 1))
            counts.append(count)
        assert max(counts) > 50

    def test_seaweed_index_matches_the_meander_formula(self):
        # 2C + P - 1 for C cycles and P paths of the meander graph:
        # sl3 has one cycle and one path, b(sl3) two paths and
        # (2,2)|(2,2) two cycles
        assert [index(seaweed(a, b)) for a, b in [
            ((3,), (3,)), ((1, 1, 1), (3,)), ((2, 2), (2, 2))]] == [2, 1, 3]


class TestKrullDimension:
    def test_zero_ideal(self):
        assert krull_dimension(GroebnerBasis(5, DEGREVLEX, ())) == 5

    def test_unit_ideal_empty_marker(self):
        basis = buchberger(Ideal.of(2, [Polynomial.one(2)]))
        assert krull_dimension(basis) is None

    def test_three_coordinates_in_five_vars(self):
        v = variables(5)
        basis = buchberger(Ideal.of(5, [v[2], v[3], v[4]]))
        assert krull_dimension(basis) == 2

    def test_hyperplane(self):
        v = variables(3)
        basis = buchberger(Ideal.of(3, [v[2]]))
        assert krull_dimension(basis) == 2

    @pytest.mark.parametrize("gens_text, nvars", [
        (["x^2", "x*y"], 2),
        (["x*y", "y*z"], 3),
        (["x", "y^3"], 3),
        (["x^2*y", "y^2*z", "z^2*x"], 3),
    ])
    def test_monomial_dimension_matches_staircase_oracle(self, gens_text, nvars):
        names = ["x", "y", "z"][:nvars]
        gens = [parse_polynomial(t, names) for t in gens_text]
        basis = buchberger(Ideal.of(nvars, gens))
        assert krull_dimension(basis) == \
            staircase_dimension_oracle(basis.elements, nvars)

    def test_order_independence_on_catalog_ideals(self, catalog_algebras):
        for g in catalog_algebras:
            if g.is_abelian:
                continue
            ideal = pfaffian_ideal(g)
            d1 = krull_dimension(buchberger(ideal, DEGREVLEX))
            d2 = krull_dimension(buchberger(ideal, GRLEX))
            assert d1 == d2, g.label


class TestMembership:
    def test_basic_membership(self):
        v = variables(3)
        basis = buchberger(Ideal.of(3, [v[2]]))
        assert ideal_membership(v[2] ** 2, basis)
        assert not ideal_membership(v[1], basis)

    def test_a_polynomial_of_another_ring_is_refused(self):
        # v1 v3 + v2 has a third variable that the division would drop
        basis = buchberger(Ideal.of(2, variables(2)[:1]))
        f = parse_polynomial("v1*v3 + v2", ["v1", "v2", "v3"])
        for call in (normal_form, ideal_membership):
            with pytest.raises(ValueError, match="ring dimension"):
                call(f, basis)

    def test_generators_always_members(self):
        for g in (filiform(5), panyushev(), sl2()):
            ideal = pfaffian_ideal(g)
            basis = buchberger(ideal)
            for gen in ideal.generators:
                assert ideal_membership(gen, basis)

    def test_presentation_ideal_of_filiform6_relation(self):
        # the single relation of the 6-dim filiform generates its own ideal
        fnames = [f"f{i}" for i in range(1, 6)]
        p = parse_polynomial("f4*f5^3 - 3*f1*f3*f5^2 + f1^3 - f2^2", fnames)
        basis = buchberger(Ideal.of(5, [p]))
        assert ideal_membership(p, basis)
        assert ideal_membership(p * parse_polynomial("f1 + f2", fnames), basis)
        assert not ideal_membership(parse_polynomial("f1", fnames), basis)
