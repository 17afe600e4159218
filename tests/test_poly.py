from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (is_exact, nonzero_poly_pairs, poly_pairs, poly_strategy,
                      poly_triples)
from coregular.poly import (DEGREVLEX, GRLEX, LEX, MINUS_INFINITY, Polynomial,
                            apply_derivation, divide, exact_div,
                            format_polynomial, monomial_div, monomial_divides,
                            monomials_of_degree, parse_polynomial, poly_gcd,
                            try_exact_div)

V5 = [f"v{i}" for i in range(1, 6)]


def pv(text, names):
    return parse_polynomial(text, names)


class TestArithmetic:
    def test_additive_identity(self):
        v3 = Polynomial.variable(5, 2)
        assert v3 + Polynomial.zero(5) == v3

    def test_difference_of_squares(self):
        v2 = Polynomial.variable(5, 1)
        v3 = Polynomial.variable(5, 2)
        assert (v2 + v3) * (v2 - v3) == v2 ** 2 - v3 ** 2

    def test_filiform_six_invariant_assembly(self):
        # v5^2 + (-2 v4 v6) is the quadratic invariant of the 6-dim filiform
        names = [f"v{i}" for i in range(1, 7)]
        v4, v5, v6 = (Polynomial.variable(6, i) for i in (3, 4, 5))
        assert v5 ** 2 + (-2) * v4 * v6 == pv("v5^2 - 2*v4*v6", names)

    def test_ring_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0) + Polynomial.variable(3, 0)

    def test_zero_degree_sentinel(self):
        assert Polynomial.zero(3).total_degree() == MINUS_INFINITY
        assert Polynomial.zero(3).total_degree() < 0

    @given(poly_triples())
    def test_ring_axioms(self, triple):
        a, b, c = triple
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(poly_pairs())
    def test_sub_is_add_neg(self, pair):
        a, b = pair
        assert a - b == a + (-b)
        assert (a - b) + b == a


class TestGcd:
    def test_monomial_gcd(self):
        v3, v4 = Polynomial.variable(5, 2), Polynomial.variable(5, 3)
        assert poly_gcd(v3 ** 2, v3 * v4) == v3

    def test_coprime_variables(self):
        v3, v4 = Polynomial.variable(5, 2), Polynomial.variable(5, 3)
        assert poly_gcd(v3, v4) == Polynomial.one(5)

    def test_structured_gcd_with_division_witness(self):
        v2, v3 = Polynomial.variable(5, 1), Polynomial.variable(5, 2)
        a = v3 ** 2 * (v2 + v3)
        b = v3 * (v2 + v3) ** 2
        g = poly_gcd(a, b)
        # independent verification: divides both, and the cofactors are coprime
        qa, qb = exact_div(a, g), exact_div(b, g)
        assert qa * g == a and qb * g == b
        assert poly_gcd(qa, qb) == Polynomial.one(5)
        # and g times any non-unit common factor no longer divides both
        assert try_exact_div(a, g * v3) is None or try_exact_div(b, g * v3) is None
        assert g == v3 * (v2 + v3)

    def test_gcd_with_zero(self):
        v3 = Polynomial.variable(4, 2)
        assert poly_gcd(2 * v3, Polynomial.zero(4)) == v3
        with pytest.raises(ValueError):
            poly_gcd(Polynomial.zero(4), Polynomial.zero(4))

    @given(nonzero_poly_pairs())
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_and_cofactors_coprime(self, pair):
        a, b = pair
        g = poly_gcd(a, b)
        qa = try_exact_div(a, g)
        qb = try_exact_div(b, g)
        assert qa is not None and qb is not None
        assert poly_gcd(qa, qb).is_constant


class TestCalculus:
    def test_power_rule(self):
        v3 = Polynomial.variable(5, 2)
        assert (v3 ** 2).partial_derivative(2) == 2 * v3

    def test_filiform_invariant_derivative(self):
        names = ["v1", "v2", "v3", "v4"]
        f = pv("v2*v4 - 1/2*v3^2", names)
        assert f.partial_derivative(2) == -Polynomial.variable(4, 2)

    def test_constant_derivative(self):
        assert Polynomial.constant(3, 5).partial_derivative(1).is_zero

    @given(poly_pairs())
    @settings(max_examples=60)
    def test_leibniz_rule(self, pair):
        a, b = pair
        i = 0
        lhs = (a * b).partial_derivative(i)
        rhs = a.partial_derivative(i) * b + a * b.partial_derivative(i)
        assert lhs == rhs

    @given(poly_pairs())
    @settings(max_examples=60)
    def test_derivation_application_matches_leibniz(self, pair):
        a, b = pair
        n = a.nvars
        images = [{(i + 1) % n: Fraction(1)} for i in range(n)]
        lhs = apply_derivation(a * b, images)
        rhs = apply_derivation(a, images) * b + a * apply_derivation(b, images)
        assert lhs == rhs

    @given(st.data())
    @settings(max_examples=80)
    def test_derivation_matches_the_sum_of_partial_products(self, data):
        n = data.draw(st.integers(1, 3))
        f = data.draw(poly_strategy(n))
        # linear images {k: c}, every c nonzero, as ``apply_derivation``
        # takes them
        coeff = st.fractions(min_value=-4, max_value=4,
                             max_denominator=3).filter(lambda c: c != 0)
        images = data.draw(st.lists(
            st.dictionaries(st.integers(0, n - 1), coeff, max_size=n),
            min_size=n, max_size=n))
        out = apply_derivation(f, images)
        assert out == oracles.derivation_by_partials(f, images)
        assert all(c != 0 for c in out.terms.values())


class TestEvaluate:
    def test_point_evaluation(self):
        names = ["v1", "v2", "v3", "v4"]
        assert pv("v2*v4", names).evaluate([0, 1, 0, 1]) == 1
        v3 = Polynomial.variable(3, 2)
        assert (v3 ** 2).evaluate([0, 0, 2]) == 4

    def test_filiform_six_quadratic_at_point(self):
        names = [f"v{i}" for i in range(1, 7)]
        f1 = pv("v5^2 - 2*v4*v6", names)
        # by hand: 2^2 - 2*1*3 = -2
        assert f1.evaluate([0, 0, 0, 1, 2, 3]) == -2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.variable(3, 0).evaluate([1, 2])

    @given(data=st.data())
    @settings(max_examples=60)
    def test_int_points_give_the_fraction_point_values(self, data):
        n = data.draw(st.integers(1, 4))
        f = data.draw(poly_strategy(n))
        point = data.draw(st.lists(st.integers(-7, 7), min_size=n,
                                   max_size=n))
        value = f.evaluate(point)
        assert is_exact(value)
        assert value == f.evaluate([Fraction(x) for x in point])
        for wrong in (point + [0], point[:-1]):
            with pytest.raises(ValueError):
                f.evaluate(wrong)

    @given(poly_pairs())
    @settings(max_examples=60)
    def test_evaluation_is_ring_homomorphism(self, pair):
        a, b = pair
        point = [Fraction(i - 1, 2) for i in range(a.nvars)]
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


class TestOrdersAndText:
    def test_degrevlex_leading_monomial(self):
        names = ["v1", "v2", "v3", "v4"]
        f = pv("v2*v4 - 1/2*v3^2", names)
        assert f.leading_monomial(DEGREVLEX) == (0, 0, 2, 0)
        assert f.monic(DEGREVLEX) == pv("v3^2 - 2*v2*v4", names)

    def test_orders_are_graded_or_not(self):
        a, b = (1, 0, 0), (0, 2, 0)
        assert LEX.key(a) > LEX.key(b)
        assert GRLEX.key(a) < GRLEX.key(b)
        assert DEGREVLEX.key(a) < DEGREVLEX.key(b)

    def test_monomials_of_degree_are_sorted_descending(self):
        monos = monomials_of_degree(3, 2)
        keys = [DEGREVLEX.key(m) for m in monos]
        assert keys == sorted(keys, reverse=True)
        assert len(monos) == 6

    @pytest.mark.parametrize("order", [DEGREVLEX, GRLEX, LEX],
                             ids=lambda o: o.name)
    def test_monomials_of_degree_are_all_exponents_sorted(self, order):
        def exponents(nvars, degree):
            if nvars == 0:
                return [()] if degree == 0 else []
            return [(e,) + rest for e in range(degree + 1)
                    for rest in exponents(nvars - 1, degree - e)]

        for nvars in range(9):
            for degree in range(9):
                assert monomials_of_degree(nvars, degree, order) == tuple(
                    sorted(exponents(nvars, degree), key=order.key,
                           reverse=True)), (nvars, degree)

    @pytest.mark.parametrize("nvars", [0, 1, 3])
    def test_monomials_of_a_negative_degree_raise(self, nvars):
        for _ in range(2):  # the memo keeps no answer for it
            with pytest.raises(ValueError, match="degree"):
                monomials_of_degree(nvars, -1)
        assert monomials_of_degree(nvars, 0) == ((0,) * nvars,)

    def test_format_orders_terms_descending(self):
        names = ["v1", "v2", "v3"]
        f = pv("v3 + v1^2 + 2*v2", names)
        assert format_polynomial(f, names) == "v1^2 + 2*v2 + v3"

    def test_parse_is_whitespace_insensitive(self):
        names = ["v1", "v2", "v3"]
        for text, expected in (
                ("  3/2 * v1 ^ 2*v2-  v2 ", "3/2*v1^2*v2 - v2"),
                ("3/ 4*v2", "3/4*v2"), ("v1 + v2", "v1+v2"),
                ("(v1 + v2)^2", "v1^2 + 2*v1*v2 + v2^2"),
                ("2*(v1 - v3)", "2*v1 - 2*v3")):
            assert pv(text, names) == pv(expected, names), text

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_polynomial("v1 + w2", ["v1", "v2"])
        with pytest.raises(ValueError, match="trailing junk"):
            parse_polynomial("v1 v2", ["v1", "v2"])
        with pytest.raises(ValueError):
            parse_polynomial("", ["v1"])
        # digits are ASCII, as in every other reader of numbers
        for text in ("\u0663*v1", "v1^\u0662"):
            with pytest.raises(ValueError, match="tokenize"):
                parse_polynomial(text, ["v1"])

    @pytest.mark.parametrize("text", ["v1 2", "1 2*v3", "v 1"])
    def test_whitespace_never_joins_two_tokens(self, text):
        # with names v1..v12 these once read as v12, 12*v3 and v1
        names = [f"v{i}" for i in range(1, 13)]
        with pytest.raises(ValueError):
            parse_polynomial(text, names)

    @pytest.mark.parametrize("text, message", [
        ("v1^", "end"), ("v1**", "end"), ("3/", "end"), ("v1 + 2/", "end"),
        ("2/0", "zero denominator"), ("(v1 + v2", "closing parenthesis"),
        ("v1^v2", "exponent"), ("3/v1", "rational"), ("v1 # v2", "tokenize"),
        ("v1)", "trailing junk")])
    def test_parse_rejects_a_cut_or_zero_denominator_text(self, text,
                                                          message):
        # a text cut after an operator, a zero denominator, an open
        # parenthesis or a misplaced token is malformed input like any
        # other: a ValueError with a message
        with pytest.raises(ValueError, match=message):
            parse_polynomial(text, ["v1", "v2"])

    @given(poly_strategy(3))
    @settings(max_examples=80)
    def test_format_parse_round_trip(self, f):
        names = ["x", "y", "z"]
        assert parse_polynomial(format_polynomial(f, names), names) == f


class TestExactDivision:
    @given(nonzero_poly_pairs())
    @settings(max_examples=60, deadline=None)
    def test_product_division_round_trip(self, pair):
        a, b = pair
        assert exact_div(a * b, b) == a

    def test_inexact_division_raises(self):
        v1, v2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        with pytest.raises(ValueError):
            exact_div(v1 ** 2 + v2, v1)


def divide_by_rescanning(f, divisors, order):
    """Oracle: multivariate division that finds the leading monomial of
    what is left by a full scan on every step."""
    nvars = f.nvars
    quotients = [Polynomial.zero(nvars) for _ in divisors]
    remainder = {}
    lead = [(i, g.leading_monomial(order), g.leading_coefficient(order), g)
            for i, g in enumerate(divisors) if not g.is_zero]
    work = f
    while not work.is_zero:
        lm = work.leading_monomial(order)
        lc = work.terms[lm]
        for idx, gm, gc, g in lead:
            if monomial_divides(gm, lm):
                factor = Polynomial(nvars,
                                    {monomial_div(lm, gm): Fraction(lc, gc)})
                quotients[idx] = quotients[idx] + factor
                work = work - factor * g
                break
        else:
            remainder[lm] = lc
            work = Polynomial(nvars, {m: c for m, c in work.terms.items()
                                      if m != lm})
    return quotients, Polynomial(nvars, remainder)


@st.composite
def division_problems(draw):
    n = draw(st.integers(1, 3))
    f = draw(poly_strategy(n, max_degree=5, max_terms=8))
    divisors = draw(st.lists(poly_strategy(n, max_degree=3, max_terms=3),
                             min_size=1, max_size=3))
    if draw(st.booleans()):
        # an exact multiple, as in the gcd and Bareiss callers
        f = f * divisors[0]
    return f, divisors, draw(st.sampled_from([DEGREVLEX, GRLEX, LEX]))


@given(division_problems())
@settings(max_examples=100, deadline=None)
def test_divide_matches_the_rescanning_division(problem):
    f, divisors, order = problem
    quotients, remainder = divide(f, divisors, order)
    assert (quotients, remainder) == divide_by_rescanning(f, divisors, order)
    total = remainder
    for q, g in zip(quotients, divisors):
        total = total + q * g
    assert total == f
