import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coregular
from coregular import lie as lie_module
from coregular.catalog import (abelian, example32, filiform, heisenberg,
                               panyushev, sl2)
from coregular.invariants import minimal_generators
from coregular.lie import (JacobiViolationError, LieAlgebra, LieAlgebraError,
                           SkewPolyMatrix, Subspace, is_derivation,
                           jordan_chevalley)
from coregular.linalg import (InternalCheckError, identity, inverse,
                              mat_eq_zero, mat_mul, mat_sub, rank,
                              squarefree_part)
from coregular.poly import Polynomial, format_polynomial, monomials_of_degree
import oracles
from conftest import is_exact
from oracles import (ad_of_vector, ad_on_graded, derivation_by_partials,
                     unimodular)
from polytext import parse_polynomial

rational_vec = lambda n: st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    min_size=n, max_size=n)


class TestValidation:
    def test_filiform_table_is_valid(self):
        g = LieAlgebra(["v1", "v2", "v3", "v4"],
                       {(0, 1): {2: 1}, (0, 2): {3: 1}})
        assert g.dim == 4

    def test_jacobi_violation_reports_triple_and_residual(self):
        with pytest.raises(JacobiViolationError) as err:
            LieAlgebra(["v1", "v2", "v3"],
                       {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
        assert err.value.indices == (1, 2, 3)
        # residual computed by hand: the Jacobi sum equals v3
        assert err.value.residual == [0, 0, 1]

    def test_empty_table_is_abelian(self):
        g = LieAlgebra(["a", "b", "c", "d"], {})
        assert g.is_abelian and g.is_nilpotent()

    def test_bad_keys_rejected(self):
        with pytest.raises(LieAlgebraError):
            LieAlgebra(["v1", "v2"], {(1, 0): {0: 1}})
        with pytest.raises(LieAlgebraError):
            LieAlgebra(["v1", "v1"], {})

    def test_bracket_antisymmetry_is_structural(self):
        g = filiform(4)
        assert g.bracket_basis(0, 1) == [0, 0, 1, 0]
        assert g.bracket_basis(1, 0) == [0, 0, -1, 0]
        assert g.bracket_basis(2, 2) == [0, 0, 0, 0]


@pytest.fixture(scope="module")
def reader_algebras(catalog_algebras, rotated_sl2, order_test_algebras):
    """The catalog, sl2 in a rotated basis and the four seaweeds."""
    return catalog_algebras + [rotated_sl2] + [
        g for g, _ in order_test_algebras if g.label.startswith("seaweed")]


def unit_multiple(n, i, c):
    return [c if t == i else 0 for t in range(n)]


class TestBracketReader:
    """The table read in one place against the dense oracles: a vector
    [v_i, v_j] per pair with the sign rule applied beside it."""

    def test_basis_brackets_and_ad_matrices(self, reader_algebras):
        for g in reader_algebras:
            n = g.dim
            for i in range(n):
                cols = [oracles.table_bracket_basis(g, i, j) for j in range(n)]
                assert [g.bracket_basis(i, j) for j in range(n)] == cols
                assert g.ad_matrix(i) == [[cols[j][k] for j in range(n)]
                                          for k in range(n)], (g.label, i)

    def test_unit_multiples(self, reader_algebras):
        # e_i reads the table's rows; -e_i and 2 e_i take the general path
        for g in reader_algebras:
            n = g.dim
            for i in range(n):
                for c in (1, -1, 2, Fraction(1), Fraction(-1, 2)):
                    x = unit_multiple(n, i, c)
                    images = g.bracket_images(x)
                    for j in range(n):
                        y = unit_multiple(n, j, 1)
                        dense = oracles.dense_bracket(g, x, y)
                        assert g.bracket(x, y) == dense, (g.label, i, j, c)
                        assert images[j] == {k: v for k, v in enumerate(dense)
                                             if v}, (g.label, i, j, c)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_general_vectors(self, data, reader_algebras):
        g = data.draw(st.sampled_from(reader_algebras))
        n = g.dim
        vector = rational_vec(n) | st.builds(
            unit_multiple, st.just(n), st.integers(0, n - 1),
            st.sampled_from([1, -1, 2, Fraction(1, 3)]))
        x, y = data.draw(vector), data.draw(vector)
        assert g.bracket(x, y) == oracles.dense_bracket(g, x, y)
        images = g.bracket_images(x)
        for j in range(n):
            dense = oracles.dense_bracket(g, x, unit_multiple(n, j, 1))
            assert images[j] == {k: v for k, v in enumerate(dense) if v}
            assert list(images[j]) == sorted(images[j])

    @given(n=st.integers(3, 5), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_jacobi_check_matches_the_triple_loop(self, n, data):
        coeff = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
        pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
            lambda ij: ij[0] < ij[1])
        table = data.draw(st.dictionaries(
            pairs, st.dictionaries(st.integers(0, n - 1), coeff, min_size=1,
                                   max_size=2), max_size=4))
        expected = oracles.jacobi_violation(
            SimpleNamespace(dim=n, brackets=table))
        names = [f"v{t + 1}" for t in range(n)]
        if expected is None:
            LieAlgebra(names, table)
            return
        with pytest.raises(JacobiViolationError) as err:
            LieAlgebra(names, table)
        assert (err.value.indices, err.value.residual) == expected
        text = ", ".join(str(Fraction(x)) for x in expected[1])
        assert str(err.value).endswith(f"residual [{text}]")


class TestStructureMatrix:
    def test_filiform5_first_row(self):
        b = filiform(5).structure_matrix()
        row = [format_polynomial(b[0, j]) for j in range(5)]
        assert row == ["0", "v3", "v4", "v5", "0"]

    def test_abelian_matrix_is_zero(self):
        b = abelian(3).structure_matrix()
        assert all(b[i, j].is_zero for i in range(3) for j in range(3))

    def test_panyushev_first_row(self):
        g = panyushev()
        b = g.structure_matrix()
        row = [format_polynomial(b[0, j], g.names) for j in range(4)]
        assert row == ["0", "v2", "v3", "-v4"]

    @pytest.mark.parametrize("point", [
        lambda n: [3 * t - 4 for t in range(n)],
        lambda n: [Fraction(2 * t - 3, t + 2) for t in range(n)]])
    def test_evaluate_matches_each_entry(self, catalog_algebras, point):
        for g in catalog_algebras:
            b = g.structure_matrix()
            x = point(g.dim)
            assert b.evaluate(x) == [[b[i, j].evaluate(x)
                                      for j in range(g.dim)]
                                     for i in range(g.dim)], g.label
            with pytest.raises(ValueError):
                b.evaluate(x + [1])

    def test_skew_symmetry(self, catalog_algebras):
        for g in catalog_algebras:
            b = g.structure_matrix()
            for i in range(g.dim):
                assert b[i, i].is_zero
                for j in range(g.dim):
                    assert (b[i, j] + b[j, i]).is_zero

    def test_a_matrix_that_is_not_skew_is_refused(self):
        # each pair i < j is checked once, and skipped only when both of
        # its entries are zero
        x, zero = Polynomial.variable(3, 0), Polynomial.zero(3)

        def matrix(upper, lower, diagonal=zero):
            rows = [[diagonal, zero, zero], [zero, zero, upper],
                    [zero, lower, zero]]
            return SkewPolyMatrix(3, tuple(map(tuple, rows)))

        assert matrix(x, -x)[2, 1] == -x
        assert matrix(zero, zero)[2, 1].is_zero
        for upper, lower, diagonal in ((x, zero, zero), (zero, x, zero),
                                       (x, x, zero), (zero, zero, x)):
            with pytest.raises(ValueError):
                matrix(upper, lower, diagonal)


def degree_one_invariants(g) -> list[list]:
    """Z(g), read off the degree-one invariant generators as coordinate
    vectors: a linear form is invariant exactly when its vector is
    central, and degree one holds no product."""
    units = [tuple(int(t == k) for t in range(g.dim)) for k in range(g.dim)]
    return [[s.poly.terms.get(u, 0) for u in units]
            for s in minimal_generators(g, 1)[1].generators]


class TestSubspaces:
    def test_center_of_filiform(self):
        for n in (3, 4, 5, 6):
            assert degree_one_invariants(filiform(n)) == [
                [0] * (n - 1) + [1]]

    def test_center_of_abelian_is_everything(self):
        assert len(degree_one_invariants(abelian(4))) == 4

    def test_center_of_heisenberg_p_zero_contains_c_and_t(self):
        g = heisenberg([[0]])
        z = degree_one_invariants(g)
        assert len(z) == 2
        c_vec = [0, 0, 1, 0]
        t_vec = [0, 0, 0, 1]
        assert rank(z + [c_vec, t_vec]) == len(z)

    def test_derived_subalgebras(self):
        g5 = filiform(5)
        d = g5.derived_subalgebra()
        assert d.dim == 3
        for k in (2, 3, 4):
            e_k = [1 if i == k else 0 for i in range(5)]
            assert rank(list(d.basis) + [e_k]) == d.dim
        assert abelian(3).derived_subalgebra().dim == 0
        p = panyushev()
        dp = p.derived_subalgebra()
        assert dp.dim == 3
        assert rank(list(dp.basis) + [[1, 0, 0, 0]]) == dp.dim + 1

    def test_subspace_canonical_equality(self):
        a = Subspace.from_spanning([[2, 0, 2], [0, 1, 1]])
        b = Subspace.from_spanning([[1, 1, 2], [0, 2, 2], [1, 0, 1]])
        assert a == b


class TestGradedAction:
    def test_filiform3_degree_one_action(self):
        g = filiform(3)
        basis, m = ad_on_graded(g, [1, 0, 0], 1)
        # v2 -> v3, everything else -> 0
        idx = {mm: i for i, mm in enumerate(basis)}
        col_v2 = [m[i][idx[(0, 1, 0)]] for i in range(3)]
        assert col_v2 == [0 if mm != (0, 0, 1) else 1
                          for mm in basis]
        col_v1 = [m[i][idx[(1, 0, 0)]] for i in range(3)]
        col_v3 = [m[i][idx[(0, 0, 1)]] for i in range(3)]
        assert all(x == 0 for x in col_v1 + col_v3)

    def test_zero_vector_acts_as_zero(self):
        g = filiform(4)
        _, m = ad_on_graded(g, [0, 0, 0, 0], 2)
        assert all(x == 0 for row in m for x in row)

    def test_filiform4_invariant_is_killed_in_degree_two(self):
        g = filiform(4)
        f = parse_polynomial("v2*v4 - 1/2*v3^2", g.names)
        assert g.apply_ad([1, 0, 0, 0], f).is_zero

    def test_degree_preserving(self):
        g = sl2()
        f = Polynomial.variable(3, 0) * Polynomial.variable(3, 2)
        out = g.apply_ad([0, 1, 0], f)
        assert out.is_zero or set(sum(m) for m in out.terms) == {2}

    @given(x=rational_vec(4), y=rational_vec(4))
    @settings(max_examples=30, deadline=None)
    def test_ad_is_a_representation(self, x, y):
        # ad([x,y]) = ad(x) ad(y) - ad(y) ad(x) on degree one
        g = panyushev()
        lhs = ad_of_vector(g, g.bracket(x, y))
        ax, ay = ad_of_vector(g, x), ad_of_vector(g, y)
        rhs = mat_sub(mat_mul(ax, ay), mat_mul(ay, ax))
        assert lhs == rhs

    @given(x=rational_vec(4))
    @settings(max_examples=30, deadline=None)
    def test_bracket_images_match_the_dense_bracket(self, x):
        for g in (panyushev(), filiform(4), abelian(4)):
            ad = ad_of_vector(g, x)
            assert g.bracket_images(x) == [
                {k: row[j] for k, row in enumerate(ad) if row[j]}
                for j in range(g.dim)]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_apply_ad_matches_the_derivation_of_the_images(
            self, data, catalog_algebras):
        # the table-driven ad(x) against the derivation x_j -> [x, v_j]
        g = data.draw(st.sampled_from(catalog_algebras))
        n = g.dim
        monomial = st.lists(st.integers(0, n - 1), max_size=3).map(
            lambda vs: tuple(vs.count(i) for i in range(n)))
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        f = data.draw(st.dictionaries(monomial, coeff, max_size=5).map(
            lambda terms: Polynomial(n, terms)))
        x = data.draw(rational_vec(n))
        assert g.apply_ad(x, f) == derivation_by_partials(
            f, g.bracket_images(x))

    @pytest.mark.parametrize("one", [1, Fraction(1)])
    def test_basis_vector_images_match_the_dense_ad_matrix(
            self, one, catalog_algebras, rotated_sl2):
        # e_i reads rows of the bracket table; -e_i and 2 e_i take the
        # general path; all of them against column j of ad(v_i)
        for g in catalog_algebras + [rotated_sl2]:
            n = g.dim
            polys = monomials_of_degree(n, 1) + monomials_of_degree(n, 2)
            polys = [Polynomial(n, {m: 1}) for m in polys] + [Polynomial(
                n, {m: Fraction(t + 1, 3) for t, m in
                    enumerate(monomials_of_degree(n, 3))})]
            for i in range(n):
                ad = ad_of_vector(g, [1 if t == i else 0 for t in range(n)])
                for c in (one, -one, 2 * one):
                    x = [c if t == i else 0 for t in range(n)]
                    dense = [{k: c * row[j] for k, row in enumerate(ad)
                              if row[j]} for j in range(n)]
                    assert g.bracket_images(x) == dense, (g.label, i, c)
                    for f in polys:
                        assert g.apply_ad(x, f) == \
                            derivation_by_partials(f, dense)

    def test_images_keep_their_keys_ascending(self):
        # a row given in descending order is stored ascending, so the
        # basis-vector images that copy it ascend too
        g = LieAlgebra(["a", "b", "c", "d"], {(0, 1): {3: 1, 2: 2}})
        assert list(g.brackets[(0, 1)]) == [2, 3]
        for x in ([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]):
            assert all(list(image) == sorted(image)
                       for image in g.bracket_images(x))

    def test_basis_vector_images_above_the_diagonal_are_the_table_rows(
            self, catalog_algebras):
        # for v_i and i < j, image j is row (i, j) itself, not a copy
        for g in catalog_algebras:
            for i in range(g.dim):
                images = g.bracket_images([int(t == i) for t in range(g.dim)])
                for j in range(i + 1, g.dim):
                    if (i, j) in g.brackets:
                        assert images[j] is g.brackets[(i, j)]

    def test_leibniz_through_monomial_pairs(self):
        g = filiform(4)
        x = [1, 2, 0, Fraction(1, 2)]
        a = parse_polynomial("v2*v3", g.names)
        b = parse_polynomial("v3^2 - v1*v4", g.names)
        assert g.apply_ad(x, a * b) == \
            g.apply_ad(x, a) * b + a * g.apply_ad(x, b)

    def test_center_annihilated_in_degree_one(self, catalog_algebras):
        for g in catalog_algebras:
            z = degree_one_invariants(g)
            # they span the centre of the dense oracle
            center = oracles.center(g)
            assert rank(z) == rank(z + center) == len(center), g.label
            for vec in z:
                f = sum((c * Polynomial.variable(g.dim, k)
                         for k, c in enumerate(vec)), Polynomial.zero(g.dim))
                for i in range(g.dim):
                    e_i = [1 if t == i else 0 for t in range(g.dim)]
                    assert g.apply_ad(e_i, f).is_zero


class TestUnimodular:
    def test_filiform_is_unimodular(self):
        for n in (3, 5, 7):
            assert unimodular(filiform(n))

    def test_panyushev_is_not(self):
        assert not unimodular(panyushev())

    def test_abelian_is(self):
        assert unimodular(abelian(2))


@pytest.fixture
def charpolys(monkeypatch):
    """The sizes of the matrices whose characteristic polynomial
    ``jordan_chevalley`` computes."""
    sizes = []
    charpoly = lie_module.linalg.charpoly

    def counting(m):
        sizes.append(len(m))
        return charpoly(m)
    monkeypatch.setattr(lie_module.linalg, "charpoly", counting)
    return sizes


def jordan_chevalley_exact(d):
    """``jordan_chevalley(d)``, asserting each entry is in the form
    ``_q`` returns."""
    ds, dp = jordan_chevalley(d)
    assert all(is_exact(x) for m in (ds, dp) for row in m for x in row)
    return ds, dp


class TestJordanChevalley:
    def test_nilpotent_input(self):
        g = filiform(4)
        d = g.ad_matrix(0)
        ds, dp = jordan_chevalley_exact(d)
        assert mat_eq_zero(ds) and dp == d

    def test_diagonal_input(self, charpolys):
        d = [[Fraction(2), 0], [0, Fraction(-3)]]
        assert jordan_chevalley_exact(d) == (d, [[0, 0], [0, 0]])
        # its own semisimple part: no Newton iteration
        assert charpolys == []

    def test_jordan_block(self, charpolys):
        ds, dp = jordan_chevalley_exact([[Fraction(1), Fraction(1)],
                                         [Fraction(0), Fraction(1)]])
        assert ds == identity(2)
        assert dp == [[0, 1], [0, 0]]
        # one for the iteration, one for the semisimplicity check
        assert charpolys == [2, 2]

    def test_conjugate_of_a_diagonal_takes_the_newton_path(self, charpolys):
        d = [[3, 0, 0], [0, Fraction(-1, 2), 0], [0, 0, 3]]
        p = [[1, 1, 0], [0, 1, 2], [1, 0, 1]]
        conj = mat_mul(mat_mul(p, d), inverse(p))
        assert any(conj[i][j] for i in range(3) for j in range(3) if i != j)
        ds, dp = jordan_chevalley_exact(conj)
        assert ds == conj and mat_eq_zero(dp)
        assert charpolys == [3, 3]

    def test_newton_path_keeps_integral_values_int(self):
        ds, dp = jordan_chevalley_exact([[3, 1, 0], [0, 3, 0],
                                         [0, 0, Fraction(1, 2)]])
        assert ds == [[3, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 2)]]
        assert dp == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]

    def test_irrational_spectrum(self):
        # diag(C, C) + [[0, I], [0, 0]], C the companion matrix of t^2 - 2
        ds, dp = jordan_chevalley_exact([[0, 2, 1, 0], [1, 0, 0, 1],
                                         [0, 0, 0, 2], [0, 0, 1, 0]])
        assert ds == [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
        assert dp == [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_defining_properties_on_random_matrices(self, rows):
        d = [[Fraction(x) for x in row] for row in rows]
        ds, dp = jordan_chevalley_exact(d)
        assert mat_sub(d, ds) == dp
        assert mat_eq_zero(mat_sub(mat_mul(ds, dp), mat_mul(dp, ds)))
        power = dp
        for _ in range(3):
            power = mat_mul(power, dp)
        assert mat_eq_zero(power)
        minimal = oracles.minimal_polynomial(ds)
        assert squarefree_part(minimal) == minimal

    def test_non_convergence_raises_an_internal_check_error(
            self, monkeypatch):
        # the Newton iteration never sees s(x) = 0
        monkeypatch.setattr(lie_module, "mat_eq_zero", lambda m: False)
        with pytest.raises(InternalCheckError, match="converge"):
            jordan_chevalley([[Fraction(1), Fraction(1)],
                              [Fraction(0), Fraction(2)]])

    def test_a_non_semisimple_part_raises_an_internal_check_error(
            self, monkeypatch):
        # the first s(x) reads zero, so the iteration stops on D itself,
        # a Jordan block, with a zero nilpotent part
        poly_of_matrix = lie_module.linalg.poly_of_matrix
        calls = []

        def zero_first(cs, m):
            calls.append(cs)
            return ([[0] * len(m) for _ in m] if len(calls) == 1
                    else poly_of_matrix(cs, m))
        monkeypatch.setattr(lie_module.linalg, "poly_of_matrix", zero_first)
        with pytest.raises(InternalCheckError, match="not semisimple"):
            jordan_chevalley([[1, 1], [0, 1]])


class TestInducedAndJson:
    def test_induced_subalgebra_closure_check(self):
        g = sl2()
        # [e, f] = h escapes span(e, f)
        with pytest.raises(LieAlgebraError):
            g.induced_algebra([[1, 0, 0], [0, 1, 0]], ["e", "f"])
        h = g.induced_algebra([[1, 0, 0], [0, 0, 1]], ["e", "h"])
        assert h.dim == 2 and not h.is_abelian

    def test_round_trip_catalog(self, catalog_algebras):
        for g in catalog_algebras:
            again = LieAlgebra.from_json(json.dumps(g.to_json_dict()))
            assert again == g

    def test_equal_algebras_hash_alike(self, catalog_algebras):
        # the same table, its pairs and a row's keys given in another
        # order and one coefficient as a Fraction
        g = LieAlgebra(["v1", "v2", "v3"],
                       {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 1}})
        again = LieAlgebra(["v1", "v2", "v3"],
                           {(0, 2): {2: Fraction(2, 2)},
                            (0, 1): {2: 1, 1: 1}}, label="again")
        assert again == g and hash(again) == hash(g)
        for h in catalog_algebras:
            assert hash(h) == hash(LieAlgebra.from_json_dict(
                h.to_json_dict()))

    def test_records_holding_an_algebra_hash(self):
        first, second = (coregular.analyze(sl2()) for _ in range(2))
        assert first == second and hash(first) == hash(second)
        for record in (first.kernel, first.geometry, first.semi_generators,
                       first.invariant_generators):
            assert isinstance(hash(record), int)

    def test_malformed_json_raises(self):
        with pytest.raises(LieAlgebraError):
            LieAlgebra.from_json("{not json")
        with pytest.raises(LieAlgebraError):
            LieAlgebra.from_json(json.dumps({"basis": ["v1"],
                                             "brackets": [{"i": 0, "j": 1,
                                                           "coeffs": {}}]}))
        with pytest.raises(LieAlgebraError):
            LieAlgebra.from_json(json.dumps({"name": "x"}))

    def test_rational_coefficients_in_json(self):
        data = {"name": "halves", "basis": ["a", "b", "c"],
                "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1/2"}}]}
        g = LieAlgebra.from_json(json.dumps(data))
        assert g.bracket_basis(0, 1) == [0, 0, Fraction(1, 2)]


def test_is_derivation_helper():
    g = example32()
    assert is_derivation(g, g.ad_matrix(0))
    not_der = [[Fraction(1), 0, 0], [0, 0, 0], [0, 0, 0]]
    assert not is_derivation(g, not_der)
