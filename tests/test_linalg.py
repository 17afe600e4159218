from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coregular import linalg
from coregular.linalg import (SparseEchelon, charpoly, identity, inverse,
                              kernel_of_columns, mat_mul, mat_vec, nullspace,
                              poly_of_matrix, rank, rational_roots, rref,
                              solve, squarefree_part)
import oracles
from conftest import is_exact

# sparse vectors with integer and non-integer values
mixed_vectors = st.lists(st.dictionaries(
    st.integers(0, 5),
    st.integers(-4, 4) | st.fractions(min_value=-3, max_value=3,
                                      max_denominator=4),
    max_size=5), max_size=8)

small_mat = st.lists(
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    min_size=3, max_size=3)


def test_rref_canonical():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert reduced == [[1, 2]]
    assert pivots == [0]


def test_nullspace_equations():
    basis = nullspace([[1, 2, 3], [0, 1, 1]], 3)
    assert len(basis) == 1
    for row in [[1, 2, 3], [0, 1, 1]]:
        assert sum(c * x for c, x in zip(row, basis[0])) == 0


def test_solve_and_inverse():
    a = [[2, 1], [1, 1]]
    x = solve(a, [3, 2])
    assert mat_vec(a, x) == [Fraction(3), Fraction(2)]
    assert mat_mul(a, inverse(a)) == identity(2)
    assert solve([[1, 1], [1, 1]], [0, 1]) is None
    with pytest.raises(ValueError):
        inverse([[1, 1], [1, 1]])


@given(small_mat)
@settings(max_examples=40)
def test_charpoly_cayley_hamilton(a):
    chi = charpoly(a)
    assert all(x == 0 for row in poly_of_matrix(chi, a) for x in row)


def mul(*factors):
    """The coefficient list of a product of coefficient lists."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = prod
    return out


def test_squarefree_part():
    # (t-1)^2 (t+2) -> (t-1)(t+2)
    assert squarefree_part(mul([-1, 1], [-1, 1], [2, 1])) == [-2, 1, 1]


@pytest.mark.parametrize("cs", [[], [1, 0], [0]])
def test_univariate_helpers_reject_a_zero_leading_coefficient(cs):
    with pytest.raises(ValueError):
        rational_roots(cs)
    with pytest.raises(ValueError):
        squarefree_part(cs)


def test_rational_roots_with_multiplicity():
    # (2t - 1)^2 (t + 3) t
    roots, residual = rational_roots(mul([-1, 2], [-1, 2], [3, 1], [0, 1]))
    assert residual == 0
    assert dict(roots) == {Fraction(0): 1, Fraction(1, 2): 2, Fraction(-3): 1}


def test_rational_roots_flags_irrational_factor():
    roots, residual = rational_roots([-2, 0, 1])
    assert roots == [] and residual == 2
    roots, residual = rational_roots(mul([-1, 1], [1, 0, 1]))
    assert dict(roots) == {Fraction(1): 1} and residual == 2


small_roots = st.lists(st.fractions(min_value=-6, max_value=6,
                                    max_denominator=4),
                       min_size=1, max_size=5)


def product_of_linear_factors(roots, lead):
    return mul([lead], *([-r, 1] for r in roots))


@given(small_roots, st.integers(1, 4), st.sampled_from([0, 2, 3]),
       st.booleans())
@settings(max_examples=60)
def test_lifted_roots_equal_the_trial_division_roots(roots, lead, c, cube):
    # an extra factor t^2 + c or t^3 - 2 leaves a residual degree
    p = mul(product_of_linear_factors(roots, lead), [c, 0, 1])
    if cube:
        p = mul(p, [-2, 0, 0, 1])
    assert rational_roots(p) == oracles.trial_division_roots(p)


def test_rational_roots_of_large_coefficients():
    # the constant term is about 10^21: trial division to its square
    # root would never finish
    weights = [1009, -1013, 1019, 1021, -1031, 1033, Fraction(1039, 7)]
    p = mul([0, 0, 1], [10 ** 30 + 1, 0, 1], *([-w, 1] for w in weights))
    roots, residual = rational_roots(p)
    assert [r for r, _ in roots] == sorted([Fraction(0)] + weights)
    assert dict(roots) == {Fraction(0): 2, **{Fraction(w): 1 for w in weights}}
    assert residual == 2


class TestSparse:
    def test_echelon_is_canonical(self):
        ech1 = SparseEchelon()
        ech2 = SparseEchelon()
        rows = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1)},
                {0: Fraction(3), 1: Fraction(1)}]
        for r in rows:
            ech1.add(dict(r))
        for r in reversed(rows):
            ech2.add(dict(r))
        assert ech1.rows == ech2.rows

    def test_reduce_detects_membership(self):
        ech = SparseEchelon()
        ech.add({0: Fraction(1), 2: Fraction(-1)})
        ech.add({1: Fraction(2)})
        assert ech.reduce({0: Fraction(3), 1: Fraction(1),
                           2: Fraction(-3)}) == {}
        assert ech.reduce({2: Fraction(1)}) != {}

    @given(st.lists(st.dictionaries(st.integers(0, 4),
                                    st.fractions(min_value=-3, max_value=3,
                                                 max_denominator=2),
                                    max_size=4),
                    min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_kernel_of_columns_annihilates(self, images):
        images = [{k: v for k, v in img.items() if v != 0} for img in images]
        for coeffs in kernel_of_columns(images):
            acc: dict = {}
            for j, c in coeffs.items():
                for k, v in images[j].items():
                    acc[k] = acc.get(k, 0) + c * v
            assert all(x == 0 for x in acc.values())

    @given(st.data())
    @settings(max_examples=60)
    def test_kernel_of_disjoint_systems_is_the_union(self, data):
        column = st.dictionaries(
            st.integers(0, 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=2)
            .filter(bool), max_size=3)
        a = data.draw(st.lists(column, max_size=5))
        b = data.draw(st.lists(column, max_size=5))
        take_a = data.draw(st.permutations(
            [True] * len(a) + [False] * len(b)))
        # interleave the columns, keeping each system's own order
        images, where = [], {True: [], False: []}
        pending = {True: iter(a), False: iter(b)}
        for side in take_a:
            where[side].append(len(images))
            tag = "a" if side else "b"
            images.append({(tag, k): v for k, v in next(pending[side]).items()})
        expected = [{where[side][j]: c for j, c in vec.items()}
                    for side, system in ((True, a), (False, b))
                    for vec in kernel_of_columns(system)]
        expected.sort(key=lambda vec: max(vec))
        assert kernel_of_columns(images) == expected

    @given(st.lists(st.dictionaries(st.integers(0, 6),
                                    st.fractions(min_value=-3, max_value=3,
                                                 max_denominator=2),
                                    max_size=4),
                    max_size=8))
    @settings(max_examples=80)
    def test_echelon_index_matches_rows(self, vectors):
        ech = SparseEchelon()
        for vec in vectors:
            ech.add(vec)
            for p, row in ech.rows.items():
                assert all(type(v) is int for v in row.values())
                assert row[p] > 0 and gcd(*row.values()) == 1
                assert ech.row(p)[p] == 1
                assert not any(k in ech.rows for k in row if k != p)
            keys = {k for row in ech.rows.values() for k in row}
            for k in keys - ech.rows.keys():
                assert ech.holders[k] == {p for p, row in ech.rows.items()
                                          if k in row}
            assert all(not ech.holders[k] for k in ech.holders.keys() - keys)

    @given(mixed_vectors)
    @settings(max_examples=100)
    def test_kernel_of_columns_matches_the_dense_nullspace(self, images):
        keys = sorted({k for img in images for k in img})
        dense = [[img.get(k, 0) for img in images] for k in keys]
        expected = [{j: c for j, c in enumerate(vec) if c}
                    for vec in oracles.nullspace(dense, len(images))]
        basis = kernel_of_columns(images)
        assert basis == expected
        assert all(is_exact(c) for vec in basis for c in vec.values())

    @given(mixed_vectors)
    @settings(max_examples=60)
    def test_solution_space_reads_alike_from_a_one_shot_generator(
            self, images):
        keys = sorted({k for img in images for k in img})
        # the equation of each key, yielded once
        equations = ({j: img[k] for j, img in enumerate(images) if k in img}
                     for k in keys)
        space = linalg.SolutionSpace(equations, len(images))
        # eliminated in full on construction
        assert next(equations, None) is None
        basis = kernel_of_columns(images)
        for _ in range(2):
            assert space.dim == len(basis)
            assert space.basis() == basis

    @given(st.data())
    @settings(max_examples=100)
    def test_solution_space_does_not_depend_on_the_equation_order(
            self, data):
        # ``SolutionSpace`` orders a system itself, so its callers may
        # hand the equations over in any order
        equations = data.draw(mixed_vectors)
        shuffled = data.draw(st.permutations(equations))
        first, second = (linalg.SolutionSpace(eqs, 6)
                         for eqs in (equations, shuffled))
        assert first.dim == second.dim
        assert first.echelon.rows == second.echelon.rows
        assert first.basis() == second.basis()

    @given(mixed_vectors)
    @settings(max_examples=100)
    def test_echelon_stores_integers_as_int_and_reads_out_fractions(
            self, vectors):
        ech = SparseEchelon()
        for vec in vectors:
            pivot = ech.add(vec)
            if pivot is not None:
                row = ech.row(pivot)
                assert pivot == min(row)
                assert type(row[pivot]) is int and row[pivot] == 1
                assert all(is_exact(c) for c in row.values())
            for stored in ech.rows.values():
                assert all(type(v) is int for v in stored.values())

    @given(st.data())
    @settings(max_examples=100)
    def test_echelon_readouts_match_the_dense_rref_in_any_order(self, data):
        vectors = data.draw(mixed_vectors)
        order = data.draw(st.permutations(range(len(vectors))))
        ech = SparseEchelon()
        for i in order:
            ech.add(vectors[i])
        dense = [[vec.get(j, 0) for j in range(6)] for vec in vectors]
        reduced, pivots = oracles.rref(dense)
        assert sorted(ech.rows) == pivots
        assert [[ech.row(p).get(j, 0) for j in range(6)]
                for p in pivots] == reduced

    @given(mixed_vectors, mixed_vectors)
    @settings(max_examples=100)
    def test_extend_reads_out_each_vector_that_raises_the_rank(
            self, old, vectors):
        ech = SparseEchelon()
        for vec in old:
            ech.add(vec)
        before = set(ech.rows)
        old_rows = [ech.row(p) for p in before]

        def rank(vecs):
            return oracles.rank([[vec.get(j, 0) for j in range(6)]
                                 for vec in vecs])

        new = ech.extend(vectors)
        assert [t for t, _ in new] == [
            t for t in range(len(vectors))
            if rank(old_rows + vectors[:t + 1]) > rank(old_rows + vectors[:t])]
        pivots = [min(row) for _, row in new]
        assert len(set(pivots)) == len(pivots)
        assert not before & set(pivots)
        for (t, row), p in zip(new, pivots):
            assert row[p] == 1
            # the row as inserted: in the span of what was added so far
            span = old_rows + vectors[:t + 1]
            assert rank(span + [row]) == rank(span)
        rows = [ech.row(p) for p in ech.rows]
        assert rank(rows) == rank(old_rows + vectors) \
            == rank(rows + old_rows + vectors)

    def test_kernel_rank_nullity(self):
        images = [{"a": Fraction(1)}, {"a": Fraction(1), "b": Fraction(1)},
                  {"b": Fraction(1)}, {}]
        ker = kernel_of_columns(images)
        # rank 2, four columns -> nullity 2
        assert len(ker) == 2


rationals = (st.integers(-4, 4)
             | st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def dense_systems(draw):
    """(rows, ncols, b): no rows, zero rows, wide and tall shapes, and a
    right-hand side that is either arbitrary or in the column span."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols),
                         max_size=6))
    for at in draw(st.lists(st.integers(0, len(rows)), max_size=2)):
        rows.insert(at, [0] * ncols)
    if draw(st.booleans()):
        x = draw(st.lists(rationals, min_size=ncols, max_size=ncols))
        b = mat_vec(rows, x)
    else:
        b = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    return rows, ncols, b


@given(dense_systems())
@settings(max_examples=120)
@example(([], 3, []))
@example(([[1, 2, 0, 3, 1], [0, 0, 0, 0, 0]], 5, [1, 0]))
@example(([[1, 2], [2, 4], [0, 1], [3, 0], [0, 0]], 2, [1, 2, 0, 3, 0]))
def test_dense_routines_match_the_gauss_jordan_oracle(system):
    rows, ncols, b = system
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == oracles.rref(rows)
    assert all(is_exact(x) for row in reduced for x in row)
    assert rank(rows) == oracles.rank(rows)
    basis = nullspace(rows, ncols)
    assert basis == oracles.nullspace(rows, ncols)
    assert all(is_exact(x) for vec in basis for x in vec)
    x = solve(rows, b)
    assert x == oracles.solve(rows, b)
    assert x is None or all(is_exact(v) for v in x)


@given(small_mat)
@settings(max_examples=40)
def test_rank_against_nullity(a):
    assert rank(a) + len(nullspace(a, 3)) == 3
