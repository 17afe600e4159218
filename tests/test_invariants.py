from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poly_pairs, poly_strategy, seaweed
from coregular import invariants, linalg
from coregular.catalog import (abelian, example32, filiform, heisenberg,
                               panyushev, sl2)
from coregular.grobner import BudgetExceededError
from coregular.invariants import (GeneratorSet, SemiInvariant, WeightVector,
                                  _exponent_vectors, algebraically_independent,
                                  find_relations, gorenstein_invariant,
                                  graded_semi_invariants, jacobian_matrix,
                                  minimal_generators, poly_matrix_rank,
                                  semicenter_dims,
                                  structural_no_proper_reason, trdeg_check,
                                  verify_semi_invariant)
from coregular.kernel import reduce_one_step
from coregular.lie import LieAlgebra
from coregular.linalg import InternalCheckError
from coregular.poly import DEGREVLEX, ORDERS, Polynomial, format_polynomial
import oracles
from oracles import (poisson_bracket, substitute_generators,
                     weight_derivation)
from polytext import parse_polynomial

WEIGHTS = [(1, 1, -1), (2, -1, 3), (5, -7, 11)]
# the compositions of 2 and 3, which give the seaweeds of sl2 and sl3
COMPOSITIONS = {2: [(2,), (1, 1)],
                3: [(3,), (2, 1), (1, 2), (1, 1, 1)]}


def fmt(p, g):
    return format_polynomial(p, g.names)


def weights_of(block_list):
    return sorted(tuple(w.values) for w, _ in block_list)


def weight_zero(graded):
    """The basis of the weight-zero block of a graded search (the
    invariants of its degree), or () when there is none."""
    return next((basis for w, basis in graded.blocks if w.is_zero), ())


def weights_algebra(weights):
    """A line acting on Q^3 with the given weights: [v1, v_i] = w_i v_i."""
    return LieAlgebra(["v1", "v2", "v3", "v4"],
                      {(0, i + 1): {i + 1: w} for i, w in enumerate(weights)})


# eigenspaces that are not spanned by monomials, an irrational spectrum,
# a Jordan block ([v1, v2] = v2, [v1, v3] = v2 + v3), weights
# (2, -1, 3) in the basis v1, v1 + v2, v3, v4, where [g,g] is not
# spanned by basis vectors, so a weight is nonzero on its pivots, and
# two diagonalizable ad(v1) whose restricted matrices are triangular but
# not diagonal, one lower and one upper
HAND_MADE = [
    LieAlgebra(["v1", "v2", "v3"], {(0, 1): {2: 1}, (0, 2): {1: 1}},
               label="swap"),
    LieAlgebra(["v1", "v2", "v3"], {(0, 1): {2: 1}, (0, 2): {1: -1}},
               label="rotation"),
    LieAlgebra(["v1", "v2", "v3"], {(0, 1): {1: 1}, (0, 2): {1: 1, 2: 1}},
               label="jordan"),
    weights_algebra((2, -1, 3)).induced_algebra(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ["a1", "a2", "a3", "a4"], label="skewed"),
    LieAlgebra(["v1", "v2", "v3"], {(0, 1): {1: 2}, (0, 2): {1: 1, 2: 1}},
               label="lower"),
    LieAlgebra(["v1", "v2", "v3"], {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 2}},
               label="upper"),
]


def dense_invariants(g, d):
    """Canonical basis of the degree-d invariants from the dense oracle:
    the common kernel of ad(v_1..v_n) on S^d, in reduced echelon form.
    The monomials descend, so each row's pivot is its leading monomial."""
    n = g.dim
    rows = []
    for i in range(n):
        monomials, m = oracles.ad_on_graded(g, [int(t == i) for t in range(n)],
                                            d)
        rows += m
    reduced, _ = oracles.rref(oracles.nullspace(rows, len(monomials)))
    return [Polynomial(n, dict(zip(monomials, row))) for row in reduced]


def make_generator_set(g, polys, degree_bound=None):
    zero = WeightVector.of([0] * g.dim)
    gens = tuple(SemiInvariant(p, zero, p.total_degree()) for p in polys)
    return GeneratorSet(algebra=g, degree_bound=degree_bound or g.dim,
                        generators=gens, irrational_degrees=())


class TestGradedSearch:
    def test_panyushev_degree_one(self):
        g = panyushev()
        graded = graded_semi_invariants(g, 1)
        blocks = {tuple(w.values): [fmt(f, g) for f in basis]
                  for w, basis in graded.blocks}
        one = Fraction(1)
        assert blocks == {
            (one, 0, 0, 0): ["v2", "v3"],
            (-one, 0, 0, 0): ["v4"],
        }
        assert weight_zero(graded) == ()
        assert not graded.irrational_flag

    def test_panyushev_degree_two_invariants(self):
        g = panyushev()
        graded = graded_semi_invariants(g, 2)
        assert [fmt(f, g) for f in weight_zero(graded)] == ["v2*v4", "v3*v4"]

    def test_filiform3_degree_one(self):
        g = filiform(3)
        graded = graded_semi_invariants(g, 1)
        assert len(graded.blocks) == 1
        w, basis = graded.blocks[0]
        assert w.is_zero and [fmt(f, g) for f in basis] == ["v3"]

    def test_example32_semi_center_dimensions(self):
        g = example32()
        dims = [graded_semi_invariants(g, d).total_dim() for d in (1, 2, 3)]
        assert dims == [1, 1, 1]
        for d in (1, 2, 3):
            graded = graded_semi_invariants(g, d)
            (w, basis), = graded.blocks
            assert fmt(basis[0], g) == ("v3" if d == 1 else f"v3^{d}")
            assert w.values == (Fraction(d), 0, 0)

    def test_abelian_everything_invariant(self):
        g = abelian(3)
        graded = graded_semi_invariants(g, 2)
        (w, basis), = graded.blocks
        assert w.is_zero and len(basis) == 6

    def test_weights_vanish_on_derived(self, catalog_algebras):
        for g in catalog_algebras:
            graded = graded_semi_invariants(g, 2)
            derived = g.derived_subalgebra()
            for w, _ in graded.blocks:
                for b in derived:
                    assert sum(c * x for c, x in zip(w.values, b)) == 0

    def test_defining_identity_holds(self, catalog_algebras):
        for g in catalog_algebras:
            graded = graded_semi_invariants(g, 2)
            for w, basis in graded.blocks:
                for f in basis:
                    assert verify_semi_invariant(g, f, w)

    def test_wrong_weights_are_rejected(self):
        # [v1, v2] = 2 v2: ad(v1)(v2^2) = 4 v2^2, and ad(v2)(v2^2) = 0,
        # while ad(v2)(v1) = -2 v2 is nonzero where the weight is zero
        g = weights_algebra((2, -1, 3))
        v1, v2 = Polynomial.variable(4, 0), Polynomial.variable(4, 1)
        assert verify_semi_invariant(g, v2 ** 2, WeightVector.of([4, 0, 0, 0]))
        for f, w in ((v2 ** 2, [0, 0, 0, 0]), (v2 ** 2, [4, 1, 0, 0]),
                     (v2 ** 2, [2, 0, 0, 0]), (v1, [0, 0, 0, 0])):
            assert not verify_semi_invariant(g, f, WeightVector.of(w)), (f, w)

    def test_fractional_constants_and_coefficients(self):
        # [v1, v_i] = w_i v_i with w = (1/2, -3/4, 5): the check scales
        # f, the bracket constants and the weight to integers
        g = weights_algebra((Fraction(1, 2), Fraction(-3, 4), 5))
        v2, v3, v4 = (Polynomial.variable(4, i) for i in (1, 2, 3))
        f = (v2 ** 2 * v3 + v4 * v2 * Fraction(2, 3)) * Fraction(1, 7)
        # v2^2 v3 has weight 2 * 1/2 - 3/4 = 1/4 and v2 v4 has 1/2 + 5,
        # so f has none
        assert verify_semi_invariant(g, v2 ** 2 * v3 * Fraction(1, 7),
                                     WeightVector.of(["1/4", 0, 0, 0]))
        assert verify_semi_invariant(g, v4 * Fraction(5, 3),
                                     WeightVector.of([5, 0, 0, 0]))
        for w in (["1/4", 0, 0, 0], ["11/2", 0, 0, 0], [1, 0, 0, 0]):
            assert not verify_semi_invariant(g, f, WeightVector.of(w)), w
        assert not verify_semi_invariant(g, v2, WeightVector.of(
            ["1/2", "1/3", 0, 0]))
        for d in (1, 2, 3):
            graded = graded_semi_invariants(g, d)
            assert (graded.blocks, graded.irrational_flag) == \
                oracles.eigen_blocks(g, d)
            assert any(x.denominator > 1 for w, _ in graded.blocks
                       for x in w.values)

    def test_zero_and_off_derived_weights_fail_and_sizes_raise(self):
        # [v1, v4] = -v4, so v4 has weight (-1, 0, 0, 0); [g, g] is
        # spanned by v2, v3, v4
        g = panyushev()
        v4 = Polynomial.variable(4, 3)
        assert verify_semi_invariant(g, v4, WeightVector.of([-1, 0, 0, 0]))
        # every ad(v_i) kills the zero polynomial, whatever the weight
        assert not verify_semi_invariant(g, Polynomial.zero(4),
                                         WeightVector.of([5, 5, 5, 5]))
        # a weight that does not vanish on [g, g]
        assert not verify_semi_invariant(g, v4, WeightVector.of([-1, 5, 5, 5]))
        for f, w in ((v4, [-1, 0, 0, 0, 7]), (v4, [-1, 0, 0]),
                     (Polynomial.variable(3, 2), [-1, 0, 0, 0])):
            with pytest.raises(ValueError, match="another algebra"):
                verify_semi_invariant(g, f, WeightVector.of(w))

    def test_weight_zero_block_is_the_dense_common_kernel(
            self, catalog_algebras):
        for g in catalog_algebras + [weights_algebra(w) for w in WEIGHTS]:
            for d in (1, 2, 3):
                assert list(weight_zero(graded_semi_invariants(g, d))) == \
                    dense_invariants(g, d), (g.label, d)

    def test_one_system_matches_successive_intersection(
            self, catalog_algebras):
        cases = [(g, d) for g in catalog_algebras +
                 [weights_algebra(w) for w in WEIGHTS] for d in (1, 2, 3)]
        cases += [(filiform(6), d) for d in (4, 5)]
        for g, d in cases:
            basis = [[int(t == i) for t in range(g.dim)]
                     for i in range(g.dim)]
            assert oracles.common_kernel(g, d, basis, DEGREVLEX) == \
                oracles.kernel_intersection(g, d, basis), (g.label, d)

    @pytest.mark.parametrize("g", [panyushev(), example32(),
                                   weights_algebra((2, -1, 3))],
                             ids=["panyushev", "example32", "weights(2,-1,3)"])
    def test_derived_candidate_space_matches_successive_intersection(self, g):
        vectors = g.derived_subalgebra()
        assert vectors
        for d in (1, 2, 3):
            assert oracles.common_kernel(g, d, vectors, DEGREVLEX) == \
                oracles.kernel_intersection(g, d, vectors)

    @pytest.mark.parametrize("g, degree, irrational, expected", [
        (HAND_MADE[0], 1, False, [((-1, 0, 0), ["v2 - v3"]),
                                  ((1, 0, 0), ["v2 + v3"])]),
        (HAND_MADE[0], 2, False, [((0, 0, 0), ["v2^2 - v3^2"]),
                                  ((-2, 0, 0), ["v2^2 - 2*v2*v3 + v3^2"]),
                                  ((2, 0, 0), ["v2^2 + 2*v2*v3 + v3^2"])]),
        (HAND_MADE[1], 1, True, []),
        (HAND_MADE[1], 2, True, [((0, 0, 0), ["v2^2 + v3^2"])]),
        (HAND_MADE[2], 2, False, [((2, 0, 0), ["v2^2"])]),
        (HAND_MADE[3], 1, False, [((-1, -1, 0, 0), ["a3"]),
                                  ((2, 2, 0, 0), ["a1 - a2"]),
                                  ((3, 3, 0, 0), ["a4"])]),
    ], ids=["swap-1", "swap-2", "rotation-1", "rotation-2", "jordan-2",
            "skewed-1"])
    def test_hand_made_blocks(self, g, degree, irrational, expected):
        graded = graded_semi_invariants(g, degree)
        assert graded.irrational_flag == irrational
        assert [(w.values, [fmt(f, g) for f in basis])
                for w, basis in graded.blocks] == expected

    def test_blocks_are_canonical_and_weights_match_the_dense_solve(
            self, catalog_algebras):
        # the eigenspaces are read out without re-echelonizing, and the
        # weights follow from the reduced basis of [g,g] without a solve
        for g in (catalog_algebras + [weights_algebra(w) for w in WEIGHTS]
                  + HAND_MADE):
            pivots = {next(i for i, x in enumerate(b) if x)
                      for b in g.derived_subalgebra()}
            complement = [i for i in range(g.dim) if i not in pivots]
            for order, d in product(ORDERS.values(), (1, 2, 3)):
                for w, basis in graded_semi_invariants(g, d, order).blocks:
                    assert list(basis) == oracles._echelonize(
                        basis, g.dim, order), (g.label, order.name, d)
                    assert w == oracles.weight_from_eigenvalues(
                        g, complement, [w.values[c] for c in complement]), \
                        (g.label, order.name, d)

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_blocks_match_the_charpoly_eigen_loop(self, catalog_algebras, d):
        # example32 and "jordan" have restricted matrices that are not
        # diagonalizable; "rotation" has an irrational spectrum
        for g in catalog_algebras + HAND_MADE:
            graded = graded_semi_invariants(g, d)
            assert (graded.blocks, graded.irrational_flag) == \
                oracles.eigen_blocks(g, d), (g.label, d)

    @given(weights=st.tuples(*[st.one_of(
               st.integers(-12, 12), st.integers(100, 130),
               st.integers(-130, -100))] * 3),
           d=st.integers(1, 3))
    @example(weights=(101, 103, -107), d=3)
    @example(weights=(1, -1, 0), d=3)
    @settings(max_examples=25, deadline=None)
    def test_weights_blocks_match_the_charpoly_eigen_loop(self, weights, d):
        g = weights_algebra(weights)
        graded = graded_semi_invariants(g, d)
        assert (graded.blocks, graded.irrational_flag) == \
            oracles.eigen_blocks(g, d)

    @pytest.mark.parametrize("g", [HAND_MADE[0]], ids=["swap"])
    def test_a_missing_eigenvalue_candidate_raises(self, monkeypatch, g):
        # the degree-one block of "swap" is [[0, 1], [1, 0]], split by
        # the candidates from the spectrum of ad(v1) on g.  The largest
        # one is a weight on the block, and without it the eigenspaces
        # fall short
        complete = invariants._eigenvalue_candidates
        largest = complete(g, 0, 1)[-1]
        assert any(w.values[0] == largest
                   for w, _ in graded_semi_invariants(g, 1).blocks)
        monkeypatch.setattr(invariants, "_eigenvalue_candidates",
                            lambda g, idx, d: complete(g, idx, d)[:-1])
        with pytest.raises(InternalCheckError, match="candidate set"):
            graded_semi_invariants(g, 1)

    def test_an_irrational_eigenvalue_on_a_shortfall_raises(self):
        # the candidate 0 is no eigenvalue, and t^2 - 2 leaves a residual
        # degree: the eigenvalues lie outside the candidate set
        with pytest.raises(InternalCheckError, match="candidate set"):
            invariants._eigenspaces([[0, 2], [1, 0]], [0])

    def test_characteristic_polynomials_only_on_a_shortfall(self,
                                                            monkeypatch):
        sizes, roots = [], []
        charpoly, rational_roots = linalg.charpoly, linalg.rational_roots
        monkeypatch.setattr(linalg, "charpoly",
                            lambda m: sizes.append(len(m)) or charpoly(m))
        monkeypatch.setattr(linalg, "rational_roots",
                            lambda p: roots.append(p) or rational_roots(p))

        def search(g):
            # a new algebra, so no spectrum is cached yet
            g = LieAlgebra(g.names, g.brackets)
            sizes.clear()
            roots.clear()
            for d in (1, 2, 3):
                graded_semi_invariants(g, d)
            return sizes[:], len(roots)

        # a weights algebra is split by the eigenvalues of its basis
        # vectors, read off the bracket table: no characteristic
        # polynomial is computed, not even on g
        assert search(weights_algebra((2, -1, 3))) == ([], 0)
        # ad(v1) is diagonalizable on "lower", "upper", "swap" and
        # "skewed": only its spectrum on g is computed, once, and the
        # eigenspaces of its candidates fill every block
        assert search(HAND_MADE[4]) == ([3], 1)
        assert search(HAND_MADE[5]) == ([3], 1)
        assert search(HAND_MADE[0]) == ([3], 1)
        assert search(HAND_MADE[3]) == ([4], 1)
        # on the candidate spaces S^d(span(v2, v3)) of example32 and
        # "jordan", ad(v1) is not diagonalizable: every degree falls
        # short, and its restricted matrix is checked.  An irrational
        # spectrum on g ("rotation") leaves no candidates to try, so
        # each block's roots are its eigenvalues
        assert search(example32()) == ([3, 2, 3, 4], 4)
        assert search(HAND_MADE[2]) == ([3, 2, 3, 4], 4)
        assert search(HAND_MADE[1]) == ([3, 2, 3, 4], 4)

    @staticmethod
    def _split_without_charpoly(g, d, order=DEGREVLEX):
        """The search of a fresh copy of g in degree d, with every
        restricted matrix it splits; a characteristic polynomial of a
        block fails it.  The spectra on g, which give the candidates,
        are computed before."""
        matrices = []
        eigenspaces = invariants._eigenspaces
        g = LieAlgebra(g.names, g.brackets)
        for idx in range(g.dim):
            invariants._eigenvalue_candidates(g, idx, 1)

        def recording(m, candidates):
            matrices.append(m)
            return eigenspaces(m, candidates)

        def no_charpoly(m):
            raise AssertionError(f"charpoly of a {len(m)}x{len(m)} matrix")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "_eigenspaces", recording)
            mp.setattr(linalg, "charpoly", no_charpoly)
            graded = graded_semi_invariants(g, d, order)
        return graded, matrices

    @given(weights=st.lists(st.integers(-4, 4), min_size=1, max_size=4),
           d=st.integers(1, 3))
    @example(weights=[0, 0, 0], d=2)
    @example(weights=[2, 2, -1], d=3)
    @example(weights=[0, 3, 3, -3], d=3)
    @settings(max_examples=40, deadline=None)
    def test_diagonal_blocks_of_weights_algebras_need_no_charpoly(
            self, weights, d):
        # ad(v1) is diagonal on the basis, so each block is split by the
        # eigenvalues of its basis vectors: no restricted matrix, no
        # eigenspace system and no characteristic polynomial.  Zero and
        # repeated weights give repeated eigenvalues
        n = len(weights) + 1
        g = LieAlgebra([f"v{i + 1}" for i in range(n)],
                       {(0, i + 1): {i + 1: w}
                        for i, w in enumerate(weights) if w})
        assert (self._read_off(g, d), False) == oracles.eigen_blocks(g, d)

    @staticmethod
    def _read_off(g, d, order=DEGREVLEX):
        """The blocks of the search of g in degree d, which fails if it
        builds a restricted matrix, splits one or computes a
        characteristic polynomial."""
        def fail(*args):
            raise AssertionError("the general eigen path ran")

        with pytest.MonkeyPatch.context() as mp:
            for module, name in ((invariants, "_restricted_matrix"),
                                 (invariants, "_eigenspaces"),
                                 (linalg, "charpoly")):
                mp.setattr(module, name, fail)
            graded = graded_semi_invariants(g, d, order)
        assert not graded.irrational_flag
        return graded.blocks

    @pytest.mark.parametrize("a, b", [
        (a, b) for n in (2, 3) for a in COMPOSITIONS[n]
        for b in COMPOSITIONS[n]])
    def test_seaweeds_are_read_off_their_cartan(self, a, b):
        # the complement of [g,g] is spanned by some H_i, each diagonal
        # on the E_ij / H_i basis; b(sl3) is seaweed((1, 1, 1), (3,))
        g = seaweed(a, b)
        for order, d in product(ORDERS.values(), (1, 2, 3)):
            assert (self._read_off(g, d, order), False) == \
                oracles.eigen_blocks(g, d, order), (order.name, d)

    def test_example32_splits_through_eigenspaces_and_roots(
            self, monkeypatch):
        # ad(v1) is not diagonal on the basis ([v1, v2] = v2 + v3), so
        # each degree takes the general path, which falls short and
        # searches the roots of a characteristic polynomial, after the
        # one root search of the spectrum on g
        splits, roots = [], []
        eigenspaces, rational_roots = (invariants._eigenspaces,
                                       linalg.rational_roots)
        monkeypatch.setattr(invariants, "_eigenspaces", lambda m, c: (
            splits.append(len(m)) or eigenspaces(m, c)))
        monkeypatch.setattr(linalg, "rational_roots", lambda p: (
            roots.append(p) or rational_roots(p)))
        g = example32()
        assert invariants._torus_action(g, 0) is None
        for d in (1, 2, 3):
            graded_semi_invariants(g, d)
        # the blocks S^d(span(v2, v3))
        assert splits == [2, 3, 4] and len(roots) == 4

    @pytest.mark.parametrize("g, shape", [
        (HAND_MADE[4], "lower"), (HAND_MADE[5], "upper"),
        (HAND_MADE[3], "diagonal")], ids=["lower", "upper", "skewed"])
    def test_triangular_blocks_need_no_charpoly(self, g, shape):
        # "lower" splits blocks that are lower but not upper triangular,
        # "upper" blocks that are upper but not lower triangular, under
        # every order; "skewed" has a [g,g] off the basis vectors.  Each
        # ad(v1) is diagonalizable, so the candidates from its spectrum
        # on g fill every block with no characteristic polynomial
        for order, d in product(ORDERS.values(), (1, 2, 3)):
            graded, matrices = self._split_without_charpoly(g, d, order)
            assert matrices
            for m in matrices:
                above = any(m[i][j] for i in range(len(m))
                            for j in range(i + 1, len(m)))
                below = any(m[i][j] for i in range(len(m))
                            for j in range(i))
                assert shape == {(False, True): "lower",
                                 (True, False): "upper",
                                 (False, False): "diagonal"}[above, below]
            assert not graded.irrational_flag
            assert (graded.blocks, graded.irrational_flag) == \
                oracles.eigen_blocks(g, d, order), (order.name, d)

    @staticmethod
    def _bounded_root_search(monkeypatch):
        """Fail at once on a root search beyond the degree-1 spectrum of
        weights (101, 103, -107)."""
        search = linalg._lifted_root_candidates

        def bounded_search(coeffs):
            big = max(abs(c) for c in coeffs)
            assert big <= 101 * 103 * 107, f"root search with {big}"
            return search(coeffs)
        monkeypatch.setattr(linalg, "_lifted_root_candidates", bounded_search)

    def test_large_weights_take_roots_from_the_degree_one_spectrum(
            self, monkeypatch):
        # [v1, v_i] = w_i v_i: the degree-3 characteristic polynomials
        # would have huge coefficients, but the blocks are read off the
        # monomials, so no root search runs on them
        weights = (101, 103, -107)
        g = LieAlgebra(["v1", "v2", "v3", "v4"],
                       {(0, i + 1): {i + 1: w} for i, w in enumerate(weights)})
        self._bounded_root_search(monkeypatch)
        graded = graded_semi_invariants(g, 3)
        assert graded.total_dim() == 10
        assert not graded.irrational_flag
        monomials = set()
        for w, basis in graded.blocks:
            for f in basis:
                (m, _), = f.terms.items()
                assert m[0] == 0 and sum(m) == 3
                assert w.values == (sum(e * wi for e, wi in
                                        zip(m[1:], weights)), 0, 0, 0)
                monomials.add(m)
        assert len(monomials) == 10

    def test_rotated_large_weights_take_candidates_from_the_spectrum(
            self, monkeypatch):
        # in the basis v1, v2 + v3, v2 - v3, v4, ad(v1) is not diagonal:
        # each block is split through its restricted matrix, with the
        # sums of three weights as candidates, and the only root search
        # is on the degree-one spectrum
        g0 = weights_algebra((101, 103, -107))
        g = g0.induced_algebra(
            [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]],
            ["a1", "a2", "a3", "a4"])
        assert invariants._torus_action(g, 0) is None
        self._bounded_root_search(monkeypatch)
        graded = graded_semi_invariants(g, 3)
        assert not graded.irrational_flag
        assert weights_of(graded.blocks) == \
            weights_of(graded_semi_invariants(g0, 3).blocks)
        for w, basis in graded.blocks:
            assert len(basis) == 1


def generated_dim(g, vectors) -> int:
    """The dimension of the subalgebra that ``vectors`` generate: their
    span, with every bracket of two spanning vectors added until the
    rank stays put."""
    span = [list(v) for v in vectors]
    while True:
        before = linalg.rank(span)
        span += [g.bracket(x, y) for x in span for y in span]
        span = oracles.rref(span)[0]
        if len(span) == before:
            return before


class TestLieGenerators:
    """The structural search and count take ad of basis vectors that
    generate g as a Lie algebra, not of the whole basis."""

    def test_they_generate_g_and_keep_the_common_kernel(
            self, order_test_algebras):
        for g, bound in order_test_algebras:
            vectors = invariants._lie_generators(g)
            basis = [[int(t == i) for t in range(g.dim)]
                     for i in range(g.dim)]
            assert all(v in basis for v in vectors), g.label
            assert generated_dim(g, vectors) == g.dim, g.label
            if g.is_nilpotent():
                assert len(vectors) == \
                    g.dim - len(g.derived_subalgebra()), g.label
            for d in range(1, min(bound, 4) + 1):
                spaces = [oracles.common_kernel_system(
                    g, d, vs, DEGREVLEX)[1] for vs in (vectors, basis)]
                assert spaces[0].dim == spaces[1].dim
                assert spaces[0].echelon.rows == spaces[1].echelon.rows, \
                    (g.label, d)

    # L(7) by v1 and v2, sl2 (perfect) by e and f, an abelian algebra by
    # its whole basis
    @pytest.mark.parametrize("g, kept", [
        (filiform(7), [0, 1]), (sl2(), [0, 1]), (abelian(3), [0, 1, 2]),
    ], ids=["L7", "sl2", "abelian3"])
    def test_kept_basis_vectors(self, g, kept):
        assert invariants._lie_generators(g) == [
            [int(t == i) for t in range(g.dim)] for i in kept]


# (algebra to reduce, structural_no_proper_reason of its h, of its k):
# h and k are counted when it is set and searched when it is None.  The
# last three weight triples are from the benchmark's weights workload
# (seed 1).
REDUCED = [
    (example32, "nilpotent", "nilpotent"),
    (panyushev, "nilpotent", "nilpotent"),
] + [(lambda ws=ws: weights_algebra(ws), "nilpotent", "nilpotent")
     for ws in [(5, -7, 11), (9, 6, -6), (-5, 8, 6), (10, -7, 1)]] + [
    (lambda: seaweed((1, 1, 1), (3,)), None, None),
    (lambda: seaweed((2, 1), (1, 2)), None, None),
    (lambda: seaweed((1, 2), (3,)), "perfect", None),
]


def fresh(g):
    """An equal algebra with nothing computed on it yet."""
    return LieAlgebra(g.names, g.brackets, label=g.label)


class TestSemicenterCount:
    @pytest.mark.parametrize("build, h_reason, k_reason", REDUCED)
    def test_count_equals_the_search(self, build, h_reason, k_reason):
        g = build()
        semi = minimal_generators(g, 3)[0]
        proper = next(s for s in semi.generators if not s.weight.is_zero)
        step = reduce_one_step(g, proper)
        for alg, reason in ((step.h, h_reason), (step.k, k_reason)):
            assert structural_no_proper_reason(alg) == reason, alg.label
            searched = fresh(alg)
            assert semicenter_dims(fresh(alg), 3) == tuple(
                graded_semi_invariants(searched, d).total_dim()
                for d in range(1, 4)), alg.label

    def test_dimensions_do_not_depend_on_the_order(self,
                                                   order_test_algebras):
        # minimal_generators records the dimensions under its own order,
        # and every reduction reads them
        for g, bound in order_test_algebras:
            expected = semicenter_dims(fresh(g), bound)
            for order in ORDERS.values():
                searched = fresh(g)
                minimal_generators(searched, bound, order)
                assert semicenter_dims(searched, bound) == expected, \
                    (g.label, order.name)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_filiform_dimensions_are_cayley_sylvester(self, n):
        assert semicenter_dims(filiform(n), n) == \
            oracles.filiform_semicenter_dims(n, n)

    def test_structural_count_builds_no_polynomial(self, monkeypatch):
        g = weights_algebra((5, -7, 11)).induced_algebra(
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ["a", "b", "c"])
        monkeypatch.setattr(invariants, "graded_semi_invariants", None)
        monkeypatch.setattr(invariants, "verify_semi_invariant", None)
        # abelian of dimension 3: every monomial is an invariant
        assert semicenter_dims(g, 3) == (3, 6, 10)


class TestMinimalGenerators:
    def test_generators_are_the_dense_complements_under_every_order(
            self, order_test_algebras):
        # the golden reports pin degrevlex only; under each order the
        # pivot of a row is its leading monomial.  In the two seaweeds
        # of sl4 a searched class has a weight-zero block after a proper
        # generator is found, at degree 2, so its new weight-zero
        # generator is read into the invariant side
        for g, bound in order_test_algebras + [
                (seaweed((1, 1, 2), (2, 2)), 4),
                (seaweed((2, 2), (1, 1, 2)), 4)]:
            for order in ORDERS.values():
                semi, inv = minimal_generators(g, bound, order)
                for gens, invariant in ((semi, False), (inv, True)):
                    assert [(s.poly, s.weight, s.degree)
                            for s in gens.generators] == \
                        oracles.generator_complements(
                            g, bound, order, invariant), \
                        (g.label, order.name, invariant)

    def test_filiform4_invariants(self):
        g = filiform(4)
        gens = minimal_generators(g, 3)[1]
        assert gens.degrees == (1, 2)
        assert fmt(gens.generators[0].poly, g) == "v4"
        # the degree-two generator spans with v2*v4 - 1/2 v3^2 up to scale
        f = gens.generators[1].poly
        target = parse_polynomial("v2*v4 - 1/2*v3^2", g.names)
        scale = f.leading_coefficient() / target.leading_coefficient()
        assert f == target * scale

    def test_filiform6_degree_multiset(self):
        gens = minimal_generators(filiform(6), 6)[1]
        assert sorted(gens.degrees) == [1, 2, 2, 3, 3]
        assert fmt(gens.generators[0].poly, filiform(6)) == "v6"

    def test_abelian_degree_one_only(self):
        g = abelian(2)
        gens = minimal_generators(g, 2)[0]
        assert gens.degrees == (1, 1)
        assert [fmt(s.poly, g) for s in gens.generators] == ["v1", "v2"]

    def test_panyushev_modes_differ(self):
        g = panyushev()
        semi, inv = minimal_generators(g, 2)
        assert semi.degrees == (1, 1, 1) and semi.degree_sum() == 3
        assert inv.degrees == (2, 2) and inv.degree_sum() == 4
        assert semi.has_proper() and not inv.has_proper()

    def test_inv_is_semi_only_without_proper_semi_invariants(self):
        semi, inv = minimal_generators(filiform(5), 5)
        assert inv is semi and not semi.has_proper()
        semi, inv = minimal_generators(panyushev(), 2)
        assert inv is not semi and inv.generators != semi.generators
        assert [fmt(s.poly, panyushev()) for s in inv.generators] == \
            ["v2*v4", "v3*v4"]
        assert inv.irrational_degrees == () and not inv.has_proper()

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_invariant_generators_complete_their_products(self, weights):
        # per degree: the products of lower invariant generators and the
        # new ones are independent and span the dense common kernel
        g = weights_algebra(weights)
        bound = 4
        _, inv = minimal_generators(g, bound)
        for d in range(1, bound + 1):
            lower = [s for s in inv.generators if s.degree < d]
            products = []
            for exps in _exponent_vectors([s.degree for s in lower], d):
                f = Polynomial.one(g.dim)
                for s, e in zip(lower, exps):
                    f = f * s.poly ** e
                products.append(f)
            new = [s.poly for s in inv.generators if s.degree == d]
            kernel = dense_invariants(g, d)
            monomials = sorted({m for f in products + new + kernel
                                for m in f.terms})

            def rank(polys):
                return oracles.rank([[f.terms.get(m, 0) for m in monomials]
                                     for f in polys])
            assert rank(products + new) == rank(products) + len(new)
            assert rank(products + new) == len(kernel) == \
                rank(products + new + kernel)

    def test_sl2_casimir(self):
        g = sl2()
        gens = minimal_generators(g, 3)[0]
        assert gens.degrees == (2,)
        casimir = gens.generators[0].poly
        # h^2 + 4 e f up to the pivot normalization
        target = parse_polynomial("h^2 + 4*e*f", g.names)
        scale = Fraction(casimir.leading_coefficient(),
                         target.leading_coefficient())
        assert casimir == target * scale

    def test_heisenberg_generators(self):
        g = heisenberg([[0, 1], [0, 0]])
        gens = minimal_generators(g, 2)[0]
        assert gens.degrees == (1, 2)
        assert fmt(gens.generators[0].poly, g) == "c"
        z = parse_polynomial("c*t - w2*u1", g.names)
        second = gens.generators[1].poly
        # equal up to scale modulo the span of c^2
        c2 = parse_polynomial("c^2", g.names)
        diffs = [second * z.leading_coefficient() -
                 z * second.leading_coefficient()]
        from coregular.poly import try_exact_div
        assert diffs[0].is_zero or try_exact_div(diffs[0], c2) is not None

    def test_the_search_multiplies_integers_only(self, monkeypatch):
        # each generator is held as its primitive integer polynomial, so
        # no product in the search multiplies a Fraction
        mul = Polynomial.__mul__
        integral = []

        def checked(f, other):
            integral.append(all(
                c.__class__ is int for x in (f, other)
                for c in (x.terms.values() if isinstance(x, Polynomial)
                          else (x,))))
            return mul(f, other)
        monkeypatch.setattr(Polynomial, "__mul__", checked)
        minimal_generators(filiform(8), 8)
        assert integral and all(integral), integral.count(False)

    def test_minimality_no_generator_in_lower_products(self):
        gens = minimal_generators(filiform(6), 4)[1]
        from coregular.linalg import SparseEchelon
        for k, s in enumerate(gens.generators):
            # membership does not depend on the pivots: key by monomial
            ech = SparseEchelon()
            from coregular.invariants import _exponent_vectors
            lower = gens.generators[:k]
            for exps in _exponent_vectors([t.degree for t in lower], s.degree):
                prod = Polynomial.one(6)
                for i, e in enumerate(exps):
                    prod = prod * lower[i].poly ** e
                ech.add(prod.terms)
            assert ech.reduce(s.poly.terms), \
                "generator lies in the algebra of the earlier ones"


class TestIndependenceAndRelations:
    def test_filiform4_generators_independent(self):
        g = filiform(4)
        gens = minimal_generators(g, 2)[1]
        ok, rank = algebraically_independent(
            [s.poly for s in gens.generators], 4)
        assert ok and rank == 2

    def test_power_relation_detected(self):
        v3 = Polynomial.variable(3, 2)
        ok, rank = algebraically_independent([v3, v3 ** 2], 3)
        assert not ok and rank == 1

    def test_filiform6_rank_four(self):
        gens = minimal_generators(filiform(6), 3)[1]
        ok, rank = algebraically_independent(
            [s.poly for s in gens.generators], 6)
        assert rank == 4 and not ok

    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(poly_strategy(n), min_size=1, max_size=4)
        .map(lambda polys: (n, polys))))
    @settings(max_examples=60, deadline=None)
    def test_point_rank_equals_the_bareiss_rank(self, problem):
        n, polys = problem
        expected = poly_matrix_rank(jacobian_matrix(polys, n))
        assert algebraically_independent(polys, n) == \
            (expected == len(polys), expected)
        point = [3, -7, 11][:n]
        assert linalg.rank([[d.evaluate(point) for d in row] for row in
                            jacobian_matrix(polys, n)]) <= expected

    def test_point_rank_above_the_bound_raises(self, monkeypatch):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        monkeypatch.setattr(linalg, "rank", lambda rows: 3)
        with pytest.raises(InternalCheckError):
            algebraically_independent([x, y], 2)

    def test_a_bound_below_the_rank_raises(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        with pytest.raises(InternalCheckError):
            algebraically_independent([x, y], 2, rank_bound=1)

    def test_invariants_certify_at_a_point_with_the_index(self,
                                                          monkeypatch):
        # five invariants of L(6) of rank 4 = index: no Bareiss
        gens = minimal_generators(filiform(6), 6)[1]
        assert len(gens.generators) == 5

        def no_bareiss(rows):
            raise AssertionError("Bareiss ran")
        monkeypatch.setattr(invariants, "poly_matrix_rank", no_bareiss)
        assert gens.jacobian_rank == 4

    def test_dependent_proper_semi_invariants_reach_bareiss(self,
                                                            monkeypatch):
        # [v1, v2] = v2: v2 has weight (1, 0), and v2, 2 v2 are dependent
        g = LieAlgebra(["v1", "v2"], {(0, 1): {1: 1}})
        v2 = Polynomial.variable(2, 1)
        w = WeightVector.of([1, 0])
        gens = GeneratorSet(
            algebra=g, degree_bound=1,
            generators=(SemiInvariant(v2, w, 1), SemiInvariant(2 * v2, w, 1)),
            irrational_degrees=())
        calls = []
        bareiss = invariants.poly_matrix_rank

        def counting(rows):
            calls.append(len(rows))
            return bareiss(rows)
        monkeypatch.setattr(invariants, "poly_matrix_rank", counting)
        # the index bound would close the rank at 0, but it holds only
        # for invariants
        assert gens.jacobian_rank == 1
        assert calls == [2]

    def test_trivial_power_relation_found(self):
        g = abelian(3)
        v3 = Polynomial.variable(3, 2)
        gens = make_generator_set(g, [v3, v3 ** 2])
        rels = find_relations(gens, 2)
        assert len(rels) == 1
        r = rels[0]
        assert r.weighted_degree == 2
        # g2 - g1^2 up to normalization
        expected = parse_polynomial("y2 - y1^2", ["y1", "y2"]).monic()
        assert r.poly == expected or r.poly == -expected

    def test_filiform4_relation_free(self):
        gens = minimal_generators(filiform(4), 4)[1]
        assert find_relations(gens, 6) == []

    def test_filiform6_single_relation_matches_presentation(self):
        g = filiform(6)
        gens = minimal_generators(g, 6)[1]
        rels = find_relations(gens, 6)
        assert len(rels) == 1
        assert rels[0].weighted_degree == 6
        assert substitute_generators(rels[0], gens).is_zero

    def test_budget_cap(self, monkeypatch):
        g = abelian(2)
        gens = minimal_generators(g, 2)[0]
        monkeypatch.setattr(invariants, "RELATION_MONOMIALS", 5)
        with pytest.raises(BudgetExceededError):
            find_relations(gens, 40)

    def test_substitution_zero_on_all_found_relations(self):
        gens = minimal_generators(filiform(5), 4)[1]
        for rel in find_relations(gens, 8):
            assert substitute_generators(rel, gens).is_zero


class TestBinaryCubicOracle:
    """L(5) and L(6) against classical invariant theory.  The invariants
    of L(n) are S(V)^e, V the binary forms of degree n - 2 and e the
    raising operator (``oracles.filiform_semicenter_dims``), which by
    Roberts' theorem are the covariants of the binary form (Olver,
    *Classical Invariant Theory*, Cambridge, 1999).  For the binary
    cubic these are the form, its Hessian, the cubic covariant and the
    discriminant, of degrees 1, 2, 3 and 4, with one syzygy, of weighted
    degree 6, among them.  For the binary quartic (Grace and Young, *The
    Algebra of Invariants*, Cambridge, 1903) they are the form and its
    Hessian, of degrees 1 and 2, the invariants i and j, of degrees 2
    and 3, and the sextic covariant T, of degree 3, with one syzygy, of
    weighted degree 6, that gives T^2 in the others."""

    # n of L(n): the degree of the generator a planted fault drops, and
    # the generator degrees and relation weighted degrees at bound 6
    CASES = {5: (4, ((1, 2, 3, 4), [6])), 6: (3, ((1, 2, 2, 3, 3), [6]))}

    @staticmethod
    def presentation(n, order):
        """(generator degrees, relation weighted degrees) of L(n)'s
        invariants at bound 6, each relation checked to vanish."""
        semi, inv = minimal_generators(filiform(n), 6, order)
        assert semi is inv
        rels = find_relations(inv, 6)
        assert all(substitute_generators(r, inv).is_zero for r in rels)
        return inv.degrees, [r.weighted_degree for r in rels]

    @pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
    def test_generators_and_syzygy_are_those_of_the_binary_cubic(
            self, order):
        for n, (_, expected) in self.CASES.items():
            assert self.presentation(n, order) == expected, n

    def test_a_dropped_generator_fails_it(self, monkeypatch):
        new_generators = invariants._new_generators
        for n, (degree, expected) in self.CASES.items():
            dropped = []

            def dropping(*args):
                kept = []
                for key, s in new_generators(*args):
                    if s.degree == degree and not dropped:
                        dropped.append(s)
                    else:
                        kept.append((key, s))
                return kept
            with monkeypatch.context() as patch:
                patch.setattr(invariants, "_new_generators", dropping)
                assert self.presentation(n, DEGREVLEX) != expected, n
            assert dropped, n

    def test_a_dropped_syzygy_fails_it(self, monkeypatch):
        monkeypatch.setattr(invariants, "kernel_of_columns",
                            lambda images: [])
        for n, (_, (degrees, _)) in self.CASES.items():
            assert self.presentation(n, DEGREVLEX) == (degrees, []), n


class TestPoissonBracket:
    """The Kostant-Kirillov bracket of the oracles, with which the
    semi-invariants found are checked."""

    def test_degree_one_equals_bracket(self):
        g = filiform(3)
        v1, v2 = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
        assert fmt(poisson_bracket(v1, v2, g), g) == "v3"

    def test_filiform4_invariant_commutes(self):
        g = filiform(4)
        f = parse_polynomial("v2*v4 - 1/2*v3^2", g.names)
        v1 = Polynomial.variable(4, 0)
        assert poisson_bracket(f, v1, g).is_zero

    @given(poly_pairs(max_nvars=3))
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, pair):
        a, b = pair
        g = filiform(3) if a.nvars == 3 else abelian(a.nvars)
        assert poisson_bracket(a, b, g) == -poisson_bracket(b, a, g)
        assert poisson_bracket(a, a, g).is_zero

    def test_leibniz_in_each_slot(self):
        g = sl2()
        e, f, h = (Polynomial.variable(3, i) for i in range(3))
        a, b, c = e + h, f * h, e * f - h ** 2
        lhs = poisson_bracket(a, b * c, g)
        rhs = poisson_bracket(a, b, g) * c + b * poisson_bracket(a, c, g)
        assert lhs == rhs

    def test_degree_drop(self):
        g = filiform(5)
        a = parse_polynomial("v2^2*v3", g.names)
        b = parse_polynomial("v1*v4", g.names)
        out = poisson_bracket(a, b, g)
        assert out.is_zero or out.total_degree() <= 4

    def test_semi_invariant_bracket_formula(self):
        # {f, s} = (sum_i w_i d/dv_i f) * s for a semi-invariant s of weight w
        g = panyushev()
        graded = graded_semi_invariants(g, 1)
        for w, basis in graded.blocks:
            for s in basis:
                for f in (parse_polynomial("v1*v2 - v3^2", g.names),
                          parse_polynomial("v1^2*v4", g.names)):
                    assert poisson_bracket(f, s, g) == \
                        weight_derivation(f, w) * s

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_structure_matrix_formula(
            self, data, catalog_algebras, rotated_sl2):
        g = data.draw(st.sampled_from(
            catalog_algebras + [rotated_sl2, heisenberg([[1, 2], [0, -1]])]))
        n = g.dim
        monomial = st.lists(st.integers(0, n - 1), max_size=3).map(
            lambda vs: tuple(vs.count(i) for i in range(n)))
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        strat = st.dictionaries(monomial, coeff, max_size=4).map(
            lambda terms: Polynomial(n, terms))
        a, b = data.draw(strat), data.draw(strat)
        # {a, b} = sum_i (da/dv_i) ad(v_i)(b), ad through the library
        expected = Polynomial.zero(n)
        for i in range(n):
            expected = expected + a.partial_derivative(i) * g.apply_ad(
                [int(t == i) for t in range(n)], b)
        assert poisson_bracket(a, b, g) == expected

    def test_found_semi_invariants_pairwise_commute(self, catalog_algebras):
        for g in catalog_algebras:
            gens = minimal_generators(g, 2)[0]
            polys = [s.poly for s in gens.generators]
            for i in range(len(polys)):
                for j in range(i, len(polys)):
                    assert poisson_bracket(polys[i], polys[j], g).is_zero


class TestTrdegAndGorenstein:
    @pytest.mark.parametrize("g, bound", [(filiform(4), 4),
                                          (panyushev(), 2)])
    def test_one_jacobian_rank_per_analyze(self, monkeypatch, g, bound):
        # without proper semi-invariants (filiform) the invariant set is
        # the semi-invariant set; with them (panyushev) it is its own
        from coregular import invariants
        from coregular.report import AnalysisOptions, analyze
        calls = []
        rank = invariants.algebraically_independent

        def counting(polys, nvars, rank_bound=None):
            calls.append(len(polys))
            return rank(polys, nvars, rank_bound)
        monkeypatch.setattr(invariants, "algebraically_independent",
                            counting)
        report = analyze(g, AnalysisOptions(max_degree=bound))
        assert calls == [len(report.invariant_generators.generators)]

    def test_heisenberg_consistent(self):
        g = heisenberg([[0, 1], [0, 0]])
        gens = minimal_generators(g, 2)[0]
        check = trdeg_check(gens)
        assert check.status == "consistent"
        assert check.rank == 2 and check.expected == 2

    def test_filiform5_consistent_at_degree_three(self):
        g = filiform(5)
        gens = minimal_generators(g, 3)[0]
        check = trdeg_check(gens)
        assert check.status == "consistent" and check.rank == 3

    def test_panyushev_not_applicable(self):
        g = panyushev()
        gens = minimal_generators(g, 2)[0]
        assert trdeg_check(gens).status == "not-applicable"

    def test_expected_is_the_index_of_the_generators_algebra(self):
        # the algebra is read off the generator set, so no other one can
        # be passed beside it
        check = trdeg_check(minimal_generators(filiform(4), 4)[0])
        assert (check.status, check.rank, check.expected) == \
            ("consistent", 2, 2)

    def test_deficient_when_bound_too_small(self):
        g = filiform(5)
        gens = minimal_generators(g, 1)[0]
        assert trdeg_check(gens).status == "deficient"

    def test_gorenstein_polynomial_ring_case(self):
        gens = minimal_generators(filiform(4), 4)[1]
        result = gorenstein_invariant(gens, [])
        assert result.value == 3 and result.case == "polynomial-ring"
        gens3 = minimal_generators(filiform(3), 3)[1]
        assert gorenstein_invariant(gens3, []).value == 1

    def test_gorenstein_complete_intersection_case(self):
        gens = minimal_generators(filiform(6), 6)[1]
        rels = find_relations(gens, 6)
        result = gorenstein_invariant(gens, rels)
        assert result.value == 5 and result.case == "complete-intersection"

    def test_gorenstein_undefined_case(self):
        gens = minimal_generators(filiform(5), 5)[1]
        result = gorenstein_invariant(gens, [])
        assert result.value is None and result.reason


class TestJacobianRankCrossChecks:
    def test_bareiss_rank_agrees_with_evaluation_probes(self):
        import random
        from coregular.invariants import jacobian_matrix, poly_matrix_rank
        from coregular.linalg import rank as numeric_rank
        rng = random.Random(3)
        cases = [
            (minimal_generators(filiform(5), 3)[1], 5),
            (minimal_generators(filiform(6), 3)[1], 6),
            (minimal_generators(panyushev(), 2)[1], 4),
        ]
        for gens, n in cases:
            jac = jacobian_matrix([s.poly for s in gens.generators], n)
            symbolic = poly_matrix_rank([row[:] for row in jac])
            best = 0
            for _ in range(6):
                point = [Fraction(rng.randint(-7, 7)) for _ in range(n)]
                numeric = numeric_rank(
                    [[entry.evaluate(point) for entry in row] for row in jac])
                assert numeric <= symbolic
                best = max(best, numeric)
            assert best == symbolic

    def test_bareiss_on_known_small_matrices(self):
        from coregular.invariants import poly_matrix_rank
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        zero = Polynomial.zero(2)
        assert poly_matrix_rank([[x, y], [y, x]]) == 2
        assert poly_matrix_rank([[x, y], [x * x, x * y]]) == 1
        assert poly_matrix_rank([[zero, zero], [zero, zero]]) == 0
        assert poly_matrix_rank([[zero, x], [zero, y]]) == 1
