import random
from itertools import combinations, product

import pytest

from conftest import seaweed
from coregular import pfaffian as pfaffian_module
from coregular.catalog import (abelian, example32, filiform, heisenberg,
                               panyushev, sl2, two_dim_nonabelian)
from coregular.grobner import (BudgetExceededError, buchberger,
                               krull_dimension)
from coregular.invariants import minimal_generators
from coregular.kernel import reduce_one_step
from coregular.lie import SkewPolyMatrix
from coregular.linalg import InternalCheckError
from coregular.pfaffian import (c_value, certified_rank,
                                fundamental_semi_invariant, index, pfaffian,
                                pfaffian_ideal, singular_locus_codim,
                                term_rank)
from coregular.poly import DEGREVLEX, ORDERS, Polynomial, format_polynomial
from oracles import bordered_rank_certificate, poly_det, verify_divides_minors
from test_product_certificate import weights_cases

COMPOSITIONS = {2: [(2,), (1, 1)],
                3: [(3,), (2, 1), (1, 2), (1, 1, 1)],
                4: [(4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1),
                    (1, 1, 2), (1, 1, 1, 1)]}
# the ordered seaweed pairs of n <= 4 whose term rank, rounded down to
# even, exceeds their rank: sl3, sl4 and 18 others
BORDERED_SEAWEEDS = {
    ((1, 2), (1, 2)), ((2, 1), (2, 1)), ((3,), (3,)),
    ((1, 1, 1, 1), (1, 3)), ((1, 1, 1, 1), (3, 1)), ((1, 1, 2), (1, 1, 2)),
    ((1, 1, 2), (2, 2)), ((1, 2, 1), (1, 2, 1)), ((1, 2, 1), (4,)),
    ((1, 3), (1, 1, 1, 1)), ((1, 3), (1, 3)), ((2, 1, 1), (2, 1, 1)),
    ((2, 1, 1), (2, 2)), ((2, 2), (1, 1, 2)), ((2, 2), (2, 1, 1)),
    ((2, 2), (2, 2)), ((3, 1), (1, 1, 1, 1)), ((3, 1), (3, 1)),
    ((4,), (1, 2, 1)), ((4,), (4,))}


def catalog_entries():
    """The catalog entries of the golden reports, with L(n) to n = 12."""
    return [filiform(n) for n in range(3, 13)] + [
        abelian(4), panyushev(), example32(), two_dim_nonabelian(), sl2(),
        heisenberg([[0, 1], [0, 0]]), heisenberg([[1, 0], [0, 1]])]


def seaweed_pairs():
    return [(a, b) for n in (2, 3, 4)
            for a, b in product(COMPOSITIONS[n], repeat=2)]


def weights_reductions():
    """The seed-1 weights algebras of the benchmark, each with the h and
    k of its reduction along its first proper semi-invariant at bound 3."""
    out = []
    for g, bound in weights_cases():
        semi = next(s for s in minimal_generators(g, bound)[0].generators
                    if not s.weight.is_zero)
        step = reduce_one_step(g, semi)
        out += [g, step.h, step.k]
    return out


def widest_pfaffian(b, monkeypatch):
    """certified_rank(b) and the largest index set it expands."""
    sizes = [0]
    real = pfaffian_module.pfaffian

    def recording(b, rows, memo=None):
        sizes.append(len(rows))
        return real(b, rows, memo)

    with monkeypatch.context() as patch:
        patch.setattr(pfaffian_module, "pfaffian", recording)
        cert = certified_rank(b)
    return cert, max(sizes)


def stops_at_the_bounds(b, monkeypatch):
    """Whether certified_rank(b) matches the bordered search and expands
    no Pfaffian beyond its rank; False where it runs the bordered round."""
    cert, widest = widest_pfaffian(b, monkeypatch)
    assert cert == bordered_rank_certificate(b)
    assert widest in (cert.rank, cert.rank + 2)
    return widest == cert.rank


class TestPfaffian:
    def test_two_by_two_block(self):
        b = filiform(3).structure_matrix()
        assert pfaffian(b, (0, 1)) == Polynomial.variable(3, 2)

    def test_empty_index_set(self):
        b = filiform(4).structure_matrix()
        assert pfaffian(b, ()) == Polynomial.one(4)

    def test_filiform5_blocks(self):
        b = filiform(5).structure_matrix()
        assert format_polynomial(pfaffian(b, (0, 1))) == "v3"
        assert format_polynomial(pfaffian(b, (0, 2))) == "v4"
        assert format_polynomial(pfaffian(b, (0, 3))) == "v5"
        assert pfaffian(b, (1, 2)).is_zero

    def test_odd_index_set_rejected(self):
        b = filiform(3).structure_matrix()
        with pytest.raises(ValueError):
            pfaffian(b, (0, 1, 2))

    def test_square_is_determinant(self, catalog_algebras):
        rng = random.Random(7)
        for g in catalog_algebras:
            b = g.structure_matrix()
            sets = [rows for k in range(2, min(g.dim, 6) + 1, 2)
                    for rows in combinations(range(g.dim), k)]
            for rows in rng.sample(sets, min(4, len(sets))):
                pf = pfaffian(b, rows)
                det = poly_det([[b[i, j] for j in rows] for i in rows])
                assert pf * pf == det


class TestCertifiedRank:
    def test_filiform_rank_two(self):
        for n in (3, 5, 7):
            cert = certified_rank(filiform(n).structure_matrix())
            assert cert.rank == 2
            assert not cert.witness_pfaffian.is_zero

    def test_abelian_rank_zero(self):
        cert = certified_rank(abelian(4).structure_matrix())
        assert cert.rank == 0 and cert.witness_rows == ()

    def test_heisenberg_extension_rank(self):
        for p in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [0, 0]]):
            g = heisenberg(p)
            cert = certified_rank(g.structure_matrix())
            assert cert.rank == g.dim - 2

    def test_rank_is_even(self, catalog_algebras):
        for g in catalog_algebras:
            assert certified_rank(g.structure_matrix()).rank % 2 == 0

    def test_probe_soundness(self, catalog_algebras):
        # the seeded probes never exceed the certified rank and reach it
        for g in catalog_algebras:
            cert = certified_rank(g.structure_matrix())
            assert max(cert.probe_ranks, default=0) <= cert.rank
            assert cert.rank in cert.probe_ranks or cert.rank == 0

    def test_witness_rows_give_nonzero_pfaffian(self, catalog_algebras):
        for g in catalog_algebras:
            b = g.structure_matrix()
            cert = certified_rank(b)
            assert pfaffian(b, cert.witness_rows) == cert.witness_pfaffian
            if cert.rank:
                assert not cert.witness_pfaffian.is_zero


    def test_catalog_stops_at_the_bounds(self, monkeypatch):
        for g in catalog_entries():
            assert stops_at_the_bounds(g.structure_matrix(), monkeypatch), \
                g.label

    def test_seaweeds_of_n_up_to_four(self, monkeypatch):
        bordered = {(a, b) for a, b in seaweed_pairs()
                    if not stops_at_the_bounds(seaweed(a, b).structure_matrix(),
                                               monkeypatch)}
        assert len(seaweed_pairs()) == 84
        assert bordered == BORDERED_SEAWEEDS

    def test_sl4_term_rank_exceeds_its_rank(self):
        b = seaweed((4,), (4,)).structure_matrix()
        assert (term_rank(b), certified_rank(b).rank) == (15, 12)

    def test_weights_algebras_and_their_reductions(self, monkeypatch):
        algebras = weights_reductions()
        assert len(algebras) == 180
        for g in algebras:
            assert stops_at_the_bounds(g.structure_matrix(), monkeypatch), \
                g.label

    def test_a_vanishing_pfaffian_falls_back_to_the_bordered_round(
            self, monkeypatch):
        # B01 = B02 = B13 = B23 = x1 and B03 = B12 = 0: the term rank is
        # 4, but Pf = x1 * x1 - x1 * x1 = 0, so the rank is 2
        x1, zero = Polynomial.variable(4, 0), Polynomial.zero(4)
        upper = {(0, 1): x1, (0, 2): x1, (1, 3): x1, (2, 3): x1}
        b = SkewPolyMatrix(4, tuple(
            tuple(upper.get((i, j), -upper.get((j, i), zero))
                  for j in range(4)) for i in range(4)))
        assert term_rank(b) == 4 and pfaffian(b, range(4)).is_zero
        cert, widest = widest_pfaffian(b, monkeypatch)
        assert (cert.rank, cert.witness_rows, widest) == (2, (0, 1), 4)
        assert cert == bordered_rank_certificate(b)

    def test_term_rank_of_small_matrices(self):
        assert term_rank(abelian(3).structure_matrix()) == 0
        assert term_rank(filiform(5).structure_matrix()) == 2
        assert term_rank(heisenberg([[1, 0], [0, 1]]).structure_matrix()) == 5
        assert term_rank(sl2().structure_matrix()) == 3

    @pytest.mark.parametrize("bound, value", [("term_rank", 1),
                                              ("probe_rank", 4)])
    def test_a_rank_outside_the_bounds_is_an_internal_error(
            self, monkeypatch, bound, value):
        # L(5) has rank 2; an upper bound below it or a lower bound
        # above it must raise, also under python -O
        if bound == "term_rank":
            monkeypatch.setattr(pfaffian_module, "term_rank", lambda b: value)
        else:
            monkeypatch.setattr(pfaffian_module.linalg, "rank",
                                lambda rows: value)
        with pytest.raises(InternalCheckError):
            certified_rank(filiform(5).structure_matrix())


class TestIndexAndC:
    def test_filiform_index(self):
        for n in range(3, 8):
            assert index(filiform(n)) == n - 2

    def test_worked_values(self):
        assert index(filiform(6)) == 4
        assert index(abelian(4)) == 4
        assert index(panyushev()) == 2
        assert c_value(panyushev()) == 3
        assert c_value(filiform(6)) == 5
        assert c_value(abelian(7)) == 7
        assert index(sl2()) == 1

    def test_index_at_least_center_dim(self, catalog_algebras):
        # dim Z(g) is the number of degree-one invariant generators
        for g in catalog_algebras:
            assert index(g) >= len(minimal_generators(g, 1)[1].generators)


class TestFundamentalSemiInvariant:
    def test_filiform3(self):
        fsi = fundamental_semi_invariant(filiform(3))
        v3 = Polynomial.variable(3, 2)
        assert fsi.value == v3 ** 2
        assert fsi.pfaffian_gcd == v3
        assert fsi.degree == 2

    def test_filiform_above_three_trivial(self):
        for n in range(4, 8):
            fsi = fundamental_semi_invariant(filiform(n))
            assert fsi.value == Polynomial.one(n) and fsi.degree == 0

    def test_abelian_convention(self):
        fsi = fundamental_semi_invariant(abelian(3))
        assert fsi.value == Polynomial.one(3) and fsi.degree == 0

    def test_heisenberg_nilpotent_p(self):
        g = heisenberg([[0, 1], [0, 0]])
        fsi = fundamental_semi_invariant(g)
        # gcd of the rank-4 principal Pfaffians is the central variable
        assert format_polynomial(fsi.value, g.names) == "c^2"
        assert fsi.degree == 2

    def test_square_structure(self, catalog_algebras):
        for g in catalog_algebras:
            fsi = fundamental_semi_invariant(g)
            assert fsi.value == fsi.pfaffian_gcd * fsi.pfaffian_gcd
            assert fsi.degree % 2 == 0
            assert (fsi.degree == 0) == (fsi.value == Polynomial.one(g.dim))

    def test_divides_minors_sample(self):
        for g in (filiform(3), filiform(5), heisenberg([[0, 1], [0, 0]]),
                  panyushev()):
            assert verify_divides_minors(g, fundamental_semi_invariant(g))


class TestSingularLocus:
    def test_filiform_codim(self):
        for n in range(3, 8):
            assert singular_locus_codim(filiform(n)) == n - 2

    def test_sl2_codim_three(self):
        assert singular_locus_codim(sl2()) == 3

    def test_abelian_empty_marker(self):
        assert singular_locus_codim(abelian(5)) is None

    def test_example32(self):
        assert singular_locus_codim(example32()) == 2

    def test_krull_dimension_does_not_depend_on_the_order(
            self, order_test_algebras):
        # singular_locus_codim reads it off a DEGREVLEX basis only
        for g, _ in order_test_algebras:
            ideal = pfaffian_ideal(g)
            dims = {krull_dimension(buchberger(ideal, order))
                    for order in ORDERS.values()}
            assert len(dims) == 1, g.label

    def test_monomial_pfaffians_give_buchbergers_krull_dimension(self):
        # the single-term Pfaffian ideals skip Buchberger.  In the basis
        # e, e + f, e + f + h the Pfaffians of sl2 are not single terms,
        # and their leading terms alone would miss the codimension 3
        small = [g for g in catalog_entries() + [
            seaweed(a, b) for a, b in seaweed_pairs()]
            if not g.is_abelian and g.dim <= 10]
        monomial = [g for g in small if all(
            len(pf.terms) == 1 for pf in pfaffian_ideal(g).generators)]
        assert len(monomial) == 58
        tilted = sl2().induced_algebra([[1, 0, 0], [1, 1, 0], [1, 1, 1]],
                                       ["a", "b", "c"], label="sl2-tilted")
        for g in monomial + [tilted, example32()]:
            expected = krull_dimension(buchberger(pfaffian_ideal(g),
                                                  DEGREVLEX))
            assert singular_locus_codim(g) == g.dim - expected, g.label
        assert singular_locus_codim(tilted) == 3

    def test_monomial_pfaffians_in_eleven_variables_exceed_the_ring_cap(
            self):
        g = filiform(11)
        assert all(len(pf.terms) == 1 for pf in pfaffian_ideal(g).generators)
        with pytest.raises(BudgetExceededError):
            singular_locus_codim(g)

    def test_degree_zero_iff_codim_at_least_two(self, catalog_algebras):
        for g in catalog_algebras:
            fsi = fundamental_semi_invariant(g)
            codim = singular_locus_codim(g)
            big = codim is None or codim >= 2
            assert (fsi.degree == 0) == big, g.label
