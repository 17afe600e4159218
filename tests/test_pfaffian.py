import random
from itertools import combinations

import pytest

from coregular.catalog import (abelian, example32, filiform, heisenberg,
                               panyushev, sl2)
from coregular.grobner import buchberger, krull_dimension
from coregular.pfaffian import (c_value, certified_rank,
                                fundamental_semi_invariant, index, pfaffian,
                                pfaffian_ideal, singular_locus_codim)
from coregular.poly import ORDERS, Polynomial, format_polynomial
from oracles import poly_det, verify_divides_minors


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
        for g in catalog_algebras:
            assert index(g) >= g.center().dim


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

    def test_degree_zero_iff_codim_at_least_two(self, catalog_algebras):
        for g in catalog_algebras:
            fsi = fundamental_semi_invariant(g)
            codim = singular_locus_codim(g)
            big = codim is None or codim >= 2
            assert (fsi.degree == 0) == big, g.label
