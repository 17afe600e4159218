import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coregular
from coregular import kernel as kernel_module
from coregular import linalg
from coregular.catalog import (abelian, example32, filiform, heisenberg,
                               panyushev, sl2, two_dim_nonabelian)
from coregular.cli import main as cli_main
from coregular.invariants import (SemiInvariant, WeightVector,
                                  minimal_generators)
from coregular.kernel import (FAILS, H_BRANCH, HOLDS, K_BRANCH, UNDECIDED,
                              UNKNOWN, CriterionVerdict, InternalCheckError,
                              KernelBasis, KernelGenerator, compute_geometry,
                              evaluate_criteria, find_syzygy,
                              freeness_verdict, kernel_of_rho,
                              reduce_one_step)
from coregular.lie import LieAlgebra
from coregular.poly import (DEGREVLEX, GRLEX, LEX, Polynomial,
                            format_polynomial, monomials_of_degree)
import oracles
from conftest import seaweed
from test_product_certificate import (catalog_cases, seaweed_cases,
                                     weights_cases)
from test_torus import seaweeds_to_four

# sl3, gl3 in sl4 and a Borel subalgebra of that gl3: at degrees 3 and 4
# of the first two the pivots of the multiples fall short of their rank
SEAWEEDS = [((3,), (3,)), ((1, 3), (1, 3)), ((1, 1, 1, 1), (1, 3))]


def _sl3() -> LieAlgebra:
    """sl3 in the basis e12, e13, e23, e21, e31, e32, h1, h2 with
    h1 = e11 - e22 and h2 = e22 - e33."""
    names = ["e12", "e13", "e23", "e21", "e31", "e32", "h1", "h2"]

    def matrix(name):
        m = [[0] * 3 for _ in range(3)]
        if name == "h1":
            m[0][0], m[1][1] = 1, -1
        elif name == "h2":
            m[1][1], m[2][2] = 1, -1
        else:
            m[int(name[1]) - 1][int(name[2]) - 1] = 1
        return m

    mats = [matrix(name) for name in names]
    # every bracket is a multiple of one elementary matrix or a
    # combination of h1, h2, read off its entries
    def coords(m):
        out = {}
        for t, name in enumerate(names[:6]):
            c = m[int(name[1]) - 1][int(name[2]) - 1]
            if c:
                out[t] = c
        if m[0][0]:
            out[6] = m[0][0]
        if m[2][2]:
            out[7] = -m[2][2]
        return out

    brackets = {}
    for i in range(8):
        for j in range(i + 1, 8):
            a, b = mats[i], mats[j]
            ab = [[sum(a[r][k] * b[k][c] - b[r][k] * a[k][c]
                       for k in range(3)) for c in range(3)]
                  for r in range(3)]
            if any(any(row) for row in ab):
                brackets[(i, j)] = coords(ab)
    return LieAlgebra(names, brackets, label="sl3")


SL3 = _sl3()


def component_texts(gen, g):
    return tuple(format_polynomial(c, g.names) for c in gen.components)


class TestKernelOfRho:
    def test_filiform5_minimal_generators(self):
        g = filiform(5)
        kernel = kernel_of_rho(g, 2)
        assert kernel.rank == 3
        found = {component_texts(w, g) for w in kernel.generators}
        assert found == {
            ("0", "0", "0", "0", "1"),
            ("0", "v4", "-v3", "0", "0"),
            ("0", "v5", "0", "-v3", "0"),
            ("0", "0", "v5", "-v4", "0"),
        }

    def test_abelian_coordinate_vectors(self):
        g = abelian(3)
        kernel = kernel_of_rho(g, 1)
        assert kernel.degrees == (0, 0, 0)
        mats = [component_texts(w, g) for w in kernel.generators]
        assert mats == [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")]

    def test_filiform4_two_generators(self):
        g = filiform(4)
        kernel = kernel_of_rho(g, 2)
        assert len(kernel.generators) == 2 == kernel.rank
        found = {component_texts(w, g) for w in kernel.generators}
        assert found == {("0", "0", "0", "1"), ("0", "v4", "-v3", "0")}

    def test_generators_annihilate_structure_matrix(self, catalog_algebras):
        for g in catalog_algebras:
            b = g.structure_matrix()
            kernel = kernel_of_rho(g, 2)
            for w in kernel.generators:
                for j in range(g.dim):
                    acc = Polynomial.zero(g.dim)
                    for i in range(g.dim):
                        acc = acc + w.components[i] * b[i, j]
                    assert acc.is_zero

    # panyushev is the line acting with weights (1, 1, -1); sl3 has
    # generators in degrees 1 and 2, so a generator turns up where lower
    # multiples exist
    @pytest.mark.parametrize("g, bound", [
        (filiform(5), 2),
        (panyushev(), 3),
        (LieAlgebra(["v1", "v2", "v3", "v4"],
                    {(0, 1): {1: 2}, (0, 2): {2: -1}, (0, 3): {3: 3}}), 3),
        (SL3, 3),
    ], ids=["L5", "weights(1,1,-1)", "weights(2,-1,3)", "sl3"])
    def test_generators_match_the_dense_oracle(self, g, bound):
        kernel = kernel_of_rho(g, bound)
        assert [(w.degree, w.components) for w in kernel.generators] == \
            oracles.anchor_kernel_generators(g, bound)

    def test_sl3_has_generators_in_degrees_one_and_two(self):
        assert kernel_of_rho(SL3, 3).degrees == (1, 2)

    def test_basis_read_out_only_where_multiples_fall_short(
            self, monkeypatch):
        # L(5): generators in degrees 0 and 1; from degree 2 on the
        # multiples span the kernel, so its basis is never read out
        read = TestPivotCertificate.basis_reads(monkeypatch)
        kernel = kernel_of_rho(filiform(5), 5)
        assert kernel.degrees == (0, 1, 1, 1)
        # 5 * C(d + 4, 4) unknowns at degree d
        assert read == [5 * 1, 5 * 5]

    def test_rank_equals_index(self, catalog_algebras):
        from coregular.pfaffian import index
        for g in catalog_algebras:
            assert kernel_of_rho(g, 2).rank == index(g)

    @pytest.mark.parametrize("cases, more", [
        *[(lambda n=n: [(filiform(n), n)], []) for n in range(4, 8)],
        (seaweeds_to_four, [
            ("seaweed(3,)|(3,)", 3, 43, 44), ("seaweed(3,)|(3,)", 4, 148, 156),
            ("seaweed(1, 2, 1)|(4,)", 4, 64, 65),
            ("seaweed(1, 3)|(1, 3)", 3, 218, 219),
            ("seaweed(1, 3)|(1, 3)", 4, 696, 705),
            ("seaweed(3, 1)|(3, 1)", 3, 218, 219),
            ("seaweed(3, 1)|(3, 1)", 4, 696, 705)])],
        ids=["4", "5", "6", "7", "seaweeds"])
    def test_multiples_echelon_pivots_are_their_leading_terms(self, cases,
                                                              more):
        # the least key of each multiple m w, read as it is built, is the
        # pivot of m lm(w_i) in its first nonzero component w_i, and a
        # pivot of the echelon of all the multiples.  The generators of
        # L(n) are a Groebner basis of the module: in every degree that
        # echelon has exactly those pivots, so the certificate holds.
        # Those of a few seaweeds are not, and there it has ``more``:
        # (algebra, degree, least keys, pivots), under every order
        for order in [DEGREVLEX, GRLEX, LEX]:
            found = []
            for g, bound in cases():
                n = g.dim
                gens = kernel_of_rho(g, bound, order).generators
                for d in range(1, bound + 1):
                    lower = [w for w in gens if w.degree < d]
                    monos = monomials_of_degree(n, d, order)
                    rank = {m: t for t, m in enumerate(monos)}
                    echelon = linalg.SparseEchelon()
                    keys = set()
                    for _, _, vec in kernel_module._multiples(
                            lower, d, n, rank, order):
                        keys.add(min(vec))
                        echelon.add(vec)
                    assert keys == oracles.multiple_pivots(
                        lower, d, n, rank, order), (g.label, d, order.name)
                    assert keys <= echelon.rows.keys(), \
                        (g.label, d, order.name)
                    if keys != echelon.rows.keys():
                        found.append((g.label, d, len(keys),
                                      len(echelon.rows)))
            assert found == more, order.name


class TestPivotCertificate:
    """A degree is proved to have no new generator by the counted pivots
    of the lower multiples: against the counted leading terms of the
    anchor map's image, else against the dimension of the anchor
    system, eliminated in full.  Elsewhere all the multiples are ranked
    and a kernel basis is read out."""

    @staticmethod
    def multiples_degrees(monkeypatch):
        """The degrees at which ``_multiples`` runs, with the number of
        lower-degree generators it is given."""
        calls = []
        multiples = kernel_module._multiples

        def recording(generators, d, *args):
            calls.append((d, len(generators)))
            return multiples(generators, d, *args)
        monkeypatch.setattr(kernel_module, "_multiples", recording)
        return calls

    @pytest.mark.parametrize("order", [DEGREVLEX, GRLEX, LEX],
                             ids=lambda o: o.name)
    def test_generators_match_full_elimination(self, order,
                                               order_test_algebras):
        cases = [(filiform(n), n) for n in range(3, 9)] + \
            order_test_algebras + [(seaweed(a, b), 4) for a, b in SEAWEEDS]
        for g, bound in cases:
            kernel = kernel_of_rho(g, bound, order)
            assert [(w.degree, w.components) for w in kernel.generators] \
                == oracles.anchor_kernel_fully_eliminated(g, bound, order), \
                g.label

    @pytest.mark.parametrize("a, b", SEAWEEDS[:2])
    def test_seaweeds_rank_the_multiples_where_pivots_fall_short(
            self, monkeypatch, a, b):
        # degrees 3 and 4 have lower generators and no new one, yet the
        # pivots of the multiples do not prove it
        calls = self.multiples_degrees(monkeypatch)
        kernel = kernel_of_rho(seaweed(a, b), 4)
        assert max(kernel.degrees) < 3
        assert [d for d, lower in calls if lower and d >= 3] == [3, 4]

    @staticmethod
    def basis_reads(monkeypatch):
        """The column counts of the systems whose basis is read out."""
        read = []
        basis = linalg.SolutionSpace.basis

        def recording(space):
            read.append(space.ncols)
            return basis(space)
        monkeypatch.setattr(linalg.SolutionSpace, "basis", recording)
        return read

    # the degrees certified by the image count, with no system built,
    # and those at which the pivots of the multiples are as many as the
    # dimension of the anchor system
    @pytest.mark.parametrize("g, bound, counted, by_dim", [
        (seaweed((1, 1, 1, 1), (1, 3)), 4, [], [1, 3, 4]),
        (example32(), 3, [0, 2, 3], []),
        (seaweed((3,), (3,)), 4, [0], []),
        (seaweed((1, 3), (1, 3)), 4, [], []),
    ], ids=["(1,1,1,1)|(1,3)", "example32", "(3)|(3)", "(1,3)|(1,3)"])
    def test_a_system_as_large_as_the_pivots_builds_no_multiples(
            self, monkeypatch, g, bound, counted, by_dim):
        calls = self.multiples_degrees(monkeypatch)
        read = self.basis_reads(monkeypatch)
        sizes = self.system_sizes(monkeypatch)
        kernel = kernel_of_rho(g, bound)
        n = g.dim
        ncols = [n * len(monomials_of_degree(n, d, DEGREVLEX))
                 for d in range(bound + 1)]
        assert sizes == [ncols[d] for d in range(bound + 1)
                         if d not in counted]
        built = [d for d, _ in calls]
        assert built == [d for d in range(bound + 1)
                         if d not in counted + by_dim]
        # where the multiples are built, the basis is read out
        assert read == [ncols[d] for d in built]
        # either way the kernel's dimension is the multiples' pivots
        for d in counted + by_dim:
            monos = monomials_of_degree(n, d, DEGREVLEX)
            rank = {m: t for t, m in enumerate(monos)}
            lower = [w for w in kernel.generators if w.degree < d]
            space = linalg.SolutionSpace(
                kernel_module._anchor_equations(g, monos), ncols[d])
            assert space.dim == len(oracles.multiple_pivots(
                lower, d, n, rank, DEGREVLEX)), d

    @staticmethod
    def system_sizes(monkeypatch):
        """The column counts of the ``SolutionSpace`` systems built."""
        sizes = []
        space = linalg.SolutionSpace

        def recording(equations, ncols):
            sizes.append(ncols)
            return space(equations, ncols)
        monkeypatch.setattr(linalg, "SolutionSpace", recording)
        return sizes

    def test_filiform7_certifies_every_degree_from_two(self, monkeypatch):
        calls = self.multiples_degrees(monkeypatch)
        sizes = self.system_sizes(monkeypatch)
        g = filiform(7)
        kernel = kernel_of_rho(g, 7)
        assert [d for d, _ in calls] == [0, 1]
        # systems are built at degrees 0 and 1 only, with 7 and 7 * 7
        # unknowns
        assert sizes == [7, 49]
        monos = monomials_of_degree(7, 7, DEGREVLEX)
        rank = {m: t for t, m in enumerate(monos)}
        pivots = oracles.multiple_pivots(
            kernel.generators, 7, 7, rank, DEGREVLEX)
        p = kernel_module._pivot_count(kernel.generators, 7, 7, DEGREVLEX,
                                       {})
        assert len(pivots) == p
        ncols = 7 * len(monos)
        assert ncols == 12012
        leads = kernel_module._column_leads(g)
        assert kernel_module._image_count(leads, 7) == ncols - p == 4710

    @pytest.mark.parametrize("n", range(4, 9))
    def test_filiform_builds_systems_at_degrees_zero_and_one(
            self, monkeypatch, n):
        sizes = self.system_sizes(monkeypatch)
        kernel_of_rho(filiform(n), n)
        assert sizes == [n, n * n]

    @pytest.mark.parametrize("order", [DEGREVLEX, GRLEX, LEX],
                             ids=lambda o: o.name)
    def test_image_count_bounds_the_rank_of_the_anchor_system(
            self, order, rotated_sl2):
        algebras = [filiform(n) for n in range(3, 8)] + [
            abelian(4), example32(), panyushev(), sl2(),
            two_dim_nonabelian(), SL3, rotated_sl2] + [
            seaweed(a, b) for a, b in SEAWEEDS]
        for g in algebras:
            leads = kernel_module._column_leads(g)
            for d in range(5):
                monos = monomials_of_degree(g.dim, d, order)
                ncols = g.dim * len(monos)
                space = linalg.SolutionSpace(
                    kernel_module._anchor_equations(g, monos), ncols)
                count = kernel_module._image_count(leads, d)
                assert count <= ncols - space.dim, (g.label, d)
                if d == 0:
                    # the degree-one echelon is the rank of B itself
                    assert count == ncols - space.dim, g.label

    @given(st.integers(0, 4), st.integers(0, 5),
           st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                    max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_ideal_count_is_that_of_the_monomials(self, n, d, exponents):
        leads = {tuple(e[:n]) for e in exponents}
        divisible = [m for m in monomials_of_degree(n, d, DEGREVLEX)
                     if any(all(a <= b for a, b in zip(lead, m))
                            for lead in leads)]
        assert kernel_module._ideal_count(frozenset(leads), n, d, {}) \
            == len(divisible)

    @staticmethod
    def miscounted(monkeypatch, cases, order):
        """(algebra, degree, count, pivots) at each degree that
        ``kernel_of_rho`` decides with no multiple built, by the image
        count or by a system as large as the count, where
        ``_pivot_count`` differs from the pivots of the multiples that
        ``oracles.multiple_pivots`` lists."""
        calls = TestPivotCertificate.multiples_degrees(monkeypatch)
        counts = {}
        pivot_count = kernel_module._pivot_count

        def recording(gens, d, *args):
            counts[d] = (list(gens), pivot_count(gens, d, *args))
            return counts[d][1]
        monkeypatch.setattr(kernel_module, "_pivot_count", recording)
        found = []
        for g, bound in cases:
            calls.clear()
            counts.clear()
            kernel_of_rho(g, bound, order)
            for d in counts.keys() - {d for d, _ in calls}:
                gens, count = counts[d]
                monos = monomials_of_degree(g.dim, d, order)
                rank = {m: t for t, m in enumerate(monos)}
                pivots = len(oracles.multiple_pivots(gens, d, g.dim, rank,
                                                     order))
                if count != pivots:
                    found.append((g.label, d, count, pivots))
        return found

    @pytest.mark.parametrize("order", [DEGREVLEX, GRLEX, LEX],
                             ids=lambda o: o.name)
    def test_pivot_count_matches_the_oracle_where_it_decides(
            self, monkeypatch, order):
        cases = [(filiform(n), n) for n in range(3, 9)] + seaweeds_to_four()
        assert self.miscounted(monkeypatch, cases, order) == []

    def test_an_overcount_that_decides_a_degree_is_caught(self, monkeypatch):
        # one pivot more at degree 3 of sl3, 43 + 1, equals the kernel's
        # dimension 44 and decides the degree with no multiple built, so
        # ``kernel_of_rho`` raises nothing; the oracle sees it
        pivot_count = kernel_module._pivot_count

        def one_more(gens, d, *args):
            count = pivot_count(gens, d, *args)
            return count + 1 if d == 3 else count
        monkeypatch.setattr(kernel_module, "_pivot_count", one_more)
        sl3 = seaweed((3,), (3,))
        assert self.miscounted(monkeypatch, [(sl3, 3)], DEGREVLEX) == [
            (sl3.label, 3, 44, 43)]

    def test_pivots_fewer_than_counted_raise(self, monkeypatch):
        # one pivot more counted than the multiples have, where they are
        # built, disagrees with their 148 least keys at degree 4 (the
        # kernel has dimension 156).  At degree 3, 43 + 1 would equal the
        # kernel's dimension 44 and decide the degree with no multiple
        # built
        pivot_count = kernel_module._pivot_count

        def one_more(gens, d, *args):
            count = pivot_count(gens, d, *args)
            return count + 1 if d == 4 else count
        monkeypatch.setattr(kernel_module, "_pivot_count", one_more)
        with pytest.raises(InternalCheckError, match="as many as counted"):
            kernel_of_rho(seaweed((3,), (3,)), 4)


class TestBlockSplit:
    """Each degree of the anchor system is one ``SolutionSpace``, whose
    eliminator finds the blocks; the generators below are those of the
    single-system solver."""

    def block_sizes(self, monkeypatch, g, bound):
        # no degree is certified by the image count, so every degree
        # builds its system
        monkeypatch.setattr(kernel_module, "_image_count",
                            lambda leads, d: 0)
        sizes = TestPivotCertificate.system_sizes(monkeypatch)
        return kernel_of_rho(g, bound), sizes

    def test_trivial_grading_is_one_block(self, monkeypatch, rotated_sl2):
        g = rotated_sl2
        kernel, sizes = self.block_sizes(monkeypatch, g, 3)
        # one system per degree 0..3 with all 3 * C(d + 2, 2) unknowns
        assert sizes == [3, 9, 18, 30]
        assert kernel.rank == 1
        assert [component_texts(w, g) for w in kernel.generators] == \
            [("a", "-b", "c")]

    def test_panyushev_blocks_hold_one_column_per_component(self, monkeypatch):
        g = panyushev()
        kernel, sizes = self.block_sizes(monkeypatch, g, 3)
        # one system per degree 0..3 with all 4 * C(d + 3, 3) unknowns
        assert sizes == [4 * 1, 4 * 4, 4 * 10, 4 * 20]
        assert kernel.rank == 2
        assert [component_texts(w, g) for w in kernel.generators] == [
            ("0", "v3", "-v2", "0"),
            ("0", "v4", "0", "v2"),
            ("0", "0", "v4", "v3"),
        ]


class TestInternalChecks:
    def test_failed_annihilation_raises_an_explicit_error(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "_annihilates",
                            lambda b, components: False)
        with pytest.raises(InternalCheckError, match="annihilate"):
            kernel_of_rho(filiform(4), 1)

    def test_checks_survive_python_O(self):
        script = (
            "import coregular.invariants as inv\n"
            "from coregular import InternalCheckError, filiform\n"
            "print('debug', __debug__)\n"
            "inv.verify_semi_invariant = lambda g, f, w: False\n"
            "try:\n"
            "    inv.graded_semi_invariants(filiform(4), 1)\n"
            "except InternalCheckError as exc:\n"
            "    print('raised', exc)\n")
        src = Path(coregular.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "debug False",
            "raised graded search produced a non-semi-invariant"]


class TestFreeness:
    def test_filiform5_fails_with_syzygy(self):
        kernel = kernel_of_rho(filiform(5), 2)
        verdict = freeness_verdict(kernel)
        assert verdict.status == FAILS and verdict.certainty == "certified"
        assert verdict.witness is not None
        e, coeffs = find_syzygy(kernel)
        assert e == 2
        # sanity: the combination really vanishes
        acc = [Polynomial.zero(5) for _ in range(5)]
        for c, w in zip(coeffs, kernel.generators):
            for i in range(5):
                acc[i] = acc[i] + c * w.components[i]
        assert all(a.is_zero for a in acc)
        # and it is the stated one up to scale: coefficients (v5, -v4, v3)
        nonzero = [c for c in coeffs if not c.is_zero]
        texts = {format_polynomial(c.monic()) for c in nonzero}
        assert texts == {"v5", "v4", "v3"}

    def test_syzygies_vanish_and_have_no_lower_degree(self):
        # every catalog entry and seaweed of n <= 3 with more generators
        # than its rank
        cases = catalog_cases() + seaweed_cases()
        found = []
        for g, bound in cases:
            kernel = kernel_of_rho(g, bound)
            gens = kernel.generators
            if len(gens) <= kernel.rank:
                continue
            n = g.dim
            e, coeffs = find_syzygy(kernel)
            assert any(not c.is_zero for c in coeffs), g.label
            for c, w in zip(coeffs, gens):
                assert all(sum(m) == e - w.degree for m in c.terms), g.label
            for i in range(n):
                acc = Polynomial.zero(n)
                for c, w in zip(coeffs, gens):
                    acc = acc + c * w.components[i]
                assert acc.is_zero, (g.label, i)
            for d in range(min(w.degree for w in gens), e):
                rank = {m: t for t, m in
                        enumerate(monomials_of_degree(n, d, DEGREVLEX))}
                multiples = kernel_module._multiples(gens, d, n, rank,
                                                     DEGREVLEX)
                assert not linalg.kernel_of_columns(
                    [vec for _, _, vec in multiples]), (g.label, d)
            found.append(g.label)
        assert found == ["L(5)", "L(6)", "L(7)", "panyushev"]

    def test_filiform_3_4_hold(self):
        for n in (3, 4):
            verdict = freeness_verdict(kernel_of_rho(filiform(n), 2))
            assert verdict.status == HOLDS
            assert verdict.certainty == "up-to-degree"

    def test_abelian_free(self):
        verdict = freeness_verdict(kernel_of_rho(abelian(4), 1))
        assert verdict.status == HOLDS

    def test_filiform6_fails(self):
        verdict = freeness_verdict(kernel_of_rho(filiform(6), 2))
        assert verdict.status == FAILS

    def test_fewer_generators_than_the_rank_is_unknown(self):
        # rank 1, and no kernel generator of degree 1
        verdict = freeness_verdict(
            kernel_of_rho(seaweed((1, 1, 1), (3,)), 1))
        assert verdict == CriterionVerdict(
            criterion="kernel-freeness", status=UNKNOWN,
            lhs="0 minimal generators", rhs="rank 1",
            certainty="up-to-degree", degree_bound=1,
            notes=("fewer generators than the rank: raise the degree "
                   "bound",))

    def test_dependent_generators_are_unknown(self):
        # as many generators as the rank, the second x2 times the first
        x1, x2 = (Polynomial.variable(2, i) for i in range(2))
        kernel = KernelBasis(
            algebra=abelian(2), degree_bound=2, rank=2,
            generators=(KernelGenerator((x1, x2), 1),
                        KernelGenerator((x2 * x1, x2 * x2), 2)))
        assert freeness_verdict(kernel) == CriterionVerdict(
            criterion="kernel-freeness", status=UNKNOWN,
            lhs="2 minimal generators", rhs="rank 2",
            certainty="up-to-degree", degree_bound=2,
            notes=("generators are dependent over the fraction field",))


class TestCriteria:
    def run(self, g, bound):
        geometry = compute_geometry(g)
        semi, inv = minimal_generators(g, bound)
        from coregular.invariants import find_relations
        rels = find_relations(inv, bound)
        return {v.criterion: v
                for v in evaluate_criteria(geometry, semi, inv, rels)}

    def test_filiform5_bound_fails(self):
        verdicts = self.run(filiform(5), 5)
        v = verdicts["index-center-bound"]
        assert v.status == FAILS
        assert "9" in v.lhs and "7" in v.rhs
        assert v.certainty == "certified"  # nilpotent gate

    def test_filiform6_codim_fails(self):
        verdicts = self.run(filiform(6), 3)
        v = verdicts["singular-codim-bound"]
        assert v.status == FAILS and "4" in v.lhs

    def test_panyushev_semi_bound_holds(self):
        verdicts = self.run(panyushev(), 2)
        v = verdicts["semi-invariant-degree-sum-bound"]
        assert v.status == HOLDS
        assert "3" in v.lhs
        assert verdicts["index-center-bound"].status == UNKNOWN

    def test_filiform4_equality_holds(self):
        verdicts = self.run(filiform(4), 4)
        assert verdicts["invariant-degree-sum-equality"].status == HOLDS
        assert verdicts["equality-iff-codim-ge-2"].status == HOLDS

    def test_filiform3_equality_holds_with_d_two(self):
        verdicts = self.run(filiform(3), 3)
        v = verdicts["invariant-degree-sum-equality"]
        assert v.status == HOLDS
        assert "= 1" in v.rhs

    def test_abelian_all_hold(self):
        verdicts = self.run(abelian(4), 4)
        for name, v in verdicts.items():
            if name == "singular-locus-purity":
                assert v.status == UNKNOWN
            else:
                assert v.status == HOLDS, name

    def test_purity_always_unchecked(self):
        for g in (filiform(4), sl2()):
            verdicts = self.run(g, 2)
            assert verdicts["singular-locus-purity"].status == UNKNOWN

    def test_data_of_another_algebra_is_refused(self):
        # sl2's c = 2 against filiform(4)'s degree sum 3 would read as a
        # certified failure of the bound
        semi, inv = minimal_generators(filiform(4), 4)
        with pytest.raises(ValueError, match="geometry"):
            evaluate_criteria(compute_geometry(sl2()), semi, inv, ())
        # L(3) has sl2's index 1, and with sl2's d = 0 its degree-sum
        # equality would read as a failure
        with pytest.raises(ValueError, match="geometry"):
            evaluate_criteria(compute_geometry(sl2()),
                              *minimal_generators(filiform(3), 3), ())
        other = minimal_generators(sl2(), 2)[1]
        with pytest.raises(ValueError, match="invariant generators"):
            evaluate_criteria(compute_geometry(filiform(4)), semi, other, ())


    @pytest.mark.parametrize("order", [DEGREVLEX, GRLEX, LEX],
                             ids=lambda o: o.name)
    def test_center_dimension_is_read_from_the_degree_one_invariants(
            self, order):
        # a linear form is invariant exactly when its vector is central;
        # the semi-invariants of degree one would count panyushev's three
        # weight vectors against a centre of dimension 0
        algebras = [g for g, _ in catalog_cases() + weights_cases()
                    + seaweed_cases()] + [filiform(n) for n in range(3, 10)]
        for g in algebras:
            semi, inv = minimal_generators(g, 1, order)
            verdict = {v.criterion: v for v in evaluate_criteria(
                compute_geometry(g), semi, inv, ())}["index-center-bound"]
            z_dim = len(oracles.center(g))
            assert verdict.rhs == f"dim + 2 dim Z = {g.dim + 2 * z_dim}", \
                g.label

    def heisenberg_criteria(self, **changes):
        # index 2, centre of dimension 1, d = 2 and codimension 1; the
        # only generator up to degree 1 is the invariant c
        g = heisenberg([[1, 0], [0, 1]])
        geometry = dataclasses.replace(compute_geometry(g), **changes)
        semi, inv = minimal_generators(g, 1)
        return {v.criterion: v
                for v in evaluate_criteria(geometry, semi, inv, ())}

    def test_a_polynomial_presentation_of_the_wrong_degree_sum_fails(self):
        verdict = self.heisenberg_criteria()["invariant-degree-sum-equality"]
        assert verdict == CriterionVerdict(
            criterion="invariant-degree-sum-equality", status=FAILS,
            lhs="sum of invariant generator degrees = 1",
            rhs="(dim + i - d)/2 = 3", certainty="up-to-degree",
            degree_bound=1,
            notes=("no proper semi-invariants found up to degree 1",))

    def test_equality_with_d_zero_but_a_short_sum_fails(self):
        # sl2 at bound 1: no invariant yet, so 0 != c while d = 0
        verdict = self.run(seaweed((2,), (2,)), 1)["equality-iff-codim-ge-2"]
        assert verdict == CriterionVerdict(
            criterion="equality-iff-codim-ge-2", status=FAILS,
            lhs="degree sum != c", rhs="d = 0", certainty="up-to-degree",
            degree_bound=1, notes=("no proper semi-invariants (perfect)",))

    def test_an_index_above_the_centre_bound_fails_up_to_degree(self):
        g = heisenberg([[1, 0], [0, 1]])
        index = compute_geometry(g).index
        verdict = self.heisenberg_criteria(index=index + 2)[
            "index-center-bound"]
        assert verdict == CriterionVerdict(
            criterion="index-center-bound", status=FAILS,
            lhs="3 i = 12", rhs="dim + 2 dim Z = 8",
            certainty="up-to-degree", degree_bound=1,
            notes=("no proper semi-invariants found up to degree 1",
                   "failure excludes coregularity"))

    def test_an_unknown_codimension_is_budget_exceeded(self):
        verdict = self.heisenberg_criteria(codim=None, codim_known=False)[
            "singular-codim-bound"]
        assert verdict == CriterionVerdict(
            criterion="singular-codim-bound", status=UNKNOWN,
            lhs="codim unknown", rhs="codim <= 3",
            certainty="budget-exceeded", notes=("Groebner budget exceeded",))


class TestReduceOneStep:
    def proper_generator(self, g, bound=3, text=None):
        gens = minimal_generators(g, bound)[0]
        proper = [s for s in gens.generators if not s.weight.is_zero]
        if text is not None:
            proper = [s for s in proper
                      if format_polynomial(s.poly, g.names) == text]
        return proper[0]

    def test_example32_takes_nilpotent_branch(self):
        g = example32()
        step = reduce_one_step(g, self.proper_generator(g, text="v3"))
        assert step.chosen == K_BRANCH
        assert step.k.brackets == {(0, 1): {2: Fraction(1)}}
        assert step.rank_g == 2 and step.rank_h == 0 and step.rank_k == 2
        assert step.c_after == step.c_before == 2
        # the chosen branch matches the graded dimensions of g
        assert step.semicenter_dims["k"] == step.semicenter_dims["g"]
        assert step.semicenter_dims["h"] != step.semicenter_dims["g"]

    def test_panyushev_preserves_c_at_three(self):
        g = panyushev()
        step = reduce_one_step(g, self.proper_generator(g, 2, "v2"))
        assert step.c_before == step.c_after == 3
        assert step.chosen == H_BRANCH
        assert step.h.is_abelian and step.h.dim == 3

    def test_two_dim_nonabelian(self):
        g = two_dim_nonabelian()
        step = reduce_one_step(g, self.proper_generator(g, 2))
        # rank excludes the extension branch; the weight kernel matches
        assert step.chosen == H_BRANCH
        assert step.semicenter_dims["h"] == step.semicenter_dims["g"]
        assert step.c_after == step.c_before == 1

    def test_rejects_invariant_input(self):
        g = filiform(4)
        zero = WeightVector.of([0] * 4)
        s = SemiInvariant(Polynomial.variable(4, 3), zero, 1)
        with pytest.raises(ValueError):
            reduce_one_step(g, s)

    def test_semi_invariant_of_another_algebra_is_refused(self):
        # panyushev's v4 has weight (-1, 0, 0, 0), four entries against
        # example32's three
        v4 = self.proper_generator(panyushev(), 2, "v4")
        with pytest.raises(ValueError, match="another algebra"):
            reduce_one_step(example32(), v4)
        # v1 is no semi-invariant of panyushev, though its weight
        # vanishes on the derived subalgebra
        s = SemiInvariant(Polynomial.variable(4, 0),
                          WeightVector.of([1, 0, 0, 0]), 1)
        with pytest.raises(ValueError, match="not a semi-invariant"):
            reduce_one_step(panyushev(), s)
        # nor is the zero polynomial, which every ad(v_i) kills
        zero = SemiInvariant(Polynomial.zero(4), s.weight, 1)
        with pytest.raises(ValueError, match="not a semi-invariant"):
            reduce_one_step(panyushev(), zero)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_compare_degree_below_one_raises(self, degree):
        g = panyushev()
        with pytest.raises(ValueError, match="comparison degree"):
            reduce_one_step(g, self.proper_generator(g, 2, "v2"),
                            compare_degree=degree)

    def test_weight_must_vanish_on_derived(self):
        g = filiform(4)
        bad = SemiInvariant(Polynomial.variable(4, 3),
                            WeightVector.of([0, 0, 1, 0]), 1)
        with pytest.raises(ValueError):
            reduce_one_step(g, bad)

    def test_c_preserved_on_every_catalog_step(self, catalog_algebras):
        for g in catalog_algebras:
            gens = minimal_generators(g, 2)[0]
            proper = [s for s in gens.generators if not s.weight.is_zero]
            for s in proper[:2]:
                step = reduce_one_step(g, s, compare_degree=2)
                if step.chosen_algebra is not None:
                    assert step.c_after == step.c_before


    def patched_dims(self, monkeypatch, g_dims, h_dims, k_dims):
        # h and k are told apart by the labels reduce_one_step gives them
        def dims(alg, degree):
            if alg.label.endswith("|ker-weight"):
                return h_dims
            if alg.label.endswith("|nilpotent-extension"):
                return k_dims
            return g_dims
        monkeypatch.setattr(kernel_module, "semicenter_dims", dims)

    def test_both_branches_matching_take_the_h_branch(self, monkeypatch):
        # example32 keeps its rank in k, so both branches survive
        self.patched_dims(monkeypatch, (1, 1, 1), (1, 1, 1), (1, 1, 1))
        g = example32()
        step = reduce_one_step(g, self.proper_generator(g, text="v3"))
        assert step.chosen == H_BRANCH and step.chosen_algebra is step.h
        assert step.c_after == step.c_before == 2
        assert step.notes == ("both branches match the semi-center "
                              "dimensions up to degree 3",)

    def test_no_matching_branch_is_undecided(self, monkeypatch):
        self.patched_dims(monkeypatch, (1, 1, 1), (2, 3, 4), (1, 2, 3))
        g = example32()
        step = reduce_one_step(g, self.proper_generator(g, text="v3"))
        assert step.chosen == UNDECIDED
        assert step.notes == ("no branch matches the graded semi-center "
                              "dimensions; raise the comparison degree",)
        assert step.c_after is None and step.chosen_algebra is None

    def test_the_cli_reports_an_undecided_step(self, monkeypatch, capsys):
        self.patched_dims(monkeypatch, (1, 1, 1), (2, 3, 4), (1, 2, 3))
        assert cli_main(["reduce", "--catalog", "example32"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  chosen branch: undecided" in lines
        assert "  c-value: 2 -> undecided" in lines
        assert not any(line.endswith("<- chosen") for line in lines)


class TestKernelOracle:
    """Independent dense-solve oracle for the sparse kernel path."""

    def test_anchor_rows_match_the_structure_matrix_oracle(
            self, order_test_algebras):
        # the rows read from the bracket table against those read from
        # the matrix's degree-one entries: same rows and keys, in any
        # order, since ``SolutionSpace`` orders a system itself
        seaweeds = [g for g, _ in order_test_algebras
                    if g.label.startswith("seaweed")]
        assert len(seaweeds) == 4
        for g in [filiform(n) for n in range(3, 8)] + seaweeds:
            b = g.structure_matrix()
            for d in range(5):
                monos = monomials_of_degree(g.dim, d, DEGREVLEX)
                rows = kernel_module._anchor_equations(g, monos)
                expected = oracles.anchor_equations_from_matrix(b, monos)
                assert sorted(sorted(r.items()) for r in rows) == \
                    sorted(sorted(r.items()) for r in expected), (g.label, d)

    def dense_kernel_dimension(self, g, d):
        # brute force: coefficient matrix of sum_i A_i B[i][j] over a dense
        # monomial basis, solved with the dense nullspace routine
        from oracles import nullspace
        from coregular.poly import monomials_of_degree
        n = g.dim
        b = g.structure_matrix()
        monos = monomials_of_degree(n, d, DEGREVLEX)
        target = monomials_of_degree(n, d + 1, DEGREVLEX)
        tindex = {m: t for t, m in enumerate(target)}
        unknowns = [(i, m) for i in range(n) for m in monos]
        rows = [[Fraction(0)] * len(unknowns)
                for _ in range(n * len(target))]
        for col, (i, m) in enumerate(unknowns):
            mono_poly = Polynomial(n, {m: 1})
            for j in range(n):
                prod = mono_poly * b[i, j]
                for mm, c in prod.terms.items():
                    rows[j * len(target) + tindex[mm]][col] += c
        return len(nullspace(rows, len(unknowns))), unknowns, rows

    def test_sparse_solution_spaces_match_dense_oracle(self):
        for g, d in [(filiform(4), 1), (filiform(5), 1), (panyushev(), 1),
                     (sl2(), 2)]:
            dim_dense, unknowns, rows = self.dense_kernel_dimension(g, d)
            # the sparse path, without minimality reduction: count solutions
            from coregular.linalg import kernel_of_columns
            b = g.structure_matrix()
            images = []
            for (i, m) in unknowns:
                img = {}
                for j in range(g.dim):
                    prod = Polynomial(g.dim, {m: 1}) * b[i, j]
                    for mm, c in prod.terms.items():
                        img[(j, mm)] = img.get((j, mm), 0) + c
                images.append({k: v for k, v in img.items() if v != 0})
            dim_sparse = len(kernel_of_columns(images))
            assert dim_sparse == dim_dense, g.label

    def test_filiform4_degree_counts_frozen_from_oracle(self):
        # frozen from the dense oracle: solution space dims per degree
        g = filiform(4)
        assert self.dense_kernel_dimension(g, 0)[0] == 1
        assert self.dense_kernel_dimension(g, 1)[0] == 5
        kernel = kernel_of_rho(g, 1)
        assert kernel.degrees == (0, 1)
