"""Acceptance suite: every criterion checked at its exact value.

All arithmetic is rational, so every assertion is an exact equality;
the only tolerances are the wall-clock budgets.  Run with ``pytest -s``
to see one verdict line per criterion.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from conftest import verdict_of
from coregular.catalog import (example32, filiform, heisenberg, panyushev,
                               sl2)
from coregular.invariants import (WeightVector,
                                  _exponent_vectors, graded_semi_invariants,
                                  minimal_generators, trdeg_check,
                                  verify_semi_invariant)
from coregular.kernel import (FAILS, HOLDS, K_BRANCH, find_syzygy,
                              freeness_verdict, kernel_of_rho, reduce_one_step)
from coregular.linalg import kernel_of_columns
from coregular.pfaffian import (fundamental_semi_invariant, index, pfaffian,
                                singular_locus_codim, certified_rank)
from coregular.poly import Polynomial, format_polynomial
from coregular.report import AnalysisOptions, analyze
from oracles import compose, poisson_bracket, poly_det
from polytext import parse_polynomial


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2}: FAIL  {description}")
        raise
    print(f"[acceptance] criterion {num:2}: PASS  {description}")


def proportional(a: Polynomial, b: Polynomial) -> bool:
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    lm = a.leading_monomial()
    if lm not in b.terms:
        return False
    scale = Fraction(a.terms[lm], b.terms[lm])
    return a == b * scale


def test_criterion_1_filiform_index_and_codim():
    with criterion(1, "filiform family: index and non-regular codim = n-2"):
        for n in range(3, 8):
            t0 = time.perf_counter()
            g = filiform(n)
            assert index(g) == n - 2
            assert singular_locus_codim(g) == n - 2
            assert time.perf_counter() - t0 < 10


def test_criterion_2_fundamental_semi_invariant():
    with criterion(2, "fundamental semi-invariant: v3^2 for n=3, else 1"):
        fsi3 = fundamental_semi_invariant(filiform(3))
        assert fsi3.value == Polynomial.variable(3, 2) ** 2
        assert fsi3.degree == 2
        for n in range(4, 8):
            fsi = fundamental_semi_invariant(filiform(n))
            assert fsi.value == Polynomial.one(n)
            assert fsi.degree == 0


def test_criterion_3_filiform3_invariants():
    with criterion(3, "3-dim filiform: generator v3 and 1 = (1/2)(3+1-2)"):
        report = analyze(filiform(3), AnalysisOptions(max_degree=3))
        gens = report.invariant_generators
        assert len(gens.generators) == 1
        assert gens.generators[0].poly == Polynomial.variable(3, 2)
        assert "1 = (1/2)(3+1-2)" in report.to_text().replace("degree-sum check: ", "")
        assert verdict_of(report, "invariant-degree-sum-equality").status == HOLDS


def test_criterion_4_filiform4_invariants():
    with criterion(4, "4-dim filiform: degrees {1,2} and 1+2 = (1/2)(4+2-0)"):
        report = analyze(filiform(4), AnalysisOptions(max_degree=4))
        gens = report.invariant_generators
        assert gens.degrees == (1, 2)
        target = parse_polynomial("v2*v4 - 1/2*v3^2", filiform(4).names)
        assert proportional(gens.generators[1].poly, target)
        assert "1+2 = (1/2)(4+2-0)" in report.to_text()
        assert verdict_of(report, "invariant-degree-sum-equality").status == HOLDS


def test_criterion_5_filiform5_kernel_and_bound():
    with criterion(5, "5-dim filiform: kernel w1..w4, syzygy, freeness and "
                      "9 <= 7 both fail"):
        g = filiform(5)
        kernel = kernel_of_rho(g, 2)
        assert len(kernel.generators) == 4
        expected = [
            parse_polynomial_tuple(("0", "v4", "-v3", "0", "0"), g),
            parse_polynomial_tuple(("0", "0", "v5", "-v4", "0"), g),
            parse_polynomial_tuple(("0", "v5", "0", "-v3", "0"), g),
            parse_polynomial_tuple(("0", "0", "0", "0", "1"), g),
        ]
        for want in expected:
            assert any(tuples_proportional(w.components, want)
                       for w in kernel.generators)
        degree, coeffs = find_syzygy(kernel)
        assert degree == 2
        acc = [Polynomial.zero(5) for _ in range(5)]
        for c, w in zip(coeffs, kernel.generators):
            for i in range(5):
                acc[i] = acc[i] + c * w.components[i]
        assert all(a.is_zero for a in acc)
        nonzero = sorted(format_polynomial(c.monic()) for c in coeffs
                         if not c.is_zero)
        assert nonzero == ["v3", "v4", "v5"]

        verdict = freeness_verdict(kernel)
        assert verdict.status == FAILS and verdict.certainty == "certified"

        report = analyze(g, AnalysisOptions(max_degree=3))
        bound = verdict_of(report, "index-center-bound")
        assert bound.status == FAILS
        assert bound.lhs == "3 i = 9" and bound.rhs == "dim + 2 dim Z = 7"


def parse_polynomial_tuple(texts, g):
    return tuple(parse_polynomial(t, g.names) for t in texts)


def tuples_proportional(a, b):
    lead = next((i for i, c in enumerate(b) if not c.is_zero), None)
    if lead is None:
        return all(c.is_zero for c in a)
    if a[lead].is_zero:
        return False
    la, lb = a[lead], b[lead]
    return all(x * lb == y * la for x, y in zip(a, b))


def test_criterion_6_filiform6_presentation():
    with criterion(6, "6-dim filiform: degrees {1,2,2,3,3}, the single "
                      "relation, Gorenstein 5 = (6+4-0)/2, codim 4"):
        t0 = time.perf_counter()
        g = filiform(6)
        report = analyze(g, AnalysisOptions(max_degree=6))
        gens = report.invariant_generators
        assert sorted(gens.degrees) == [1, 2, 2, 3, 3]
        assert gens.generators[0].poly == Polynomial.variable(6, 5)  # v6

        assert report.relations is not None and len(report.relations) == 1
        relation = report.relations[0]
        assert relation.weighted_degree == 6

        # the relation matches the known presentation after expressing our
        # generators in the classical ones
        names = g.names
        classical = [parse_polynomial(t, names) for t in (
            "v5^2 - 2*v4*v6",
            "v5^3 - 3*v4*v5*v6 + 3*v3*v6^2",
            "v4^2 - 2*v3*v5 + 2*v2*v6",
            "2*v4^3 + 6*v2*v5^2 + 9*v3^2*v6 - 12*v2*v4*v6 - 6*v3*v4*v5",
            "v6")]
        classical_degrees = [p.total_degree() for p in classical]
        translations = []
        for s in gens.generators:
            exps = _exponent_vectors(classical_degrees, s.degree)
            prods = []
            for e in exps:
                prod = Polynomial.one(6)
                for i, ei in enumerate(e):
                    prod = prod * classical[i] ** ei
                prods.append(prod)
            combos = kernel_of_columns(
                [s.poly.terms] + [p.terms for p in prods])
            combo = next(v for v in combos if v.get(0))
            translations.append(Polynomial(5, {
                exps[t - 1]: Fraction(-c, combo[0]) for t, c in combo.items() if t}))
        in_classical = compose(relation.poly, translations)
        p_classical = parse_polynomial(
            "f4*f5^3 - 3*f1*f3*f5^2 + f1^3 - f2^2",
            [f"f{i}" for i in range(1, 6)])
        assert proportional(in_classical, p_classical)

        assert report.gorenstein.value == 5
        assert (g.dim + report.geometry.index - report.geometry.fsi.degree) \
            // 2 == 5
        codim_verdict = verdict_of(report, "singular-codim-bound")
        assert codim_verdict.status == FAILS
        assert report.geometry.codim == 4
        assert time.perf_counter() - t0 < 60


def test_criterion_7_panyushev_contrast():
    with criterion(7, "weights (1,1,-1) algebra: semi-invariant sum 3 <= 3 "
                      "holds, invariant sum 4 noted"):
        g = panyushev()
        report = analyze(g, AnalysisOptions(max_degree=2))
        semi = report.semi_generators
        found = sorted(format_polynomial(s.poly, g.names)
                       for s in semi.generators)
        assert found == ["v2", "v3", "v4"]
        for s in semi.generators:
            assert not s.weight.is_zero
            assert all(x.denominator == 1 for x in s.weight.values)
        assert semi.degree_sum() == 3
        verdict = verdict_of(report, "semi-invariant-degree-sum-bound")
        assert verdict.status == HOLDS
        assert report.invariant_generators.degree_sum() == 4
        assert any("invariants-only generator degree sum 4" in note
                   for note in report.notes)


def test_criterion_8_reduction_example():
    with criterion(8, "non-semisimple 3-dim example: semi-center dims "
                      "(1,1,1) and reduction to [v1,v2] = v3"):
        g = example32()
        for d in (1, 2, 3):
            graded = graded_semi_invariants(g, d)
            assert graded.total_dim() == 1
            (_, basis), = graded.blocks
            v3_power = Polynomial.variable(3, 2) ** d
            assert basis[0] == v3_power
        gens = minimal_generators(g, 3)[0]
        proper = [s for s in gens.generators if not s.weight.is_zero]
        step = reduce_one_step(g, proper[0])
        assert step.chosen == K_BRANCH
        assert step.k.brackets == {(0, 1): {2: Fraction(1)}}


def test_criterion_9_heisenberg_invariants():
    with criterion(9, "Heisenberg extension: invariants c and the Casimir-"
                      "type z, transcendence rank 2"):
        g = heisenberg([[0, 1], [0, 0]])
        gens = minimal_generators(g, 2)[0]
        assert gens.degrees == (1, 2)
        c = gens.generators[0].poly
        assert c == parse_polynomial("c", g.names)
        z_found = gens.generators[1].poly
        z = parse_polynomial("c*t - w2*u1", g.names)
        assert verify_semi_invariant(g, z, WeightVector.of([0] * 6))
        # z_found spans with z modulo the product c^2
        c2 = parse_polynomial("c^2", g.names)
        coeffs = kernel_of_columns([z_found.terms, z.terms, c2.terms])
        assert any(v.get(0) for v in coeffs)
        check = trdeg_check(gens)
        assert check.status == "consistent" and check.rank == 2


def test_criterion_10_exact_property_suite(catalog_algebras):
    with criterion(10, "catalog-wide exact property suite"):
        import random
        rng = random.Random(5)
        for g in catalog_algebras:
            gens = minimal_generators(g, 2)[0]
            derived = g.derived_subalgebra()
            polys = [s.poly for s in gens.generators]
            for s in gens.generators:
                assert verify_semi_invariant(g, s.poly, s.weight)
                for b in derived:
                    assert sum(c * x for c, x in
                               zip(s.weight.values, b)) == 0
            for a, b in combinations(polys, 2):
                assert poisson_bracket(a, b, g).is_zero
            matrix = g.structure_matrix()
            sets = [rows for k in (2, 4) if k <= g.dim
                    for rows in combinations(range(g.dim), k)]
            for rows in rng.sample(sets, min(3, len(sets))):
                pf = pfaffian(matrix, rows)
                det = poly_det([[matrix[i, j] for j in rows] for i in rows])
                assert pf * pf == det
            assert certified_rank(matrix).rank % 2 == 0
            d = fundamental_semi_invariant(g).degree
            codim = singular_locus_codim(g)
            assert (d == 0) == (codim is None or codim >= 2)
            for s in gens.generators:
                if not s.weight.is_zero:
                    step = reduce_one_step(g, s, compare_degree=2)
                    if step.chosen_algebra is not None:
                        assert step.c_after == step.c_before
            kernel = kernel_of_rho(g, 2)
            for w in kernel.generators:
                for j in range(g.dim):
                    acc = Polynomial.zero(g.dim)
                    for i in range(g.dim):
                        acc = acc + w.components[i] * matrix[i, j]
                    assert acc.is_zero


def test_criterion_11_sl2_baseline():
    with criterion(11, "sl2: one degree-2 invariant, 2 = (3+1-0)/2, codim 3 "
                       "at the boundary"):
        g = sl2()
        report = analyze(g, AnalysisOptions(max_degree=3))
        gens = report.invariant_generators
        assert gens.degrees == (2,)
        casimir = gens.generators[0].poly
        assert proportional(casimir,
                            parse_polynomial("h^2 + 4*e*f", g.names))
        equality = verdict_of(report, "invariant-degree-sum-equality")
        assert equality.status == HOLDS
        assert report.invariant_generators.degree_sum() == 2
        assert (g.dim + report.geometry.index) // 2 == 2
        codim_verdict = verdict_of(report, "singular-codim-bound")
        assert codim_verdict.status == HOLDS
        assert report.geometry.codim == 3
