"""Exact values: an ``int`` when integral, a ``Fraction`` only while a
denominator remains, and never a ``float`` or a ``bool``.

The pipeline runs over every ``scripts/run_catalog.py`` entry at bound
at most 3 and over the weights algebras, with the readouts recorded,
and each true division of the library is fed ``int`` inputs."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import is_exact, is_rational
from coregular import invariants, lie, linalg, poly
from coregular.grobner import s_polynomial
from coregular.invariants import SemiInvariant, WeightVector
from coregular.kernel import reduce_one_step
from coregular.lie import LieAlgebra, SkewPolyMatrix
from coregular.linalg import _divmod_dense, charpoly, squarefree_part
from coregular.poly import Polynomial, _q, _ratio, divide
from coregular.report import AnalysisOptions, analyze

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "run_catalog", ROOT / "scripts" / "run_catalog.py")
run_catalog = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_catalog)

WEIGHTS = [(1, 1, -1), (2, -1, 3), (5, -7, 11)]


def weights_algebra(weights):
    """A line acting on Q^3 with the given weights: [v1, v_i] = w_i v_i."""
    return LieAlgebra(["v1", "v2", "v3", "v4"],
                      {(0, i + 1): {i + 1: w} for i, w in enumerate(weights)},
                      label="weights" + str(weights))


def coefficients(f: Polynomial):
    return list(f.terms.values())


@pytest.fixture
def readouts(monkeypatch):
    """Every value returned by ``_q``, ``SparseEchelon.row``,
    ``_free_columns`` and ``solve``, and every probe value of a
    structure matrix, while the fixture is active."""
    seen = {"readout": [], "probe": []}

    def record(kind, fn, values):
        def wrapper(*args):
            out = fn(*args)
            seen[kind].extend(values(out))
            return out
        return wrapper

    for module in (poly, linalg, lie, invariants):
        monkeypatch.setattr(module, "_q",
                            record("readout", poly._q, lambda x: [x]))
    monkeypatch.setattr(linalg.SparseEchelon, "row", record(
        "readout", linalg.SparseEchelon.row, lambda row: row.values()))
    monkeypatch.setattr(linalg, "_free_columns", record(
        "readout", linalg._free_columns,
        lambda basis: [c for vec in basis for c in vec.values()]))
    monkeypatch.setattr(linalg, "solve", record(
        "readout", linalg.solve, lambda x: x or []))
    monkeypatch.setattr(SkewPolyMatrix, "evaluate", record(
        "probe", SkewPolyMatrix.evaluate,
        lambda m: [x for row in m for x in row]))
    return seen


def report_values(report):
    """Generator coefficients, weight values and kernel components of one
    report, and the coefficients of every other polynomial it holds."""
    values = []
    for gens in (report.semi_generators, report.invariant_generators):
        for s in gens.generators:
            values += coefficients(s.poly) + list(s.weight.values)
    for r in report.relations or ():
        values += coefficients(r.poly)
    for w in report.kernel.generators:
        for comp in w.components:
            values += coefficients(comp)
    geo = report.geometry
    for f in (geo.fsi.value, geo.fsi.pfaffian_gcd,
              geo.certificate.witness_pfaffian):
        values += coefficients(f)
    return values


def fresh(g: LieAlgebra) -> LieAlgebra:
    """The same algebra without the data cached on it."""
    return LieAlgebra.from_json_dict(g.to_json_dict())


@pytest.mark.parametrize(
    "g, bound",
    [(g, min(bound, 3)) for g, bound in run_catalog.ENTRIES]
    + [(weights_algebra(w), 3) for w in WEIGHTS],
    ids=[g.label for g, _ in run_catalog.ENTRIES]
    + [f"weights{w}" for w in WEIGHTS])
def test_no_float_reaches_an_exact_value(readouts, g, bound):
    report = analyze(fresh(g), AnalysisOptions(max_degree=bound))
    values = report_values(report)
    assert values and all(is_rational(x) for x in values)
    assert readouts["probe"] and all(is_rational(x)
                                     for x in readouts["probe"])
    assert readouts["readout"] and all(is_exact(x)
                                       for x in readouts["readout"])


def test_no_float_reaches_a_reduction_step(readouts):
    g = weights_algebra((2, -1, 3))
    report = analyze(g, AnalysisOptions(max_degree=3))
    s = next(s for s in report.semi_generators.generators
             if not s.weight.is_zero)
    step = reduce_one_step(g, s)
    values = [x for v in step.h_embedding for x in v]
    for algebra in (step.h, step.k):
        values += [c for row in algebra.brackets.values()
                   for c in row.values()]
    assert all(is_exact(x) for x in values)
    assert all(is_rational(x) for x in step.weight.values)
    assert all(is_exact(x) for x in readouts["readout"])


# ---------------------------------------------------------------------------
# the exact form and each true division, with int inputs
# ---------------------------------------------------------------------------

def test_q_and_ratio_return_the_exact_form():
    assert _q(Fraction(6, 3)) == 2 and type(_q(Fraction(6, 3))) is int
    assert type(_q(True)) is int and _q(True) == 1
    assert _q("1/2") == Fraction(1, 2) and type(_q("1/2")) is Fraction
    # a float's binary value is not exact: refused, not kept
    with pytest.raises(TypeError, match="0.1"):
        _q(0.1)
    with pytest.raises(TypeError):
        _q(0.5)
    assert type(_ratio(6, 3)) is int and _ratio(6, -3) == -2
    assert _ratio(1, 2) == Fraction(1, 2)
    assert type(_ratio(Fraction(1, 2), Fraction(1, 4))) is int
    with pytest.raises(ZeroDivisionError):
        _ratio(1, 0)


def test_q_reads_integer_decimal_and_ratio_text_only():
    assert _q("-3") == -3 and type(_q("-3")) is int
    assert _q(" 0.25 ") == Fraction(1, 4) and _q("6/4") == Fraction(3, 2)
    assert type(_q("4/2")) is int and _q(".5") == _q("1/2")
    # an exponent is refused before any value is built
    for text in ("1e5000", "1e10000000", "2E3", "1.5e-2", "x", "1_000",
                 "", "1/2/3", "1.5/2"):
        with pytest.raises(ValueError):
            _q(text)


def test_s_polynomial_divides_by_int_leading_coefficients():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    sp = s_polynomial(2 * x + 1, 3 * y + 1)
    # y/2 (2x + 1) - x/3 (3y + 1)
    assert sp == Polynomial(2, {(0, 1): Fraction(1, 2),
                                (1, 0): Fraction(-1, 3)})
    assert all(is_exact(c) for c in coefficients(sp))
    # monic, as in Buchberger's algorithm: x (xy + 2) - y x^2
    sp = s_polynomial(x * y + 2, x ** 2)
    assert sp == 2 * x and all(type(c) is int for c in coefficients(sp))


def test_reduction_divides_by_an_int_weight():
    # v1 acts on v2, v3 as the Jordan block [[3, 1], [0, 3]]; v2 has
    # weight (3, 0, 0), so c = v1 / 3 and ad(c) has nilpotent part 1/3
    g = LieAlgebra(["v1", "v2", "v3"], {(0, 1): {1: 3}, (0, 2): {1: 1, 2: 3}})
    s = SemiInvariant(Polynomial.variable(3, 1), WeightVector.of([3, 0, 0]),
                      1)
    step = reduce_one_step(g, s)
    assert type(step.weight.values[0]) is int
    assert step.h.dim == 2 and not step.h.brackets
    assert step.k.brackets == {(0, 2): {1: Fraction(1, 3)}}


def test_charpoly_of_an_int_matrix_is_integral():
    p = charpoly([[1, 1], [0, 2]])
    assert p == [2, -3, 1]
    assert all(type(c) is int for c in p)
    # past the 53 bits of a float
    big = 10 ** 17 + 1
    assert charpoly([[big, 1], [0, 3]]) == [3 * big, -big - 3, 1]
    p = charpoly([[Fraction(1, 2), 0], [0, 1]])
    assert p == [Fraction(1, 2), Fraction(-3, 2), 1]
    assert all(is_exact(c) for c in p)


def test_squarefree_part_divides_by_an_int_leading_coefficient():
    # 2 (t - 1)^2
    p = squarefree_part([2, -4, 2])
    assert p == [-1, 1]
    assert all(type(c) is int for c in p)


def test_divmod_dense_divides_by_an_int_leading_coefficient():
    # 2t^2 + 2 = (2t + 1)(t - 1/2) + 5/2
    quot, rem = _divmod_dense([2, 0, 2], [1, 2])
    assert quot == [Fraction(-1, 2), 1] and rem == [Fraction(5, 2)]
    assert type(quot[1]) is int
    assert all(is_exact(c) for c in quot + rem)


def test_monic_divides_by_an_int_leading_coefficient():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = (2 * x + 4 * y + 1).monic()
    assert f == x + 2 * y + Fraction(1, 2)
    assert [type(f.terms[m]) for m in [(1, 0), (0, 1), (0, 0)]] == \
        [int, int, Fraction]


def test_divide_divides_by_an_int_leading_coefficient():
    x = Polynomial.variable(1, 0)
    (q,), r = divide(2 * x ** 2 + 3 * x, [2 * x + 1])
    assert q == x + 1 and r == -1
    assert all(type(c) is int for c in coefficients(q) + coefficients(r))
    (q,), r = divide(x ** 2, [2 * x])
    assert q.terms == {(1,): Fraction(1, 2)} and r.is_zero
