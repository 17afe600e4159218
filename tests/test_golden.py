"""Byte-for-byte oracle: every scripts/run_catalog.py entry must reproduce
its committed schema-1 report in tests/golden/.  The same entries check
that the reports need no elimination over Q[x], that the monomial
order changes no result, and that the probe seed changes nothing but
the probe ranks.

Regenerate with ``scripts/run_catalog.py --json-dir tests/golden`` only in
a change that says why the reports changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from coregular.lie import LieAlgebra
from coregular.pfaffian import DEFAULT_PROBE_SEED
from coregular.poly import DEGREVLEX, GRLEX, LEX
from coregular.report import AnalysisOptions, analyze

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location(
    "run_catalog", ROOT / "scripts" / "run_catalog.py")
run_catalog = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_catalog)

IDS = [g.label for g, _ in run_catalog.ENTRIES]


def test_every_entry_has_a_golden_report():
    names = sorted(run_catalog.json_name(g) for g, _ in run_catalog.ENTRIES)
    assert names == sorted(p.name for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("g, bound", run_catalog.ENTRIES, ids=IDS)
def test_report_matches_golden_bytes(g, bound):
    report = analyze(g, AnalysisOptions(max_degree=bound))
    expected = (GOLDEN / run_catalog.json_name(g)).read_text()
    assert report.to_json() + "\n" == expected


@pytest.mark.parametrize("label", ["L(3)", "L(4)", "example32", "sl2",
                                   "heisenberg(0,1;0,0)",
                                   "heisenberg(1,0;0,1)"])
def test_reports_need_no_bareiss(monkeypatch, label):
    # every rank over the fraction field is certified at seeded points
    def no_bareiss(rows):
        raise AssertionError("Bareiss ran")
    for name, module in list(sys.modules.items()):
        if name.startswith("coregular") and hasattr(module,
                                                    "poly_matrix_rank"):
            monkeypatch.setattr(module, "poly_matrix_rank", no_bareiss)
    (g, bound), = [e for e in run_catalog.ENTRIES if e[0].label == label]
    report = analyze(g, AnalysisOptions(max_degree=bound))
    expected = (GOLDEN / run_catalog.json_name(g)).read_text()
    assert report.to_json() + "\n" == expected


def summary(report):
    """The results of a report that no monomial order may change."""
    return (
        [(s.degree, s.weight) for s in report.semi_generators.generators],
        [(s.degree, s.weight)
         for s in report.invariant_generators.generators],
        None if report.relations is None else len(report.relations),
        report.kernel.degrees,
        report.singular_codim_text(),
        [(v.criterion, v.status, v.certainty) for v in report.criteria],
    )


WEIGHTS = LieAlgebra(["v1", "v2", "v3", "v4"],
                     {(0, 1): {1: 2}, (0, 2): {2: -1}, (0, 3): {3: 3}},
                     label="weights(2,-1,3)")


@pytest.mark.parametrize(
    "g, bound",
    [e for e in run_catalog.ENTRIES if e[0].label != "L(7)"] + [(WEIGHTS, 3)],
    ids=[i for i in IDS if i != "L(7)"] + [WEIGHTS.label])
def test_monomial_orders_agree(g, bound):
    expected = summary(analyze(g, AnalysisOptions(max_degree=bound,
                                                  order=DEGREVLEX)))
    for order in (GRLEX, LEX):
        assert summary(analyze(g, AnalysisOptions(max_degree=bound,
                                                  order=order))) == expected, \
            order.name


@pytest.mark.parametrize("g, bound", run_catalog.ENTRIES, ids=IDS)
def test_the_seed_reaches_only_the_probe_ranks(g, bound):
    def seedless(seed):
        # a fresh copy, so that no datum is shared between the seeds
        fresh = LieAlgebra(g.names, g.brackets, g.label)
        data = json.loads(analyze(fresh, AnalysisOptions(
            max_degree=min(bound, 2), seed=seed)).to_json())
        assert data["settings"].pop("seed") == seed
        del data["probe_ranks"]
        return data
    expected = seedless(DEFAULT_PROBE_SEED)
    for seed in (1, 7):
        assert seedless(seed) == expected, seed
