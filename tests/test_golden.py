"""Byte-for-byte oracle: every scripts/run_catalog.py entry must reproduce
its committed schema-1 report in tests/golden/.

Regenerate with ``scripts/run_catalog.py --json-dir tests/golden`` only in
a change that says why the reports changed.
"""

import importlib.util
from pathlib import Path

import pytest

from coregular.report import AnalysisOptions, analyze

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location(
    "run_catalog", ROOT / "scripts" / "run_catalog.py")
run_catalog = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_catalog)


def test_every_entry_has_a_golden_report():
    names = sorted(run_catalog.json_name(g) for g, _ in run_catalog.ENTRIES)
    assert names == sorted(p.name for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("g, bound", run_catalog.ENTRIES,
                         ids=[g.label for g, _ in run_catalog.ENTRIES])
def test_report_matches_golden_bytes(g, bound):
    report = analyze(g, AnalysisOptions(max_degree=bound))
    expected = (GOLDEN / run_catalog.json_name(g)).read_text()
    assert report.to_json() + "\n" == expected
