"""Basis-change oracle: the answers of ``analyze`` belong to the algebra,
not to its basis.

Each ``scripts/run_catalog.py`` entry of dim <= 6 is moved to the basis
given by the rows of one invertible matrix P with entries in {-1, 0, 1},
and analyzed at the entry's bound.  The matrices are drawn in the order
of the entries from one generator seeded with 7.  Every number of
the report must match the catalog-basis one; a weight w of the catalog
basis is the weight P w in the new one.  In such a basis a complement
vector is seldom diagonal, so the graded search splits its blocks
through restricted matrices, which the catalog bases mostly avoid.
"""

import importlib.util
import random
from functools import cache
from pathlib import Path

import pytest

from coregular import invariants, linalg
from coregular.report import AnalysisOptions, analyze

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "run_catalog", ROOT / "scripts" / "run_catalog.py")
run_catalog = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_catalog)

ENTRIES = {g.label: (g, bound) for g, bound in run_catalog.ENTRIES
           if g.dim <= 6}


def changes_of_basis(seed: int = 7) -> dict[str, list[list[int]]]:
    """For each entry, an invertible matrix of its dimension with entries
    in {-1, 0, 1}: the first one drawn, in the order of the entries."""
    rng = random.Random(seed)
    out = {}
    for label, (g, _) in ENTRIES.items():
        while True:
            p = [[rng.choice((-1, 0, 1)) for _ in range(g.dim)]
                 for _ in range(g.dim)]
            if linalg.rank(p) == g.dim:
                out[label] = p
                break
    return out


CHANGES = changes_of_basis()


def summary(report, weight=tuple) -> dict:
    """The answers of a report that no basis may change, each weight
    given through ``weight``."""
    def multiset(gens):
        return sorted(s.degree for s in gens.generators)

    return {
        "index": report.geometry.index,
        "c": report.geometry.c,
        "d": report.geometry.fsi.degree,
        "codim": report.singular_codim_text(),
        "semi-invariant degrees": multiset(report.semi_generators),
        "(degree, weight)": sorted(
            (s.degree, weight(s.weight.values))
            for s in report.semi_generators.generators),
        "invariant degrees": multiset(report.invariant_generators),
        "kernel degrees": sorted(report.kernel.degrees),
        "kernel rank": report.kernel.rank,
        "relations": ("budget-exceeded" if report.relations is None else
                      sorted(r.weighted_degree for r in report.relations)),
        "gorenstein": (report.gorenstein.value, report.gorenstein.case),
        "trdeg": report.trdeg.status,
        "criteria": {v.criterion: (v.status, v.certainty)
                     for v in report.criteria},
    }


@cache
def compared(label: str) -> tuple[dict, dict, int]:
    """The summaries of an entry in its catalog basis, with each weight
    w mapped to P w, and in the basis of P, and how many restricted
    matrices the second analysis built."""
    g, bound = ENTRIES[label]
    p = CHANGES[label]
    options = AnalysisOptions(max_degree=bound)
    expected = summary(analyze(g, options), lambda w: tuple(
        sum(x * y for x, y in zip(row, w)) for row in p))
    rotated = g.induced_algebra(p, [f"u{i + 1}" for i in range(g.dim)],
                                label=f"{label}-rotated")
    built = []
    restricted = invariants._restricted_matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "_restricted_matrix",
                   lambda *args: built.append(1) or restricted(*args))
        actual = summary(analyze(rotated, options))
    return expected, actual, len(built)


@pytest.mark.parametrize("label", list(ENTRIES))
def test_a_change_of_basis_keeps_every_answer(label):
    expected, actual, _ = compared(label)
    for key in expected:
        assert actual[key] == expected[key], key


def test_some_rotated_entry_splits_restricted_matrices():
    # the general eigen path of the graded search is exercised: a
    # rotated complement vector is not diagonal on the new basis
    built = {label: compared(label)[2] for label in ENTRIES}
    assert any(built.values()), built
