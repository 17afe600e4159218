"""Data derived from an algebra is computed once per algebra instance.

``LieAlgebra.cached`` holds the rank certificate and the principal
rank-size Pfaffians (per probe seed), [g,g], the lower central series
verdict and the degree-one spectrum of each ad(v_i).  These tests count
the computations behind the memo, not the calls of the public methods
in front of it.
"""

import importlib
from collections import Counter
from types import SimpleNamespace

import pytest

from coregular.catalog import filiform
from coregular.invariants import minimal_generators
from coregular.kernel import reduce_one_step
from coregular.lie import LieAlgebra
from coregular.report import AnalysisOptions, analyze

pfaffian = importlib.import_module("coregular.pfaffian")


@pytest.fixture
def counts(monkeypatch):
    """``misses[(id(g), key)]``: computations of each memo entry;
    ``calls[name]``: calls of the functions that do the computing."""
    misses, calls = Counter(), Counter()
    keep = []  # holds the algebras, so that no id is reused
    cached = LieAlgebra.cached

    def counting_cached(self, key, compute):
        def counted():
            keep.append(self)
            misses[(id(self), key)] += 1
            return compute()
        return cached(self, key, counted)

    def counter(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(LieAlgebra, "cached", counting_cached)
    monkeypatch.setattr(pfaffian, "certified_rank",
                        counter("certificate", pfaffian.certified_rank))
    monkeypatch.setattr(LieAlgebra, "_lower_central_series_ends",
                        counter("lower central series",
                                LieAlgebra._lower_central_series_ends))
    # in the pipeline only the degree-one spectrum builds ad matrices
    monkeypatch.setattr(LieAlgebra, "ad_matrix",
                        counter("spectrum", LieAlgebra.ad_matrix))
    monkeypatch.setattr(LieAlgebra, "derived_subalgebra",
                        counter("derived_subalgebra()",
                                LieAlgebra.derived_subalgebra))
    return SimpleNamespace(misses=misses, calls=calls)


def _kind(key):
    return key[0] if isinstance(key, tuple) else key


def computed(counts, g, kind):
    """How often entries of one kind were computed for algebra g."""
    return sum(n for (gid, key), n in counts.misses.items()
               if gid == id(g) and _kind(key) == kind)


def entries(counts, kind):
    return sum(1 for _, key in counts.misses if _kind(key) == kind)


def test_analyze_filiform6_computes_each_datum_once(counts):
    g = filiform(6)
    analyze(g)
    assert computed(counts, g, "rank") == 1
    assert computed(counts, g, "derived") == 1
    assert computed(counts, g, "nilpotent") == 1
    # shared by the fundamental semi-invariant and the Pfaffian ideal
    assert computed(counts, g, "pfaffians") == 1
    assert all(n == 1 for n in counts.misses.values())
    # the computations themselves; L(6) is nilpotent, so no spectrum
    assert counts.calls["certificate"] == 1
    assert counts.calls["lower central series"] == 1
    assert counts.calls["spectrum"] == 0
    # the public method is still asked by every stage that needs it
    assert counts.calls["derived_subalgebra()"] > 1


def test_weights_analyze_and_reduce_compute_each_datum_once(counts):
    g = LieAlgebra(["v1", "v2", "v3", "v4"],
                   {(0, 1): {1: 5}, (0, 2): {2: -7}, (0, 3): {3: 11}},
                   label="weights(5,-7,11)")
    report = analyze(g, AnalysisOptions(max_degree=3))
    semi = next(s for s in report.semi_generators.generators
                if not s.weight.is_zero)
    step = reduce_one_step(g, semi)
    for alg in (g, step.h, step.k):
        assert computed(counts, alg, "rank") == 1, alg.label
    assert computed(counts, g, "derived") == 1
    assert computed(counts, g, "nilpotent") == 1
    # [g,g] = span(v2, v3, v4): only ad(v1) needs a spectrum
    assert counts.misses[(id(g), ("spectrum", 0))] == 1
    assert computed(counts, g, "spectrum") == 1
    # once per algebra, seed and vector, and nothing outside the memo
    assert all(n == 1 for n in counts.misses.values())
    assert counts.calls["certificate"] == entries(counts, "rank") == 3
    assert counts.calls["spectrum"] == entries(counts, "spectrum")
    assert counts.calls["lower central series"] == entries(counts,
                                                           "nilpotent")


def test_memo_is_per_instance(counts):
    first, second = filiform(4), filiform(4)
    assert first == second
    for g in (first, second):
        minimal_generators(g, 2)
        pfaffian.c_value(g)
    for g in (first, second):
        assert computed(counts, g, "rank") == 1
        assert computed(counts, g, "derived") == 1
        assert computed(counts, g, "nilpotent") == 1
    assert counts.calls["certificate"] == 2
    assert counts.calls["lower central series"] == 2


def test_one_certificate_per_seed(counts):
    g = filiform(5)
    assert pfaffian.index(g) == pfaffian.index(g, seed=7) == 3
    assert pfaffian.c_value(g, seed=7) == 4
    assert counts.calls["certificate"] == 2
    assert pfaffian.rank_certificate(g, 7).probe_seed == 7
