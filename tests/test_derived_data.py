"""Data derived from an algebra is computed once per algebra instance.

``LieAlgebra.cached`` holds the structure matrix, the rank certificate
(per probe seed), the principal rank-size Pfaffians, [g,g], the lower
central series verdict, the degree-one spectrum of each ad(v_i), the
torus of diagonal derivations that grades the semi-invariant search
and the dimension of each degree's semi-invariants.  These tests count the
computations behind the memo, not the calls of the public methods in
front of it.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from coregular import invariants, pfaffian
from coregular.catalog import example32, filiform, panyushev
from coregular.invariants import minimal_generators
from coregular.kernel import reduce_one_step
from coregular.lie import LieAlgebra
from coregular.poly import DEGREVLEX, GRLEX
from coregular.report import AnalysisOptions, analyze


def weights_5_7_11():
    return LieAlgebra(["v1", "v2", "v3", "v4"],
                      {(0, 1): {1: 5}, (0, 2): {2: -7}, (0, 3): {3: 11}},
                      label="weights(5,-7,11)")


@pytest.fixture
def counts(monkeypatch):
    """``misses[(id(g), key)]``: computations of each memo entry;
    ``calls[name]``: calls of the functions that do the computing;
    ``searches[(id(g), order name)]``: graded semi-invariant searches
    that leave some class open."""
    misses, calls, searches = Counter(), Counter(), Counter()
    keep = []  # holds the algebras, so that no id is reused
    cached = LieAlgebra.cached
    search = invariants.graded_semi_invariants

    def counting_search(g, degree, order=DEGREVLEX, **kwargs):
        # a degree whose classes the products of lower generators all
        # fill is certified with no search
        keep.append(g)
        graded = search(g, degree, order, **kwargs)
        if graded.searched:
            searches[(id(g), order.name)] += 1
        return graded

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
    monkeypatch.setattr(invariants, "graded_semi_invariants", counting_search)
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
    return SimpleNamespace(misses=misses, calls=calls, searches=searches)


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
    # shared by the rank certificate, the Pfaffians and the anchor kernel
    assert computed(counts, g, "structure") == 1
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
    # and nothing else is kept
    assert set(g._cache) == {
        "structure", ("rank", pfaffian.DEFAULT_PROBE_SEED), "derived",
        "nilpotent", "pfaffians", "torus"} | {("semicenter", d)
                                             for d in range(1, 7)}


def first_proper(report):
    return next(s for s in report.semi_generators.generators
                if not s.weight.is_zero)


def test_weights_analyze_and_reduce_compute_each_datum_once(counts):
    g = weights_5_7_11()
    report = analyze(g, AnalysisOptions(max_degree=3))
    # degree 1 is searched; the products of the degree-one generators
    # fill degrees 2 and 3, which are certified with no search
    assert counts.searches[(id(g), "degrevlex")] == 1
    step = reduce_one_step(g, first_proper(report))
    # g's semi-center dimensions are the ones analyze recorded
    assert counts.searches[(id(g), "degrevlex")] == 1
    for alg in (g, step.h, step.k):
        assert computed(counts, alg, "structure") == 1, alg.label
        assert computed(counts, alg, "rank") == 1, alg.label
        assert computed(counts, alg, "semicenter") == 3, alg.label
    # h and k are abelian, so their dimensions are counted, not searched
    for alg in (step.h, step.k):
        assert alg.is_abelian, alg.label
        assert counts.searches[(id(alg), "degrevlex")] == 0, alg.label
    assert computed(counts, g, "derived") == 1
    assert computed(counts, g, "nilpotent") == 1
    # the torus of a weights algebra is read off the bracket table, so
    # no spectrum on g is computed
    assert computed(counts, g, "spectrum") == 0
    # once per algebra and vector, and nothing outside the memo
    assert all(n == 1 for n in counts.misses.values())
    assert counts.calls["certificate"] == entries(counts, "rank") == 3
    assert counts.calls["spectrum"] == entries(counts, "spectrum") == 0
    assert counts.calls["lower central series"] == entries(counts,
                                                           "nilpotent")


@pytest.mark.parametrize("build", [weights_5_7_11, panyushev, example32])
def test_reduction_after_analyze_equals_a_fresh_reduction(counts, build):
    g, fresh = build(), build()
    assert g == fresh
    semi = first_proper(analyze(g))
    searched = counts.searches[(id(g), "degrevlex")]
    step = reduce_one_step(g, semi)
    assert counts.searches[(id(g), "degrevlex")] == searched
    # an equal algebra with no analyze searches g itself
    assert reduce_one_step(fresh, semi) == step
    assert counts.searches[(id(fresh), "degrevlex")] == step.compare_degree
    assert all(n == 1 for n in counts.misses.values())


def test_reduction_under_another_order_reads_the_recorded_dimensions(
        counts):
    g = weights_5_7_11()
    semi = first_proper(analyze(g, AnalysisOptions(max_degree=3,
                                                   order=GRLEX)))
    # degree 1 is searched, degrees 2 and 3 are certified with no search
    assert counts.searches[(id(g), "grlex")] == 1
    step = reduce_one_step(g, semi)
    # a dimension belongs to the algebra, not to the order of the search
    assert counts.searches[(id(g), "grlex")] == 1
    assert counts.searches[(id(g), "degrevlex")] == 0
    assert computed(counts, g, "semicenter") == 3
    assert step == reduce_one_step(weights_5_7_11(), semi)


# what the memo of an algebra holds once analyze (bound 3) and a
# reduction step have run: no table of ad images or other derived data
REDUCED_MEMO = {"structure", ("rank", pfaffian.DEFAULT_PROBE_SEED),
                "derived", "nilpotent", ("semicenter", 1), ("semicenter", 2),
                ("semicenter", 3)}


@pytest.mark.parametrize("build, spectra", [
    (weights_5_7_11, set()), (panyushev, set()),
    (example32, {("spectrum", 0)})],
    ids=["weights_5_7_11", "panyushev", "example32"])
def test_analyze_and_reduce_keep_only_the_known_memo_keys(build, spectra):
    # a complement vector diagonal on the basis is read off the bracket
    # table; any other, such as v1 of example32, keeps its spectrum on g
    g = build()
    report = analyze(g, AnalysisOptions(max_degree=3))
    step = reduce_one_step(g, first_proper(report))
    assert set(g._cache) == REDUCED_MEMO | {"pfaffians", "torus"} | spectra
    for alg in (step.h, step.k):
        assert set(alg._cache) == REDUCED_MEMO, alg.label


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
    analyze(g, AnalysisOptions(max_degree=2))
    report = analyze(g, AnalysisOptions(max_degree=2, seed=7))
    assert report.geometry.certificate.probe_seed == 7
    assert counts.calls["certificate"] == 2
    # the seed picks only the probe points: the principal Pfaffians,
    # like every exact answer, are computed once per algebra
    assert computed(counts, g, "pfaffians") == 1
    assert all(n == 1 for n in counts.misses.values())
    assert pfaffian.index(g) == 3 and pfaffian.c_value(g) == 4
