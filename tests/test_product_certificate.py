"""The product certificate of ``invariants.minimal_generators``.

Each degree is searched once (``invariants.graded_semi_invariants``),
against the leading monomials of the products of the lower generators,
and split into D-weight classes under the torus of diagonal
derivations (``invariants._torus``).  A class whose products of lower
semi-invariant generators fill its part of the common kernel of the
acting vectors is decided with no elimination (``invariants._classes``):
the distinct least keys of that system's rows in the class and the
distinct leading monomials of the products in it together number its
monomials.  With a zero torus, each degree is one class, and with the
certificate made to fail in every class, each degree is eliminated
whole; the generators, the irrational degrees and the recorded
dimensions must not change under any monomial order.
"""

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

import oracles
from conftest import seaweed
from test_basis_change import CHANGES, ENTRIES
from coregular import invariants
from coregular.catalog import abelian, example32, filiform
from coregular.invariants import graded_semi_invariants, minimal_generators
from coregular.lie import LieAlgebra
from coregular.linalg import InternalCheckError
from coregular.poly import DEGREVLEX, ORDERS, monomials_of_degree

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


run_catalog = _load("run_catalog", "scripts/run_catalog.py")
workloads = _load("workloads", "perfbench/workloads.py")

COMPOSITIONS = {2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 2), (1, 1, 1)]}


def weights_algebra(weights):
    brackets = {(0, i + 1): {i + 1: w} for i, w in enumerate(weights)}
    return LieAlgebra(["v1", "v2", "v3", "v4"], brackets,
                      label="weights(" + ",".join(map(str, weights)) + ")")


def catalog_cases():
    """Each ``scripts/run_catalog.py`` entry at its bound, fresh."""
    return [(LieAlgebra.from_json_dict(g.to_json_dict()), bound)
            for g, bound in run_catalog.ENTRIES]


def seaweed_cases():
    """The seaweeds of sl2 and sl3, one per unordered pair of
    compositions, at bound 4."""
    return [(seaweed(a, b), 4) for n in (2, 3)
            for a, b in itertools.combinations_with_replacement(
                COMPOSITIONS[n], 2)]


def weights_cases():
    """The algebras of one benchmark run of the weights workload (seed 1,
    60 s), at its bound 3."""
    rng = random.Random("weights:1")
    return [(weights_algebra(w), workloads.WEIGHTS_BOUND)
            for w in workloads.weight_triples(rng, 60)]


def invariant_cases():
    """Weights that find invariant generators in certified degrees."""
    return [(weights_algebra(w), 6)
            for w in [(1, 1, -2), (-4, 4, -2), (8, -6, 6)]]


def rotated_cases():
    """The catalog entries of dim <= 6 in the seed-7 bases of
    ``tests/test_basis_change.py``, at their bounds but at most 5 (L(6)
    takes 2-3 s at 6 per run and order): most have a torus of dimension
    0, which leaves one class per degree."""
    return [(g.induced_algebra(CHANGES[label],
                               [f"u{i + 1}" for i in range(g.dim)],
                               label=f"{label}-rotated"), min(bound, 5))
            for label, (g, bound) in ENTRIES.items()]


CASES = {"catalog": catalog_cases, "seaweeds": seaweed_cases,
         "weights": weights_cases, "invariants": invariant_cases,
         "rotated": rotated_cases}


def outcome(g, bound, order):
    semi, inv = minimal_generators(g, bound, order)
    return (semi.generators, semi.irrational_degrees, inv.generators,
            inv.irrational_degrees,
            [g._cache[("semicenter", d)] for d in range(1, bound + 1)])


def certified(monkeypatch) -> list[tuple[int, int]]:
    """Record the verdicts of every class scan from here on: the number
    of classes certified (those with a lead that are not open) and of
    open classes."""
    verdicts = []
    scan = invariants._classes

    def recorded(*args):
        room, free, open_ = scan(*args)
        verdicts.append((len(room.keys() - open_.keys()), len(open_)))
        return room, free, open_

    monkeypatch.setattr(invariants, "_classes", recorded)
    return verdicts


@pytest.mark.parametrize("order", list(ORDERS))
@pytest.mark.parametrize("kind", list(CASES))
def test_a_search_in_every_degree_finds_the_same(monkeypatch, kind, order):
    order = ORDERS[order]
    verdicts = certified(monkeypatch)
    with_certificate = [outcome(g, bound, order)
                        for g, bound in CASES[kind]()]
    assert any(count for count, _ in verdicts)
    scan = invariants._classes

    def all_open(images, monos, codes, leads):
        room, free, _ = scan(images, monos, codes, leads)
        return room, free, {0: list(monos)}

    monkeypatch.setattr(invariants, "_torus", lambda g: [])
    # one class holds several weights of a diagonal complement vector,
    # so it splits through ``_eigenspaces``
    monkeypatch.setattr(invariants, "_torus_action", lambda g, idx: None)
    monkeypatch.setattr(invariants, "_classes", all_open)
    del verdicts[:]
    searched = [outcome(g, bound, order) for g, bound in CASES[kind]()]
    assert searched == with_certificate
    # each degree was one class
    assert verdicts and all(sum(v) <= 1 for v in verdicts)
    if kind == "invariants":
        # an invariant generator of a certified class
        assert all(inv for _, _, inv, _, _ in with_certificate)


@pytest.mark.parametrize("cases, count, open_count", [
    (weights_cases, 960, 180),
    (lambda: [(filiform(n), n) for n in (4, 5, 6, 7)], 55, 148),
    (lambda: [(abelian(4), 4)], 65, 4),
    (seaweed_cases, 62, 108),
], ids=["weights", "L4-L7", "abelian4", "seaweeds"])
def test_certified_degree_counts(monkeypatch, cases, count, open_count):
    # the classes certified and left open, summed over every degree of
    # every case
    verdicts = certified(monkeypatch)
    for g, bound in cases():
        minimal_generators(g, bound)
    assert (sum(c for c, _ in verdicts),
            sum(k for _, k in verdicts)) == (count, open_count)


@pytest.mark.parametrize("build, bound", [
    (lambda: filiform(6), 6), (lambda: weights_algebra((5, -7, 11)), 3),
    (example32, 3)], ids=["L6", "weights(5,-7,11)", "example32"])
def test_each_degree_is_searched_once_against_the_lower_leads(
        monkeypatch, build, bound):
    searches = []
    search = invariants.graded_semi_invariants

    def recorded(g, degree, order=DEGREVLEX, **kwargs):
        searches.append((degree, kwargs.get("leads")))
        return search(g, degree, order, **kwargs)

    monkeypatch.setattr(invariants, "graded_semi_invariants", recorded)
    for order in ORDERS.values():
        del searches[:]
        g = build()
        semi = minimal_generators(g, bound, order)[0]
        assert [d for d, _ in searches] == list(range(1, bound + 1))
        for d, leads in searches:
            lower = [s for s in semi.generators if s.degree < d]
            assert leads == oracles.leading_products(
                lower, d, g.dim, order), (g.label, d, order.name)
        assert any(leads for _, leads in searches), order.name


def test_the_leads_keep_each_degree_dimension_and_flag():
    # the classes that the leads fill are counted, not searched
    filled = 0
    for g, bound in catalog_cases():
        bound = min(bound, 4)
        semi = minimal_generators(g, bound)[0]
        for d in range(1, bound + 1):
            lower = [s for s in semi.generators if s.degree < d]
            graded = graded_semi_invariants(
                g, d, leads=oracles.leading_products(
                    lower, d, g.dim, DEGREVLEX))
            whole = graded_semi_invariants(g, d)
            assert (graded.total_dim(), graded.irrational_flag) == \
                (whole.total_dim(), whole.irrational_flag), (g.label, d)
            filled += sum(graded.filled.values())
    assert filled


def code_of(monos):
    """The codes of ``monos`` that ``invariants._classes`` reads leads
    by."""
    base = 1 + sum(monos[0])
    return [sum(e * base ** v for v, e in enumerate(m)) for m in monos]


def least_keys(g, degree, vectors):
    """The distinct least keys of the built rows of the degree's
    common-kernel system."""
    monos = monomials_of_degree(g.dim, degree, DEGREVLEX)[::-1]
    rows = invariants._ad_equations([g.bracket_images(v) for v in vectors],
                                    monos)
    return monos, {min(t for t, c in row.items() if c) for row in rows
                   if any(row.values())}


@pytest.mark.parametrize("kind", ["catalog", "seaweeds"])
def test_the_certificate_counts_the_least_keys_of_the_built_rows(kind):
    for g, bound in CASES[kind]():
        vectors = invariants._acting(g)[0]
        for d in range(1, min(bound, 3) + 1):
            monos, keys = least_keys(g, d, vectors)
            codes = invariants._class_codes(g, d)
            free = {monos[t] for t in range(len(monos)) if t not in keys}
            code = dict(zip(monos, code_of(monos)))
            # the free unknowns fill every class exactly; one fewer
            # leaves its own class open
            images = [g.bracket_images(v) for v in vectors]
            room, _, open_ = invariants._classes(images, monos, codes,
                                                 {code[m] for m in free})
            assert not open_ and sum(room.values()) == len(free)
            for m in list(free)[:3]:
                key = sum(e * c for e, c in zip(m, codes))
                room, _, open_ = invariants._classes(
                    images, monos, codes, {code[u] for u in free - {m}})
                assert open_ == {key: [u for u in monos if key == sum(
                    e * c for e, c in zip(u, codes))]}


def test_a_lead_that_is_a_least_key_raises(monkeypatch):
    g = weights_algebra((5, -7, 11))
    monos, keys = least_keys(g, 2, invariants._acting(g)[0])
    key = code_of(monos)[min(keys)]
    class_exponents = invariants._class_exponents

    def with_a_least_key(gens, degree, *args):
        exponents, leads = class_exponents(gens, degree, *args)
        return exponents, leads | {key} if degree == 2 else leads

    verdicts = certified(monkeypatch)
    minimal_generators(weights_algebra((5, -7, 11)), 2)
    # degree 1 leaves v2, v3 and v4 open; degree 2 is certified
    assert verdicts == [(0, 3), (6, 0)]
    monkeypatch.setattr(invariants, "_class_exponents", with_a_least_key)
    with pytest.raises(InternalCheckError, match="least key"):
        minimal_generators(g, 2)


def test_a_weight_zero_product_block_is_verified(monkeypatch):
    # degree 1 is searched and has no weight-zero block; the classes of
    # degree 3 are certified, and their weight-zero products are
    # invariants
    g = weights_algebra((1, 1, -2))
    verify = invariants.verify_semi_invariant
    monkeypatch.setattr(invariants, "verify_semi_invariant",
                        lambda g, f, w: not w.is_zero and verify(g, f, w))
    with pytest.raises(InternalCheckError, match="weight-zero product"):
        minimal_generators(g, 3)
