"""The product certificate of ``invariants.minimal_generators``.

A degree whose products of lower semi-invariant generators fill the
common kernel of the acting vectors is decided with no graded search
(``invariants._products_fill``): the distinct least keys of that
system's rows and the distinct leading monomials of the products
together number its unknowns.  With the certificate made to fail in
every degree, each degree is searched, and the generators, the
irrational degrees and the recorded dimensions must not change under
any monomial order.
"""

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from conftest import seaweed
from coregular import invariants
from coregular.catalog import abelian, filiform
from coregular.invariants import minimal_generators
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


CASES = {"catalog": catalog_cases, "seaweeds": seaweed_cases,
         "weights": weights_cases, "invariants": invariant_cases}


def outcome(g, bound, order):
    semi, inv = minimal_generators(g, bound, order)
    return (semi.generators, semi.irrational_degrees, inv.generators,
            inv.irrational_degrees,
            [g._cache[("semicenter", d)] for d in range(1, bound + 1)])


def certified(monkeypatch) -> list[bool]:
    """Record the verdict of every certificate from here on."""
    verdicts = []
    fill = invariants._products_fill

    def recorded(*args):
        verdicts.append(fill(*args))
        return verdicts[-1]

    monkeypatch.setattr(invariants, "_products_fill", recorded)
    return verdicts


@pytest.mark.parametrize("order", list(ORDERS))
@pytest.mark.parametrize("kind", list(CASES))
def test_a_search_in_every_degree_finds_the_same(monkeypatch, kind, order):
    order = ORDERS[order]
    verdicts = certified(monkeypatch)
    with_certificate = [outcome(g, bound, order)
                        for g, bound in CASES[kind]()]
    assert any(verdicts)
    monkeypatch.setattr(invariants, "_products_fill", lambda *args: False)
    searched = [outcome(g, bound, order) for g, bound in CASES[kind]()]
    assert searched == with_certificate
    if kind == "invariants":
        # an invariant generator of a certified degree
        assert all(inv for _, _, inv, _, _ in with_certificate)


@pytest.mark.parametrize("cases, count, degrees", [
    (weights_cases, 120, 180),
    (lambda: [(filiform(n), n) for n in (4, 5, 6, 7)], 0, 22),
    (lambda: [(abelian(4), 4)], 3, 4),
    (seaweed_cases, 20, 52),
], ids=["weights", "L4-L7", "abelian4", "seaweeds"])
def test_certified_degree_counts(monkeypatch, cases, count, degrees):
    verdicts = certified(monkeypatch)
    for g, bound in cases():
        minimal_generators(g, bound)
    assert (sum(verdicts), len(verdicts)) == (count, degrees)


def least_keys(g, degree, vectors):
    """The distinct least keys of the built rows of the degree's
    common-kernel system."""
    monos = monomials_of_degree(g.dim, degree, DEGREVLEX)[::-1]
    rows = invariants._ad_equations(g, monos, vectors)
    return monos, {min(t for t, c in row.items() if c) for row in rows
                   if any(row.values())}


@pytest.mark.parametrize("kind", ["catalog", "seaweeds"])
def test_the_certificate_counts_the_least_keys_of_the_built_rows(kind):
    for g, bound in CASES[kind]():
        vectors = invariants._acting(g)[0]
        for d in range(1, min(bound, 3) + 1):
            monos, keys = least_keys(g, d, vectors)
            free = {monos[t] for t in range(len(monos)) if t not in keys}
            # the free unknowns fill exactly; one fewer falls short
            assert invariants._products_fill(g, monos, vectors, free)
            if free:
                assert not invariants._products_fill(
                    g, monos, vectors, set(list(free)[1:]))


def test_a_lead_that_is_a_least_key_raises(monkeypatch):
    g = weights_algebra((5, -7, 11))
    monos, keys = least_keys(g, 2, invariants._acting(g)[0])
    key = monos[min(keys)]
    leading = invariants._leading_products

    def with_a_least_key(gens, degree, nvars, order):
        leads = leading(gens, degree, nvars, order)
        return leads | {key} if degree == 2 else leads

    verdicts = certified(monkeypatch)
    minimal_generators(weights_algebra((5, -7, 11)), 2)
    assert verdicts == [False, True]
    monkeypatch.setattr(invariants, "_leading_products", with_a_least_key)
    with pytest.raises(InternalCheckError, match="least key"):
        minimal_generators(g, 2)


def test_a_weight_zero_product_block_is_verified(monkeypatch):
    # degree 1 is searched and has no weight-zero block; degree 3 is
    # certified, and its weight-zero products are invariants
    g = weights_algebra((1, 1, -2))
    verify = invariants.verify_semi_invariant
    monkeypatch.setattr(invariants, "verify_semi_invariant",
                        lambda g, f, w: not w.is_zero and verify(g, f, w))
    with pytest.raises(InternalCheckError, match="weight-zero product"):
        minimal_generators(g, 3)
