"""The torus that grades the semi-invariant search.

``invariants._torus`` is an integer basis of the diagonal derivations
diag(a) of the basis that vanish on the complement coordinates of the
search.  Each degree's monomials split into its weight classes, every
system of the search lies in one class, and a torus of dimension 0
leaves one class per degree.
"""

import itertools

import pytest

from conftest import seaweed
from test_product_certificate import (CHANGES, ENTRIES, catalog_cases,
                                      seaweed_cases, weights_cases)
from coregular import invariants, linalg
from coregular.catalog import filiform
from coregular.invariants import graded_semi_invariants, minimal_generators
from coregular.lie import is_derivation
from coregular.linalg import InternalCheckError
from coregular.poly import DEGREVLEX, monomials_of_degree

CASES = {"catalog": catalog_cases, "seaweeds": seaweed_cases}


@pytest.mark.parametrize("kind", list(CASES))
def test_every_torus_vector_is_a_derivation_zero_on_the_complement(kind):
    for g, _ in CASES[kind]():
        complement = invariants._acting(g)[1]
        torus = invariants._torus(g)
        assert linalg.rank(torus) == len(torus), g.label
        for a in torus:
            assert all(isinstance(x, int) for x in a), g.label
            diagonal = [[a[i] if i == j else 0 for j in range(g.dim)]
                        for i in range(g.dim)]
            assert is_derivation(g, diagonal), g.label
            assert all(a[c] == 0 for c in complement), g.label
        if g.label.startswith("L("):
            assert len(torus) == 2, g.label


def compositions(n):
    """The compositions of n, as tuples."""
    if not n:
        return [()]
    return [(k,) + rest for k in range(1, n + 1)
            for rest in compositions(n - k)]


def seaweeds_to_four():
    """The seaweeds of sl2, sl3 and sl4, one per unordered pair of
    compositions, sl4 itself left out."""
    return [(seaweed(a, b), 4) for n in (2, 3, 4)
            for a, b in itertools.combinations_with_replacement(
                compositions(n), 2) if (a, b) != ((4,), (4,))]


@pytest.mark.parametrize("cases", [catalog_cases, seaweeds_to_four,
                                   weights_cases],
                         ids=["catalog", "seaweeds", "weights"])
def test_every_diagonal_complement_vector_lies_in_the_torus(cases):
    # so it has one eigenvalue on each class, read off any one monomial
    # of the class (``invariants.graded_semi_invariants``)
    diagonals = 0
    for g, _ in cases():
        torus = invariants._torus(g)
        for c in invariants._acting(g)[1]:
            action = invariants._torus_action(g, c)
            if action is None:
                continue
            diagonal = [0] * g.dim
            for j, x in action:
                diagonal[j] = x
            assert linalg.rank(torus + [diagonal]) == linalg.rank(torus), \
                (g.label, c)
            diagonals += 1
    assert diagonals


def dimensions(g, d):
    """The degree's common-kernel dimension and the dimensions of its
    parts in the classes, each from its own elimination."""
    images = [g.bracket_images(v) for v in invariants._acting(g)[0]]
    monos = monomials_of_degree(g.dim, d, DEGREVLEX)[::-1]
    whole = linalg.SolutionSpace(invariants._ad_equations(images, monos),
                                 len(monos)).dim
    codes = invariants._class_codes(g, d)
    classes = {}
    for m in monos:
        classes.setdefault(sum(e * c for e, c in zip(m, codes)), []).append(m)
    parts = [linalg.SolutionSpace(invariants._ad_equations(images, c),
                                  len(c)).dim for c in classes.values()]
    return whole, parts


@pytest.mark.parametrize("kind", list(CASES))
def test_class_dimensions_sum_to_each_degree_dimension(kind):
    for g, bound in CASES[kind]():
        semi = []
        for d in range(1, min(bound, 3) + 1):
            whole, parts = dimensions(g, d)
            assert sum(parts) == whole, (g.label, d)
            graded = graded_semi_invariants(g, d)
            assert not any(graded.filled.values())
            semi.append(sum(len(b) for _, blocks in graded.searched
                            for _, b in blocks))
        # the semi-invariants of the whole degree, as one class, where a
        # diagonal complement vector splits it through ``_eigenspaces``
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "_torus", lambda g: [])
            mp.setattr(invariants, "_torus_action", lambda g, idx: None)
            assert semi == [graded_semi_invariants(g, d).total_dim()
                            for d in range(1, min(bound, 3) + 1)], g.label


def test_a_zero_torus_runs_as_one_class(monkeypatch):
    g, bound = ENTRIES["L(4)"]
    rotated = g.induced_algebra(CHANGES["L(4)"],
                                [f"u{i + 1}" for i in range(g.dim)])
    assert invariants._torus(rotated) == []
    scans = []
    scan = invariants._classes

    def recorded(*args):
        room, free, open_ = scan(*args)
        scans.append(set(free) | set(open_))
        return room, free, open_

    monkeypatch.setattr(invariants, "_classes", recorded)
    semi = minimal_generators(rotated, bound)[0]
    assert len(scans) == bound
    assert all(keys <= {0} for keys in scans) and any(scans)
    assert semi.degrees == minimal_generators(g, bound)[0].degrees


def test_a_non_homogeneous_acting_vector_raises(monkeypatch):
    # v1 and v2 of L(4) have different weights under its torus
    acting = invariants._acting

    def mixed(g):
        vectors, complement, pivots = acting(g)
        return [[1, 1] + [0] * (g.dim - 2)] + vectors, complement, pivots

    monkeypatch.setattr(invariants, "_acting", mixed)
    with pytest.raises(InternalCheckError, match="homogeneous"):
        minimal_generators(filiform(4), 2)
