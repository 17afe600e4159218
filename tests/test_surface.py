"""The public surface of the package: ``coregular.__all__`` lists every
name it re-exports and no module, the submodule ``coregular.pfaffian`` is
not shadowed, and the names read through the package by ``perfbench/``
and ``scripts/`` stay there."""

import importlib
from types import ModuleType

import coregular

# no longer re-exported: each is imported from its own module
DROPPED = {"grobner": ["GrobnerBudget", "GroebnerBasis", "Ideal",
                       "buchberger", "ideal_membership", "krull_dimension",
                       "normal_form"],
           "pfaffian": ["pfaffian"]}

READ_THROUGH_THE_PACKAGE = [
    "filiform", "LieAlgebra", "analyze", "AnalysisOptions", "certified_rank",
    "verify_semi_invariant", "reduce_one_step", "Polynomial",
    "CATALOG", "abelian", "build_catalog_algebra", "example32", "heisenberg",
    "panyushev", "sl2", "two_dim_nonabelian"]


def test_all_lists_the_public_attributes_that_are_not_modules():
    public = [name for name in dir(coregular) if not name.startswith("_")
              and not isinstance(getattr(coregular, name), ModuleType)]
    assert sorted(coregular.__all__) == sorted(public)

    namespace = {}
    exec("from coregular import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(coregular.__all__)


def test_pfaffian_is_the_submodule():
    assert coregular.pfaffian is importlib.import_module("coregular.pfaffian")


def test_dropped_names_live_only_in_their_own_modules():
    assert not hasattr(coregular, "parse_polynomial")
    assert not hasattr(coregular.poly, "parse_polynomial")
    for module, names in DROPPED.items():
        owner = importlib.import_module(f"coregular.{module}")
        for name in names:
            assert name not in coregular.__all__
            assert callable(getattr(owner, name)), name
            if name != module:
                assert not hasattr(coregular, name), name


def test_names_read_through_the_package_stay():
    for name in READ_THROUGH_THE_PACKAGE:
        assert name in coregular.__all__, name
        assert getattr(coregular, name) is not None
