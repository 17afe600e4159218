"""The contract every record class of the library keeps: frozen, equal
by class and fields, hashed over its fields, shown in the dataclass
form, and understood by ``dataclasses.fields`` and ``replace``."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import coregular
from coregular.poly import Polynomial

RECORDS = (
    "AnalysisOptions", "AnalysisReport", "CatalogEntry", "CriterionVerdict",
    "FundamentalSemiInvariant", "GeneratorSet", "Geometry",
    "GorensteinResult", "GradedSemiInvariants", "GrobnerBudget",
    "GroebnerBasis", "Ideal", "KernelBasis", "KernelGenerator",
    "RankCertificate", "ReductionStep", "Relation", "SemiInvariant",
    "SkewPolyMatrix", "Subspace", "TrdegCheck", "WeightVector")


def _record_classes():
    found = {}
    for info in pkgutil.iter_modules(coregular.__path__):
        module = importlib.import_module(f"coregular.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                found[value.__name__] = value
    return found


CLASSES = _record_classes()


def test_every_record_class_is_found():
    assert tuple(sorted(CLASSES)) == RECORDS


def _sample(cls):
    """Field values that every record takes: the field names themselves,
    or the empty matrix, whose checks have nothing to look at."""
    if cls.__name__ == "SkewPolyMatrix":
        return {"size": 0, "entries": ()}
    return {f.name: f.name for f in dataclasses.fields(cls)}


def _required(cls):
    return [f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING]


@pytest.fixture(params=RECORDS)
def cls(request):
    return CLASSES[request.param]


def test_fields_are_the_annotations_in_order(cls):
    assert [f.name for f in dataclasses.fields(cls)] == list(
        cls.__annotations__)


def test_records_are_frozen(cls):
    record = cls(**_sample(cls))
    for name in [*_sample(cls), "not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert record == cls(**_sample(cls))


def test_equality_and_hash_are_over_class_and_fields(cls):
    values = _sample(cls)
    a, b = cls(**values), cls(*values.values())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(values.values()))
    twin = dataclasses.make_dataclass(cls.__name__, list(values),
                                      frozen=True)
    assert a != twin(**values) and twin(**values) != a
    assert a != tuple(values.values())
    first = next(iter(values))
    if cls.__name__ != "SkewPolyMatrix":
        assert a != cls(**{**values, first: "other"})


def test_repr_has_the_dataclass_form(cls):
    values = _sample(cls)
    shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(cls(**values)) == f"{cls.__qualname__}({shown})"


def test_replace_round_trips(cls):
    values = _sample(cls)
    record = cls(**values)
    assert dataclasses.replace(record) == record
    if cls.__name__ != "SkewPolyMatrix":
        last = list(values)[-1]
        changed = dataclasses.replace(record, **{last: "other"})
        assert changed == cls(**{**values, last: "other"})
        assert dataclasses.replace(changed, **{last: last}) == record


def test_defaults_fill_the_tail(cls):
    values = _sample(cls)
    required = {name: values[name] for name in _required(cls)}
    record = cls(**required)
    for f in dataclasses.fields(cls):
        expected = (values[f.name] if f.default is dataclasses.MISSING
                    else f.default)
        assert getattr(record, f.name) == expected
    assert cls(*required.values()) == record


def test_a_missing_extra_or_repeated_argument_raises(cls):
    values = _sample(cls)
    names = list(values)
    for name in _required(cls):
        rest = {k: v for k, v in values.items() if k != name}
        with pytest.raises(TypeError, match="missing"):
            cls(**rest)
        # as many arguments as fields, one of them foreign
        with pytest.raises(TypeError, match="unexpected"):
            cls(**rest, extra="extra")
    with pytest.raises(TypeError, match="positional"):
        cls(*values.values(), "extra")
    with pytest.raises(TypeError, match="unexpected"):
        cls(**values, extra="extra")
    with pytest.raises(TypeError, match="multiple"):
        cls(*values.values(), **{names[0]: values[names[0]]})
    with pytest.raises(TypeError, match="multiple"):
        cls(values[names[0]], **values)


def test_post_init_checks_every_way_a_record_is_built():
    matrix = CLASSES["SkewPolyMatrix"]
    one, zero = Polynomial.constant(1, 1), Polynomial.zero(1)
    for build in (lambda: matrix(1, ((one,),)),
                  lambda: matrix(size=1, entries=((one,),)),
                  lambda: dataclasses.replace(matrix(0, ()), size=1,
                                              entries=((one,),))):
        with pytest.raises(ValueError, match="diagonal"):
            build()
    assert matrix(1, ((zero,),)).size == 1


# Imports the package once, so that its standard-library modules are
# loaded, then imports it afresh under an audit hook that counts the
# compiles of source text that is not a file.
FRESH_IMPORT = """
import sys
import coregular
for name in [m for m in sys.modules if m.partition(".")[0] == "coregular"]:
    del sys.modules[name]
count = 0
def hook(event, args):
    global count
    if event == "compile" and args[1] == "<string>":
        count += 1
sys.addaudithook(hook)
import coregular
print(count)
"""


def test_importing_the_package_compiles_no_source_text():
    src = Path(coregular.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", FRESH_IMPORT],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.split() == ["0"]
