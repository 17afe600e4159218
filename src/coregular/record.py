"""Frozen record classes built without generated code.

``dataclasses.dataclass(frozen=True)`` compiles six functions from
source text for each class, about half a millisecond a class on Python
3.11 (2-CPU Xeon): most of the time ``import coregular`` took.
:func:`record` gives a class the same behaviour from closures: an
``__init__`` that takes the annotated fields in order and then runs
``__post_init__``, equality and hashing over the field tuple within one
class, the dataclass ``repr``, and assignment or deletion refused with
``FrozenInstanceError``.  The class also gets the
``__dataclass_fields__`` table that ``dataclasses.fields``, ``replace``
and ``is_dataclass`` read.  The table is built here, because
``dataclasses.dataclass`` compiles source text on Python 3.13 even when
asked for no methods.

Fields are set with ``object.__setattr__`` and never through
``self.__dict__``: reading ``__dict__`` gives each record a dictionary
of its own in place of the compact attribute storage.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter, itemgetter

_set = object.__setattr__


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _tuple_getter(getter, names):
    """``getter(*names)`` as a function that always returns a tuple: with
    one name, the getters of ``operator`` return the bare value."""
    get = getter(*names)
    return get if len(names) > 1 else lambda obj: (get(obj),)


def _misfit(names, defaults, args, kwargs) -> str:
    """What is wrong with the arguments of a call to a record class."""
    if len(args) > len(names):
        return (f"takes {len(names) + 1} positional arguments but "
                f"{len(args) + 1} were given")
    for name in kwargs:
        if name not in names:
            return f"got an unexpected keyword argument {name!r}"
        if name in names[:len(args)]:
            return f"got multiple values for argument {name!r}"
    missing = [name for name in names[len(args):]
               if name not in kwargs and name not in defaults]
    return f"missing required arguments: {', '.join(map(repr, missing))}"


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields; a field
    with a class-level value has that value as its default."""
    names = tuple(cls.__annotations__)
    n = len(names)
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    if tuple(defaults) != names[n - len(defaults):]:
        raise TypeError(f"{cls.__qualname__}: a field without a default "
                        "follows one with a default")
    tail = tuple(defaults.values())
    numbered = tuple(enumerate(names))
    table = {}
    for name in names:
        f = dataclasses.field(default=defaults.get(name, MISSING))
        f.name, f.type = name, cls.__annotations__[name]
        # the kind dataclasses.fields keeps: not a ClassVar or InitVar
        f._field_type = dataclasses._FIELD
        table[name] = f
    values = _tuple_getter(attrgetter, names)
    pick = _tuple_getter(itemgetter, names)
    post_init = getattr(cls, "__post_init__", None)
    where = f"{cls.__qualname__}.__init__()"

    def bind(args, kwargs):
        if not kwargs and n - len(tail) <= len(args) < n:
            return args + tail[len(args) - n:]
        bound = {**defaults, **kwargs}
        if args:
            bound.update(zip(names, args))
        # with n keys, pick finds every name only if no key is foreign
        if (len(args) <= n and len(bound) == n
                and (not args or kwargs.keys().isdisjoint(names[:len(args)]))):
            try:
                return pick(bound)
            except KeyError:
                pass
        raise TypeError(f"{where} {_misfit(names, defaults, args, kwargs)}")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for i, name in numbered:
            _set(self, name, args[i])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    cls.__dataclass_fields__ = table
    cls.__match_args__ = names
    return cls
