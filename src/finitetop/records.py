"""Frozen value records, built without generated code.

`record` makes a class an immutable value type: fields named by the
annotations along the MRO, construction by position or keyword with
class-level defaults, a `__post_init__` hook, field-wise equality and
hashing, a `Name(field=value, ...)` repr, and no assignment or deletion.
Its methods are closures over the field names, so decorating a class
compiles and executes no source text, and a cold CLI call loads neither
the standard library's record generator nor the `inspect` module that
generator needs.
"""

from operator import attrgetter
from types import MemberDescriptorType

_MISSING = object()
_set = object.__setattr__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _bind(self, names, defaults, args, kwargs):
    """The field values of a call that is not one positional argument per field.

    The fields after the positional arguments come from the keywords, else
    from the defaults; `kwargs` is the call's own dict and is consumed.
    This path runs in Python, so hot call sites pass every field by position.
    """
    who = type(self).__qualname__
    if len(args) > len(names):
        raise TypeError(f"{who}() takes {len(names)} arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{who}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{who}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
    return values


def record(cls):
    """Make `cls` a frozen record of its annotated fields; returns `cls`.

    A class attribute of a field's name is its default, unless it is the
    member descriptor of a `__slots__` entry. `__post_init__`, if the
    class has one, is looked up on the instance at each construction, so a
    replacement set on the class later runs too. Two records are equal iff
    they have the same class and equal field tuples; the hash is the
    tuple's.
    """
    # each class's own annotations: from Python 3.10 on a class does not
    # inherit them, and from 3.14 on they are built on first access rather
    # than stored in the class dict
    names = tuple(dict.fromkeys(
        name for klass in reversed(cls.__mro__) for name in getattr(klass, "__annotations__", {})
    ))
    if not names:
        raise TypeError(f"record {cls.__qualname__} has no annotated fields")
    defaults = {}
    for name in names:
        value = getattr(cls, name, _MISSING)
        if value is not _MISSING and not isinstance(value, MemberDescriptorType):
            defaults[name] = value
    post_init = hasattr(cls, "__post_init__")
    n = len(names)
    get = attrgetter(*names)
    key = get if n > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(self, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, names, key(self)))})"

    for fn in (__init__, __eq__, __hash__, __repr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
