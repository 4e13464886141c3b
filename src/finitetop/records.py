"""Frozen value records, built without generated code.

`record` makes a class an immutable value type: fields named by the
annotations along the MRO, construction with every field passed by
position (no keywords, no defaults), a `__post_init__` hook, field-wise
equality and hashing, a `Name(field=value, ...)` repr, and no assignment
or deletion.
Its methods are closures over the field names, so decorating a class
compiles and executes no source text, and a cold CLI call loads neither
the standard library's record generator nor the `inspect` module that
generator needs. Records of one or two fields (formula nodes, spaces,
theories, metric spaces) get a constructor written for that count: it
unpacks the argument tuple into one or two names and stores each with its
own call, which builds them in a little over half the time of the loop
over the field names that wider records keep. `cached` makes a method an
attribute computed on first read.
"""

from operator import attrgetter

_set = object.__setattr__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class cached:
    """A method read as an attribute: computed on first read, then kept in the instance dict.

    A non-data descriptor, so the kept value answers every later read; unlike
    `functools.cached_property` on Python 3.11, the first read takes no lock.
    """

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


def record(cls):
    """Make `cls` a frozen record of its annotated fields; returns `cls`.

    Every field is passed by position. `__post_init__`, if the class has
    one, is looked up on the instance at each construction, so a
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
    post_init = hasattr(cls, "__post_init__")
    n = len(names)
    get = attrgetter(*names)
    key = get if n > 1 else lambda self: (get(self),)

    def arity_error(self, args):
        return TypeError(f"{type(self).__qualname__}() takes {n} arguments but {len(args)} were given")

    if n == 1:
        (first,) = names

        def __init__(self, *args):
            try:
                (a,) = args
            except ValueError:
                raise arity_error(self, args) from None
            _set(self, first, a)
            if post_init:
                self.__post_init__()

    elif n == 2:
        first, second = names

        def __init__(self, *args):
            try:
                a, b = args
            except ValueError:
                raise arity_error(self, args) from None
            _set(self, first, a)
            _set(self, second, b)
            if post_init:
                self.__post_init__()

    else:

        def __init__(self, *args):
            if len(args) != n:
                raise arity_error(self, args)
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
