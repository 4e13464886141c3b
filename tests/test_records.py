"""`finitetop.records.record`: frozen value records built from closures."""

import pytest

from finitetop import FiniteSpace, Preorder
from finitetop.construct import ContinuityCheck
from finitetop.logic import And, Var, parse_formula
from finitetop.records import record

POINTS, REL = ("a", "b"), (0b01, 0b11)  # b <= a
FIELDS = ("a", "b", "c", "d")
ARITIES = (1, 2, 3, 4)  # one and two fields have their own constructors; wider records share a loop


def make(n, hook=None, slots=False):
    """A record class of the first n FIELDS, with `hook` as its `__post_init__` if it is given."""
    body = {"__annotations__": dict.fromkeys(FIELDS[:n], int)}
    if hook is not None:
        body["__post_init__"] = hook
    if slots:
        body["__slots__"] = FIELDS[:n]
    return record(type(f"R{n}", (), body))


def test_equal_fields_in_different_classes_are_unequal():
    pre, space = Preorder(POINTS, REL), FiniteSpace(POINTS, REL)
    assert (pre.points, pre.rel) == (space.points, space.rel)
    assert pre != space and space != pre
    assert space == FiniteSpace(POINTS, REL) and pre == Preorder(list(POINTS), list(REL))


def test_equal_formulas_hash_equal():
    f, g = parse_formula("(p & q) | ~r"), parse_formula("(p & q) | ~r")
    assert f is not g and f == g and hash(f) == hash(g)
    assert len({f, g, Var("p")}) == 2
    assert And(Var("p"), Var("q")) != And(Var("q"), Var("p"))


def test_assignment_and_deletion_raise_attribute_error():
    space = FiniteSpace(POINTS, REL)
    with pytest.raises(AttributeError, match="cannot assign to field 'points'"):
        space.points = ("c", "d")
    with pytest.raises(AttributeError, match="cannot delete field 'rel'"):
        del space.rel
    with pytest.raises(AttributeError):
        Var("p").name = "q"  # a record with __slots__
    assert (space.points, space.rel) == (POINTS, REL)
    assert space.opens == frozenset({0, 0b01, 0b11}) and "opens" in vars(space)  # a cached attribute still fills


def test_repr_names_the_class_and_the_fields():
    assert repr(FiniteSpace(POINTS, REL)) == "FiniteSpace(points=('a', 'b'), rel=(1, 3))"
    assert repr(And(Var("p"), Var("q"))) == "And(left=Var(name='p'), right=Var(name='q'))"
    assert repr(ContinuityCheck(True, None)) == "ContinuityCheck(ok=True, witness_open=None)"


@pytest.mark.parametrize("args", [(), (POINTS,), (POINTS, REL, 0), (POINTS, REL, 0, 0), (POINTS, REL, 0, 0, 0)])
def test_wrong_argument_count_raises_type_error(args):
    """For `FiniteSpace`, and for records of one to four fields, with and without `__post_init__`."""
    with pytest.raises(TypeError, match=f"FiniteSpace\\(\\) takes 2 arguments but {len(args)} were given"):
        FiniteSpace(*args)
    for n in ARITIES:
        for cls in (make(n), make(n, lambda self: None), make(n, slots=True)):
            if len(args) != n:
                with pytest.raises(TypeError) as err:
                    cls(*args)
                assert str(err.value) == f"R{n}() takes {n} arguments but {len(args)} were given"
                assert err.value.__context__ is None or err.value.__suppress_context__  # no unpacking error shown


@pytest.mark.parametrize("n", ARITIES)
def test_keywords_are_refused(n):
    with pytest.raises(TypeError):
        make(n)(**dict.fromkeys(FIELDS[:n], 0))


def test_a_slot_is_not_a_default():
    with pytest.raises(TypeError, match=r"Var\(\) takes 1 arguments but 0 were given"):
        Var()


def test_post_init_replaced_after_decoration_runs():
    """At each construction, as the benchmark's tracer needs; for records of one to four fields."""

    def refuse(self):
        raise AssertionError("replaced below")

    for n in ARITIES:
        cls = make(n, refuse)
        seen = []
        cls.__post_init__ = lambda self: seen.append(tuple(getattr(self, f) for f in FIELDS[:n]))
        cls(*range(n))
        cls(*range(1, n + 1))
        assert seen == [tuple(range(n)), tuple(range(1, n + 1))]


@pytest.mark.parametrize("n", ARITIES)
def test_fields_are_stored_in_order_and_post_init_sees_them(n):
    seen = []
    for cls in (make(n), make(n, lambda self: seen.append(tuple(getattr(self, f) for f in FIELDS[:n])))):
        r = cls(*range(10, 10 + n))
        assert tuple(getattr(r, f) for f in FIELDS[:n]) == tuple(range(10, 10 + n))
        assert repr(r) == f"R{n}({', '.join(f'{f}={10 + i}' for i, f in enumerate(FIELDS[:n]))})"
    assert seen == [tuple(range(10, 10 + n))]


@pytest.mark.parametrize("n", ARITIES)
def test_equal_values_hash_equal(n):
    for cls in (make(n), make(n, lambda self: None), make(n, slots=True)):
        r, s, t = cls(*range(n)), cls(*range(n)), cls(*range(1, n + 1))
        assert r is not s and r == s and hash(r) == hash(s) == hash(tuple(range(n)))
        assert r != t and len({r, s, t}) == 2
        assert r != make(n)(*range(n))  # equal fields, another class


@pytest.mark.parametrize("n", ARITIES)
def test_slots_hold_the_fields(n):
    r = make(n, slots=True)(*range(n))
    assert not hasattr(r, "__dict__") and type(r).__slots__ == FIELDS[:n]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{FIELDS[0]}'"):
        r.a = 5
    with pytest.raises(AttributeError):
        object.__setattr__(r, "e", 5)  # no slot for it
    assert r.a == 0


class _LazyAnnotations(type):
    # serves a class's annotations from a getter and keeps them out of the
    # class dict, as Python 3.14 does for a class body without
    # `from __future__ import annotations`
    @property
    def __annotations__(cls):
        return {"left": int, "right": int}


def test_fields_come_from_annotations_not_stored_in_the_class_dict():
    @record
    class Pair(metaclass=_LazyAnnotations):
        pass

    assert "__annotations__" not in vars(Pair)
    assert repr(Pair(1, 2)).endswith(".Pair(left=1, right=2)")


def test_a_class_without_fields_is_refused():
    with pytest.raises(TypeError, match=r"record .*\.Empty has no annotated fields"):

        @record
        class Empty:
            pass
