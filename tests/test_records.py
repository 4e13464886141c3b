"""`finitetop.records.record`: frozen value records built from closures."""

import pytest

from finitetop import FiniteSpace, Preorder
from finitetop.construct import ContinuityCheck
from finitetop.logic import And, Var, parse_formula
from finitetop.records import record

POINTS, REL = ("a", "b"), (0b01, 0b11)  # b <= a
FIELDS = ("a", "b", "c")


def make(n, hook):
    """A record class of the first n FIELDS, with `hook` as its `__post_init__`."""
    cls = type(f"R{n}", (), {"__annotations__": dict.fromkeys(FIELDS[:n], int), "__post_init__": hook})
    return record(cls)


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


@pytest.mark.parametrize("args", [(), (POINTS,), (POINTS, REL, 0), (POINTS, REL, 0, 0)])
def test_wrong_argument_count_raises_type_error(args):
    """For `FiniteSpace`, and for records of one field, as `Var` and `Not` have, and of three."""
    with pytest.raises(TypeError, match=f"FiniteSpace\\(\\) takes 2 arguments but {len(args)} were given"):
        FiniteSpace(*args)
    for n in (1, 3):
        if len(args) != n:
            with pytest.raises(TypeError) as err:
                make(n, lambda self: None)(*args)
            assert str(err.value) == f"R{n}() takes {n} arguments but {len(args)} were given"


def test_a_slot_is_not_a_default():
    with pytest.raises(TypeError, match=r"Var\(\) takes 1 arguments but 0 were given"):
        Var()


def test_post_init_replaced_after_decoration_runs():
    """At each construction, as the benchmark's tracer needs; for records of one, two and three fields."""

    def refuse(self):
        raise AssertionError("replaced below")

    for n in (1, 2, 3):
        cls = make(n, refuse)
        seen = []
        cls.__post_init__ = lambda self: seen.append(tuple(getattr(self, f) for f in FIELDS[:n]))
        cls(*range(n))
        cls(*range(1, n + 1))
        assert seen == [tuple(range(n)), tuple(range(1, n + 1))]


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
