"""`record` with one and with three fields.

`tests/test_records.py` covers a two-field record's replaced
`__post_init__` and the arity errors of `FiniteSpace` and `Var`. Formula
nodes `Var` and `Not` have one field, so the same must hold there: a
`__post_init__` replaced on the class after decoration runs at each
construction (the benchmark's tracer wraps hooks that way), and a wrong
argument count raises the same `TypeError`.
"""

import pytest

from finitetop.records import record

FIELDS = ("a", "b", "c")


def make(n, hook):
    """A record class of the first n FIELDS, with `hook` as its `__post_init__`."""
    cls = type(f"R{n}", (), {"__annotations__": dict.fromkeys(FIELDS[:n], int), "__post_init__": hook})
    return record(cls)


@pytest.mark.parametrize("n", [1, 3])
def test_post_init_replaced_after_decoration_runs_at_each_construction(n):
    def refuse(self):
        raise AssertionError("replaced below")

    cls = make(n, refuse)
    seen = []
    cls.__post_init__ = lambda self: seen.append(tuple(getattr(self, f) for f in FIELDS[:n]))
    cls(*range(n))
    cls(*range(1, n + 1))
    assert seen == [tuple(range(n)), tuple(range(1, n + 1))]


@pytest.mark.parametrize("n", [1, 3])
def test_wrong_argument_count_names_the_class_and_both_counts(n):
    cls = make(n, lambda self: None)
    for k in {0, n - 1, n + 1} - {n}:
        with pytest.raises(TypeError) as err:
            cls(*range(k))
        assert str(err.value) == f"R{n}() takes {n} arguments but {k} were given"
