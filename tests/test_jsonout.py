"""`--json` text against the standard library's: `jsonout.dumps` writes what
`json.dumps(value, indent=2, sort_keys=True)` writes, label lists included."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import finitetop as ft
from finitetop.jsonout import LabelLists, dumps


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


TEXT = st.text(st.one_of(
    st.characters(),  # any code point: non-ASCII, lone surrogates, control characters
    st.sampled_from(["\u2028", "\u2029", "\x00", "\x1f", "\x7f", '"', "\\", "\u00e9", "\U0001f600"]),
))
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e16, 1e-300]))
LEAVES = st.one_of(TEXT, st.integers(), st.integers(-(1 << 200), 1 << 200), st.booleans(), FLOATS, st.none())
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.lists(TEXT),
        # keys of one kind per dict: json.dumps cannot sort str keys among numbers
        st.dictionaries(TEXT, inner), st.dictionaries(st.integers(), inner), st.dictionaries(FLOATS, inner),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_dumps_is_what_json_dumps_writes(value):
    assert dumps(value) == reference(value)


@given(st.lists(TEXT, min_size=1), st.lists(st.integers(), min_size=1))
def test_a_list_that_is_strings_only_at_first(texts, numbers):
    # the one-pass string path gives way to the item-by-item one
    value = {"a": texts + numbers, "b": [texts, *numbers]}
    assert dumps(value) == reference(value)


def _label_lists_render_as_labels(space, masks):
    want = [list(space.labels(m)) for m in masks]
    got = LabelLists(space.points, masks)
    # at the top, inside a dict and inside a list in a dict: each a different indent
    for wrap in (lambda v: v, lambda v: {"opens": v, "n": 1}, lambda v: {"rows": [v, []]}):
        assert dumps(wrap(got)) == reference(wrap(want))


def test_label_lists_on_every_space_of_up_to_4_points():
    for n in range(5):
        for space in ft.all_topologies(n):
            _label_lists_render_as_labels(space, space.opens_by_size)
            _label_lists_render_as_labels(space, range(1 << n))


def test_label_lists_on_16_and_8_points():
    chain16 = ft.FiniteSpace([f"c{i}" for i in range(16)], [(1 << 16) - (1 << i) for i in range(16)])
    _label_lists_render_as_labels(chain16, chain16.opens_by_size)
    discrete8 = ft.discrete_space([f"d{i}" for i in range(8)])
    _label_lists_render_as_labels(discrete8, discrete8.opens_by_size)
    escaped = ft.discrete_space(["é", 'a"b', "a\\b", *(f"p{i}" for i in range(13))])
    _label_lists_render_as_labels(escaped, range(1 << 16))
    _label_lists_render_as_labels(escaped, ())
