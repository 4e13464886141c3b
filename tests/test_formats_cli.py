import contextlib
import io
import json
import math
import random
import signal
from fractions import Fraction

import pytest

import finitetop as ft
from finitetop import formats
from finitetop.cli import _Report, main
from finitetop.errors import FormatError, ValidationError

import oracles
from oracles import load_distances_by_cells, load_matrix_by_cells

DIV6_POSET = """\
# divisibility on the divisors of 6
points: 1 2 3 6
le: 1 2
le: 1 3
le: 2 6
le: 3 6
"""

DIV6_SPACE = """\
points: 1 2 3 6
open: 6
open: 2 6
open: 3 6
open: 2 3 6
open: 2 3 6   # duplicates are dropped silently
"""

DIV12_POSET = """\
points: 1 2 3 4 6 12
le: 1 2
le: 1 3
le: 2 4
le: 2 6
le: 3 6
le: 4 12
le: 6 12
"""

UNFIXABLE_FAMILY = """\
points: 0 1 2
member: 0 1 2
member: 0 1
member: 1 2
member:
"""

WEB5 = """\
0, 1, 0, 0, 0
1/2, 0, 1/2, 0, 0
1/3, 1/3, 0, 0, 1/3
1, 0, 0, 0, 0
0, 1/3, 1/3, 1/3, 0
"""

# Exact reports on the divisors of 6 and on the theory `p | q`, `~p`: a
# change to how the library represents a report's objects leaves these as they are.

GOLDEN_LOCALE_POINTS_TEXT = """\
count: 4
index  top-valued opens
0      {6} {2 6} {3 6} {2 3 6} {1 2 3 6}
1      {2 6} {2 3 6} {1 2 3 6}
2      {3 6} {2 3 6} {1 2 3 6}
3      {1 2 3 6}
phi_injective: True
phi_surjective: True
"""

GOLDEN_LOCALE_POINTS_JSON = """\
{
  "count": 4,
  "morphisms": [
    {
      "index": 0,
      "top-valued opens": "{6} {2 6} {3 6} {2 3 6} {1 2 3 6}"
    },
    {
      "index": 1,
      "top-valued opens": "{2 6} {2 3 6} {1 2 3 6}"
    },
    {
      "index": 2,
      "top-valued opens": "{3 6} {2 3 6} {1 2 3 6}"
    },
    {
      "index": 3,
      "top-valued opens": "{1 2 3 6}"
    }
  ],
  "phi_injective": true,
  "phi_surjective": true
}
"""

GOLDEN_LOCALE_HM_TEXT = """\
sober: True
filter_count: 5
saturated_compact_count: 5
bijection_holds: True
filter generator  intersection
{6}               {6}
{2 6}             {2 6}
{3 6}             {3 6}
{2 3 6}           {2 3 6}
{1 2 3 6}         {1 2 3 6}
"""

GOLDEN_LOCALE_HM_JSON = """\
{
  "bijection_holds": true,
  "correspondence": [
    {
      "filter generator": "{6}",
      "intersection": "{6}"
    },
    {
      "filter generator": "{2 6}",
      "intersection": "{2 6}"
    },
    {
      "filter generator": "{3 6}",
      "intersection": "{3 6}"
    },
    {
      "filter generator": "{2 3 6}",
      "intersection": "{2 3 6}"
    },
    {
      "filter generator": "{1 2 3 6}",
      "intersection": "{1 2 3 6}"
    }
  ],
  "filter_count": 5,
  "saturated_compact_count": 5,
  "sober": true
}
"""

GOLDEN_LOGIC_STONE_TEXT = """\
ultrafilters: 1
top_maps_to_all: True
bot_maps_to_empty: True
"""

GOLDEN_LOGIC_STONE_JSON = """\
{
  "bot_maps_to_empty": true,
  "top_maps_to_all": true,
  "ultrafilters": 1
}
"""

GOLDEN_LOGIC_ALGEBRA_TEXT = """\
models: 1
elements: 2
"""

GOLDEN_LOGIC_ALGEBRA_JSON = """\
{
  "elements": 2,
  "models": 1
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- loaders ------------------------------------------------------------------


def test_load_space_dedupes_and_validates(divisors):
    sp = formats.load_space(DIV6_SPACE)
    assert sp.opens == divisors.opens


def test_space_round_trip(divisors):
    assert formats.load_space(formats.dump_space(divisors)) == divisors


@pytest.mark.parametrize("bad", ["", "x y", " x", "x\t", "x\ny", "x\u2028y", "x#y", "#"])
def test_dump_space_refuses_a_label_that_would_not_read_back(bad):
    """An empty label, or one with whitespace or '#', would reload as another space."""
    space = ft.FiniteSpace(("a", bad, "b#"), (1, 2, 4))
    with pytest.raises(FormatError) as err:
        formats.dump_space(space)
    assert str(err.value) == f"point label {bad!r} is empty or holds whitespace or '#'"


def test_dump_space_names_the_first_label_that_would_not_read_back():
    with pytest.raises(FormatError, match="^point label 'a b' is empty or holds whitespace or '#'$"):
        formats.dump_space(ft.FiniteSpace(("a b", "c#d", ""), (1, 2, 4)))


def test_load_space_rejects_duplicate_points():
    with pytest.raises(FormatError):
        formats.load_space("points: a a\n")


def test_load_poset_closure_and_antisymmetry():
    order = formats.load_poset(DIV6_POSET)
    assert order.is_poset
    assert order.rel[0] >> 3 & 1  # 1 <= 6 through transitive closure
    loop = formats.load_poset("points: a b\nle: a b\nle: b a\n")
    assert not loop.is_poset


def test_unknown_poset_label_names_its_line(tmp_path, capsys):
    pos = tmp_path / "bad.pos"
    pos.write_text("points: a b\nle: a x\n")
    assert run(capsys, "build", "from-poset", "--in", str(pos)) == (2, "", "error: line 2: unknown point 'x'\n")


def test_load_closure_table_requires_all_entries():
    with pytest.raises(FormatError) as err:
        formats.load_closure_table("points: a b\ncl: -> \ncl: a -> a\ncl: b -> b\n")
    assert "missing" in str(err.value)


_SPACE = ["space", "report", "--in"]
_FAMILY = ["check", "base", "--in"]
_POSET = ["build", "from-poset", "--in"]
_CLOSURE = ["check", "closure-op", "--in"]
_CHAIN = ["check", "chain", "--in"]
_BLOCKS = ["build", "quotient", "--in", "{s.top}", "--classes"]
_RANKS = ["metric", "ultrarank", "--a", "w1", "--b", "w2", "--in"]
_MAP = ["map", "continuity", "--src", "{s.top}", "--dst", "{s.top}", "--map"]

# id -> (argv that the file's path completes, file text, stderr line): every labelled
# loader's format errors, each exit 2; a file with two faults reports the earlier line
LOADER_ERRORS = {
    "space-empty": (_SPACE, "", "empty space file"),
    "space-comments-only": (_SPACE, "# nothing\n\n", "empty space file"),
    "space-no-points": (_SPACE, "open: a\n", "line 1: space file must start with a 'points:' line"),
    "space-empty-carrier": (_SPACE, "points:   # none\n", "line 1: empty carrier"),
    "space-no-colon-first": (_SPACE, "points a b\n", "line 1: expected '<keyword>: ...', got 'points a b'"),
    "space-no-colon": (_SPACE, "points: a b\nnonsense # c\n", "line 2: expected '<keyword>: ...', got 'nonsense # c'"),
    "space-keyword": (_SPACE, "points: a b\npoints: c\n", "line 2: unexpected keyword 'points' in space file"),
    "space-unknown": (_SPACE, "points: a b\nopen: a z\n", "line 2: unknown point 'z'"),
    "space-unknown-then-keyword": (_SPACE, "points: a b\nopen: z\nfoo: a\n", "line 2: unknown point 'z'"),
    "space-keyword-then-unknown": (
        _SPACE, "points: a b\nfoo: a\nopen: z\n", "line 2: unexpected keyword 'foo' in space file"
    ),
    "family-empty": (_FAMILY, "", "empty family file"),
    "family-no-points": (_FAMILY, "member: a\n", "line 1: family file must start with a 'points:' line"),
    "family-empty-carrier": (_FAMILY, "points:\n", "line 1: empty carrier"),
    "family-keyword": (_FAMILY, "points: a\nopen: a\n", "line 2: unexpected keyword 'open' in family file"),
    "family-unknown": (_FAMILY, "points: a\nmember: z\n", "line 2: unknown point 'z'"),
    "poset-empty": (_POSET, "", "empty poset file"),
    "poset-no-points": (_POSET, "le: a b\n", "line 1: poset file must start with a 'points:' line"),
    "poset-keyword": (_POSET, "points: a b\n: a\n", "line 2: unexpected keyword '' in poset file"),
    "poset-unknown": (_POSET, "points: a b\nle: a z\n", "line 2: unknown point 'z'"),
    "poset-one-label": (_POSET, "points: a b\nle: a\n", "line 2: 'le:' wants exactly two labels"),
    "poset-three-labels": (_POSET, "points: a b\nle: a b a\n", "line 2: 'le:' wants exactly two labels"),
    "poset-arity-then-keyword": (_POSET, "points: a b\nle: a\nfoo: a\n", "line 2: 'le:' wants exactly two labels"),
    "poset-keyword-then-arity": (
        _POSET, "points: a b\nfoo: a\nle: a\n", "line 2: unexpected keyword 'foo' in poset file"
    ),
    "closure-empty": (_CLOSURE, "", "empty closure table file"),
    "closure-no-points": (_CLOSURE, "cl: -> \n", "line 1: closure table file must start with a 'points:' line"),
    "closure-keyword": (_CLOSURE, "points: a\nopen: a\n", "line 2: unexpected keyword 'open' in closure file"),
    "closure-no-arrow": (_CLOSURE, "points: a\ncl: a\n", "line 2: 'cl:' wants '<subset> -> <closure>'"),
    "closure-unknown": (_CLOSURE, "points: a\ncl: a -> z\n", "line 2: unknown point 'z'"),
    "closure-missing": (_CLOSURE, "points: a b\ncl: -> \ncl: a -> a\n", "closure table is missing the entry for {b}"),
    # a second entry for a subset is refused, whichever of the two would pass the axioms
    "closure-twice": (
        _CLOSURE, "points: a\ncl: -> a\ncl: a -> a\ncl: -> \n", "line 4: the entry for {(empty set)} is given twice"
    ),
    "closure-twice-swapped": (
        _CLOSURE, "points: a\ncl: -> \ncl: a -> a\ncl: -> a\n", "line 4: the entry for {(empty set)} is given twice"
    ),
    "closure-twice-then-missing": (
        _CLOSURE, "points: a b\ncl: a b -> a b\ncl: b a -> a b\n", "line 3: the entry for {a b} is given twice"
    ),
    "closure-unknown-then-keyword": (_CLOSURE, "points: a\ncl: z -> a\nfoo: a\n", "line 2: unknown point 'z'"),
    "closure-keyword-then-unknown": (
        _CLOSURE, "points: a\nfoo: a\ncl: z -> a\n", "line 2: unexpected keyword 'foo' in closure file"
    ),
    "chain-empty": (_CHAIN, "# c\n", "empty chain file"),
    "chain-no-points": (_CHAIN, "relation 1:\n", "line 1: chain file must start with a 'points:' line"),
    "chain-keyword": (_CHAIN, "points: a b\nrel 1:\n", "line 2: unexpected keyword 'rel 1' in chain file"),
    "chain-bad-level": (_CHAIN, "points: a b\nrelation x:\n", "line 2: 'relation <k>:' wants an integer level"),
    "chain-plural-keyword": (
        _CHAIN, "points: a b\nrelations 1:\n", "line 2: unexpected keyword 'relations 1' in chain file"
    ),
    "chain-level-after-colon": (
        _CHAIN, "points: a b\nrelation: 1\n", "line 2: 'relation <k>:' wants an integer level"
    ),
    "chain-skipped-level": (_CHAIN, "points: a b\nrelation 2:\n", "line 2: expected 'relation 1:'"),
    "chain-pair-first": (_CHAIN, "points: a b\npair: a b\n", "line 2: 'pair:' before any 'relation:' header"),
    "chain-unknown": (_CHAIN, "points: a b\nrelation 1:\npair: a z\n", "line 3: unknown point 'z'"),
    "chain-one-label": (_CHAIN, "points: a b\nrelation 1:\npair: a\n", "line 3: 'pair:' wants exactly two labels"),
    "chain-unknown-then-keyword": (
        _CHAIN, "points: a b\nrelation 1:\npair: a z\nfoo:\n", "line 3: unknown point 'z'"
    ),
    "chain-keyword-then-unknown": (
        _CHAIN, "points: a b\nrelation 1:\nfoo:\npair: a z\n", "line 3: unexpected keyword 'foo' in chain file"
    ),
    "blocks-no-colon": (_BLOCKS, "block a b c\n", "line 1: expected '<keyword>: ...', got 'block a b c'"),
    "blocks-keyword": (_BLOCKS, "points: a b c\n", "line 1: unexpected keyword 'points' in equivalence file"),
    "blocks-unknown": (_BLOCKS, "block: a b\nblock: c z\n", "line 2: unknown point 'z'"),
    "blocks-unknown-then-keyword": (_BLOCKS, "block: a z\nfoo: b\n", "line 1: unknown point 'z'"),
    "blocks-keyword-then-unknown": (
        _BLOCKS, "foo: b\nblock: a z\n", "line 1: unexpected keyword 'foo' in equivalence file"
    ),
    "map-empty": (_MAP, "# nothing mapped\n", "empty map file"),
    "ranks-keyword": (_RANKS, "points: w1 w2\n", "line 1: unexpected keyword 'points' in rank file"),
    "ranks-no-colon": (_RANKS, "rank w1 1\n", "line 1: expected '<keyword>: ...', got 'rank w1 1'"),
    "ranks-arity": (_RANKS, "rank: w1\n", "line 1: 'rank:' wants '<label> <positive int>'"),
    "ranks-not-int": (_RANKS, "rank: w1 x\n", "line 1: rank must be an integer"),
    "ranks-arity-then-keyword": (_RANKS, "rank: w1\nfoo: w2 1\n", "line 1: 'rank:' wants '<label> <positive int>'"),
    "ranks-keyword-then-arity": (_RANKS, "foo: w2 1\nrank: w1\n", "line 1: unexpected keyword 'foo' in rank file"),
}


@pytest.mark.parametrize("case", LOADER_ERRORS)
def test_loader_format_errors_name_the_first_faulty_line(tmp_path, capsys, case):
    argv, text, want = LOADER_ERRORS[case]
    (tmp_path / "s.top").write_text("points: a b c\nopen: a\n")
    (tmp_path / "f").write_text(text)
    argv = [str(tmp_path / "s.top") if a == "{s.top}" else a for a in argv] + [str(tmp_path / "f")]
    assert run(capsys, *argv) == (2, "", f"error: {want}\n")


def test_load_map_errors():
    with pytest.raises(FormatError):
        formats.load_map("a b\n")
    with pytest.raises(FormatError, match="^line 2: expected '<source> -> <target>'$"):
        formats.load_map("b -> a\na ->\n")
    with pytest.raises(FormatError, match="^empty map file$"):
        formats.load_map("# nothing mapped\n\n")
    with pytest.raises(FormatError):
        formats.load_map("a -> b\na -> c\n")


def test_load_matrix_fractions():
    rows = formats.load_matrix("0, 1/2, 1/2\n1/3, 1/3, 1/3\n1, 0, 0\n")
    assert rows[0][1] == 0.5
    assert abs(rows[1][0] - 1 / 3) < 1e-15


# What `float(Fraction(cell))` gives on Python 3.11, or None where `Fraction`
# refuses the cell or the value is not a finite float.
MATRIX_CELLS = [
    ("3/4", 0.75),
    (" 3 / 4 ", None),
    ("3/ 4", None),
    ("-3/4", -0.75),
    ("+3/4", 0.75),
    ("3/-4", None),
    ("3/+4", None),
    ("1/0", None),
    ("1.5/2", None),
    ("1_0", 10.0),
    ("1_0/4", 2.5),
    ("1__0", None),
    ("+.5", 0.5),
    ("5.", 5.0),
    (".", None),
    ("-0", 0.0),
    ("1e-400", 0.0),
    ("2.5E-3", 0.0025),
    ("1e400", None),
    ("1" * 400 + "/3", None),
    ("1/" + "1" * 400, 0.0),
    ("inf", None),
    ("-infinity", None),
    ("nan", None),
    ("0x1", None),
    ("", None),
]


def _cell_id(cell):
    return repr(cell if len(cell) < 12 else f"{cell[:3]}...{cell[-3:]}")


@pytest.mark.parametrize("cell, want", MATRIX_CELLS, ids=[_cell_id(c) for c, _ in MATRIX_CELLS])
def test_matrix_cell_grammar(cell, want):
    """`load_matrix` reads the nearest float; `load_distances` refuses the same cells and reads the exact value."""
    text = f"0, {cell}\n"
    for load in (formats.load_matrix, formats.load_distances):
        if want is None:
            with pytest.raises(FormatError):
                load(text)
    if want is not None:
        got = formats.load_matrix(text)[0][1]
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        exact = formats.load_distances(text)[0][1]
        assert exact == Fraction(cell) and float(exact) == want
        assert math.copysign(1.0, float(exact)) == math.copysign(1.0, want)


def test_load_distances_reads_each_entry_exactly():
    rows = formats.load_distances("0,0.1,8e-1\n1/10, 0,7E-1\n0.8,0.7,0\n")
    assert rows == [[0, Fraction(1, 10), Fraction(4, 5)], [Fraction(1, 10), 0, Fraction(7, 10)],
                    [Fraction(4, 5), Fraction(7, 10), 0]]
    big = 10**20 + 1  # past 2^53 a float would round it; the line is read again by `int`
    assert formats.load_distances(f"0,{big}\n-0,{big}\n") == [[0, big], [0, big]]
    assert [type(v) for v in formats.load_distances(f"0,{big}\n")[0]] == [int, int]
    assert formats.load_distances("0,-0\n") == [[0.0, 0.0]] and math.copysign(1, formats.load_distances("-0\n")[0][0]) == 1
    # below the float range a value is still positive, or negative; its float is 0
    tiny = formats.load_distances("0,1e-400,-1e-4300\n")[0]
    assert tiny[1] == Fraction(1, 10**400) and tiny[2] < 0 and float(tiny[2]) == 0.0
    # past the float range, or an exponent past 4300, is a format error, as `load_matrix` refuses 1e400
    for cell in ("1e4300", "1e-4301", "1e999999999", "1e-999999999", "9" * 400, "1" * 400 + "/3"):
        with pytest.raises(FormatError, match="^line 1: bad matrix entry$"):
            formats.load_distances(f"0,{cell}\n")


GOOD_CELLS = ["0", "-0", "1", "0.25", "-3.5", "1e-400", "-1e-400", "2.5E-3", "1_0", "+.5", "5.", "7"]
FRACTION_CELLS = ["3/4", "-3/4", "+1/3", "1_0/4", "-0/5", "1/" + "1" * 400]
BAD_CELLS = ["1e400", "inf", "-infinity", "nan", "", ".", "1__0", "0x1", "abc", "3/-4", " 3 / 4", "1/0", "1.5/2"]
PADDING = ["", " ", "  ", "\t", "\u00a0", "\u3000"]


def _matrix_file(rng):
    """Random lines of repeated entries, padded, some with a fraction, a comment or a blank line.

    Some lines repeat fractions, as a damped web row does; some files hold a
    bad entry, repeated on that line or on a later one.
    """
    pool = rng.sample(GOOD_CELLS, 4)
    fractions = rng.sample(FRACTION_CELLS, 2)
    lines = []
    for _ in range(rng.randint(0, 6)):
        cells = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.4:
            cells[rng.randrange(len(cells))] = rng.choice(FRACTION_CELLS)
        elif rng.random() < 0.3:
            cells = [rng.choice(fractions + pool[:1]) for _ in range(rng.randint(2, 8))]
        line = ",".join(rng.choice(PADDING) + c + rng.choice(PADDING) for c in cells)
        if rng.random() < 0.2:
            line += " # comment, 1/0"
        lines.append(line)
        if rng.random() < 0.15:
            lines.append(rng.choice(("", "   ", "# only a comment")))
    if lines and rng.random() < 0.3:
        bad = rng.choice(BAD_CELLS)
        first = rng.randrange(len(lines))
        for k in {first, rng.randrange(first, len(lines)), rng.randrange(first, len(lines))}:
            cells = lines[k].partition("#")[0].split(",")
            cells[rng.randrange(len(cells))] = bad
            lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _outcome(load, text):
    try:
        return [[(v, math.copysign(1.0, v)) for v in row] for row in load(text)]
    except FormatError as e:
        return str(e)


def test_load_matrix_matches_per_entry_reference():
    """Both matrix readers against their per-entry references: the nearest float, and the exact `Fraction`."""
    rng = random.Random(5)
    errors = set()
    for _ in range(2000):
        text = _matrix_file(rng)
        want = _outcome(load_matrix_by_cells, text)
        assert _outcome(formats.load_matrix, text) == want, text
        assert _outcome(formats.load_distances, text) == _outcome(load_distances_by_cells, text), text
        if isinstance(want, str):
            errors.add(want.partition(":")[2] or want)
    assert errors == {" bad matrix entry", "empty matrix file"}


LABELLED = ("space", "family", "poset", "closure_table", "equivalence", "chain", "ranks")
MUTATIONS = ("comment", "blank", "colon", "keyword", "label", "twice", "arity")


def _labelled_file(rng, kind, pts, topologies):
    """A well-formed file of the kind on the carrier `pts`: real topologies and closure tables half the time."""
    n = len(pts)

    def labels(m):
        return " ".join(p for i, p in enumerate(pts) if m >> i & 1)

    masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.5:
        sp = rng.choice(topologies[n])
        masks = list(sp.opens)
        rng.shuffle(masks)
    else:
        sp = ft.discrete_space(pts)
    head = [f"points: {' '.join(pts)}"]
    if kind == "space":
        return head + [f"open: {labels(m)}" for m in masks]
    if kind == "family":
        return head + [f"member: {labels(m)}" for m in masks]
    if kind == "equivalence":
        return [f"block: {labels(m)}" for m in masks]
    if kind == "closure_table":
        subsets = list(range(1 << n))
        rng.shuffle(subsets)
        return head + [f"cl: {labels(a)} -> {labels(sp.closure(a))}" for a in subsets]
    if kind == "ranks":
        return [f"rank: w{i} {rng.randint(1, 4)}" for i in range(rng.randint(0, 4))]
    pairs = [f" {rng.choice(pts)} {rng.choice(pts)}" for _ in range(rng.randint(0, 5))]
    if kind == "poset":
        return head + ["le:" + p for p in pairs]
    body = []
    for level in range(1, rng.randint(1, 3) + 1):
        body += [f"relation {level}:"] + ["pair:" + p for p in rng.sample(pairs, rng.randint(0, len(pairs)))]
    return head + body


def _mutated(rng, lines, how):
    """The lines with one fault or one harmless change of the kind `how`."""
    lines = list(lines) or [""]
    i = rng.randrange(len(lines))
    key, colon, rest = lines[i].partition(":")
    words = rest.split()
    if how == "comment":
        lines[i] += rng.choice(("  # note: a b", "#"))
    elif how == "blank":
        lines.insert(i, rng.choice(("", "   ", "\t", "# only a comment")))
    elif how == "colon":
        lines[i] = lines[i].replace(":", " ", 1)
    elif how == "keyword":
        lines[i] = rng.choice(("foo", "open", "points", "rel 1", "relation x", "relation 9", " le ", "")) + colon + rest
    elif how == "label" and words:
        words[rng.randrange(len(words))] = rng.choice(("zz", "a", "->", "1"))
        lines[i] = key + colon + " " + " ".join(words)
    elif how == "twice":
        lines.insert(i, lines[i] if "->" not in lines[i] else lines[i].partition("->")[0] + "-> a")
    elif how == "arity":
        lines[i] = key + colon + " " + " ".join(rng.choice((words[:1], [], words + ["a", "b"])))
    return lines


def _loaded(load, *args):
    try:
        return load(*args)
    except FormatError as e:
        return f"error: {e}"
    except ValidationError as e:
        return f"failed: {e} {e.witness}"


def test_labelled_loaders_match_the_line_reader():
    # every loader against its line-at-a-time twin, on files with up to two faults or harmless changes
    rng = random.Random(26)
    topologies = {n: ft.all_topologies(n) for n in range(1, 5)}
    seen = set()
    for _ in range(3000):
        kind = rng.choice(LABELLED)
        pts = tuple("abcd"[:rng.randint(1, 4)])
        lines = _labelled_file(rng, kind, pts, topologies)
        for how in rng.sample(MUTATIONS, rng.randint(0, 2)):
            lines = _mutated(rng, lines, how)
        text = "\n".join(lines) + rng.choice(("\n", ""))
        extra = (ft.discrete_space(pts),) if kind == "equivalence" else ()
        want = _loaded(getattr(oracles, f"load_{kind}_by_lines"), text, *extra)
        assert _loaded(getattr(formats, f"load_{kind}"), text, *extra) == want, text
        seen.add(want.split(": ")[0] if isinstance(want, str) else "ok")
        if isinstance(want, str) and want.startswith("error: line "):
            seen.add(want.split(": ")[2].split()[0])
    messages = {"expected", "unexpected", "unknown", "the", "empty", "'le:'", "'pair:'", "'relation", "'cl:'", "'rank:'"}
    assert {"ok", "failed", "error", *messages} <= seen, seen


@pytest.mark.parametrize("cell", ["1e400", "inf", "nan", "1" * 400 + "/3"], ids=_cell_id)
def test_non_finite_matrix_entry_is_usage_error(tmp_path, capsys, cell):
    csv = tmp_path / "big.csv"
    csv.write_text(f"0, {cell}\n{cell}, 0\n")
    code, out, err = run(capsys, "check", "pmetric", "--in", str(csv))
    assert code == 2 and out == ""
    assert "bad matrix entry" in err and "Traceback" not in err


def test_load_theory():
    theory = formats.load_theory("p -> q\n# a comment\n~q\n")
    assert theory.vars == ("p", "q")
    assert len(theory.formulas) == 2


# -- CLI: exit codes ------------------------------------------------------------


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "space", "report", "--in", "/nonexistent.top")
    assert code == 2 and "cannot read" in err


def test_non_utf8_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin.top"
    bad.write_bytes(b"points: a b\nopen: \xff\n")
    code, out, err = run(capsys, "space", "report", "--in", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {bad}: not UTF-8 text (byte 18)\n"


def test_bad_syntax_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.top"
    bad.write_text("points: a\nnonsense line\n")
    code, _, err = run(capsys, "space", "report", "--in", str(bad))
    assert code == 2


def test_base_rejection_is_validation_failure(tmp_path, capsys):
    fam = tmp_path / "overlap.fam"
    fam.write_text(UNFIXABLE_FAMILY)
    code, _, err = run(capsys, "check", "base", "--in", str(fam))
    assert code == 1
    assert "'x': '1'" in err


# (files, argv with {name} for the path of each file, stderr): a failure that exits 1 names its witness
WITNESSED_FAILURES = {
    "blocks-overlap": (
        {"s.top": "points: a b c\nopen: a\n", "e.eq": "block: b c\nblock: c b a\n"},
        ["build", "quotient", "--in", "{s.top}", "--classes", "{e.eq}"],
        "failed: partition blocks overlap [{'x': 'b'}]",
    ),
    "blocks-miss-a-point": (
        {"s.top": "points: a b c\nopen: a\n", "e.eq": "block: b\nblock: a\n"},
        ["build", "quotient", "--in", "{s.top}", "--classes", "{e.eq}"],
        "failed: partition does not cover the carrier [{'x': 'c'}]",
    ),
    "rank-zero": (
        {"r.rnk": "rank: w1 1\nrank: w2 0\nrank: w3 -2\n"},
        ["metric", "ultrarank", "--in", "{r.rnk}", "--a", "w1", "--b", "w2"],
        "failed: ranks must be positive [{'x': 'w2', 'rank': 0}]",
    ),
    "negative-entry": (
        {"m.csv": "0.5,0.5\n1.5,-0.5\n"},
        ["solve", "pagerank", "--in", "{m.csv}"],
        "failed: stochastic matrix entries must be nonnegative [{'row': 1, 'col': 1}]",
    ),
    "row-sum": (
        {"m.csv": "1,0\n0.5,0.25\n"},
        ["solve", "pagerank", "--in", "{m.csv}"],
        "failed: stochastic matrix rows must sum to 1 [{'row': 1, 'sum': 0.75}]",
    ),
    "empty-block": (
        {"s.top": "points: a b c\nopen: a\n", "e.eq": "block: a\nblock:\nblock: b c\n"},
        ["build", "quotient", "--in", "{s.top}", "--classes", "{e.eq}"],
        "failed: partition blocks must be nonempty [{'block': 1}]",
    ),
    "scott-two-cycle": (
        {"c.pos": "points: a b c d\nle: a d\nle: b c\nle: c b\nle: d a\n"},
        ["build", "scott", "--in", "{c.pos}"],
        "failed: Scott topology needs an antisymmetric order [{'x': 'a', 'y': 'd'}]",
    ),
    "over-the-cap": (
        {"w.top": "points: " + " ".join(f"p{i}" for i in range(18)) + "\n"},
        ["space", "report", "--in", "{w.top}"],
        "failed: carrier has 18 points, limit is 16 [{'x': 'p16'}]",
    ),
    "product-over-the-cap": (
        {"s.top": "points: a b c d e\n"},
        ["build", "product", "--in", "{s.top}", "--with", "{s.top}"],
        "failed: carrier has 25 points, limit is 16 [{'x': '⟨d,b⟩'}]",
    ),
    "product-labels-collide": (
        {"a.top": "points: x,y x\n", "b.top": "points: z y,z\n"},
        ["build", "product", "--in", "{a.top}", "--with", "{b.top}"],
        "failed: product labels collide; rename the factor points [{'label': '⟨x,y,z⟩'}]",
    ),
    "closure-table-over-the-cap": (
        {"w.clo": "points: " + " ".join(f"p{i}" for i in range(17)) + "\n"},
        ["check", "closure-op", "--in", "{w.clo}"],
        "failed: carrier has 17 points, limit is 16 [{'x': 'p16'}]",
    ),
    "closure-build-over-the-cap": (
        {"w.clo": "points: " + " ".join(f"p{i}" for i in range(17)) + "\n"},
        ["build", "from-closure", "--in", "{w.clo}"],
        "failed: carrier has 17 points, limit is 16 [{'x': 'p16'}]",
    ),
    # the 17th variable in sorted order: x0 x1 x10 ... x16 x2 ... x9
    "theory-over-the-cap": (
        {"t.thy": " | ".join(f"x{i}" for i in range(17)) + "\n"},
        ["logic", "model", "--in", "{t.thy}"],
        "failed: at most 16 variables are supported [{'x': 'x9'}]",
    ),
    "inconsistent-theory": (
        {"t.thy": "a | b\n~a\nb -> a\nc\n"},
        ["logic", "model", "--in", "{t.thy}"],
        "failed: inconsistent theory: the algebra degenerates to top = bot [{'formula': 'b -> a'}]",
    ),
}


@pytest.mark.parametrize("case", WITNESSED_FAILURES)
def test_validation_failures_name_a_witness(tmp_path, capsys, case):
    files, argv, want = WITNESSED_FAILURES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    assert run(capsys, *argv) == (1, "", want + "\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["space", "explode"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "weierstrass", "--fn", "poly:a", "--n", "8", "--grid", "0.5"],
        ["approx", "weierstrass", "--fn", "poly:1,,2", "--n", "8", "--grid", "0.5"],
        ["approx", "weierstrass", "--fn", "constant:x", "--n", "8", "--grid", "0.5"],
        ["solve", "fixpoint", "--fn", "cos", "--x0", "a"],
        ["solve", "fixpoint", "--fn", "cos", "--x0", "0,b"],
    ],
)
def test_non_numeric_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "fixpoint", "--fn", "cos", "--x0", "inf"],
        ["solve", "fixpoint", "--fn", "halve", "--x0", "0,nan"],
        ["approx", "weierstrass", "--fn", "square", "--n", "8", "--grid", "nan,inf,0.5"],
        ["approx", "weierstrass", "--fn", "square", "--n", "8", "--grid", "0.5,-inf"],
        ["approx", "sqrt", "--n", "2", "--grid", "nan,0.5"],
    ],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    what = "x0" if "--x0" in argv else "grid"
    assert (code, out, err) == (2, "", f"error: {what} must be finite numbers\n")


@pytest.mark.parametrize("fn", ["constant:nan", "constant:-inf", "poly:1,inf", "poly:0,nan,1", "poly:1e400"])
def test_non_finite_function_coefficients_are_usage_errors(capsys, fn):
    # `1e400` is past the float range, so it reads as inf
    code, out, err = run(capsys, "approx", "weierstrass", "--fn", fn, "--n", "4", "--grid", "0,0.5")
    assert (code, out, err) == (2, "", f"error: {fn!r} needs finite numbers after the colon\n")


def test_non_numeric_entry_keeps_its_message(capsys):
    for v in ("a", "nan,a"):
        code, out, err = run(capsys, "solve", "fixpoint", "--fn", "cos", "--x0", v)
        assert (code, out, err) == (2, "", "error: x0 must be comma-separated numbers\n")


@pytest.mark.parametrize(
    "line",
    [
        "~" * 5000 + "a",
        "~(" * 3000 + "a" + ")" * 3000,
        " | ".join(["a"] * 3000),
        " -> ".join(["a"] * 3000),
    ],
    ids=["negations", "parentheses", "disjunctions", "implications"],
)
def test_deep_formulas_are_usage_errors(tmp_path, capsys, line):
    thy = tmp_path / "deep.thy"
    thy.write_text(line + "\n")
    code, out, err = run(capsys, "logic", "model", "--in", str(thy))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("a | b\n~c\nb & & c\n", "line 3: syntax error at position 4: unexpected '&', wanted a variable, constant, '~' or '('"),
        ("a\n\n(b\n", "line 3: syntax error at end of input: wanted ')'"),
        # parentheses nest without a cap; the connectives they hold count towards the depth
        ("a\n# a comment\n\n" + "(" * 70 + "~" * 151 + "b" + ")" * 70 + "\n", "line 4: formula is more than 150 connectives deep"),
        ("a\nb\n" + " | ".join(["c"] * 152) + "\n", "line 3: formula is more than 150 connectives deep"),
    ],
    ids=["syntax", "end-of-input", "nesting-cap", "depth-cap"],
)
def test_a_theory_error_names_its_line(tmp_path, capsys, text, message):
    thy = tmp_path / "t.thy"
    thy.write_text(text)
    for what in ("model", "consistent", "algebra", "stone"):
        assert run(capsys, "logic", what, "--in", str(thy)) == (2, "", f"error: {message}\n")
    # the theory's own checks name no line
    thy.write_text("a\n" + " | ".join(f"x{i}" for i in range(17)) + "\n")
    code, _, err = run(capsys, "logic", "model", "--in", str(thy))
    assert (code, err) == (1, "failed: at most 16 variables are supported [{'x': 'x8'}]\n")


# -- CLI: reports ------------------------------------------------------------------


@pytest.fixture()
def div6_file(tmp_path):
    p = tmp_path / "div6.top"
    p.write_text(DIV6_SPACE)
    return str(p)


def test_report_json_is_what_json_dump_writes():
    rep = _Report(as_json=True)
    rep.add("points", ["α", "β", "x\u2028y", "née"])
    rep.add("flags", {"t0": True, "t1": False, "missing": None})
    rep.add("values", [0.1, -0.0, 1e-300, 2.5e17, 1 / 3, 7])
    rep.table("rows", ("label", "weight"), [("ü", 0.5), ("z", None)])
    out = io.StringIO()
    rep.print(out)
    want = io.StringIO()
    json.dump(rep.data, want, indent=2, sort_keys=True)
    assert out.getvalue() == want.getvalue() + "\n"


def test_report_is_deterministic(div6_file, capsys):
    code1, out1, _ = run(capsys, "space", "report", "--in", div6_file)
    code2, out2, _ = run(capsys, "space", "report", "--in", div6_file)
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_json_parses(div6_file, capsys):
    code, out, _ = run(capsys, "space", "report", "--in", div6_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["points"] == ["1", "2", "3", "6"]
    assert data["t0"] is True and data["t2"] is False
    assert len(data["subsets"]) == 15


def test_emit_round_trip(tmp_path, capsys, divisors):
    poset_file = tmp_path / "div6.pos"
    poset_file.write_text(DIV6_POSET)
    code, out, _ = run(capsys, "build", "from-poset", "--in", str(poset_file))
    assert code == 0
    built = tmp_path / "built.top"
    built.write_text(out)
    code, emitted, _ = run(capsys, "space", "report", "--in", str(built), "--emit")
    assert code == 0
    assert formats.load_space(emitted) == divisors


def test_check_subbase_emits_topology(tmp_path, capsys, divisors):
    fam = tmp_path / "sub.fam"
    fam.write_text("points: 1 2 3 6\nmember: 2 6\nmember: 3 6\n")
    code, out, _ = run(capsys, "check", "subbase", "--in", str(fam))
    assert code == 0
    assert formats.load_space(out).opens == divisors.opens


def test_map_commands(tmp_path, capsys, div6_file):
    sierp = tmp_path / "s.top"
    sierp.write_text("points: 0 1\nopen: 1\n")
    good = tmp_path / "f.map"
    good.write_text("1 -> 0\n2 -> 0\n3 -> 0\n6 -> 1\n")
    code, out, _ = run(capsys, "map", "continuity", "--src", div6_file, "--dst", str(sierp), "--map", str(good))
    assert code == 0 and "yes" in out
    bad = tmp_path / "g.map"
    bad.write_text("1 -> 1\n2 -> 0\n3 -> 0\n6 -> 0\n")
    code, out, err = run(capsys, "map", "continuity", "--src", div6_file, "--dst", str(sierp), "--map", str(bad))
    assert (code, out) == (1, "continuous: no, witness open {1}\n")
    assert err == "failed: map is not continuous [{'open': '{1}'}]\n"
    code, out, _ = run(capsys, "map", "homeo", "--src", div6_file, "--dst", div6_file, "--map", str(bad))
    assert code == 2  # map is not total on the divisors carrier... labels mismatch
    ident = tmp_path / "id.map"
    ident.write_text("1 -> 1\n2 -> 2\n3 -> 3\n6 -> 6\n")
    code, out, _ = run(capsys, "map", "homeo", "--src", div6_file, "--dst", div6_file, "--map", str(ident))
    assert code == 0 and "yes" in out
    swap = tmp_path / "swap.map"
    swap.write_text("1 -> 2\n2 -> 1\n3 -> 3\n6 -> 6\n")
    code, out, err = run(capsys, "map", "homeo", "--src", div6_file, "--dst", div6_file, "--map", str(swap))
    assert (code, out, err) == (1, "homeomorphism: no\n", "failed: map is not continuous [{'open': '{2 6}'}]\n")


def test_build_commands(tmp_path, capsys, div6_file):
    code, out, _ = run(capsys, "build", "subspace", "--in", div6_file, "--keep", "2 3 6")
    assert code == 0 and out.startswith("points: 2 3 6")
    eq = tmp_path / "eq.eq"
    eq.write_text("block: 1\nblock: 2 3\nblock: 6\n")
    code, out, _ = run(capsys, "build", "quotient", "--in", div6_file, "--classes", str(eq))
    assert code == 0 and "points: 1 23 6" in out
    div12 = tmp_path / "div12.top"
    div12.write_text(formats.dump_space(ft.topology_from_poset(formats.load_poset(DIV12_POSET))))
    eq.write_text("block: 1 2\nblock: 3\nblock: 4\nblock: 6\nblock: 12\n")
    code, out, _ = run(capsys, "build", "quotient", "--in", str(div12), "--classes", str(eq))
    assert code == 0 and "points: 1+2 3 4 6 12" in out
    sierp = tmp_path / "s.top"
    sierp.write_text("points: 0 1\nopen: 1\n")
    code, out, _ = run(capsys, "build", "product", "--in", str(sierp), "--with", str(sierp))
    assert code == 0
    assert len(formats.load_space(out).opens) == 6
    code, _, err = run(capsys, "build", "onepoint", "--in", str(sierp))
    assert code == 1 and "Hausdorff" in err
    disc = tmp_path / "d.top"
    disc.write_text("points: a b\nopen: a\nopen: b\n")
    code, out, _ = run(capsys, "build", "onepoint", "--in", str(disc), "--label", "w")
    assert code == 0
    assert len(formats.load_space(out).opens) == 8
    scott_in = tmp_path / "chain.pos"
    scott_in.write_text("points: a b c\nle: a b\nle: b c\n")
    code, out, _ = run(capsys, "build", "scott", "--in", str(scott_in))
    assert code == 0 and len(formats.load_space(out).opens) == 4
    clo = tmp_path / "ident.clo"
    clo.write_text("points: a b\ncl: -> \ncl: a -> a\ncl: b -> b\ncl: a b -> a b\n")
    code, out, _ = run(capsys, "build", "from-closure", "--in", str(clo))
    assert code == 0 and len(formats.load_space(out).opens) == 4
    two = tmp_path / "two.top"
    two.write_text("points: x\nopen: x\n")
    code, out, _ = run(capsys, "build", "sum", "--in", str(disc), "--with", str(two))
    assert code == 0 and "points: a b x" in out


def test_build_onepoint_output_reloads_as_the_extension(tmp_path, capsys):
    disc = tmp_path / "d.top"
    disc.write_text("points: a b\nopen: a\nopen: b\n")
    code, out, _ = run(capsys, "build", "onepoint", "--in", str(disc), "--label", "w")
    assert code == 0
    assert formats.load_space(out) == ft.one_point_extension(formats.load_space(disc.read_text()), "w")


@pytest.mark.parametrize("label", ["x y", "", " ", "#c"])
def test_build_onepoint_refuses_a_label_that_does_not_reload(tmp_path, capsys, label):
    disc = tmp_path / "d.top"
    disc.write_text("points: a b\nopen: a\nopen: b\n")
    code, out, err = run(capsys, "build", "onepoint", "--in", str(disc), "--label", label)
    assert (code, out) == (2, "")
    assert err == f"error: extension label {label!r} is empty or holds whitespace or '#'\n"


def test_locale_commands(div6_file, capsys):
    code, out, _ = run(capsys, "locale", "points", "--in", div6_file, "--json")
    assert code == 0 and json.loads(out)["count"] == 4
    code, out, _ = run(capsys, "locale", "sober", "--in", div6_file, "--json")
    assert code == 0 and json.loads(out)["sober"] is True
    code, out, _ = run(capsys, "locale", "hofmann-mislove", "--in", div6_file, "--json")
    data = json.loads(out)
    assert code == 0 and data["bijection_holds"] and data["filter_count"] == 5
    code, out, _ = run(capsys, "locale", "implication", "--in", div6_file, "--a", "2 6", "--b", "3 6")
    assert code == 0 and "implication: {3 6}" in out


@pytest.mark.parametrize(
    "argv, want",
    [
        (("locale", "points"), GOLDEN_LOCALE_POINTS_TEXT),
        (("locale", "points", "--json"), GOLDEN_LOCALE_POINTS_JSON),
        (("locale", "hofmann-mislove"), GOLDEN_LOCALE_HM_TEXT),
        (("locale", "hofmann-mislove", "--json"), GOLDEN_LOCALE_HM_JSON),
    ],
)
def test_locale_reports_are_golden(div6_file, capsys, argv, want):
    assert run(capsys, *argv[:2], "--in", div6_file, *argv[2:]) == (0, want, "")


def test_locale_point_rows_are_the_opens_above_each_kernel(spaces_up_to_4, tmp_path, capsys):
    """Row i lists, smallest first, the opens containing the i-th distinct kernel."""
    path = tmp_path / "s.top"
    for sp in spaces_up_to_4[1:]:  # a space file needs a point
        path.write_text(formats.dump_space(sp))
        code, out, _ = run(capsys, "locale", "points", "--in", str(path), "--json")
        listing = sorted(sp.opens, key=lambda u: (u.bit_count(), u))
        want = [
            " ".join("{" + " ".join(sp.labels(u)) + "}" for u in listing if g & ~u == 0)
            for g in sorted(set(sp.rel))
        ]
        rows = json.loads(out)["morphisms"]
        assert code == 0 and [r["top-valued opens"] for r in rows] == want
        assert [r["index"] for r in rows] == list(range(len(want)))


@pytest.mark.parametrize(
    "argv, want",
    [
        (("logic", "stone"), GOLDEN_LOGIC_STONE_TEXT),
        (("logic", "stone", "--json"), GOLDEN_LOGIC_STONE_JSON),
        (("logic", "algebra"), GOLDEN_LOGIC_ALGEBRA_TEXT),
        (("logic", "algebra", "--json"), GOLDEN_LOGIC_ALGEBRA_JSON),
    ],
)
def test_logic_reports_are_golden(tmp_path, capsys, argv, want):
    thy = tmp_path / "t.thy"
    thy.write_text("p | q\n~p\n")
    assert run(capsys, *argv[:2], "--in", str(thy), *argv[2:]) == (0, want, "")


def test_metric_commands(tmp_path, capsys):
    m = tmp_path / "line.csv"
    m.write_text("0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n")
    code, out, _ = run(capsys, "metric", "net", "--in", str(m), "--labels", "0 1 2 3", "--eps", "1.5")
    assert code == 0 and "centers: 0 2" in out
    code, out, _ = run(capsys, "metric", "hausdorff", "--in", str(m), "--labels", "0 1 2 3", "--a", "0 1", "--b", "0 2")
    assert code == 0 and "hausdorff: 1" in out
    code, out, _ = run(capsys, "metric", "quotient", "--in", str(m))
    assert code == 0
    # 34 points on a line, points 3 and 4 at one place: the class {3, 4}
    # must not take the name "34" of point 34's class
    xs = [i - (i >= 3) for i in range(34)]
    line = tmp_path / "line34.csv"
    line.write_text("".join(",".join(str(abs(x - y)) for y in xs) + "\n" for x in xs))
    code, out, _ = run(capsys, "metric", "quotient", "--in", str(line), "--json")
    data = json.loads(out)
    assert code == 0 and len(data["classes"]) == 33 and ["3", "4"] in data["classes"]
    assert "3+4" in data["distances"][0] and "34" in data["distances"][0]
    chain = tmp_path / "c.chn"
    chain.write_text("points: a b c\nrelation 1:\npair: a b\n")
    code, out, _ = run(capsys, "metric", "chain", "--in", str(chain), "--json")
    assert code == 0 and json.loads(out)["squeeze_verified"] is True
    ranks = tmp_path / "r.rnk"
    ranks.write_text("rank: w1 1\nrank: w2 2\n")
    code, out, _ = run(capsys, "metric", "ultrarank", "--in", str(ranks), "--a", "w1", "--b", "w2")
    assert code == 0 and "distance: 0.5" in out


def test_metric_commands_compare_exact_distances(tmp_path, capsys):
    """A decimal or p/q matrix is checked on the numbers it writes, and its distances print as their nearest floats."""
    files = {
        "thirds.csv": "0,1/3,1/2\n1/3,0,1/6\n1/2,1/6,0\n",  # tight: 1/2 = 1/3 + 1/6, not so in binary
        "tie.csv": "0,1e-1,8e-1\n1e-1,0,7e-1\n8e-1,7e-1,0\n",  # tight: 0.1 + 0.7 falls short of 0.8 in binary
        "slack.csv": "0,1,2.000000001\n1,0,1\n2.000000001,1,0\n",
        "zero.csv": "0,0,0.0000000001\n0,0,0\n0.0000000001,0,0\n",
        "tiny.csv": "0,1e-400\n1e-400,0\n",
        "below.csv": "0,-1e-400\n-1e-400,0\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for name, line in (("thirds.csv", "metric: True"), ("tie.csv", "metric: True"), ("tiny.csv", "metric: True")):
        code, out, _ = run(capsys, "check", "pmetric", "--in", str(tmp_path / name))
        assert (code, out) == (0, f"pseudometric: ok, {line}\n")
    for name, fault in (("slack.csv", "triangle inequality fails [{'x': '1', 'z': '2', 'y': '3'}]"),
                        ("zero.csv", "triangle inequality fails [{'x': '1', 'z': '2', 'y': '3'}]"),
                        ("below.csv", "negative distance [{'x': '1', 'y': '2'}]")):
        for argv in (["check", "pmetric"], ["metric", "quotient"]):
            code, out, err = run(capsys, *argv, "--in", str(tmp_path / name))
            assert (code, out, err) == (1, "", f"failed: {fault}\n")
    code, out, _ = run(capsys, "metric", "hausdorff", "--in", str(tmp_path / "thirds.csv"), "--a", "2", "--b", "1 3",
                       "--json")
    assert code == 0 and json.loads(out)["hausdorff"] == 1 / 3
    code, out, _ = run(capsys, "metric", "quotient", "--in", str(tmp_path / "tie.csv"))
    assert code == 0 and out.splitlines()[-1].split() == ["3", "0.8", "0.7", "0"]
    # the radius is the number it writes too: a ball of radius 0.8 around 1 leaves out 3, at 0.8
    for eps, centers in (("0.1", "1 2 3"), ("8e-1", "1 3"), ("0.81", "1"), ("inf", "1")):
        code, out, _ = run(capsys, "metric", "net", "--in", str(tmp_path / "tie.csv"), "--eps", eps)
        assert (code, out) == (0, f"centers: {centers}\n")
    code, out, _ = run(capsys, "metric", "quotient", "--in", str(tmp_path / "tiny.csv"), "--json")
    assert code == 0 and json.loads(out)["classes"] == [["1"], ["2"]] and json.loads(out)["distances"][0]["2"] == "0"


@contextlib.contextmanager
def time_limit(seconds):
    """Fail instead of hanging: SIGALRM raises in the main thread after `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_net_radius_must_be_a_positive_number(tmp_path, capsys):
    m = tmp_path / "line.csv"
    m.write_text("0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n")
    base = ["metric", "net", "--in", str(m), "--eps"]
    with time_limit(10):
        for eps in ("nan", "0", "-1"):
            code, out, err = run(capsys, *base, eps)
            assert (code, out) == (2, "") and f"error: argument --eps: must be a positive number, got {eps}\n" in err
        code, out, _ = run(capsys, *base, "inf")
    assert code == 0 and out == "centers: 1\n"


@pytest.mark.parametrize("labels", ["", "  "])
@pytest.mark.parametrize(
    "argv",
    [["check", "pmetric"], ["metric", "hausdorff", "--a", "1", "--b", "2"], ["metric", "quotient"],
     ["metric", "net", "--eps", "1"]],
    ids=["check-pmetric", "hausdorff", "quotient", "net"],
)
def test_a_label_list_that_names_no_point_is_a_usage_error(tmp_path, capsys, argv, labels):
    """`--labels` with no label in it exits 2 in either spelling, not with the default labels 1..n."""
    m = tmp_path / "two.csv"
    m.write_text("0,1\n1,0\n")
    code, out, err = run(capsys, *argv, "--in", str(m), "--labels", labels)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"finitetop {argv[0]} {argv[1]}: error: argument --labels: must name at least one point"


def test_solve_commands(tmp_path, capsys):
    web = tmp_path / "web5.csv"
    web.write_text(WEB5)
    code, out, _ = run(capsys, "solve", "pagerank", "--in", web.as_posix(), "--tol", "1e-9")
    assert code == 0
    vals = [float(v) for v in out.split(":")[1].split()]
    assert abs(vals[0] - 0.293) < 0.002
    code, out, _ = run(capsys, "solve", "fixpoint", "--fn", "cos", "--x0", "0", "--tol", "1e-9")
    assert code == 0 and "0.739085" in out
    perm = tmp_path / "perm.csv"
    perm.write_text("0,1\n1,0\n")
    code, out, _ = run(capsys, "solve", "pagerank", "--in", perm.as_posix())
    assert code == 0  # uniform start is stationary for permutations


def test_approx_commands(capsys):
    code, out, _ = run(capsys, "approx", "sqrt", "--n", "2", "--grid", "0,0.25,1")
    assert code == 0 and "0.875" in out
    code, out, _ = run(capsys, "approx", "kernel-ratio", "--n", "20", "--delta", "0.5", "--json")
    data = json.loads(out)
    assert code == 0 and data["ratio_below_bound"] is True
    code, out, _ = run(capsys, "approx", "weierstrass", "--fn", "abs-half", "--n", "4", "--grid", "0.5")
    assert code == 0


def test_logic_commands(tmp_path, capsys):
    thy = tmp_path / "t.thy"
    thy.write_text("p | q\n~p\n")
    code, out, _ = run(capsys, "logic", "consistent", "--in", str(thy))
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "logic", "model", "--in", str(thy))
    assert code == 0 and "p=bot" in out and "q=top" in out
    code, out, _ = run(capsys, "logic", "algebra", "--in", str(thy), "--json")
    assert code == 0 and json.loads(out)["elements"] == 2
    code, out, _ = run(capsys, "logic", "stone", "--in", str(thy), "--json")
    assert code == 0 and json.loads(out)["ultrafilters"] == 1
    bad = tmp_path / "bad.thy"
    bad.write_text("p\n~p\n")
    code, out, err = run(capsys, "logic", "consistent", "--in", str(bad))
    assert (code, out, err) == (1, "consistent: False\n", "failed: inconsistent theory [{'formula': '~p'}]\n")
    # the witness is the formula at which the running conjunction becomes false
    bad.write_text("a | b\n~a\nb -> a\nc\n")
    code, out, err = run(capsys, "logic", "consistent", "--in", str(bad), "--json")
    assert (code, json.loads(out)) == (1, {"consistent": False})
    assert err == "failed: inconsistent theory [{'formula': 'b -> a'}]\n"


def test_an_oversized_witness_is_counted_as_written(tmp_path, capsys):
    """A line of `p` joined by `&` and `|` in 17 balanced levels is 17 deep and has 2^17 - 1 connectives."""

    def balanced(level):
        s = balanced(level - 1) if level else "p"
        return f"({s}) {'&' if level % 2 else '|'} ({s})" if level else s

    thy = tmp_path / "big.thy"
    thy.write_text("~p\n" + balanced(17) + "\n")
    code, out, err = run(capsys, "logic", "consistent", "--in", str(thy))
    assert (code, out, err) == (1, "consistent: False\n",
                                "failed: inconsistent theory [{'formula_number': 2, 'connectives': 131071}]\n")


def test_logic_algebra_past_the_int_to_str_limit(tmp_path, capsys):
    # 65535 models: 2^65535 has more decimal digits than int-to-str allows
    thy = tmp_path / "taut.thy"
    thy.write_text(" | ".join(f"x{i}" for i in range(16)) + "\n")
    code, out, err = run(capsys, "logic", "algebra", "--in", str(thy))
    assert code == 0 and "Traceback" not in err
    assert out == "models: 65535\nelements: 2^65535\n"
    code, out, err = run(capsys, "logic", "algebra", "--in", str(thy), "--json")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out) == {"elements": "2^65535", "models": 65535}
