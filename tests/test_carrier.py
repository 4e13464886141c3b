"""Masks <-> labels on a carrier: the labels read by bit, the set strings,
the per-byte label tables of the listings and the label -> bit maps the
loaders and the CLI share."""

import json
import random

import pytest

import finitetop as ft
from finitetop import formats
from finitetop.cli import _set_strs, main
from finitetop.errors import FormatError

from oracles import labels_by_bits


def _set_str(points, mask):
    return "{" + " ".join(labels_by_bits(points, mask)) + "}"


@pytest.mark.parametrize("n", range(1, 17))
def test_labels_and_set_strings_on_every_mask(n):
    points = tuple(f"p{i}" if i % 3 else f"long{i}" for i in range(n))
    sp = ft.discrete_space(points)
    masks = range(1 << n)
    for m in masks:
        got = sp.labels(m)
        assert type(got) is tuple and got == labels_by_bits(points, m)
        assert sp.set_str(m) == _set_str(points, m)
    assert _set_strs(sp, masks) == [_set_str(points, m) for m in masks]


@pytest.mark.parametrize("n", [17, 20, 90])
def test_labels_on_wide_pmetric_carriers(n):
    points = tuple(str(i + 1) for i in range(n))
    sp = ft.PMetricSpace(points, [[0.0] * n for _ in range(n)])
    rng = random.Random(n)
    full = (1 << n) - 1
    masks = [0, full, 1, 1 << n - 1, full & ~1, full >> 1]
    masks += [1 << i for i in range(n)] + [0xFF << 8 * k & full for k in range(n // 8 + 1)]
    masks += [rng.getrandbits(n) for _ in range(500)]
    masks += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(500)]
    for m in masks:
        assert sp.labels(m) == labels_by_bits(points, m)
        assert sp.set_str(m) == _set_str(points, m)


def test_masks_off_the_carrier_have_no_labels():
    sp = ft.discrete_space(("a", "b", "c"))
    wide = ft.PMetricSpace([str(i) for i in range(12)], [[0.0] * 12 for _ in range(12)])
    cases = [(sp, 8), (sp, 1 << 9), (sp, -1), (wide, 1 << 12), (wide, 1 << 30), (wide, -5)]
    for n in (8, 12, 16):  # carriers whose masks reach a second byte
        sp = ft.discrete_space([f"d{i}" for i in range(n)])
        cases += [(sp, 1 << n), (sp, -1), (sp, -(1 << 8))]
    for carrier, m in cases:
        with pytest.raises(IndexError):
            carrier.labels(m)
        with pytest.raises(IndexError):
            carrier.set_str(m)


def test_mask_and_index_read_the_labels(divisors):
    assert divisors.mask([]) == 0
    assert divisors.mask(["6", "1", "6"]) == divisors.mask(["1", "6"]) == 0b1001
    assert [divisors.index(p) for p in divisors.points] == [0, 1, 2, 3]
    with pytest.raises(FormatError, match=r"^unknown point 'x'$"):
        divisors.mask(["1", "x", "y"])
    with pytest.raises(FormatError, match=r"^unknown point '5'$"):
        divisors.index("5")


def test_opens_by_size_is_the_listing_order(spaces_up_to_4):
    for sp in spaces_up_to_4:
        want = sorted(sp.opens, key=lambda u: (u.bit_count(), u))
        assert list(sp.opens_by_size) == want


def test_report_rows_filter_the_listing(small_spaces, tmp_path, capsys):
    # a neighbourhood row lists the opens holding the point, a locale point's row those holding its kernel
    top = tmp_path / "s.top"
    for sp in small_spaces[1:]:
        top.write_text(formats.dump_space(sp))
        listing = sorted(sp.opens, key=lambda u: (u.bit_count(), u))

        def row(keep):
            return " ".join(_set_str(sp.points, u) for u in listing if keep(u))

        assert main(["space", "report", "--in", str(top), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["neighborhood_bases"] == [
            {"point": p, "open neighborhoods": row(lambda u: u >> i & 1)} for i, p in enumerate(sp.points)
        ]
        assert main(["locale", "points", "--in", str(top), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["morphisms"] == [
            {"index": i, "top-valued opens": row(lambda u: g & ~u == 0)} for i, g in enumerate(sorted(set(sp.rel)))
        ]


def test_dump_space_and_set_str_join_the_labels(spaces_up_to_4, spaces_on_5):
    # the per-byte label texts against the joined label tuples
    pts = tuple(f"p{i}" if i % 3 else f"long{i}" for i in range(16))
    chain16 = ft.topology_from_poset(ft.Preorder.from_pairs(pts, zip(pts, pts[1:])))
    zigzag = [(pts[i], pts[j]) for i in range(0, 12, 2) for j in (i - 1, i + 1) if 0 <= j < 12]
    fence12 = ft.topology_from_poset(ft.Preorder.from_pairs(pts[:12], zigzag))
    assert len(chain16.opens) == 17 and len(fence12.opens) == 377
    for sp in [*spaces_up_to_4, *spaces_on_5, chain16, fence12, ft.discrete_space(pts)]:
        joined = [" ".join(sp.labels(u)) for u in sp.opens_by_size]
        assert formats.dump_space(sp) == "".join(f"{line}\n" for line in ["points: " + " ".join(sp.points),
                                                                          *("open: " + j for j in joined)])
        assert list(map(sp.set_str, sp.opens_by_size)) == ["{" + j + "}" for j in joined]


def test_dump_load_round_trip_on_discrete_12():
    sp = ft.discrete_space(tuple(f"d{i}" for i in range(12)))
    text = formats.dump_space(sp)
    assert text.count("\nopen: ") == 1 << 12
    back = formats.load_space(text)
    assert back == sp and back.opens == sp.opens
    assert formats.dump_space(back) == text


# -- unknown labels: the messages of every reader ----------------------------------------


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


UNKNOWN_IN_FILES = [
    ("s.top", "points: a b c\nopen: a\nopen: a x\n", ["space", "report", "--in"], "line 3: unknown point 'x'"),
    ("f.fam", "points: a b c\nmember: a b\nmember: x\n", ["check", "base", "--in"], "line 3: unknown point 'x'"),
    ("c.clo", "points: a b\ncl: -> \ncl: a -> a y\n", ["check", "closure-op", "--in"], "line 3: unknown point 'y'"),
    ("l.clo", "points: a b\ncl: q -> a\n", ["build", "from-closure", "--in"], "line 2: unknown point 'q'"),
    ("c.chn", "points: a b c\nrelation 1:\npair: a q\n", ["check", "chain", "--in"], "line 3: unknown point 'q'"),
    # a repeated label keeps its first bit, so {b} is the first entry missing
    ("d.clo", "points: a b a\ncl: -> \ncl: a -> a\n", ["check", "closure-op", "--in"],
     "closure table is missing the entry for {b}"),
]


@pytest.mark.parametrize("name, text, argv, msg", UNKNOWN_IN_FILES, ids=[u[0] for u in UNKNOWN_IN_FILES])
def test_unknown_label_in_a_file(tmp_path, capsys, name, text, argv, msg):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = _run(capsys, argv + [str(path)])
    assert (code, out, err) == (2, "", f"error: {msg}\n")


def test_unknown_label_in_arguments_and_blocks(tmp_path, capsys):
    top = tmp_path / "ok.top"
    top.write_text("points: a b c\nopen: a\n")
    eq = tmp_path / "e.eq"
    eq.write_text("block: a b\nblock: c z\n")
    csv = tmp_path / "m.csv"
    csv.write_text("0,1,2\n1,0,1\n2,1,0\n")
    ranks = tmp_path / "r.rnk"
    ranks.write_text("rank: w1 1\nrank: w2 2\n")
    # an .eq block is a line of a file, so its message names the line
    cases = [
        (["build", "quotient", "--in", str(top), "--classes", str(eq)], "line 2: unknown point 'z'"),
        (["build", "subspace", "--in", str(top), "--keep", "a w"], "unknown point 'w'"),
        (["locale", "implication", "--in", str(top), "--a", "a", "--b", "v"], "unknown point 'v'"),
        (["metric", "hausdorff", "--in", str(csv), "--a", "1 9", "--b", "2"], "unknown point '9'"),
        (["metric", "hausdorff", "--in", str(csv), "--a", "1", "--b", "2 8"], "unknown point '8'"),
        (["metric", "ultrarank", "--in", str(ranks), "--a", "w1", "--b", "w9"], "unknown point 'w9'"),
    ]
    for argv, msg in cases:
        assert _run(capsys, argv) == (2, "", f"error: {msg}\n")


_AB = ("a", "b")
_S2 = ft.FiniteSpace(_AB, (0b11, 0b10))
UNKNOWN_IN_CALLS = [
    ("ultrafilter_at", lambda: ft.ultrafilter_at(_AB, "z"), "unknown point 'z'"),
    ("PointMap.from_dict", lambda: ft.PointMap.from_dict(_S2, _S2, {"a": "a", "b": "z"}), "unknown point 'z'"),
    ("PointMap.from_dict-partial", lambda: ft.PointMap.from_dict(_S2, _S2, {"a": "a"}),
     "map is not total, missing 'b'"),
    # a map that misses a source and has an unknown image is reported as not total
    ("PointMap.from_dict-partial-and-unknown", lambda: ft.PointMap.from_dict(_S2, _S2, {"a": "z"}),
     "map is not total, missing 'b'"),
]


@pytest.mark.parametrize("call, msg", [u[1:] for u in UNKNOWN_IN_CALLS], ids=[u[0] for u in UNKNOWN_IN_CALLS])
def test_unknown_label_in_a_library_call(call, msg):
    with pytest.raises(FormatError) as err:
        call()
    assert str(err.value) == msg


# -- the carrier rule: labels, the cap and the masks of every labelled record ------------


def _units(pts, bad):
    """The singletons of the carrier as a list of masks, the last one replaced by `bad` if given."""
    rows = [1 << i for i in range(len(pts))]
    if bad is not None:
        rows[-1] = bad
    return rows


# record -> (a valid record on the labels, with `bad` in a mask field if given;
# capped at 16 points; holds masks)
CARRIER_RECORDS = {
    "SetFamily": (lambda pts, bad: ft.SetFamily(pts, _units(pts, bad)), True, True),
    "ClosureTable": (lambda pts, bad: ft.ClosureTable(pts, [bad or 0, *range(1, 1 << len(pts))]), True, True),
    "Preorder": (lambda pts, bad: ft.Preorder(pts, _units(pts, bad)), True, True),
    "EquivalenceRelation": (lambda pts, bad: ft.EquivalenceRelation(pts, _units(pts, bad)), True, True),
    "PMetricSpace": (lambda pts, bad: ft.PMetricSpace(pts, [[0.0] * len(pts) for _ in pts]), False, False),
    "RelationChain": (lambda pts, bad: ft.RelationChain(pts, [_units(pts, bad)]), False, True),
    "RankedSets": (lambda pts, bad: ft.RankedSets(pts, [1] * len(pts)), False, False),
}


@pytest.mark.parametrize("name", CARRIER_RECORDS)
def test_carrier_rule_holds_for_every_labelled_record(name):
    """Labels stored as a tuple and distinct, at most 16 unless the record is
    metric-side, and every mask inside the carrier, named in hex if not."""
    build, capped, masked = CARRIER_RECORDS[name]
    rec = build(["a", "b", "c"], None)
    assert rec.points == ("a", "b", "c") and not any(type(v) is list for v in vars(rec).values())
    with pytest.raises(FormatError, match=r"^duplicate point label 'a'$"):
        build(["a", "b", "a"], None)
    wide = [f"p{i}" for i in range(17)]
    if capped:
        with pytest.raises(ft.ValidationError, match=r"^carrier has 17 points, limit is 16$"):
            build(wide, None)
    else:
        assert build(wide, None).points == tuple(wide)
    for bad in (-1, 0b1000, -0b1000) if masked else ():
        with pytest.raises(FormatError, match=rf"^[a-z0-9 ]+ {bad:#x} is not a subset of the carrier$"):
            build(["a", "b", "c"], bad)


# a filter is its kernel mask, not a record: `ultrafilter_at` checks the carrier's
# labels and `limits` checks the kernel against the space's carrier
_S3 = ft.discrete_space(("a", "b", "c"))
FILTER_CALLS = [
    ("ultrafilter_at-repeated", lambda: ft.ultrafilter_at(["a", "b", "a"], "a"), FormatError,
     r"^duplicate point label 'a'$"),
    ("ultrafilter_at-17", lambda: ft.ultrafilter_at([f"p{i}" for i in range(17)], "p0"), ft.ValidationError,
     r"^carrier has 17 points, limit is 16$"),
    ("limits-negative", lambda: ft.limits(_S3, -1), FormatError,
     r"^filter kernel -0x1 is not a subset of the carrier$"),
    ("limits-past", lambda: ft.limits(_S3, 0b1000), FormatError,
     r"^filter kernel 0x8 is not a subset of the carrier$"),
    ("limits-empty", lambda: ft.limits(_S3, 0), ft.ValidationError, r"^filter kernel must be nonempty$"),
]


@pytest.mark.parametrize("call, err, msg", [c[1:] for c in FILTER_CALLS], ids=[c[0] for c in FILTER_CALLS])
def test_filter_calls_keep_the_carrier_rule(call, err, msg):
    with pytest.raises(err, match=msg):
        call()
