"""Line-oriented text formats for the CLI.

Every format is UTF-8, one record per line, with `#` starting a comment.
Canonical emitters are deterministic: reload of an emitted file compares
equal to the original value.
"""

import math
from itertools import compress, count, islice, repeat
from operator import itemgetter

from .construct import EquivalenceRelation
from .errors import FormatError
from .logic import Theory, parse_formula
from .pmetric import RankedSets, RelationChain
from .spaces import (
    ClosureTable,
    FiniteSpace,
    MAX_POINTS,
    Preorder,
    SetFamily,
    _check_labels,
    _label_bits,
    _labels,
    _mask_of,
    _reads_back,
    _tables_by_byte,
    _transitive_closure,
)


def _lines(text):
    """(lineno, line) for every line left nonblank once its `#` comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip() if "#" in raw else raw.strip()
        if line:
            yield lineno, line


def _labelled(text, what, wants, points=None):
    """A labelled file read in bulk: (points, label -> bit map, body, records, fault).

    Without `points` the first record must be a nonempty `points:` line; an
    `.eq` file is read against the carrier it is given, and a `.rnk` file
    against the empty one. `body` holds the (keyword, ":", rest) split of the
    later nonblank lines before the first one refused (no colon, or a keyword
    `wants` does not take), and `fault` is that line's error, or None.
    `records` yields the body as (line number, keyword, rest) and then raises
    `fault`; a loader that checks `body` in bulk raises `fault` itself. Either
    way a file with two faults reports the earlier line.
    """
    raw = text.splitlines()
    lines = list(map(str.strip, [line.partition("#")[0] for line in raw] if "#" in text else raw))
    parts = list(map(str.partition, filter(None, lines), repeat(":")))
    first = points is None  # parts[0] is the `points:` line

    def refused(k):
        key, colon, _ = parts[k]
        n = next(islice(compress(count(1), lines), k, None))
        if not colon:  # the message quotes the comment too
            message = f"expected '<keyword>: ...', got {raw[n - 1].strip()!r}"
        elif k < first:
            message = "empty carrier" if key.strip() == "points" else f"{what} file must start with a 'points:' line"
        else:  # a closure table file is a "closure file" here
            message = f"unexpected keyword {key.strip()!r} in {what.removesuffix(' table')} file"
        return FormatError(f"line {n}: {message}")

    if first:
        if not parts:
            raise FormatError(f"empty {what} file")
        key, colon, rest = parts[0]
        points = tuple(rest.split())
        if not (colon and key.strip() == "points" and points):
            raise refused(0)
    body, fault = parts[first:], None
    if not all(map(itemgetter(1), body)) or not all(wants(key.strip()) for key in set(map(itemgetter(0), body))):
        k = next(k for k, (key, colon, _) in enumerate(body) if not (colon and wants(key.strip())))
        body, fault = body[:k], refused(k + first)

    def records():
        for lineno, (key, _, rest) in zip(islice(compress(count(1), lines), first, None), body):
            yield lineno, key.strip(), rest
        if fault:
            raise fault

    return points, _label_bits(points), body, records(), fault


def _masks(text, what, key, points=None):
    """The carrier and the mask of each `<key>: <labels>` line."""
    points, bit, body, records, fault = _labelled(text, what, key.__eq__, points)
    try:
        masks = [_mask_of(bit, rest.split()) for _, _, rest in body]
    except FormatError:  # again, line by line, to name the first line with an unknown label
        for lineno, _, rest in records:
            _mask_of(bit, rest.split(), lineno)
    if fault:
        raise fault
    return points, masks


def _pair(bit, lineno, key, rest):
    """The indices of the two labels of a `<key>: <a> <b>` line."""
    parts = rest.split()
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: '{key}:' wants exactly two labels")
    return tuple(_mask_of(bit, [p], lineno).bit_length() - 1 for p in parts)


def load_space(text: str) -> FiniteSpace:
    pts, masks = _masks(text, "space", "open")
    return FiniteSpace.from_opens(pts, {0, (1 << len(pts)) - 1, *masks})


def dump_space(space: FiniteSpace) -> str:
    if not _reads_back(space.points):
        bad = next(p for p in space.points if not _reads_back((p,)))
        raise FormatError(f"point label {bad!r} is empty or holds whitespace or '#'")
    lo, hi = _tables_by_byte([" " + p for p in space.points])
    lines = ["points: " + " ".join(space.points), "open: "]  # the empty open comes first
    lines += ["open:" + lo[u & 255] + hi[u >> 8] for u in space.opens_by_size[1:]]
    return "\n".join(lines) + "\n"


def load_family(text: str) -> SetFamily:
    pts, masks = _masks(text, "family", "member")
    return SetFamily(pts, tuple(masks))


def load_poset(text: str) -> Preorder:
    pts, bit, _, records, _ = _labelled(text, "poset", "le".__eq__)
    rel = [1 << i for i in range(len(pts))]
    for lineno, key, rest in records:
        i, j = _pair(bit, lineno, key, rest)
        rel[i] |= 1 << j
    return Preorder(pts, _transitive_closure(rel))


def load_closure_table(text: str) -> ClosureTable:
    pts, bit, _, records, _ = _labelled(text, "closure table", "cl".__eq__)
    if len(pts) > MAX_POINTS:  # the carrier cap, before the 2^n table is allocated
        _check_labels(pts)
    table = [None] * (1 << len(pts))

    def subset(m):
        return "{" + (" ".join(_labels(pts, m)) or "(empty set)") + "}"

    for lineno, _, rest in records:
        if "->" not in rest:
            raise FormatError(f"line {lineno}: 'cl:' wants '<subset> -> <closure>'")
        left, right = rest.split("->", 1)
        m = _mask_of(bit, left.split(), lineno)
        if table[m] is not None:
            raise FormatError(f"line {lineno}: the entry for {subset(m)} is given twice")
        table[m] = _mask_of(bit, right.split(), lineno)
    for m, v in enumerate(table):
        if v is None:
            raise FormatError(f"closure table is missing the entry for {subset(m)}")
    return ClosureTable(pts, tuple(table))


def load_map(text: str) -> dict:
    mapping = {}
    for lineno, line in _lines(text):
        if "->" not in line:
            raise FormatError(f"line {lineno}: expected '<source> -> <target>'")
        src, dst = (part.strip() for part in line.split("->", 1))
        if not src or not dst:
            raise FormatError(f"line {lineno}: expected '<source> -> <target>'")
        if src in mapping:
            raise FormatError(f"line {lineno}: point {src!r} mapped twice")
        mapping[src] = dst
    if not mapping:
        raise FormatError("empty map file")
    return mapping


def load_equivalence(text: str, space: FiniteSpace) -> EquivalenceRelation:
    pts, masks = _masks(text, "equivalence", "block", space.points)
    return EquivalenceRelation(pts, tuple(masks))


def _cell(text: str) -> float:
    """A matrix entry as the nearest float, in the grammar of the `fractions` module.

    A decimal goes through `float` and `p/q` through integer true division;
    both round once, so the value is the exact rational rounded to a float.
    The checks on the digits around the slash refuse what `int` would take
    and the rational parser does not: a sign on q, or spaces next to the
    slash. Adding 0.0 reads -0 as 0, as the exact rational does (a negative
    value that underflows, which the rational rounds to -0.0, reads as 0 too).
    """
    p, slash, q = text.partition("/")
    if slash:
        if not (p[-1:].isdigit() and q[:1].isdigit()):
            raise ValueError(text)
        v = int(p) / int(q)
    else:
        v = float(text)
    if not math.isfinite(v):
        raise ValueError(text)
    return v + 0.0


def _matrix(text, read_row):
    """The rows `read_row(line, cells)` reads; a cell it refuses fails its line as a bad entry."""
    rows = []
    for lineno, line in _lines(text):
        try:
            rows.append(read_row(line, line.split(",")))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise FormatError(f"line {lineno}: bad matrix entry") from None
    if not rows:
        raise FormatError("empty matrix file")
    return rows


def _float_row(line, cells):
    """A row of nearest floats: each distinct text once through `_cell` on a line with a slash
    (a damped web row holds two or three), and else the line through `float` at C speed, then
    `_cell`'s finiteness check in one pass and, on a line with a minus sign, its -0 rule in one."""
    if "/" in line:
        value = {cell: _cell(cell.strip()) for cell in set(cells)}
        return list(map(value.__getitem__, cells))
    row = list(map(float, cells))
    if not all(map(math.isfinite, row)):
        raise ValueError(line)
    return [v + 0.0 for v in row] if "-" in line else row


def _exact_row(line, cells, value):
    """The numbers the cells write, in `_cell`'s grammar: on a line with none of `. / e E n N`, whole
    numbers, which `float` reads exactly below 2^53; else each distinct text once as a `Fraction`, or
    its float if equal, refused past the float range but not 0 below it. An exponent past 4300, the
    digits Python reads into an int, is refused before 10 is raised to it. `value` holds the texts read."""
    if not ("." in line or "/" in line or "e" in line or "E" in line or "n" in line or "N" in line):
        row = list(map(float, cells))
        if max(row) < 2**53 and "-" not in line:
            return row
        row = _float_row(line, cells)  # finite, and 0 for -0; a negative entry is refused whatever its value
        return row if max(row) < 2**53 else list(map(int, cells))
    from fractions import Fraction

    for cell in set(cells).difference(value):
        if abs(int(cell.lower().partition("e")[2] or 0)) > 4300:
            raise ValueError(cell)
        v = Fraction(cell)
        f = float(v)  # OverflowError past the float range
        value[cell] = f if f == v else v
    return list(map(value.__getitem__, cells))


def load_matrix(text: str):
    """CSV matrix of nearest floats; entries may be decimals or fractions like 1/3."""
    return _matrix(text, _float_row)


def load_distances(text: str):
    """CSV distance matrix, each entry the int, float or Fraction equal to the number it writes."""
    value = {}  # one object per distinct text in the file
    return _matrix(text, lambda line, cells: _exact_row(line, cells, value))


def load_chain(text: str) -> RelationChain:
    pts, bit, _, records, _ = _labelled(text, "chain", lambda key: key == "pair" or key.split()[:1] == ["relation"])
    relations = []
    current = None
    expect = 1
    for lineno, key, rest in records:
        if key == "pair":
            if current is None:
                raise FormatError(f"line {lineno}: 'pair:' before any 'relation:' header")
            i, j = _pair(bit, lineno, key, rest)
            current[i] |= 1 << j
            current[j] |= 1 << i
        else:
            try:
                _, level = key.split()
                level = int(level)
            except ValueError:
                raise FormatError(f"line {lineno}: 'relation <k>:' wants an integer level") from None
            if level != expect:
                raise FormatError(f"line {lineno}: expected 'relation {expect}:'")
            expect += 1
            current = [1 << i for i in range(len(pts))]
            relations.append(current)
    return RelationChain(pts, tuple(tuple(rel) for rel in relations))


def load_ranks(text: str) -> RankedSets:
    _, _, _, records, _ = _labelled(text, "rank", "rank".__eq__, ())  # the labels come from the records
    pts = []
    ranks = []
    for lineno, _, rest in records:
        parts = rest.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: 'rank:' wants '<label> <positive int>'")
        try:
            r = int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: rank must be an integer") from None
        pts.append(parts[0])
        ranks.append(r)
    return RankedSets(tuple(pts), tuple(ranks))


def load_theory(text: str) -> Theory:
    """One formula per line, over the variables the parser reads, sorted."""
    formulas, atoms = [], {}
    for lineno, line in _lines(text):
        try:
            formulas.append(parse_formula(line, atoms))
        except FormatError as err:  # a syntax error, or the depth cap
            raise FormatError(f"line {lineno}: {err}") from None
    return Theory(formulas, sorted(atoms))
