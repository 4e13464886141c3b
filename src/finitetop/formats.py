"""Line-oriented text formats for the CLI.

Every format is UTF-8, one record per line, with `#` starting a comment.
Canonical emitters are deterministic: reload of an emitted file compares
equal to the original value.
"""

import math

from .bitsets import bits
from .construct import EquivalenceRelation
from .errors import FormatError
from .logic import Theory, parse_formula
from .pmetric import RankedSets, RelationChain
from .spaces import (
    ClosureTable,
    FiniteSpace,
    Preorder,
    SetFamily,
    _label_bits,
    _mask_of,
    _transitive_closure,
)


def _lines(text):
    """(lineno, line) for every line left nonblank once its `#` comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def _records(text):
    for lineno, line in _lines(text):
        key, colon, rest = line.partition(":")
        if not colon:
            raw = text.splitlines()[lineno - 1].strip()  # the message quotes the comment too
            raise FormatError(f"line {lineno}: expected '<keyword>: ...', got {raw!r}")
        yield lineno, key.strip(), rest.strip()


def _points_first(records, what):
    try:
        lineno, key, rest = next(records)
    except StopIteration:
        raise FormatError(f"empty {what} file") from None
    if key != "points":
        raise FormatError(f"line {lineno}: {what} file must start with a 'points:' line")
    pts = tuple(rest.split())
    if not pts:
        raise FormatError(f"line {lineno}: empty carrier")
    return pts


def load_space(text: str) -> FiniteSpace:
    records = _records(text)
    pts = _points_first(records, "space")
    bit = _label_bits(pts)
    opens = {0, (1 << len(pts)) - 1}
    for lineno, key, rest in records:
        if key != "open":
            raise FormatError(f"line {lineno}: unexpected keyword {key!r} in space file")
        opens.add(_mask_of(bit, rest.split(), lineno))
    return FiniteSpace.from_opens(pts, opens)


def dump_space(space: FiniteSpace) -> str:
    lines = ["points: " + " ".join(space.points)]
    for u in space.opens_by_size:
        lines.append("open: " + " ".join(space.labels(u)))
    return "\n".join(lines) + "\n"


def load_family(text: str) -> SetFamily:
    records = _records(text)
    pts = _points_first(records, "family")
    bit = _label_bits(pts)
    members = []
    for lineno, key, rest in records:
        if key != "member":
            raise FormatError(f"line {lineno}: unexpected keyword {key!r} in family file")
        members.append(_mask_of(bit, rest.split(), lineno))
    return SetFamily(pts, tuple(members))


def load_poset(text: str) -> Preorder:
    records = _records(text)
    pts = _points_first(records, "poset")
    bit = _label_bits(pts)
    rel = [1 << i for i in range(len(pts))]
    for lineno, key, rest in records:
        if key != "le":
            raise FormatError(f"line {lineno}: unexpected keyword {key!r} in poset file")
        parts = rest.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: 'le:' wants exactly two labels")
        a, b = (_mask_of(bit, [p], lineno) for p in parts)
        rel[a.bit_length() - 1] |= b
    return Preorder(pts, _transitive_closure(rel))


def load_closure_table(text: str) -> ClosureTable:
    records = _records(text)
    pts = _points_first(records, "closure table")
    n = len(pts)
    bit = _label_bits(pts)
    table = [None] * (1 << n)
    for lineno, key, rest in records:
        if key != "cl":
            raise FormatError(f"line {lineno}: unexpected keyword {key!r} in closure file")
        if "->" not in rest:
            raise FormatError(f"line {lineno}: 'cl:' wants '<subset> -> <closure>'")
        left, right = rest.split("->", 1)
        table[_mask_of(bit, left.split(), lineno)] = _mask_of(bit, right.split(), lineno)
    for m, v in enumerate(table):
        if v is None:
            miss = " ".join(pts[i] for i in bits(m)) or "(empty set)"
            raise FormatError(f"closure table is missing the entry for {{{miss}}}")
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
    bit = space._bits
    blocks = []
    for lineno, key, rest in _records(text):
        if key != "block":
            raise FormatError(f"line {lineno}: unexpected keyword {key!r} in equivalence file")
        blocks.append(_mask_of(bit, rest.split(), lineno))
    return EquivalenceRelation(space.points, tuple(blocks))


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


def load_matrix(text: str):
    """CSV matrix; entries may be decimals or fractions like 1/3.

    A line without a slash is all decimals, so `float` reads it whole: it
    strips the same whitespace as `str.strip`, and `_cell`'s finiteness
    check follows in one pass. Its -0 rule needs a pass only on a line with
    a minus sign, the one way `float` gives -0.0.
    """
    rows = []
    for lineno, line in _lines(text):
        cells = line.split(",")
        try:
            if "/" in line:
                rows.append([_cell(cell.strip()) for cell in cells])
            else:
                row = list(map(float, cells))
                if not all(map(math.isfinite, row)):
                    raise ValueError(line)
                rows.append([v + 0.0 for v in row] if "-" in line else row)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise FormatError(f"line {lineno}: bad matrix entry") from None
    if not rows:
        raise FormatError("empty matrix file")
    return rows


def load_chain(text: str) -> RelationChain:
    records = _records(text)
    pts = _points_first(records, "chain")
    n = len(pts)
    bit = _label_bits(pts)
    relations = []
    current = None
    expect = 1
    for lineno, key, rest in records:
        if key.startswith("relation"):
            parts = key.split()
            try:
                level = int(parts[1]) if len(parts) == 2 else int(rest)
            except (ValueError, IndexError):
                raise FormatError(f"line {lineno}: 'relation <k>:' wants an integer level") from None
            if level != expect:
                raise FormatError(f"line {lineno}: expected 'relation {expect}:'")
            expect += 1
            current = [1 << i for i in range(n)]
            relations.append(current)
        elif key == "pair":
            if current is None:
                raise FormatError(f"line {lineno}: 'pair:' before any 'relation:' header")
            parts = rest.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: 'pair:' wants exactly two labels")
            a, b = (_mask_of(bit, [p], lineno) for p in parts)
            i, j = a.bit_length() - 1, b.bit_length() - 1
            current[i] |= 1 << j
            current[j] |= 1 << i
        else:
            raise FormatError(f"line {lineno}: unexpected keyword {key!r} in chain file")
    return RelationChain(pts, tuple(tuple(rel) for rel in relations))


def load_ranks(text: str) -> RankedSets:
    pts = []
    ranks = []
    for lineno, key, rest in _records(text):
        if key != "rank":
            raise FormatError(f"line {lineno}: unexpected keyword {key!r} in rank file")
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
    return Theory.of([parse_formula(line) for _, line in _lines(text)])
