"""Definitional oracles for the derivations in `finitetop`.

Each function follows a textbook definition by sweeping subsets, pairs of
opens, families of opens, valuations, radii or triples of points, and
shares no shortcut with the library code it is compared against: none of
them reads a space's kernel vector `rel` or a truth table, apart from
`atoms_of`, which lists the set bits of an algebra's top, `stone_image`, built on it,
`closure_table_by_scan`, which runs the kernel scan `closure` on every
subset against the table built from the point closures, and `evaluate`,
the library's `_fold` on one valuation, a pass independent of the
polarity-carrying fold in `Theory.table_of` and kept as the reference
semantics for its tables, checked against the tree walk `truth`. They are
exponential and meant for carriers of up to 5 points and theories of up
to 16 variables. `parse_formula_by_descent` is the generic recursive
descent the parser replaced, one method over a table of levels, with the
depth and variables of its trees from the same `_fold` as `evaluate`.
`labelled_by_lines` is the line-at-a-time reader of labelled files that
the bulk `formats._labelled` replaced, with the loaders built on it.
`opens_from_balls` is the open-ball route to a pseudometric's topology
that the zero classes of `topology_from_pmetric` replaced, and
`quotient_fault` the pair-by-pair check of a quotient distance that
`metric_quotient`'s row tests replaced.
"""

import math
import re
from fractions import Fraction
from itertools import combinations, product
from operator import and_, not_, or_

from finitetop.approx import gauss_legendre, kernel_mass
from finitetop.bitsets import bits, is_subset, subsets
from finitetop.errors import FormatError, ValidationError
from finitetop.formats import _cell
from finitetop.logic import (
    BOT,
    MAX_DEPTH,
    MAX_NESTING,
    TOP,
    And,
    Const,
    Not,
    Var,
    _fold,
    biconditional,
    disjunction,
    implication,
)
from finitetop.construct import EquivalenceRelation
from finitetop.pmetric import NonConvergence, RankedSets, RelationChain
from finitetop.spaces import (
    MAX_POINTS,
    ClosureTable,
    FiniteSpace,
    Preorder,
    SetFamily,
    _check_labels,
    _transitive_closure,
)


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def labels_by_bits(points, mask):
    """The labels of the set bits, one bit at a time."""
    return tuple(points[i] for i in bits(mask))


def closed_sets(space):
    """Complements of the opens."""
    return frozenset(space.full & ~u for u in space.opens)


def smallest_open_superset(space, mask):
    """Intersection of every open containing the set."""
    out = space.full
    for u in space.opens:
        if is_subset(mask, u):
            out &= u
    return out


# -- spaces --------------------------------------------------------------------


def is_topology(n, family):
    """Contains the empty set and the carrier, and is closed under pairwise union and intersection."""
    fam = set(family)
    return {0, (1 << n) - 1} <= fam and all(a | b in fam and a & b in fam for a in fam for b in fam)


def all_topologies_by_families(n):
    """The open-set families of every topology on n points, by testing every family."""
    full = (1 << n) - 1
    mids = list(range(1, full))
    families = (
        {0, full} | {m for i, m in enumerate(mids) if pick >> i & 1} for pick in range(1 << len(mids))
    )
    return [frozenset(fam) for fam in families if is_topology(n, fam)]


def separation_by_closed_sets(space):
    """(t0, t1, t2, t3, t4) by sweeping points and pairs of closed sets.

    The disjoint-neighbourhood quantifiers are decided on the smallest open
    supersets, which only helps to separate.
    """
    pts = range(space.n)
    ops = space.opens
    closed = closed_sets(space)
    mos = {f: smallest_open_superset(space, f) for f in closed}
    t0 = all(any((u >> x & 1) != (u >> y & 1) for u in ops) for x in pts for y in pts if x < y)
    t1 = all(any(u >> x & 1 and not u >> y & 1 for u in ops) for x in pts for y in pts if x != y)
    t2 = all(
        smallest_open_superset(space, 1 << x) & smallest_open_superset(space, 1 << y) == 0
        for x in pts
        for y in pts
        if x < y
    )
    t3 = all(
        smallest_open_superset(space, 1 << x) & mos[f] == 0
        for x in pts
        for f in closed
        if not f >> x & 1
    )
    t4 = all(mos[f] & mos[g] == 0 for f in closed for g in closed if f & g == 0)
    return t0, t1, t2, t3, t4


def is_antisymmetric(order):
    """No two distinct points lie below each other, over all pairs."""
    return all(
        not (order.rel[i] >> j & order.rel[j] >> i & 1) for i in range(order.n) for j in range(order.n) if i != j
    )


def opens_from_kernels_by_subsets(n, kernels):
    """Every set that contains the given kernel of each of its points."""
    return frozenset(
        u for u in subsets((1 << n) - 1) if all(is_subset(kernels[i], u) for i in bits(u))
    )


def table_from_function(points, fn):
    """The closure table whose entry at every subset A of `points` is fn(A)."""
    return ClosureTable(tuple(points), tuple(fn(a) for a in range(1 << len(points))))


def down_set_table(order):
    """Closure table of a preorder: A |-> all points below some point of A."""
    n = order.n
    return table_from_function(
        order.points,
        lambda a: sum(1 << i for i in range(n) if any(order.rel[i] >> j & 1 for j in bits(a))),
    )


def closure_axioms_hold(table):
    """The Kuratowski axioms, additivity checked on every pair of subsets."""
    t, full = table.table, table.full
    if t[0] != 0 or t[full] != full:
        return False
    if any(not is_subset(a, t[a]) or t[t[a]] != t[a] for a in subsets(full)):
        return False
    return all(t[a | b] == t[a] | t[b] for a in subsets(full) for b in subsets(full))


def closure_table_by_scan(space):
    """The induced closure table, one `closure` kernel scan per subset (2^n calls)."""
    return table_from_function(space.points, space.closure)


def closure_fault_by_scan(table):
    """(message, witness) of the first Kuratowski axiom the table fails, or None.

    The axioms in `ClosureTable.validate`'s order, each scanned subset by
    subset: the empty set, the carrier, A <= cl(A) and idempotence together,
    then additivity one point at a time, cl(A) = cl(A - {x}) | cl({x}) for
    the lowest point x of A.
    """
    t = table.table
    if t[0] != 0:
        return "closure axiom cl(empty)=empty fails", {"value": table.labels(t[0])}
    if t[table.full] != table.full:
        return "closure axiom cl(X)=X fails", {"value": table.labels(t[table.full])}
    for a in subsets(table.full):
        if not is_subset(a, t[a]):
            return "closure axiom A <= cl(A) fails", {"A": table.labels(a)}
        if t[t[a]] != t[a]:
            return "closure axiom cl(cl(A))=cl(A) fails", {"A": table.labels(a)}
    for a in subsets(table.full):
        low, rest = a & -a, a & (a - 1)
        if t[a] != t[low] | t[rest]:
            witness = {"A": table.labels(low), "B": table.labels(rest)}
            return "closure axiom cl(A|B)=cl(A)|cl(B) fails", witness
    return None


# -- construct -----------------------------------------------------------------


def continuity_witness_by_opens(f):
    """Smallest target open whose preimage is not open, or None."""
    for h in sorted(f.target.opens):
        if f.preimage(h) not in f.source.opens:
            return h
    return None


def final_opens_by_subsets(points, factors):
    """Sets whose preimage under every (source, assignment) factor is open upstairs."""
    opens = set()
    for h in subsets((1 << len(points)) - 1):
        if all(
            sum(1 << i for i, j in enumerate(idx) if h >> j & 1) in source.opens
            for source, idx in factors
        ):
            opens.add(h)
    return frozenset(opens)


# -- filters -------------------------------------------------------------------


def principal_members(full, kernel):
    """Every member set of the principal filter with this kernel on the carrier `full`, ascending."""
    return [m for m in subsets(full) if is_subset(kernel, m)]


def decides_every_set(full, kernel):
    """Definitional ultrafilter test: every subset or its complement belongs."""
    members = set(principal_members(full, kernel))
    return all(a in members or full & ~a in members for a in subsets(full))


def filter_from_base(points, base):
    """Kernel of the filter a base generates: the intersection of its members, if nonempty."""
    base = list(base)
    if not base:
        raise ValidationError("a filter base must be nonempty")
    kernel = (1 << len(points)) - 1
    for m in base:
        kernel &= m
    if kernel == 0:
        raise ValidationError("improper filter: the base members have empty intersection")
    return kernel


def trace_filter(full, kernel, mask):
    """Kernel of the trace {m ∩ A : m a member} on A = `mask`, over A's own points in carrier order.

    The trace's members are the sets m & mask, so its kernel is the
    smallest of them; it is a filter iff that kernel is nonempty.
    """
    if not 0 <= mask <= full:
        raise FormatError(f"trace set {mask:#x} is not a subset of the carrier")
    meet = mask
    for m in principal_members(full, kernel):
        meet &= m
    if meet == 0:
        raise ValidationError("trace is not a filter: the kernel misses the set")
    return sum(1 << j for j, i in enumerate(bits(mask)) if meet >> i & 1)


# -- locales -------------------------------------------------------------------


def preserves_lattice_structure(space, top_opens):
    """Morphism axioms: finite meets and arbitrary joins, pairwise suffices."""
    if 0 in top_opens or space.full not in top_opens:
        return False
    ops = space.opens
    for u in ops:
        for v in ops:
            if ((u & v) in top_opens) != (u in top_opens and v in top_opens):
                return False
            if ((u | v) in top_opens) != (u in top_opens or v in top_opens):
                return False
    return True


def is_completely_prime_filter(space, fam):
    if not fam or 0 in fam:
        return False
    for u in fam:
        for v in space.opens:
            if is_subset(u, v) and v not in fam:
                return False  # not upward closed
    for u in fam:
        for v in fam:
            if u & v not in fam:
                return False  # not meet closed
    for u in space.opens:
        for v in space.opens:
            if (u | v) in fam and u not in fam and v not in fam:
                return False  # not prime (finite unions reach all unions)
    return True


def join_irreducible_opens(space):
    """Nonempty opens that are not the union of the opens strictly below them."""
    out = []
    for g in sorted(space.opens):
        if g == 0:
            continue
        below = _union(u for u in space.opens if u != g and is_subset(u, g))
        if below != g:
            out.append(g)
    return out


def locale_points_by_join_irreducibles(space):
    """Top-valued opens of every locale point: the up-sets of the join-irreducible opens."""
    return [
        frozenset(u for u in space.opens if is_subset(g, u)) for g in join_irreducible_opens(space)
    ]


def is_irreducible_nary(space, f):
    """Literal n-ary irreducibility of a closed set.

    f is reducible iff some family of closed sets covers it while no member
    contains it; a family with a member containing f never witnesses that,
    so only families of the other closed sets are swept.
    """
    closed = closed_sets(space)
    if f == 0 or f not in closed:
        return False
    others = [g for g in sorted(closed) if not is_subset(f, g)]
    for r in range(len(others) + 1):
        for fam in combinations(others, r):
            if is_subset(f, _union(fam)):
                return False
    return True


def heyting_by_opens(space, a, b):
    """Union of every open whose meet with `a` lies below `b`."""
    return _union(u for u in space.opens if is_subset(u & a, b))


def filter_members(space, g):
    """Every open containing the generator g of a filter of opens, ascending."""
    return sorted(u for u in space.opens if is_subset(g, u))


def filter_intersection(space, g):
    """Intersection of every member of the filter of opens generated by g."""
    out = space.full
    for u in filter_members(space, g):
        out &= u
    return out


def saturated_sets(space):
    """Nonempty sets equal to the intersection of the opens containing them, ascending."""
    return [m for m in range(1, space.full + 1) if smallest_open_superset(space, m) == m]


def proper_open_filters(space):
    """The proper filters of the opens, each as its generator, a nonempty open, ascending.

    On a finite lattice a filter holds the meet of its members, so it is the
    principal filter of that meet; it is proper iff the meet is nonempty.
    """
    return [g for g in sorted(space.opens) if g]


def hofmann_mislove_bijection(space, report):
    """The filters' intersections are distinct, are exactly the nonempty saturated sets,
    and are the report's saturated compacts in the filters' order.
    """
    inters = [filter_intersection(space, g) for g in proper_open_filters(space)]
    return sorted(inters) == saturated_sets(space) == list(report.saturated_compacts) == inters


def hofmann_mislove_mirrors(space):
    """Containment of filters (as families) mirrors reverse inclusion of their intersections."""
    filters = proper_open_filters(space)
    members = [set(filter_members(space, g)) for g in filters]
    inters = [filter_intersection(space, g) for g in filters]
    return all(
        (members[i] <= members[j]) == is_subset(inters[j], inters[i])
        for i in range(len(members))
        for j in range(len(members))
    )


def _is_directed(order, members):
    """Every pair of members has an upper bound among the members."""
    s = _union(1 << m for m in members)
    return all(order.rel[a] & order.rel[b] & s for a in members for b in members)


def directed_subsets(order):
    """Nonempty directed subsets, as (mask, members).

    Such a finite set contains an upper bound of all its members.
    """
    out = []
    for s in subsets((1 << order.n) - 1):
        members = list(bits(s))
        if members and _is_directed(order, members):
            out.append((s, members))
    return out


def sup_of_directed(order, members):
    """The member above all the others, or None."""
    for c in members:
        if all(order.rel[m] >> c & 1 for m in members):
            return c
    return None


def scott_opens_by_directed(order):
    """Up-sets that no directed set enters by its supremum alone."""
    sups = [(s, sup_of_directed(order, members)) for s, members in directed_subsets(order)]
    return frozenset(
        u
        for u in subsets((1 << order.n) - 1)
        if all(is_subset(order.rel[i], u) for i in bits(u))
        and all(not u >> sup & 1 or s & u for s, sup in sups)
    )


def preserves_directed_sups(p, q, f):
    """f (index list) sends every directed set of p to a directed set of q with the image sup."""
    for _, members in directed_subsets(p):
        image = [f[m] for m in members]
        if not _is_directed(q, image) or sup_of_directed(q, image) != f[sup_of_directed(p, members)]:
            return False
    return True


# -- logic ---------------------------------------------------------------------


def truth(formula, true_vars):
    """The formula's value under the valuation, by walking the tree."""
    if isinstance(formula, Var):
        return formula.name in true_vars
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Not):
        return not truth(formula.arg, true_vars)
    return truth(formula.left, true_vars) and truth(formula.right, true_vars)


def evaluate(formula, true_vars):
    """The formula's value under the valuation, by `logic._fold` with `not` for `~` and `and` for `&`.

    An independent pass: `Theory.table_of` folds tables carrying each
    node's polarity instead. Bit m of `theory.table_of(formula)` must be
    this value at the m-th valuation.
    """
    return _fold(formula, true_vars.__contains__, True, False, not_, and_)


def variables_by_fold(formula) -> frozenset:
    return _fold(formula, lambda name: frozenset((name,)), frozenset(), frozenset(), lambda a: a, or_)


def depth_by_fold(formula) -> int:
    """Connectives on the longest path from the root to a variable or constant."""
    return _fold(formula, lambda name: 0, 0, 0, lambda a: a + 1, lambda a, b: max(a, b) + 1)


def size_by_fold(formula) -> int:
    """Connectives in the printed form, each '~' and '&' once per occurrence."""
    return _fold(formula, lambda name: 0, 0, 0, lambda a: a + 1, lambda a, b: a + b + 1)


_TOKEN = re.compile(r"\s*(<->|->|[()&|~]|[a-z][a-z0-9_]*)")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormatError(f"syntax error at position {pos}: {text[pos:].strip()[:10]!r}")
            break
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


# binary connectives, loosest first: token and constructor
_BINARY = (("<->", biconditional), ("->", implication), ("|", disjunction), ("&", And))
_CONSTANTS = {"top": TOP, "bot": BOT}


class _DescentParser:
    """Recursive descent; precedence ~ > & > | > -> (right) > <->."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        self.pos += 1

    def fail(self, expected):
        if self.pos < len(self.tokens):
            tok, at = self.tokens[self.pos]
            raise FormatError(f"syntax error at position {at}: unexpected {tok!r}, wanted {expected}")
        raise FormatError(f"syntax error at end of input: wanted {expected}")

    def nested(self, parse, *args):
        """Run a parse one level of '~', '(' or '->' further in."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise FormatError(f"formula nests '~', '(' and '->' more than {MAX_NESTING} deep")
        f = parse(*args)
        self.nesting -= 1
        return f

    def parse(self):
        f = self.binary()
        if self.peek() is not None:
            self.fail("end of input")
        if depth_by_fold(f) > MAX_DEPTH:
            raise FormatError(f"formula is more than {MAX_DEPTH} connectives deep")
        return f

    def binary(self, level=0):
        """A chain of the level's connective over operands that bind tighter.

        '->' groups to the right, and each arrow is one nesting level.
        """
        if level == len(_BINARY):
            return self.atom()
        op, make = _BINARY[level]
        f = self.binary(level + 1)
        while self.peek() == op:
            self.take()
            if op == "->":
                return make(f, self.nested(self.binary, level))
            f = make(f, self.binary(level + 1))
        return f

    def atom(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return Not(self.nested(self.atom))
        if tok == "(":
            self.take()
            f = self.nested(self.binary)
            if self.peek() != ")":
                self.fail("')'")
            self.take()
            return f
        if tok in _CONSTANTS:
            self.take()
            return _CONSTANTS[tok]
        if tok is not None and re.fullmatch(r"[a-z][a-z0-9_]*", tok):
            self.take()
            return Var(tok)
        self.fail("a variable, constant, '~' or '('")


def parse_formula_by_descent(text):
    """The tree, or the FormatError, of the parser before it counted depth and size as it went.

    It has no cap on the printed size.
    """
    return _DescentParser(text).parse()


def models(theory):
    """Valuations satisfying every formula, lexicographic with bot before top."""
    out = []
    for values in product((False, True), repeat=len(theory.vars)):
        v = frozenset(name for name, on in zip(theory.vars, values) if on)
        if all(truth(f, v) for f in theory.formulas):
            out.append(v)
    return out


def atoms_of(algebra):
    """The atoms of a Lindenbaum algebra, one single-model bit per model."""
    return [1 << m for m in bits(algebra.top)]


def stone_image(algebra, element):
    """The ultrafilters containing the element, bit m standing for the ultrafilter of atom 1 << m.

    On a finite Boolean algebra the ultrafilters are the up-sets of the atoms,
    so the one of atom u contains the element iff u lies below it.
    """
    atoms = (1 << m for m in bits(algebra.top))  # atoms_of, one at a time
    return _union(u for u in atoms if u & element == u)


# -- labelled files --------------------------------------------------------------


def _lines(text):
    """(lineno, line, raw) for every line left nonblank once its `#` comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line, raw


def _mask_at(bit, labels, lineno):
    """Union of the labels' bits; an unknown label is a format error on its line."""
    m = 0
    for lab in labels:
        if lab not in bit:
            raise FormatError(f"line {lineno}: unknown point {lab!r}")
        m |= bit[lab]
    return m


def labelled_by_lines(text, what, wants, points=None):
    """A labelled file, read lazily: first (points, label -> bit map), then (lineno, key, rest) per body line.

    A loader meets the faults in line order, whichever check each one meets.
    """
    if points is not None:
        yield points, {p: 1 << i for i, p in reversed(tuple(enumerate(points)))}
    for lineno, line, raw in _lines(text):
        key, colon, rest = line.partition(":")
        if not colon:
            raise FormatError(f"line {lineno}: expected '<keyword>: ...', got {raw.strip()!r}")
        key, rest = key.strip(), rest.strip()
        if points is None:
            if key != "points":
                raise FormatError(f"line {lineno}: {what} file must start with a 'points:' line")
            points = tuple(rest.split())
            if not points:
                raise FormatError(f"line {lineno}: empty carrier")
            yield points, {p: 1 << i for i, p in reversed(tuple(enumerate(points)))}
        elif wants(key):
            yield lineno, key, rest
        else:
            raise FormatError(f"line {lineno}: unexpected keyword {key!r} in {what.removesuffix(' table')} file")
    if points is None:
        raise FormatError(f"empty {what} file")


def _masks_by_lines(text, what, key, points=None):
    records = labelled_by_lines(text, what, key.__eq__, points)
    points, bit = next(records)
    return points, [_mask_at(bit, rest.split(), lineno) for lineno, _, rest in records]


def _pair_at(bit, lineno, key, rest):
    parts = rest.split()
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: '{key}:' wants exactly two labels")
    return tuple(_mask_at(bit, [p], lineno).bit_length() - 1 for p in parts)


def load_space_by_lines(text):
    pts, masks = _masks_by_lines(text, "space", "open")
    return FiniteSpace.from_opens(pts, {0, (1 << len(pts)) - 1, *masks})


def load_family_by_lines(text):
    pts, masks = _masks_by_lines(text, "family", "member")
    return SetFamily(pts, tuple(masks))


def load_equivalence_by_lines(text, space):
    pts, masks = _masks_by_lines(text, "equivalence", "block", space.points)
    return EquivalenceRelation(pts, tuple(masks))


def load_poset_by_lines(text):
    records = labelled_by_lines(text, "poset", "le".__eq__)
    pts, bit = next(records)
    rel = [1 << i for i in range(len(pts))]
    for lineno, key, rest in records:
        i, j = _pair_at(bit, lineno, key, rest)
        rel[i] |= 1 << j
    return Preorder(pts, _transitive_closure(rel))


def load_closure_table_by_lines(text):
    records = labelled_by_lines(text, "closure table", "cl".__eq__)
    pts, bit = next(records)
    if len(pts) > MAX_POINTS:
        _check_labels(pts)
    table = [None] * (1 << len(pts))

    def subset(m):
        return "{" + (" ".join(pts[i] for i in bits(m)) or "(empty set)") + "}"

    for lineno, _, rest in records:
        if "->" not in rest:
            raise FormatError(f"line {lineno}: 'cl:' wants '<subset> -> <closure>'")
        left, right = rest.split("->", 1)
        m = _mask_at(bit, left.split(), lineno)
        if table[m] is not None:
            raise FormatError(f"line {lineno}: the entry for {subset(m)} is given twice")
        table[m] = _mask_at(bit, right.split(), lineno)
    for m, v in enumerate(table):
        if v is None:
            raise FormatError(f"closure table is missing the entry for {subset(m)}")
    return ClosureTable(pts, tuple(table))


def load_chain_by_lines(text):
    records = labelled_by_lines(text, "chain", lambda key: key == "pair" or key.split()[:1] == ["relation"])
    pts, bit = next(records)
    relations = []
    current = None
    for lineno, key, rest in records:
        if key == "pair":
            if current is None:
                raise FormatError(f"line {lineno}: 'pair:' before any 'relation:' header")
            i, j = _pair_at(bit, lineno, key, rest)
            current[i] |= 1 << j
            current[j] |= 1 << i
        else:
            try:
                _, level = key.split()
                level = int(level)
            except ValueError:
                raise FormatError(f"line {lineno}: 'relation <k>:' wants an integer level") from None
            if level != len(relations) + 1:
                raise FormatError(f"line {lineno}: expected 'relation {len(relations) + 1}:'")
            current = [1 << i for i in range(len(pts))]
            relations.append(current)
    return RelationChain(pts, tuple(tuple(rel) for rel in relations))


def load_ranks_by_lines(text):
    records = labelled_by_lines(text, "rank", "rank".__eq__, ())
    next(records)
    pts, ranks = [], []
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


# -- pmetric -------------------------------------------------------------------


def load_matrix_by_cells(text):
    """A matrix file read one stripped entry at a time through `_cell`, the rational grammar."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        try:
            rows.append([_cell(cell.strip()) for cell in line.split(",")])
        except (ValueError, ZeroDivisionError, OverflowError):
            raise FormatError(f"line {lineno}: bad matrix entry") from None
    if not rows:
        raise FormatError("empty matrix file")
    return rows


def first_violation(dist, eps):
    """The first failed pseudometric axiom, checked entry by entry, as (message, indices), or None.

    Each point's self-distance is checked before its row's entries, each
    entry for sign before symmetry, and the triangle inequality only on a
    matrix that passes both, over (i, j, k) in lexicographic order.
    """
    n = len(dist)
    for i in range(n):
        if dist[i][i] != 0.0:
            return "nonzero self-distance", (i,)
        for j in range(n):
            if dist[i][j] < 0:
                return "negative distance", (i, j)
            if dist[i][j] != dist[j][i]:
                return "asymmetric distance", (i, j)
    for i, j, k in product(range(n), repeat=3):
        if dist[i][j] > dist[i][k] + dist[k][j] + eps:
            return "triangle inequality fails", (i, j, k)
    return None


def chain_distances_by_fractions(chain):
    """The chain pseudometric in exact dyadics, pair by pair, then shortest paths.

    A pair related at levels 1..m but not at m + 1 weighs 2^-(m+1); a pair
    related at every level weighs 0 when the finest relation is transitive
    (tested on triples) and 2^-(k+1) otherwise.
    """
    n, k, rels = chain.n, chain.depth, chain.relations

    def related(m, i, j):
        return bool(rels[m - 1][i] >> j & 1)

    last_transitive = k == 0 or all(
        related(k, i, l) for i, j, l in product(range(n), repeat=3) if related(k, i, j) and related(k, j, l)
    )
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        level = 0
        while level < k and related(level + 1, i, j):
            level += 1
        if i != j and not (level == k and last_transitive):
            d[i][j] = Fraction(1, 2 ** (level + 1))
    for m, i, j in product(range(n), repeat=3):
        d[i][j] = min(d[i][j], d[i][m] + d[m][j])
    return tuple(map(tuple, d))


def chain_units(chain, sp):
    """The chain pseudometric's distances in units of 2^-(depth+1), as ints; each must be whole.

    Scaling a float by a power of two is exact, so a distance that is not a
    whole number of units shows as a fraction here.
    """
    units = [[v * (1 << (chain.depth + 1)) for v in row] for row in sp.dist]
    assert all(u.is_integer() for row in units for u in row), units
    return [[int(u) for u in row] for row in units]


def squeeze_violation(chain, units):
    """The first failed squeeze V_m <= {d < 2^-m} <= V_(m-1), as (level, i, j, side), or None.

    `units` are the distances in units of 2^-(depth+1), so the bound 2^-m
    is 2^(depth+1-m) units.
    """
    for level, rel in enumerate(chain.relations, start=1):
        bound = 1 << (chain.depth + 1 - level)
        for i, j in product(range(chain.n), repeat=2):
            if rel[i] >> j & 1 and not units[i][j] < bound:
                return level, i, j, "lower"
            if level >= 2 and units[i][j] < bound and not chain.relations[level - 2][i] >> j & 1:
                return level, i, j, "upper"
    return None


def opens_from_balls(sp):
    """The pseudometric topology by its definition: every union of open balls {y : d(x, y) < r}.

    A ball changes only where r passes a distance, so the radii are the
    positive distances and one past the largest.
    """
    n = sp.n
    radii = sorted({v for row in sp.dist for v in row if v > 0})
    radii.append((radii[-1] if radii else 0.0) + 1.0)
    balls = {_union(1 << j for j in range(n) if sp.dist[i][j] < r) for i in range(n) for r in radii}
    return frozenset(u for u in subsets((1 << n) - 1) if _union(b for b in balls if is_subset(b, u)) == u)


def quotient_fault(sp):
    """The first pair that moves a quotient distance, by the four loops `metric_quotient` once ran.

    Class by class in order of lowest point, then class by class again: the
    first members a, b whose distance differs from their classes' lowest
    points' distance by more than 1e-9, as {"x": a, "y": b}, or None.
    """
    classes = dict.fromkeys(sum(1 << j for j, v in enumerate(row) if v == 0.0) for row in sp.dist)
    members = [list(bits(c)) for c in classes]
    for ci in members:
        for cj in members:
            v = sp.dist[ci[0]][cj[0]]
            for a in ci:
                for b in cj:
                    if abs(sp.dist[a][b] - v) > 1e-9:
                        return {"x": sp.points[a], "y": sp.points[b]}
    return None


def hausdorff_distance_threshold(sp, c, d):
    """Infimum form, scanned over the threshold radii; equals the max form."""
    for r in sorted({v for row in sp.dist for v in row}):
        c_in = all(min(sp.dist[i][j] for j in bits(d)) <= r for i in bits(c))
        d_in = all(min(sp.dist[j][i] for i in bits(c)) <= r for j in bits(d))
        if c_in and d_in:
            return r
    raise AssertionError("unreachable: the diameter always works")


def stationary_by_squaring(matrix, spread=1e-12, max_squarings=48):
    """Square the matrix until all rows agree; any row is then the stationary distribution."""
    import numpy as np

    M = np.array(matrix.rows, dtype=float)
    for _ in range(max_squarings):
        M = M @ M
        if float((M.max(axis=0) - M.min(axis=0)).max()) <= spread:
            return M.mean(axis=0)
    raise NonConvergence("repeated squaring did not level the rows", [M[0]])


# -- approx --------------------------------------------------------------------


def simpson_by_index(g, a, b, panels):
    """Composite Simpson rule for g on [a, b], each node a + i h and its weight read off its index."""
    h = (b - a) / panels
    acc = g(a) + g(b)
    for i in range(1, panels):
        acc += g(a + i * h) * (4 if i % 2 else 2)
    return acc * h / 3.0


def kernel_polynomial_by_simpson(f, n, x, panels):
    """P_n(x): the Simpson rule for f(u) (1 - (u - x)^2)^n over [0, 1], over 2 J_n."""
    q = simpson_by_index(lambda u: f(u) * (1.0 - (u - x) ** 2) ** n, 0.0, 1.0, panels)
    return q / (2.0 * kernel_mass(n))


def kernel_ratio_by_simpson(n, delta, panels):
    """The tail mass above delta with q^n divided out, q = 1 - delta^2, times q^n, over J_n."""
    q = 1.0 - delta * delta
    return simpson_by_index(lambda v: ((1.0 - v * v) / q) ** n, delta, 1.0, panels) / kernel_mass(n) * q**n


def kernel_polynomial_by_gauss(f, n, x):
    """P_n(x) by the rule `approx` defines, each panel, piece and node read off its index.

    2^k >= 2 dyadic panels no wider than sqrt(2/n). For x in [0, 1] only
    those meeting [x - r, x + r], r = sqrt(41/n); for x outside, with the
    distances a and a + 1 to the near and far end and
    c = max(|1 - a^2|, (a + 1)^2 - 1) e^(-41/n), those starting less than
    sqrt(1 - c) - a from the near end or less than a + 1 - sqrt(1 + c) from
    the far end, and always the end panel where |1 - (u - x)^2| is largest.
    The first and last panel cut at h/512, h/64 and h/8 from the end; on
    each piece [a, b] the 16-point Gauss-Legendre nodes a + (b - a) t_i,
    summed from -0.0 in ascending order as
    (f(u) ((b - a) w_i)) (1 - (u - x)^2)^n. The table (t_i, w_i) is
    `approx.gauss_legendre`, checked against numpy's apart.
    """
    t, w = gauss_legendre()
    k = 1
    while (2**k) ** 2 * 2 < n:
        k += 1
    count = 2**k
    h, r = 1.0 / count, math.sqrt(41 / n)
    near = max(-x, x - 1)
    g_near, g_far = abs(1 - near * near), (near + 1) * (near + 1) - 1
    c = max(g_near, g_far) * math.exp(-41 / n)
    acc = -0.0
    for p in range(count):
        from_near = p if x < 0 else count - 1 - p  # panels between p and the near end
        if 0 <= x <= 1:
            keep = p + 1 > (x - r) * count and p < (x + r) * count
        else:
            keep = (
                (c < 1 and from_near < (math.sqrt(1 - c) - near) * count)
                or count - 1 - from_near < (near + 1 - math.sqrt(1 + c)) * count
                or (from_near == 0 if g_near >= g_far else from_near == count - 1)
            )
        if not keep:
            continue
        if p == 0:
            edges = [0.0, h / 512, h / 64, h / 8, h]
        elif p == count - 1:
            edges = [1.0 - h, 1.0 - h / 8, 1.0 - h / 64, 1.0 - h / 512, 1.0]
        else:
            edges = [p * h, (p + 1) * h]
        for a, b in zip(edges, edges[1:]):
            for i in range(16):
                u = a + (b - a) * t[i]
                acc += f(u) * ((b - a) * w[i]) * (1.0 - (u - x) * (u - x)) ** n
    return acc / (2.0 * kernel_mass(n))


def kernel_polynomial_reference(f, n, xs, panels=256):
    """P_n at each x of xs by a rule far finer than `approx`'s, converged for the builtins up to n = 1024.

    20-point Gauss-Legendre on `panels` equal panels of [0, 1/2] in u = s^2
    (du = 2 s ds, smooth for sqrt at 0) and of [1/2, 1] (1/2, the kink of
    abs-half, is an edge), f sampled once per node, the sums by numpy.
    """
    import numpy as np

    t, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, 1.0, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    s = (a + (b - a) * (t + 1.0) / 2.0).ravel()
    ws = ((b - a) * w / 2.0).ravel()
    root = math.sqrt(0.5)
    u = np.concatenate([(root * s) ** 2, 0.5 + s / 2.0])
    weight = np.concatenate([ws * root * 2.0 * root * s, ws / 2.0])
    fw = np.array([f(v) for v in u]) * weight
    return [float(np.sum(fw * (1.0 - (u - x) ** 2) ** n)) / (2.0 * kernel_mass(n)) for x in xs]


def kernel_mass_exact(n):
    """J_n = (2n)!! / (2n+1)!! = 4^n (n!)^2 / (2n+1)!, exactly."""
    return Fraction(4**n * math.factorial(n) ** 2, math.factorial(2 * n + 1))


def kernel_polynomial_exact(coeffs, n, x):
    """P_n(x) for the polynomial c0 + c1 u + ..., in exact arithmetic at the float x.

    (1 - (u - x)^2)^n = ((1 - x^2) + 2x u - u^2)^n expanded in u, times f,
    integrated term by term over [0, 1], over 2 J_n.
    """
    x = Fraction(x)
    base = (1 - x * x, 2 * x, Fraction(-1))
    poly = [Fraction(c) for c in coeffs]
    for _ in range(n):
        out = [Fraction(0)] * (len(poly) + 2)
        for i, c in enumerate(poly):
            for j, b in enumerate(base):
                out[i + j] += c * b
        poly = out
    return sum(c / (k + 1) for k, c in enumerate(poly)) / (2 * kernel_mass_exact(n))


def kernel_ratio_exact(n, delta):
    """The tail of (1 - v^2)^n over [delta, 1] over J_n, from the binomial expansion, exactly."""
    d = Fraction(delta)
    tail = sum(math.comb(n, k) * (-1) ** k * (1 - d ** (2 * k + 1)) / (2 * k + 1) for k in range(n + 1))
    return tail / kernel_mass_exact(n)
