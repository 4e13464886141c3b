"""Finite topological spaces and the generators that produce them.

A space is a labelled carrier of at most 16 points; subsets are bitmasks
over the point order. Every finite topology has minimal open
neighborhoods, or kernels (the intersection of finitely many opens is
open), and is determined by them: the opens are the up-sets of the
specialization preorder y in k_x. So a space stores only its kernel
vector, which is that preorder, and builds its opens on demand. Every
operation here derives from the kernels instead of sweeping all subsets or
all pairs of opens; the definitional routes live in the tests as oracles.

A mask's labels are the points at its bits (`Carrier.labels`); a call that
lists many masks reads their label texts from two per-byte tables instead,
built once for that call (`_tables_by_byte`).
"""

from operator import eq, or_

from .bitsets import bits, intransitive_triple, is_subset, subsets
from .errors import FormatError, ValidationError
from .records import cached, record

MAX_POINTS = 16


def _check_labels(points, cap=True):
    if cap and len(points) > MAX_POINTS:
        witness = {"x": points[MAX_POINTS]}  # the first label past the cap
        raise ValidationError(f"carrier has {len(points)} points, limit is {MAX_POINTS}", witness)
    if len(set(points)) != len(points):
        dup = next(p for p in points if points.count(p) > 1)
        raise FormatError(f"duplicate point label {dup!r}")


def _reads_back(labels):
    """Whether each label of the tuple reads back as one point: nonempty, no whitespace, no '#'."""
    return "#" not in "".join(labels) and tuple(" ".join(labels).split()) == labels


def _label_bits(points):
    """label -> bit of a carrier's labels; a repeated label keeps its first bit."""
    return {p: 1 << i for i, p in reversed(tuple(enumerate(points)))}


def _mask_of(bit, labels, lineno=None):
    """Union of the labels' bits; an unknown label is a format error, with its line if given."""
    m = 0
    try:
        for lab in labels:
            m |= bit[lab]
    except KeyError:
        where = "" if lineno is None else f"line {lineno}: "
        raise FormatError(f"{where}unknown point {lab!r}") from None
    return m


def _labels(points, mask):
    """The labels of the mask's points in carrier order; IndexError off the carrier."""
    if mask < 0:  # `bits` never ends on a negative int
        raise IndexError(f"mask {mask} is not a subset of the carrier")
    return tuple(points[i] for i in bits(mask))


def _tables_by_byte(parts):
    """The parts of the points of every value of a mask's low and high byte, concatenated in
    carrier order: entry b of `lo` joins the parts of the points i, of `hi` those of the points
    8 + i, for the bits i of b. Built by doubling, for a carrier of at most 16 points.
    """
    lo, hi = [""], [""]
    for x, part in enumerate(parts):
        t = hi if x >> 3 else lo
        t += [s + part for s in t]  # t[m | bit] = t[m] + part
    return lo, hi


class Carrier:
    """Masks <-> labels for a record whose `points` tuple indexes the bits, checked by `_carrier`.

    `labels` reads the points at the mask's bits, and `set_str` joins them;
    `mask` and `index` read one label -> bit dict, built on first use.
    """

    @property
    def n(self):
        return len(self.points)

    @property
    def full(self):
        return (1 << len(self.points)) - 1

    def labels(self, mask):
        """The labels of the mask's points in carrier order; IndexError off the carrier."""
        return _labels(self.points, mask)

    def set_str(self, mask):
        """The mask as `{a b}`."""
        return "{" + " ".join(self.labels(mask)) + "}"

    @cached
    def _bits(self):
        return _label_bits(self.points)

    def index(self, label):
        return self.mask((label,)).bit_length() - 1

    def mask(self, labels):
        return _mask_of(self._bits, labels)

    def _carrier(self, masks=(), what=None, cap=True):
        """Store `points` as a tuple, check the labels (capped if `cap`), return the masks as a tuple."""
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        _check_labels(points, cap)
        masks = tuple(masks)
        if masks and (min(masks) < 0 or max(masks) >> len(points)):  # at C speed, then name the mask
            self._require_subset(masks, what)
        return masks

    def _require_subset(self, masks, what):
        """A format error naming, as `what`, the first mask that is not a subset of the carrier."""
        for m in masks:
            if not 0 <= m <= self.full:
                raise FormatError(f"{what} {m:#x} is not a subset of the carrier")


@record
class SetFamily(Carrier):
    """A named family of subsets (base or subbase candidate)."""

    points: tuple
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", self._carrier(self.members, "family member"))


@record
class ClosureTable(Carrier):
    """A total map subset -> subset, candidate for the closure axioms.

    table[mask] is the image of the subset `mask`; length must be 2^n.
    """

    points: tuple
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "table", self._carrier(self.table, "closure image"))
        if len(self.table) != 1 << len(self.points):
            raise FormatError("closure table must have one entry per subset")

    def validate(self):
        """Raise with the offending axiom and witness subsets, if any.

        Each axiom is decided by one pass over the whole table at C speed:
        A <= cl(A) iff A | cl(A) is cl(A) for every A (a pass that stops at
        the first failure), idempotence iff the table composed with itself
        is the table, and additivity iff the table is the doubled extension
        of its singleton entries.

        Only after a pass fails do the subset-order scans run, to name the
        first witness. Additivity is scanned one point at a time,
        cl(A) = cl(A - {x}) | cl({x}) for the lowest point x of A, which by
        induction gives cl(A|B) = cl(A)|cl(B) for every pair in O(2^n).
        """
        t = self.table
        if t[0] != 0:
            raise ValidationError("closure axiom cl(empty)=empty fails", {"value": self.labels(t[0])})
        if t[self.full] != self.full:
            raise ValidationError("closure axiom cl(X)=X fails", {"value": self.labels(t[self.full])})
        if not all(map(eq, map(or_, range(len(t)), t), t)) or tuple(map(t.__getitem__, t)) != t:
            for a in subsets(self.full):
                if not is_subset(a, t[a]):
                    raise ValidationError("closure axiom A <= cl(A) fails", {"A": self.labels(a)})
                if t[t[a]] != t[a]:
                    raise ValidationError("closure axiom cl(cl(A))=cl(A) fails", {"A": self.labels(a)})
        if _doubled(t[1 << i] for i in range(self.n)) != t:
            for a in subsets(self.full):
                low, rest = a & -a, a & (a - 1)
                if t[a] != t[low] | t[rest]:
                    raise ValidationError(
                        "closure axiom cl(A|B)=cl(A)|cl(B) fails",
                        {"A": self.labels(low), "B": self.labels(rest)},
                    )


def _doubled(cols):
    """The additive table of the given point images: entry A is the union of cols[x] for x in A.

    Point x doubles the table, entry A | {x} being entry A | cols[x].
    """
    t = [0]
    for c in cols:
        t += [v | c for v in t]
    return tuple(t)


def _transpose(rows):
    """The columns of a square bit matrix: bit x of column y is bit y of row x."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        bit = 1 << x
        while row:  # `bits`, inlined
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


def _union(masks):
    m = 0
    for x in masks:
        m |= x
    return m


def _transitive_closure(rel):
    """Transitive closure of bitmask rows (rel[i] = {j : i -> j}), by Warshall."""
    rel = list(rel)
    for k in range(len(rel)):
        for i in range(len(rel)):
            if rel[i] >> k & 1:
                rel[i] |= rel[k]
    return tuple(rel)


@record
class Preorder(Carrier):
    """Reflexive-transitive relation; rel[i] is the bitmask of {j : i <= j}."""

    points: tuple
    rel: tuple

    def __post_init__(self):
        object.__setattr__(self, "rel", self._carrier(self.rel, "relation row"))
        points, rel = self.points, self.rel
        if len(rel) != len(points):
            raise FormatError("relation must have one row per point")
        for i, row in enumerate(rel):
            if not row >> i & 1:
                raise ValidationError("relation is not reflexive", {"x": points[i]})
        bad = intransitive_triple(rel)  # i <= j <= k but not i <= k
        if bad:
            x, y, z = (points[i] for i in bad)
            raise ValidationError("relation is not transitive", {"x": x, "y": y, "z": z})

    @cached
    def is_poset(self):
        """Antisymmetric iff no two rows are equal: i <= j <= i gives rel[i] == rel[j]."""
        return len(set(self.rel)) == self.n

    @classmethod
    def from_pairs(cls, points, pairs):
        """Reflexive-transitive closure of the given `a <= b` pairs."""
        points = tuple(points)
        bit = _label_bits(points)
        rel = [1 << i for i in range(len(points))]
        for a, b in pairs:
            rel[_mask_of(bit, (a,)).bit_length() - 1] |= _mask_of(bit, (b,))
        return cls(points, _transitive_closure(rel))


class FiniteSpace(Preorder):
    """A finite topology, stored as its kernel vector.

    `rel[x]` is the kernel k_x of x, its minimal open neighborhood: the set
    of y with x <= y in the specialization preorder, which determines the
    topology (the opens are its up-sets). The preorder check runs on every
    space in O(n^2); a family read from outside goes through `from_opens`.
    """

    @classmethod
    def from_opens(cls, points, opens):
        """The space whose opens are the given family, validated by its smallest members.

        With the empty set and the carrier present, the family is a topology
        iff c_x, the first member around x in `opens_by_size` order, is a
        preorder (checked once, here) whose up-sets, the
        distinct c_x folded into their unions in ascending order, are exactly
        the family. A failure names two members whose intersection or union
        is missing: c_x and c_y for y in c_x with c_y not inside c_x; u and
        c_x for a fold step u | c_x outside the family; c_x and the first
        member u the fold misses, for x in u with c_x not inside u. The family
        is kept as the `opens`.
        """
        points, opens = tuple(points), frozenset(opens)
        _check_labels(points)
        full = (1 << len(points)) - 1
        ops = sorted(opens)
        if ops and not 0 <= ops[0] <= ops[-1] <= full:
            bad = ops[0] if ops[0] < 0 else ops[-1]
            raise FormatError(f"open {bad:#x} is not a subset of the carrier")
        if 0 not in opens or full not in opens:
            raise ValidationError("a topology must contain the empty set and the carrier")

        def gap(how, u, v):
            return ValidationError(f"not closed under {how}", {"U": _labels(points, u), "V": _labels(points, v)})

        ops.sort(key=int.bit_count)
        ker, todo = [full] * len(points), full
        for u in ops:
            if u & todo:
                for x in bits(u & todo):
                    ker[x] = u
                todo &= ~u
                if not todo:
                    break
        bad = intransitive_triple(ker)  # every c_x holds x: y in c_x, c_y not inside c_x
        if bad:
            raise gap("intersection", ker[bad[0]], ker[bad[1]])
        reached = {0}
        for k in sorted(set(ker)):
            step = {u | k for u in reached}
            if not step <= opens:
                raise gap("union", min(u for u in reached if u | k not in opens), k)
            reached |= step
        if len(reached) < len(opens):
            u = next(u for u in ops if u not in reached)
            raise gap("intersection", next(ker[x] for x in bits(u) if ker[x] & ~u), u)
        # built past the constructor, whose checks (the labels', the carrier's, the preorder's) all ran above
        space = object.__new__(cls)
        space.__dict__.update(points=points, rel=tuple(ker), opens=opens, opens_by_size=tuple(ops))  # and both caches
        return space

    @cached
    def point_closures(self):
        """cl{y} for every point y, the transpose of the kernels: x is close to y iff y is in k_x."""
        return _transpose(self.rel)

    @cached
    def opens(self):
        """Every union of kernels, built one distinct kernel at a time."""
        opens = {0}
        for k in set(self.rel):
            opens |= {u | k for u in opens}
        return frozenset(opens)

    @cached
    def opens_by_size(self):
        """The opens smallest first, ties by mask: the order every listing uses."""
        return tuple(sorted(sorted(self.opens), key=int.bit_count))

    # -- the basic operators

    def is_open(self, mask):
        """Open iff it holds the kernel of each of its points."""
        return 0 <= mask <= self.full and all(self.rel[i] & ~mask == 0 for i in bits(mask))

    def closure(self, mask):
        """Smallest closed superset: x is close to A iff its every open meets A."""
        return sum(1 << i for i in range(self.n) if self.rel[i] & mask)

    def interior(self, mask):
        return self.full & ~self.closure(self.full & ~mask)


@record
class SeparationProfile:
    t0: bool
    t1: bool
    t2: bool
    t3: bool
    t4: bool
    regular: bool
    normal: bool


# ---------------------------------------------------------------------------
# operations


def _family_kernels(fam: SetFamily) -> list:
    """k_x, the intersection of the members containing x, for every point (the carrier if none does)."""
    kernels = [fam.full] * len(fam.points)
    for m in fam.members:
        for x in bits(m):
            kernels[x] &= m
    return kernels


def _check_base(fam: SetFamily, kernels):
    """Raise unless the covering family is a base: every kernel k_x is a member.

    Folding the pairwise condition (each x in U & V lies in a member inside
    U & V) over the members that contain x gives k_x as a member; conversely
    k_x lies inside every such U & V. The witness x is the lowest point whose
    kernel is missing, U a smallest member containing x, and V the first
    member containing x but not U: one exists, or else U = k_x, and a member
    w with x in w inside U & V would be smaller than U.
    """
    cover = _union(fam.members)
    if cover != fam.full:
        missing = next(bits(fam.full & ~cover))
        raise ValidationError("family is not a base", {"uncovered": fam.points[missing]})
    members = set(fam.members)
    for x, k in enumerate(kernels):
        if k not in members:
            around = [m for m in fam.members if m >> x & 1]
            u = min(around, key=int.bit_count)
            v = next(m for m in around if u & ~m)
            witness = {"x": fam.points[x], "U": fam.labels(u), "V": fam.labels(v)}
            raise ValidationError("family is not a base", witness)


def generate_topology(fam: SetFamily, mode: str = "base") -> FiniteSpace:
    """Topology generated by a base (all unions) or a subbase (intersections first).

    On a finite carrier either is determined by the minimal open
    neighborhoods: the intersection of all members containing a point
    (empty intersection = carrier, which covers the subbase convention).
    A base is checked in the same O(|B|·n) pass, by `_check_base`.
    """
    if mode not in ("base", "subbase"):
        raise FormatError(f"unknown generation mode {mode!r}")
    kernels = _family_kernels(fam)
    if mode == "base":
        _check_base(fam, kernels)
    return FiniteSpace(fam.points, kernels)


def closure_interior(space: FiniteSpace, mask: int) -> dict:
    space._require_subset((mask,), "argument")
    cl = space.closure(mask)
    inte = space.interior(mask)
    return {"closure": cl, "interior": inte, "boundary": cl & ~inte}


def topology_from_closure(table: ClosureTable) -> FiniteSpace:
    """The space whose closure is the table: y is in k_x iff x is in cl{y}."""
    table.validate()
    return FiniteSpace(table.points, _transpose([table.table[1 << y] for y in range(table.n)]))


def induced_closure_table(space: FiniteSpace) -> ClosureTable:
    """The closure of every subset, the union of its points' closures, built by doubling."""
    return ClosureTable(space.points, _doubled(space.point_closures))


def topology_from_poset(order: Preorder) -> FiniteSpace:
    """Opens are the up-sets: the space whose kernel vector is the order."""
    return FiniteSpace(order.points, order.rel)


def separation_profile(space: FiniteSpace) -> SeparationProfile:
    """Evaluate the separation axioms on the kernels k_x in O(n^2).

    The existential "disjoint open neighborhoods of ... exist" is decided on
    minimal open neighborhoods: shrinking either open only helps, so the
    smallest ones witness the quantifier exactly. A closed set F has the
    smallest open superset of the k_y for y in F, and F contains cl{y}, so
    T3 fails iff some x outside cl{y} (y not in k_x) has k_x & k_y nonempty,
    and T4 fails iff some disjoint cl{x}, cl{y} have k_x & k_y nonempty.
    T0 holds iff the kernels are distinct (`is_poset`), T1 iff every k_x = {x}.
    T2 is T1: pairwise disjoint kernels each hold their own point, so a y in
    k_x other than x would lie in k_x & k_y, and every kernel is a singleton.
    """
    ker = space.rel
    pts = range(space.n)
    cl = space.point_closures
    t0 = space.is_poset
    t1 = t2 = all(k == 1 << x for x, k in enumerate(ker))
    t3 = all(ker[x] & ker[y] == 0 for x in pts for y in pts if not ker[x] >> y & 1)
    t4 = all(ker[x] & ker[y] == 0 for x in pts for y in pts if cl[x] & cl[y] == 0)
    regular, normal = t1 and t3, t1 and t4
    return SeparationProfile(t0, t1, t2, t3, t4, regular, normal)


def discrete_space(points) -> FiniteSpace:
    return FiniteSpace(points, [1 << i for i in range(len(points))])


def all_topologies(n):
    """Every topology on an n-point carrier, one per preorder.

    The kernel vectors are built point by point by backtracking: x is in
    k_x, and y in k_x implies k_y within k_x, checked against every kernel
    chosen before.
    """
    if n > 5:
        raise ValidationError("exhaustive enumeration is limited to 5 points")
    labels = tuple(chr(ord("a") + i) for i in range(n))
    full = (1 << n) - 1
    out = []
    ker = []

    def extend():
        x = len(ker)
        if x == n:
            out.append(FiniteSpace(labels, ker))
            return
        for rest in subsets(full & ~(1 << x)):
            k = rest | 1 << x
            if all(
                (not k >> y & 1 or is_subset(ky, k)) and (not ky >> x & 1 or is_subset(k, ky))
                for y, ky in enumerate(ker)
            ):
                ker.append(k)
                extend()
                ker.pop()

    extend()
    return out
