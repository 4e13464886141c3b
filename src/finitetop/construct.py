"""Maps between finite spaces and the topologies they induce."""

from .bitsets import bits, preimage
from .errors import FormatError, ValidationError
from .records import record
from .spaces import Carrier, FiniteSpace, _reads_back, _transitive_closure, discrete_space


def _assignment(sources, assignment, n):
    """The assignment as a tuple, one image per source label, each an index below n."""
    assignment = tuple(assignment)
    if len(assignment) != len(sources):
        raise FormatError("map must be total on the source carrier")
    for p, j in zip(sources, assignment):
        if not 0 <= j < n:
            raise FormatError(f"map image of {p!r} is {j}, not a target point index")
    return assignment


@record
class PointMap:
    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple  # assignment[i] = target index of the i-th source point

    def __post_init__(self):
        object.__setattr__(self, "assignment", _assignment(self.source.points, self.assignment, self.target.n))

    @classmethod
    def from_dict(cls, source, target, mapping):
        """The map of a label -> label dict: totality first (the first source label missed), then each image."""
        for p in source.points:
            if p not in mapping:
                raise FormatError(f"map is not total, missing {p!r}")
        return cls(source, target, tuple(target.index(mapping[p]) for p in source.points))

    def image(self, mask: int) -> int:
        self.source._require_subset((mask,), "set")
        out = 0
        for i in bits(mask):
            out |= 1 << self.assignment[i]
        return out

    def preimage(self, mask: int) -> int:
        self.target._require_subset((mask,), "set")
        return preimage(self.assignment, mask)


@record
class EquivalenceRelation(Carrier):
    points: tuple
    blocks: tuple  # masks, pairwise disjoint, nonempty, covering the carrier

    def __post_init__(self):
        object.__setattr__(self, "blocks", self._carrier(self.blocks, "partition block"))
        seen = 0
        for i, b in enumerate(self.blocks):
            if b == 0:
                raise ValidationError("partition blocks must be nonempty", {"block": i})
            if b & seen:
                raise ValidationError("partition blocks overlap", {"x": self.points[next(bits(b & seen))]})
            seen |= b
        if seen != self.full:
            raise ValidationError(
                "partition does not cover the carrier", {"x": self.points[next(bits(self.full & ~seen))]}
            )


@record
class ContinuityCheck:
    ok: bool
    witness_open: int | None  # target open with a non-open preimage


def is_continuous(f: PointMap) -> ContinuityCheck:
    """Preimages of the target kernels, which form a subbase, must be open.

    Every open is the union of the kernels inside it, so the smallest target
    open with a non-open preimage is a kernel: testing the kernels in
    ascending order finds the same witness as testing every open.
    """
    for k in sorted(set(f.target.rel)):  # the target's own masks: no carrier check
        if not f.source.is_open(preimage(f.assignment, k)):
            return ContinuityCheck(False, k)
    return ContinuityCheck(True, None)


def homeomorphism_fault(f: PointMap):
    """Why f is not a homeomorphism, as a ValidationError naming a witness; None when it is one.

    The first of: two points with one image, a target point with no
    preimage, a target open whose preimage is not open, a source open
    whose image is not open. The inverse of the bijection is read off
    `first`, the source point of each target point.
    """
    first = {}
    for i, j in enumerate(f.assignment):
        if j in first:
            return ValidationError("map is not injective", {"x": f.source.points[first[j]], "y": f.source.points[i]})
        first[j] = i
    if len(first) < f.target.n:
        missed = next(y for j, y in enumerate(f.target.points) if j not in first)
        return ValidationError("map is not surjective", {"y": missed})
    inverse = PointMap(f.target, f.source, tuple(first[j] for j in range(f.target.n)))
    for g, what in ((f, "map"), (inverse, "inverse map")):
        check = is_continuous(g)
        if not check.ok:
            return ValidationError(f"{what} is not continuous", {"open": g.target.set_str(check.witness_open)})
    return None


def initial_topology(points, factors) -> FiniteSpace:
    """Smallest topology making every map of `factors` continuous.

    `factors` is a list of (assignment, target) pairs, assignment[i] being
    the target index of the i-th carrier point. Generated by the subbase of
    all preimages of target opens; on a finite carrier that topology is the
    one whose minimal open at x is the intersection of the pulled-back
    minimal opens at the images of x.
    """
    points = tuple(points)
    kernels = [(1 << len(points)) - 1] * len(points)
    for assignment, target in factors:
        idx = _assignment(points, assignment, target.n)
        for i, j in enumerate(idx):
            kernels[i] &= preimage(idx, target.rel[j])
    return FiniteSpace(points, kernels)


def final_topology(points, factors) -> FiniteSpace:
    """Largest topology making every map of `factors` continuous.

    `factors` is a list of (source, assignment) pairs, assignment[i] being
    the carrier index of the i-th source point. A set is open iff its
    preimage under every map is open upstairs, that is an up-set of the
    source preorders, so the opens are the up-sets of the preorder generated
    by f(x) <= f(x') for every x' in the kernel of x.
    """
    points = tuple(points)
    rel = [1 << i for i in range(len(points))]
    for source, assignment in factors:
        idx = _assignment(source.points, assignment, len(points))
        for i, k in enumerate(source.rel):
            for j in bits(k):
                rel[idx[i]] |= 1 << idx[j]
    return FiniteSpace(points, _transitive_closure(rel))


def product_label(a, b):
    return f"⟨{a},{b}⟩"


def product(a: FiniteSpace, b: FiniteSpace) -> FiniteSpace:
    """Product topology, points labelled ⟨x,y⟩, via the two projections."""
    pts = tuple(product_label(x, y) for x in a.points for y in b.points)
    if len(set(pts)) != len(pts):
        clash = next(p for i, p in enumerate(pts) if p in pts[:i])
        raise ValidationError("product labels collide; rename the factor points", {"label": clash})
    proj_a = tuple(i for i in range(a.n) for _ in range(b.n))
    proj_b = tuple(range(b.n)) * a.n
    return initial_topology(pts, [(proj_a, a), (proj_b, b)])


def subspace(space: FiniteSpace, keep_mask: int) -> FiniteSpace:
    """Trace of the topology on a subset, via the embedding map."""
    space._require_subset((keep_mask,), "argument")
    return initial_topology(space.labels(keep_mask), [(bits(keep_mask), space)])


def topological_sum(a: FiniteSpace, b: FiniteSpace) -> FiniteSpace:
    """Disjoint sum via the two injections; labels must not clash."""
    if set(a.points) & set(b.points):
        clash = sorted(set(a.points) & set(b.points))[0]
        raise ValidationError("sum carriers share a label", {"label": clash})
    pts = a.points + b.points
    return final_topology(pts, [(a, range(a.n)), (b, range(a.n, len(pts)))])


def block_labels(space, blocks):
    """One name per block of a partition of the space's carrier.

    A block is named by its sorted member labels run together while those
    names are distinct. When two collide (with the labels 1..34, the blocks
    {3, 4} and {34} are both "34"), every block is named by its members
    joined with '+' instead; if those names collide too, the two blocks are
    reported.
    """
    for sep in ("", "+"):
        labels = tuple(sep.join(sorted(space.labels(b))) for b in blocks)
        if len(set(labels)) == len(labels):
            return labels
    first = {}
    for lab, b in zip(labels, blocks):
        if lab in first:
            raise ValidationError(
                f"two classes are both named {lab!r}", {"A": space.labels(first[lab]), "B": space.labels(b)}
            )
        first[lab] = b


def quotient(space: FiniteSpace, eq: EquivalenceRelation):
    """Factor space and the index of each point's block; a block set is open iff its union is open upstairs."""
    if eq.points != space.points:
        raise ValidationError("equivalence relation lives on a different carrier")
    assignment = [0] * space.n
    for c, b in enumerate(eq.blocks):
        for i in bits(b):
            assignment[i] = c
    assignment = tuple(assignment)
    return final_topology(block_labels(space, eq.blocks), [(space, assignment)]), assignment


def one_point_extension(space: FiniteSpace, infinity_label: str) -> FiniteSpace:
    """Adjoin a point whose neighborhoods are the complements of compact sets.

    Requires a Hausdorff input. A finite Hausdorff space is discrete, and
    every subset of a finite space is compact, so every set containing the
    new point is open too: the extension is discrete. The label must read
    back as one point of the space format: nonempty, with no whitespace
    and no '#'.
    """
    if not _reads_back((infinity_label,)):
        raise FormatError(f"extension label {infinity_label!r} is empty or holds whitespace or '#'")
    if infinity_label in space.points:
        raise ValidationError("extension label already names a point", {"label": infinity_label})
    ker = space.rel
    for x in range(space.n):
        for y in range(x + 1, space.n):
            if ker[x] & ker[y]:
                raise ValidationError(
                    "input space is not Hausdorff", {"x": space.points[x], "y": space.points[y]}
                )
    return discrete_space(space.points + (infinity_label,))
