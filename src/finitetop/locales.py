"""Order-theoretic view of a finite topology.

The lattice of opens is a complete Heyting algebra; its two-valued
morphisms are the points of the associated locale. Every report here is
read off the kernels (minimal open neighborhoods): on a finite lattice a
completely prime filter is the up-set of a join-irreducible open, and the
join-irreducible opens are exactly the distinct kernels. The definitional
routes (morphism axioms, n-ary irreducibility, directed suprema) are test
oracles and are not rerun here.
"""

from .bitsets import bits
from .errors import ValidationError
from .records import record
from .spaces import FiniteSpace, Preorder, topology_from_poset


def heyting_implication(space: FiniteSpace, a: int, b: int) -> int:
    """Largest open whose meet with `a` lies below `b`: the interior of (not a) | b."""
    for m in (a, b):
        if not space.is_open(m):
            raise ValidationError("Heyting implication needs open arguments", {"set": space.labels(m)})
    return space.interior(space.full & ~a | b)


def heyting_negation(space: FiniteSpace, a: int) -> int:
    return heyting_implication(space, a, 0)


def points_of_locale(space: FiniteSpace) -> list:
    """All points of the locale (two-valued morphisms on the opens), one per distinct kernel.

    A morphism is determined by its top-valued opens, a completely prime
    filter: the up-set of a join-irreducible open, and those opens are the
    kernels. So each point is the open filter of its kernel g, and an open
    is top-valued iff it contains g. Listed by ascending kernel.
    """
    return [OpenFilter(space, g) for g in sorted(set(space.min_nbhd))]


@record
class PhiReport:
    assignment: tuple  # point index -> its locale point, an OpenFilter
    injective: bool
    surjective: bool


def phi_map(space: FiniteSpace) -> PhiReport:
    """Send a point to the morphism 'does this open contain me'.

    That is the locale point of the point's kernel, so phi is injective iff
    the kernels are distinct (T0) and always surjective.
    """
    assignment = tuple(OpenFilter(space, k) for k in space.min_nbhd)
    return PhiReport(assignment, space.is_poset, True)  # injective iff T0, always surjective


def irreducible_closed_sets(space: FiniteSpace):
    """Nonempty closed sets no union of two smaller closed sets can cover.

    In a finite space those are the point closures. Returns them ascending,
    together with the sobriety verdict: sober means T0 and every irreducible
    closed set is the closure of a point, which here reduces to T0.
    """
    irr = sorted({space.closure(1 << i) for i in range(space.n)})
    return irr, space.is_poset


def scott_topology(order: Preorder) -> FiniteSpace:
    """Opens: up-sets that cannot be entered by a directed supremum.

    On a finite poset every directed set has a maximum, so the
    inaccessibility clause holds for every up-set and this is the
    Alexandrov (up-set) topology.
    """
    if not order.is_poset:
        # the first point that shares its row with a later one, and the first such later one
        rel = order.rel
        x = next(i for i, row in enumerate(rel) if rel.count(row) > 1)
        y = rel.index(rel[x], x + 1)
        witness = {"x": order.points[x], "y": order.points[y]}
        raise ValidationError("Scott topology needs an antisymmetric order", witness)
    return topology_from_poset(order)


def is_scott_continuous(p: Preorder, q: Preorder, assignment) -> bool:
    """Monotone = preserves directed sups = topologically continuous.

    On finite posets the three coincide, so monotonicity decides.
    """
    f = q.index_map(assignment, p.points)
    return all(q.le(f[i], f[j]) for i in range(p.n) for j in bits(p.rel[i]))


@record
class OpenFilter:
    """Principal filter of the opens-lattice, generated by a single open."""

    space: FiniteSpace
    kernel_open: int

    def __post_init__(self):
        if not self.space.is_open(self.kernel_open):
            raise ValidationError("filter generator must be open")

    def contains(self, u: int) -> bool:
        return self.kernel_open & ~u == 0


@record
class HofmannMisloveReport:
    saturated_compacts: tuple  # each is the generator of its filter and the intersection of its members
    bijection_holds: bool
    sober: bool


def hofmann_mislove_report(space: FiniteSpace) -> HofmannMisloveReport:
    """Match the proper filters of the opens-lattice with the saturated sets.

    Every filter of a finite lattice is principal and inaccessible by
    directed joins, and every subset of a finite space is compact; the
    correspondence sends a filter to the intersection of its members, which
    is its generator. A saturated set is an intersection of opens, so in a
    finite space the nonempty saturated sets are the nonempty opens, and
    the map g |-> g from proper filters to them is a bijection. So the
    report lists the nonempty opens once, as both sides.
    """
    saturated = tuple(sorted(u for u in space.opens if u != 0))
    # The theorem above holds for every finite space, so the verdict is not
    # recomputed; the definitional check is a test oracle.
    return HofmannMisloveReport(saturated, True, space.is_poset)  # the bijection holds; sober iff T0
