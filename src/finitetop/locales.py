"""Order-theoretic view of a finite topology.

The lattice of opens is a complete Heyting algebra; its two-valued
morphisms are the points of the associated locale. Every report here is
read off the kernels (minimal open neighborhoods): on a finite lattice a
completely prime filter is the up-set of a join-irreducible open, and the
join-irreducible opens are exactly the distinct kernels. The definitional
routes (morphism axioms, n-ary irreducibility, directed suprema) are test
oracles and are not rerun here.
"""

from dataclasses import dataclass

from .bitsets import bits, is_subset
from .errors import ValidationError
from .spaces import (
    FiniteSpace,
    Preorder,
    separation_profile,
    topology_from_poset,
    _min_open_superset,
)


@dataclass(frozen=True)
class TwoPointMorphism:
    """A map opens -> {bot, top}, stored by its set of top-valued opens."""

    space: FiniteSpace
    top_opens: frozenset

    def value(self, open_mask: int) -> bool:
        return open_mask in self.top_opens


def heyting_implication(space: FiniteSpace, a: int, b: int) -> int:
    """Largest open whose meet with `a` lies below `b`: the interior of (not a) | b."""
    for m in (a, b):
        if not space.is_open(m):
            raise ValidationError("Heyting implication needs open arguments", {"set": space.labels(m)})
    return space.interior(space.full & ~a | b)


def heyting_negation(space: FiniteSpace, a: int) -> int:
    return heyting_implication(space, a, 0)


def points_of_locale(space: FiniteSpace) -> list:
    """All two-valued morphisms on the lattice of opens, one per distinct kernel.

    The top-preimage of such a morphism is a completely prime filter, the
    up-set of a join-irreducible open, and those opens are the kernels.
    Listed by ascending kernel.
    """
    return [
        TwoPointMorphism(space, frozenset(u for u in space.opens if is_subset(g, u)))
        for g in sorted(set(space.min_nbhd))
    ]


@dataclass(frozen=True)
class PhiReport:
    assignment: tuple  # point index -> TwoPointMorphism
    injective: bool
    surjective: bool


def phi_map(space: FiniteSpace) -> PhiReport:
    """Send a point to the morphism 'does this open contain me'.

    That is the locale point of the point's kernel, so phi is injective iff
    the kernels are distinct (T0) and always surjective.
    """
    kernels = sorted(set(space.min_nbhd))
    by_kernel = dict(zip(kernels, points_of_locale(space)))
    assignment = tuple(by_kernel[k] for k in space.min_nbhd)
    return PhiReport(assignment, len(kernels) == space.n, surjective=True)


def irreducible_closed_sets(space: FiniteSpace):
    """Nonempty closed sets no union of two smaller closed sets can cover.

    In a finite space those are the point closures. Returns them ascending,
    together with the sobriety verdict: sober means T0 and every irreducible
    closed set is the closure of a point, which here reduces to T0.
    """
    irr = sorted({space.closure(1 << i) for i in range(space.n)})
    return irr, separation_profile(space).t0


def scott_topology(order: Preorder) -> FiniteSpace:
    """Opens: up-sets that cannot be entered by a directed supremum.

    On a finite poset every directed set has a maximum, so the
    inaccessibility clause holds for every up-set and this is the
    Alexandrov (up-set) topology.
    """
    if not order.is_poset:
        raise ValidationError("Scott topology needs an antisymmetric order")
    return topology_from_poset(order)


def is_scott_continuous(p: Preorder, q: Preorder, assignment) -> bool:
    """Monotone = preserves directed sups = topologically continuous.

    On finite posets the three coincide, so monotonicity decides.
    """
    f = [q.points.index(assignment[pt]) for pt in p.points]
    return all(q.le(f[i], f[j]) for i in range(p.n) for j in bits(p.rel[i]))


@dataclass(frozen=True)
class OpenFilter:
    """Principal filter of the opens-lattice, generated by a single open."""

    space: FiniteSpace
    kernel_open: int

    def __post_init__(self):
        if not self.space.is_open(self.kernel_open):
            raise ValidationError("filter generator must be open")

    def members(self):
        return sorted(u for u in self.space.opens if is_subset(self.kernel_open, u))

    @property
    def proper(self):
        return self.kernel_open != 0


@dataclass(frozen=True)
class HofmannMisloveReport:
    filters: tuple
    intersections: tuple  # intersections[i] = intersection of the members of filters[i]
    saturated_compacts: tuple
    bijection_holds: bool
    sober: bool


def compactness_filter(space: FiniteSpace, mask: int) -> OpenFilter:
    """All opens containing the (automatically compact) set."""
    return OpenFilter(space, _min_open_superset(space, mask))


def hofmann_mislove_report(space: FiniteSpace) -> HofmannMisloveReport:
    """Match the proper filters of the opens-lattice with the saturated sets.

    Every filter of a finite lattice is principal and inaccessible by
    directed joins, and every subset of a finite space is compact; the
    correspondence sends a filter to the intersection of its members, the
    smallest open superset of its generator. A saturated set is an
    intersection of opens, so in a finite space the nonempty saturated sets
    are the nonempty opens.
    """
    filters = tuple(OpenFilter(space, g) for g in sorted(space.opens) if g != 0)
    intersections = tuple(_min_open_superset(space, f.kernel_open) for f in filters)
    saturated = tuple(sorted(u for u in space.opens if u != 0))
    bijection = tuple(sorted(intersections)) == saturated
    _, sober = irreducible_closed_sets(space)
    return HofmannMisloveReport(filters, intersections, saturated, bijection, sober)
