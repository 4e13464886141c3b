"""Filters on finite carriers.

Every filter on a finite set is principal: the family is finite, so the
intersection of all members is itself a member. A filter is therefore
stored by its kernel, and "all filters on X" is just "all nonempty
subsets of X" — which is what makes the exhaustive convergence checks
in the test suite possible.
"""

from .bitsets import bits, is_subset, preimage
from .errors import FormatError, ValidationError
from .records import record
from .spaces import Carrier, FiniteSpace


@record
class PrincipalFilter(Carrier):
    points: tuple
    kernel: int

    def __post_init__(self):
        self._carrier((self.kernel,), "filter kernel")
        if not self.kernel:
            raise ValidationError("filter kernel must be nonempty")

    def contains(self, mask: int) -> bool:
        return is_subset(self.kernel, mask)


def filter_from_base(points, base) -> PrincipalFilter:
    base = list(base)
    if not base:
        raise ValidationError("a filter base must be nonempty")
    kernel = (1 << len(points)) - 1
    for m in base:
        kernel &= m
    if kernel == 0:
        raise ValidationError("improper filter: the base members have empty intersection")
    return PrincipalFilter(tuple(points), kernel)


def is_ultrafilter(f: PrincipalFilter) -> bool:
    return f.kernel.bit_count() == 1


def ultrafilter_at(points, label) -> PrincipalFilter:
    points = tuple(points)
    # a bare label tuple: a membership test costs less than a label -> bit map per call
    if label not in points:
        raise FormatError(f"unknown point {label!r}")
    return PrincipalFilter(points, 1 << points.index(label))


def image_filter(point_map, f: PrincipalFilter) -> PrincipalFilter:
    if f.points != point_map.source.points:
        raise ValidationError("filter does not live on the map's source carrier")
    return PrincipalFilter(point_map.target.points, point_map.image(f.kernel))


def neighborhood_filter(space: FiniteSpace, label) -> PrincipalFilter:
    """Filter of all neighborhoods of a point; kernel = its minimal open."""
    return PrincipalFilter(space.points, space.min_nbhd[space.index(label)])


def limits(space: FiniteSpace, f: PrincipalFilter) -> int:
    """Points whose neighborhood filter the given filter refines."""
    _same_carrier(space, f)
    return sum(1 << i for i, k in enumerate(space.min_nbhd) if is_subset(f.kernel, k))


def accumulation_points(space: FiniteSpace, f: PrincipalFilter) -> int:
    """Intersection of the closures of all members = closure of the kernel."""
    _same_carrier(space, f)
    return space.closure(f.kernel)


def trace_filter(f: PrincipalFilter, mask: int) -> PrincipalFilter:
    """Restriction of the filter to a subset, as a filter on that subset."""
    f._require_subset((mask,), "trace set")
    if f.kernel & mask == 0:
        raise ValidationError(
            "trace is not a filter: the kernel misses the set",
            {"kernel": f.labels(f.kernel), "A": f.labels(mask)},
        )
    return PrincipalFilter(f.labels(mask), preimage(bits(mask), f.kernel))


def all_filters(points):
    """Every filter on the carrier, one per nonempty kernel, ascending.

    This is the enumeration the module docstring describes, and it is
    linear in the number of filters it returns.
    """
    full = (1 << len(points)) - 1
    return [PrincipalFilter(tuple(points), k) for k in range(1, full + 1)]


def _same_carrier(space, f):
    if space.points != f.points:
        raise ValidationError("filter and space live on different carriers")
