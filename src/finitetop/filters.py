"""Filters on finite carriers, as kernel masks.

Every filter on a finite set is principal: the family is finite, so the
intersection of all members is itself a member. A filter is therefore its
kernel k, a nonempty mask, and its members are the supersets of k. The
other notions are mask expressions: the accumulation points of k are
`space.closure(k)`, its limits are the meet of the point closures
`space.point_closures[y]` over y in k, the neighborhood filter of the i-th
point is `space.rel[i]`, the image under a map f is `f.image(k)`, k
is an ultrafilter iff `k.bit_count() == 1`, and the filters on n points
are `range(1, 1 << n)`.
"""

from .errors import FormatError, ValidationError
from .spaces import _check_labels


def ultrafilter_at(points, label) -> int:
    """Kernel of the ultrafilter at a point of the carrier: its one bit."""
    points = tuple(points)
    _check_labels(points)
    # a bare label tuple: a membership test costs less than a label -> bit map per call
    if label not in points:
        raise FormatError(f"unknown point {label!r}")
    return 1 << points.index(label)


def limits(space, kernel: int) -> int:
    """Points the filter converges to: the x whose kernel k_x holds the filter's kernel.

    y is in k_x iff x is in cl{y}, so those x are the meet of the point
    closures over the kernel's points: |kernel| steps, one for an ultrafilter.
    """
    space._require_subset((kernel,), "filter kernel")
    if not kernel:
        raise ValidationError("filter kernel must be nonempty")
    cols = space.point_closures
    out = space.full
    while kernel:  # `bits`, inlined
        low = kernel & -kernel
        out &= cols[low.bit_length() - 1]
        kernel ^= low
    return out
