"""Subsets of a small carrier as int bitmasks (bit i = i-th carrier point)."""

from collections.abc import Iterator


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subsets(full: int) -> Iterator[int]:
    """All submasks of `full`, the empty mask first and `full` last."""
    sub = 0
    while True:
        yield sub
        if sub == full:
            return
        sub = (sub - full) & full


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def preimage(assignment, mask: int) -> int:
    """The indices i whose image assignment[i] lies in `mask`, as a mask."""
    out = 0
    for i, j in enumerate(assignment):
        if mask >> j & 1:
            out |= 1 << i
    return out


def intransitive_triple(rel):
    """First (i, j, k) with j in rel[i], k in rel[j], k not in rel[i], by j, then i, then k; or None.

    One pass over the pairs j in rel[i], with `bits` inlined, accepts a transitive relation.
    """
    for above in rel:
        rest = above
        while rest:
            low = rest & -rest
            if rel[low.bit_length() - 1] & ~above:
                return next((i, j, next(bits(row & ~up))) for j, row in enumerate(rel)
                            for i, up in enumerate(rel) if up >> j & 1 and row & ~up)
            rest ^= low
    return None
