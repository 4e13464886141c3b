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
