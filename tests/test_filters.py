"""Filters as kernel masks: a filter is its kernel k, its members the supersets of k."""

from itertools import product as iproduct

import pytest

import finitetop as ft
from finitetop.bitsets import is_subset, subsets
from finitetop.errors import FormatError, ValidationError

from conftest import indiscrete_space
from oracles import decides_every_set, filter_from_base, labels_by_bits, principal_members, trace_filter


def limits_oracle(space, kernel):
    """Membership route: every neighborhood of x belongs to the filter."""
    members = set(principal_members(space.full, kernel))
    out = 0
    for i in range(space.n):
        nbhds = [
            m
            for m in subsets(space.full)
            if any(u >> i & 1 and is_subset(u, m) for u in space.opens)
        ]
        if all(m in members for m in nbhds):
            out |= 1 << i
    return out


def accumulation_oracle(space, kernel):
    out = space.full
    for m in principal_members(space.full, kernel):
        out &= space.closure(m)
    return out


def test_filter_from_base(divisors):
    k = filter_from_base(divisors.points, [0b1010, 0b1100])
    assert divisors.labels(k) == ("6",)
    assert all(m in principal_members(divisors.full, k) for m in (0b1010, 0b1100))
    assert filter_from_base(("a", "b"), [0b11]) == 0b11
    with pytest.raises(ValidationError):
        filter_from_base(("a", "b"), [0b01, 0b10])
    with pytest.raises(ValidationError):
        filter_from_base(("a", "b"), [])


def test_ultrafilter_predicate():
    # an ultrafilter is a one-point kernel
    for full, k, ultra in ((0b1111, 0b1000, True), (0b1111, 0b1010, False), (0b1, 0b1, True)):
        assert (k.bit_count() == 1) == ultra == decides_every_set(full, k)
    assert ft.ultrafilter_at(("1", "2", "3", "6"), "6") == 0b1000


def test_ultrafilter_characterizations_agree():
    for n in (1, 2, 3, 4):
        full = (1 << n) - 1
        for k in range(1, full + 1):
            assert (k.bit_count() == 1) == decides_every_set(full, k)


def test_image_filter(divisors, sierpinski):
    ident = ft.PointMap.from_dict(divisors, divisors, {p: p for p in divisors.points})
    k = 0b1010
    assert ident.image(k) == k
    const = ft.PointMap.from_dict(
        divisors, sierpinski, {p: "0" for p in divisors.points}
    )
    assert sierpinski.labels(const.image(k)) == ("0",)
    g = ft.PointMap.from_dict(
        divisors, sierpinski, {"1": "0", "2": "0", "3": "0", "6": "1"}
    )
    img = g.image(0b1000)
    assert sierpinski.labels(img) == ("1",)
    # definitional family {B : preimage(B) contains the kernel} on all subsets
    for b in subsets(sierpinski.full):
        assert is_subset(img, b) == is_subset(0b1000, g.preimage(b))


def test_image_filter_carrier_mismatch(divisors, sierpinski):
    # the image of a kernel lies on the target carrier, and a kernel off a
    # space's carrier is refused
    g = ft.PointMap.from_dict(sierpinski, divisors, {"0": "1", "1": "6"})
    assert is_subset(g.image(sierpinski.full), divisors.full)
    with pytest.raises(FormatError):
        ft.limits(sierpinski, divisors.full)


def test_limits_examples(divisors):
    k = divisors.rel[divisors.index("6")]  # the neighborhood filter of 6
    assert ft.limits(divisors, k) == divisors.full
    disc = ft.discrete_space(("a", "b", "c"))
    assert ft.limits(disc, ft.ultrafilter_at(disc.points, "b")) == 0b010
    ind = indiscrete_space(("a", "b", "c"))
    assert ft.limits(ind, 0b101) == ind.full


def test_accumulation_examples(divisors):
    # the accumulation points of a filter are the closure of its kernel
    k = divisors.mask(["2"])
    assert divisors.labels(divisors.closure(k)) == ("1", "2")
    assert accumulation_oracle(divisors, k) == divisors.closure(k)
    u = ft.ultrafilter_at(divisors.points, "3")
    assert accumulation_oracle(divisors, u) == divisors.closure(u)
    ind = indiscrete_space(("a", "b"))
    assert ind.closure(ft.ultrafilter_at(ind.points, "a")) == ind.full


def test_limits_and_accumulation_match_oracles(spaces_up_to_4):
    for sp in spaces_up_to_4:
        if sp.n == 0:
            continue
        for k in range(1, sp.full + 1):
            assert ft.limits(sp, k) == limits_oracle(sp, k)
            # the meet of the point closures against the scan for every k_x holding k
            assert ft.limits(sp, k) == sum(1 << i for i, ki in enumerate(sp.rel) if not k & ~ki)
            assert sp.closure(k) == accumulation_oracle(sp, k)
            # a limit is an accumulation point
            assert is_subset(ft.limits(sp, k), sp.closure(k))


def test_trace_filter(divisors):
    a = divisors.mask(["2", "6"])
    t = trace_filter(divisors.full, divisors.mask(["6"]), a)
    assert divisors.labels(a) == ("2", "6") and labels_by_bits(divisors.labels(a), t) == ("6",)
    with pytest.raises(ValidationError):
        trace_filter(divisors.full, divisors.mask(["2", "6"]), divisors.mask(["1", "3"]))
    with pytest.raises(FormatError):
        trace_filter(divisors.full, divisors.mask(["6"]), 0b10000)
    u = ft.ultrafilter_at(divisors.points, "2")
    a = divisors.mask(["1", "2"])
    tu = trace_filter(divisors.full, u, a)
    assert tu.bit_count() == 1 and divisors.labels(a) == ("1", "2")


def test_every_ultrafilter_converges(small_spaces):
    for sp in small_spaces:
        for p in sp.points:
            assert ft.limits(sp, ft.ultrafilter_at(sp.points, p)) != 0


def test_image_of_ultrafilter_is_ultrafilter(small_spaces):
    # the claim only involves the carriers, so every map between carriers
    # of up to 4 points can be swept (discrete spaces host the carriers)
    carriers = [tuple(chr(97 + i) for i in range(n)) for n in range(1, 5)]
    for src_pts in carriers:
        src = ft.discrete_space(src_pts)
        for dst_pts in carriers:
            dst = ft.discrete_space(dst_pts)
            for choice in iproduct(range(dst.n), repeat=src.n):
                f = ft.PointMap(src, dst, choice)
                for p in src.points:
                    img = f.image(ft.ultrafilter_at(src.points, p))
                    assert img.bit_count() == 1 and decides_every_set(dst.full, img)
    # and a topology-bearing sample: every map between small spaces
    pool = [sp for sp in small_spaces if 1 <= sp.n <= 2]
    for src in pool:
        for dst in pool:
            for choice in iproduct(range(dst.n), repeat=src.n):
                f = ft.PointMap(src, dst, choice)
                for p in src.points:
                    img = f.image(ft.ultrafilter_at(src.points, p))
                    assert img.bit_count() == 1 and decides_every_set(dst.full, img)


def test_unique_limits_iff_hausdorff(small_spaces):
    for sp in small_spaces:
        if sp.n == 0:
            continue
        unique = all(ft.limits(sp, k).bit_count() <= 1 for k in range(1, sp.full + 1))
        assert unique == ft.separation_profile(sp).t2


def test_closure_via_trace_limits(small_spaces):
    # x in cl(A) iff some filter living inside A converges to x
    for sp in small_spaces:
        for a in subsets(sp.full):
            for i in range(sp.n):
                reached = any(
                    ft.limits(sp, k) >> i & 1
                    for k in subsets(sp.full)
                    if k != 0 and is_subset(k, a)
                )
                assert reached == bool(sp.closure(a) >> i & 1)
