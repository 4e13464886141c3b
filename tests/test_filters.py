from itertools import product as iproduct

import pytest

import finitetop as ft
from finitetop.bitsets import bits, is_subset, subsets
from finitetop.errors import ValidationError

from oracles import decides_every_set, principal_members


def limits_oracle(space, f):
    """Membership route: every neighborhood of x belongs to the filter."""
    out = 0
    for i in range(space.n):
        nbhds = [
            m
            for m in subsets(space.full)
            if any(u >> i & 1 and is_subset(u, m) for u in space.opens)
        ]
        if all(f.contains(m) for m in nbhds):
            out |= 1 << i
    return out


def accumulation_oracle(space, f):
    out = space.full
    for m in principal_members(f):
        out &= space.closure(m)
    return out


def test_filter_from_base(divisors):
    f = ft.filter_from_base(divisors.points, [0b1010, 0b1100])
    assert divisors.labels(f.kernel) == ("6",)
    assert all(f.contains(m) for m in (0b1010, 0b1100))
    g = ft.filter_from_base(("a", "b"), [0b11])
    assert g.kernel == 0b11
    with pytest.raises(ValidationError):
        ft.filter_from_base(("a", "b"), [0b01, 0b10])
    with pytest.raises(ValidationError):
        ft.filter_from_base(("a", "b"), [])


def test_ultrafilter_predicate():
    assert ft.is_ultrafilter(ft.PrincipalFilter(("1", "2", "3", "6"), 0b1000))
    assert not ft.is_ultrafilter(ft.PrincipalFilter(("1", "2", "3", "6"), 0b1010))
    assert ft.is_ultrafilter(ft.PrincipalFilter(("a",), 0b1))


def test_ultrafilter_characterizations_agree():
    for n in (1, 2, 3, 4):
        pts = tuple(chr(97 + i) for i in range(n))
        for f in ft.all_filters(pts):
            assert ft.is_ultrafilter(f) == decides_every_set(f)


def test_image_filter(divisors, sierpinski):
    ident = ft.PointMap.from_dict(divisors, divisors, {p: p for p in divisors.points})
    f = ft.PrincipalFilter(divisors.points, 0b1010)
    assert ft.image_filter(ident, f).kernel == f.kernel
    const = ft.PointMap.from_dict(
        divisors, sierpinski, {p: "0" for p in divisors.points}
    )
    assert sierpinski.labels(ft.image_filter(const, f).kernel) == ("0",)
    g = ft.PointMap.from_dict(
        divisors, sierpinski, {"1": "0", "2": "0", "3": "0", "6": "1"}
    )
    img = ft.image_filter(g, ft.PrincipalFilter(divisors.points, 0b1000))
    assert sierpinski.labels(img.kernel) == ("1",)
    # definitional family {B : preimage(B) contains the kernel} on all subsets
    for b in subsets(img.full):
        assert img.contains(b) == is_subset(0b1000, g.preimage(b))


def test_image_filter_carrier_mismatch(divisors, sierpinski):
    g = ft.PointMap.from_dict(sierpinski, divisors, {"0": "1", "1": "6"})
    with pytest.raises(ValidationError):
        ft.image_filter(g, ft.PrincipalFilter(divisors.points, 0b1))


def test_limits_examples(divisors):
    f = ft.neighborhood_filter(divisors, "6")
    assert ft.limits(divisors, f) == divisors.full
    disc = ft.discrete_space(("a", "b", "c"))
    assert ft.limits(disc, ft.ultrafilter_at(disc.points, "b")) == 0b010
    ind = ft.indiscrete_space(("a", "b", "c"))
    assert ft.limits(ind, ft.PrincipalFilter(ind.points, 0b101)) == ind.full


def test_accumulation_examples(divisors):
    f = ft.PrincipalFilter(divisors.points, divisors.mask(["2"]))
    assert divisors.labels(ft.accumulation_points(divisors, f)) == ("1", "2")
    u = ft.ultrafilter_at(divisors.points, "3")
    assert ft.accumulation_points(divisors, u) == divisors.closure(u.kernel)
    ind = ft.indiscrete_space(("a", "b"))
    assert ft.accumulation_points(ind, ft.ultrafilter_at(ind.points, "a")) == ind.full


def test_limits_and_accumulation_match_oracles(small_spaces):
    for sp in small_spaces:
        if sp.n == 0:
            continue
        for f in ft.all_filters(sp.points):
            assert ft.limits(sp, f) == limits_oracle(sp, f)
            assert ft.accumulation_points(sp, f) == accumulation_oracle(sp, f)
            # a limit is an accumulation point
            assert is_subset(ft.limits(sp, f), ft.accumulation_points(sp, f))


def test_trace_filter(divisors):
    f = ft.PrincipalFilter(divisors.points, divisors.mask(["6"]))
    t = ft.trace_filter(f, divisors.mask(["2", "6"]))
    assert t.points == ("2", "6") and t.labels(t.kernel) == ("6",)
    with pytest.raises(ValidationError):
        ft.trace_filter(
            ft.PrincipalFilter(divisors.points, divisors.mask(["2", "6"])),
            divisors.mask(["1", "3"]),
        )
    u = ft.ultrafilter_at(divisors.points, "2")
    tu = ft.trace_filter(u, divisors.mask(["1", "2"]))
    assert ft.is_ultrafilter(tu) and tu.points == ("1", "2")


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
                    img = ft.image_filter(f, ft.ultrafilter_at(src.points, p))
                    assert ft.is_ultrafilter(img)
    # and a topology-bearing sample: every map between small spaces
    pool = [sp for sp in small_spaces if 1 <= sp.n <= 2]
    for src in pool:
        for dst in pool:
            for choice in iproduct(range(dst.n), repeat=src.n):
                f = ft.PointMap(src, dst, choice)
                for p in src.points:
                    assert ft.is_ultrafilter(
                        ft.image_filter(f, ft.ultrafilter_at(src.points, p))
                    )


def test_unique_limits_iff_hausdorff(small_spaces):
    for sp in small_spaces:
        if sp.n == 0:
            continue
        unique = all(
            ft.limits(sp, f).bit_count() <= 1 for f in ft.all_filters(sp.points)
        )
        assert unique == ft.separation_profile(sp).t2


def test_closure_via_trace_limits(small_spaces):
    # x in cl(A) iff some filter living inside A converges to x
    for sp in small_spaces:
        for a in subsets(sp.full):
            for i in range(sp.n):
                reached = any(
                    ft.limits(sp, ft.PrincipalFilter(sp.points, k)) >> i & 1
                    for k in subsets(sp.full)
                    if k != 0 and is_subset(k, a)
                )
                assert reached == bool(sp.closure(a) >> i & 1)
