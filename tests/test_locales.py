from itertools import combinations, product

import pytest

import finitetop as ft
from finitetop.bitsets import bits, is_subset, subsets
from finitetop.errors import ValidationError

from conftest import indiscrete_space, space_of
from oracles import (
    closed_sets,
    filter_intersection,
    filter_members,
    heyting_by_opens,
    hofmann_mislove_bijection,
    hofmann_mislove_mirrors,
    is_completely_prime_filter,
    is_irreducible_nary,
    locale_points_by_join_irreducibles,
    preserves_directed_sups,
    preserves_lattice_structure,
    proper_open_filters,
    scott_opens_by_directed,
    smallest_open_superset,
)


def all_posets(n, labels=None):
    """Every labelled poset on n points, by pair-state search."""
    labels = tuple(labels) if labels else tuple(chr(ord("a") + i) for i in range(n))
    pairs = list(combinations(range(n), 2))
    out = []

    def emit(states):
        rel = [1 << i for i in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                rel[i] |= 1 << j
            elif s == 2:
                rel[j] |= 1 << i
        for i in range(n):
            for j in bits(rel[i]):
                if rel[j] & ~rel[i]:
                    return
        out.append(ft.Preorder(labels, tuple(rel)))

    def rec(k, states):
        if k == len(pairs):
            emit(states)
            return
        for s in (0, 1, 2):
            rec(k + 1, states + [s])

    rec(0, [])
    return out


# -- heyting ------------------------------------------------------------------


def test_heyting_examples(divisors):
    a, b = divisors.mask(["2", "6"]), divisors.mask(["3", "6"])
    assert divisors.labels(ft.heyting_implication(divisors, a, b)) == ("3", "6")
    for u in divisors.opens:
        assert ft.heyting_implication(divisors, u, u) == divisors.full
        assert ft.heyting_implication(divisors, divisors.full, u) == u


def test_heyting_needs_open_arguments(divisors):
    with pytest.raises(ValidationError):
        ft.heyting_implication(divisors, divisors.mask(["2"]), 0)


def test_heyting_adjunction(small_spaces, divisors, spaces_up_to_4):
    for sp in list(small_spaces) + [divisors]:
        for a in sp.opens:
            for b in sp.opens:
                imp = ft.heyting_implication(sp, a, b)
                for c in sp.opens:
                    assert is_subset(c, imp) == is_subset(c & a, b)
    for sp in spaces_up_to_4:
        for a in sp.opens:
            for b in sp.opens:
                assert ft.heyting_implication(sp, a, b) == heyting_by_opens(sp, a, b)


def test_opens_distribute(small_spaces, spaces_up_to_4):
    # finite meets distribute over arbitrary joins: all subfamilies on up
    # to 3 points, where the 2^|opens| sweeps stay small
    for sp in small_spaces:
        ops = sorted(sp.opens)
        for a in ops:
            for pick in subsets((1 << len(ops)) - 1):
                join = 0
                join_meet = 0
                for i in bits(pick):
                    join |= ops[i]
                    join_meet |= a & ops[i]
                assert a & join == join_meet
    # on 4 points, the pairwise law that any finite subfamily reduces to
    for sp in spaces_up_to_4:
        for a in sp.opens:
            for b in sp.opens:
                for c in sp.opens:
                    assert a & (b | c) == (a & b) | (a & c)


# -- points of the locale ---------------------------------------------------------


def brute_force_points(space):
    """All candidate top-sets among subsets of the opens, checked directly."""
    ops = sorted(space.opens)
    found = []
    for pick in subsets((1 << len(ops)) - 1):
        fam = frozenset(ops[i] for i in bits(pick))
        if preserves_lattice_structure(space, fam):
            found.append(fam)
    return found


def test_points_counts(divisors):
    ind = indiscrete_space(("a", "b"))
    assert len(ft.points_of_locale(ind)) == 1
    disc = ft.discrete_space(("a", "b"))
    assert len(ft.points_of_locale(disc)) == 2
    assert len(ft.points_of_locale(divisors)) == 4


def test_points_match_brute_force(small_spaces, spaces_up_to_4, five_point_sample):
    for sp in small_spaces:
        if len(sp.opens) > 8:
            continue
        got = {frozenset(filter_members(sp, g)) for g in ft.points_of_locale(sp)}
        assert got == set(brute_force_points(sp))
    for sp in spaces_up_to_4 + five_point_sample:
        pts = ft.points_of_locale(sp)
        got = [frozenset(filter_members(sp, g)) for g in pts]
        assert got == locale_points_by_join_irreducibles(sp)
        assert got == [frozenset(u for u in sp.opens if g & ~u == 0) for g in pts]  # top-valued iff g ⊆ u
        for fam in got:
            assert preserves_lattice_structure(sp, fam)
            assert is_completely_prime_filter(sp, fam)


def test_phi_map(divisors):
    phi = ft.phi_map(divisors)
    assert phi.injective and phi.surjective
    assert not ft.phi_map(indiscrete_space(("a", "b"))).injective
    disc = ft.phi_map(ft.discrete_space(("a", "b", "c")))
    assert disc.injective and disc.surjective


def test_phi_injective_iff_t0(spaces_up_to_4, five_point_sample):
    for sp in spaces_up_to_4 + five_point_sample:
        phi = ft.phi_map(sp)
        assert phi.injective == ft.separation_profile(sp).t0
        images = [frozenset(filter_members(sp, g)) for g in sp.rel]
        for i, fam in enumerate(images):
            assert fam == frozenset(u for u in sp.opens if u >> i & 1)
            assert preserves_lattice_structure(sp, fam)
        assert phi.surjective == (set(locale_points_by_join_irreducibles(sp)) <= set(images))


# -- sobriety ------------------------------------------------------------------------


def test_irreducibles_of_divisors(divisors):
    irr, sober = ft.irreducible_closed_sets(divisors)
    want = {("1",), ("1", "2"), ("1", "3"), ("1", "2", "3", "6")}
    assert {divisors.labels(f) for f in irr} == want
    assert sober


def test_indiscrete_not_sober():
    sp = indiscrete_space(("a", "b"))
    irr, sober = ft.irreducible_closed_sets(sp)
    assert irr == [sp.full]
    assert not sober


def test_discrete_sober():
    sp = ft.discrete_space(("a", "b", "c"))
    irr, sober = ft.irreducible_closed_sets(sp)
    assert {f.bit_count() for f in irr} == {1}
    assert sober


def test_binary_irreducibility_matches_nary_oracle(spaces_up_to_4, five_point_sample):
    for sp in spaces_up_to_4 + five_point_sample:
        irr, _ = ft.irreducible_closed_sets(sp)
        assert irr == [f for f in sorted(closed_sets(sp)) if is_irreducible_nary(sp, f)]


def test_finite_t0_spaces_are_sober(spaces_up_to_4):
    for sp in spaces_up_to_4:
        _, sober = ft.irreducible_closed_sets(sp)
        assert sober == ft.separation_profile(sp).t0


# -- Scott topology -------------------------------------------------------------------


def test_scott_examples():
    anti = ft.Preorder.from_pairs(("a", "b", "c"), [])
    assert ft.scott_topology(anti).opens == ft.discrete_space(("a", "b", "c")).opens
    chain = ft.Preorder.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
    sp = ft.scott_topology(chain)
    assert {sp.labels(u) for u in sp.opens} == {(), ("c",), ("b", "c"), ("a", "b", "c")}
    div_order = ft.Preorder.from_pairs(
        ("1", "2", "3", "6"), [("1", "2"), ("1", "3"), ("2", "6"), ("3", "6")]
    )
    assert len(ft.scott_topology(div_order).opens) == 6


def test_scott_needs_antisymmetry():
    cyc = ft.Preorder.from_pairs(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(ValidationError):
        ft.scott_topology(cyc)


def test_scott_equals_upsets_on_all_posets_up_to_5():
    # the directed-supremum definition, against the up-sets the library returns
    counts = {}
    for n in range(6):
        posets = all_posets(n)
        counts[n] = len(posets)
        for order in posets:
            assert ft.scott_topology(order).opens == scott_opens_by_directed(order)
    assert counts[4] == 219 and counts[5] == 4231  # labelled poset counts


def test_scott_continuity():
    """Scott continuous means continuous between the Scott topologies, which on
    every map between posets of up to 3 points is preserving directed sups."""
    posets = [order for n in range(1, 4) for order in all_posets(n)]
    for p in posets:
        for q in posets:
            sp, sq = ft.scott_topology(p), ft.scott_topology(q)
            for f in product(range(q.n), repeat=p.n):
                assert ft.is_continuous(ft.PointMap(sp, sq, f)).ok == preserves_directed_sups(p, q, f)


# -- Hofmann-Mislove ---------------------------------------------------------------------


def test_hofmann_mislove_counts(divisors):
    hm = ft.hofmann_mislove_report(divisors)
    assert len(proper_open_filters(divisors)) == 5 and len(hm.saturated_compacts) == 5
    assert hm.bijection_holds and hm.sober
    want = {("6",), ("2", "6"), ("3", "6"), ("2", "3", "6"), ("1", "2", "3", "6")}
    assert {divisors.labels(m) for m in hm.saturated_compacts} == want
    disc = ft.hofmann_mislove_report(ft.discrete_space(("a", "b")))
    assert len(proper_open_filters(ft.discrete_space(("a", "b")))) == 3 and len(disc.saturated_compacts) == 3
    assert disc.bijection_holds
    one = ft.hofmann_mislove_report(ft.discrete_space(("a",)))
    assert len(proper_open_filters(ft.discrete_space(("a",)))) == 1 and one.bijection_holds


def test_hofmann_mislove_matches_filter_oracles(spaces_up_to_4, five_point_sample):
    for sp in spaces_up_to_4 + five_point_sample:
        hm = ft.hofmann_mislove_report(sp)
        filters = proper_open_filters(sp)
        assert filters == [filter_intersection(sp, g) for g in filters]
        assert hofmann_mislove_mirrors(sp)
        assert hofmann_mislove_bijection(sp, hm)
        assert hm.bijection_holds


def test_compactness_filter_is_a_filter(small_spaces):
    for sp in small_spaces:
        for m in subsets(sp.full):
            h = smallest_open_superset(sp, m)
            assert sp.is_open(h)
            mem = filter_members(sp, h)
            assert mem == sorted(u for u in sp.opens if is_subset(m, u))
            for u in mem:
                for v in mem:
                    assert u & v in mem
                for w in sp.opens:
                    if is_subset(u, w):
                        assert w in mem


def test_open_filters_are_inaccessible_by_directed_joins(small_spaces):
    # honest enumeration of directed subfamilies of the opens
    for sp in small_spaces:
        ops = sorted(sp.opens)
        if len(ops) > 6:
            continue
        filters = proper_open_filters(sp)
        assert filters == list(ft.hofmann_mislove_report(sp).saturated_compacts)
        for g in filters:
            mem = set(filter_members(sp, g))
            for pick in subsets((1 << len(ops)) - 1):
                fam = [ops[i] for i in bits(pick)]
                if not fam:
                    continue
                directed = all(
                    any(is_subset(a | b, c) for c in fam) for a in fam for b in fam
                )
                union = 0
                for u in fam:
                    union |= u
                if directed and union in mem:
                    assert any(u in mem for u in fam)
