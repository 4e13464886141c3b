import functools
import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finitetop as ft
from finitetop import formats, spaces
from finitetop.bitsets import bits, intransitive_triple, is_subset, subsets
from finitetop.errors import FormatError, ValidationError

from conftest import indiscrete_space, space_of
from oracles import (
    all_topologies_by_families,
    closed_sets,
    closure_axioms_hold,
    closure_fault_by_scan,
    closure_table_by_scan,
    down_set_table,
    is_antisymmetric,
    is_topology,
    opens_from_kernels_by_subsets,
    separation_by_closed_sets,
    smallest_open_superset,
    table_from_function,
)


# -- independent oracles ------------------------------------------------------


def closure_oracle(space, mask):
    """Smallest closed superset, straight from the definition."""
    out = space.full
    for f in closed_sets(space):
        if is_subset(mask, f) and is_subset(f, out):
            out = f
    return out


def interior_oracle(space, mask):
    out = 0
    for u in space.opens:
        if is_subset(u, mask):
            out |= u
    return out


def base_oracle(fam):
    """Exhaustive triple enumeration of the base conditions."""
    cover = 0
    for m in fam.members:
        cover |= m
    if cover != fam.full:
        return False
    for u in fam.members:
        for v in fam.members:
            for x in bits(u & v):
                if not any(
                    w >> x & 1 and is_subset(w, u & v) for w in fam.members
                ):
                    return False
    return True


def base_witness(fam):
    """None when the family is a base, else the witness `generate_topology` refuses it with."""
    try:
        ft.generate_topology(fam, "base")
    except ValidationError as err:
        assert str(err) == "family is not a base"
        return err.witness
    return None


def assert_base_witness(fam, witness):
    """The witness breaks the definition: x is uncovered, or x lies in U & V and no
    member containing x fits inside U & V."""
    if "uncovered" in witness:
        x = fam.points.index(witness["uncovered"])
        assert not any(m >> x & 1 for m in fam.members)
        return
    x = fam.points.index(witness["x"])
    u, v = fam.mask(witness["U"]), fam.mask(witness["V"])
    assert u in fam.members and v in fam.members and (u & v) >> x & 1
    assert not any(w >> x & 1 and is_subset(w, u & v) for w in fam.members)


def naive_profile(space):
    pts = range(space.n)
    ops = space.opens
    cls = closed_sets(space)

    def sep(a, b):
        return any(
            is_subset(a, u) and is_subset(b, v) and u & v == 0
            for u in ops
            for v in ops
        )

    t0 = all(
        any((u >> x & 1) != (u >> y & 1) for u in ops) for x in pts for y in pts if x < y
    )
    t1 = all(
        any(u >> x & 1 and not u >> y & 1 for u in ops) for x in pts for y in pts if x != y
    )
    t2 = all(sep(1 << x, 1 << y) for x in pts for y in pts if x < y)
    t3 = all(sep(1 << x, f) for x in pts for f in cls if not f >> x & 1)
    t4 = all(sep(f, g) for f in cls for g in cls if f & g == 0)
    return t0, t1, t2, t3, t4


# -- FiniteSpace invariants ---------------------------------------------------


def test_space_requires_empty_and_full():
    with pytest.raises(ValidationError):
        ft.FiniteSpace.from_opens(("a", "b"), {0})


def test_space_rejects_union_gap():
    # {a} and {b} open but {a,b} missing
    with pytest.raises(ValidationError):
        ft.FiniteSpace.from_opens(("a", "b", "c"), {0, 0b111, 0b001, 0b010})


@pytest.mark.parametrize("fam, bad", [({0, 0b11, 0b1000, 0b100}, "0x8"), ({0, -2, 0b11}, "-0x2")])
def test_open_off_the_carrier_is_named(fam, bad):
    with pytest.raises(FormatError, match=f"^open {bad} is not a subset of the carrier$"):
        ft.FiniteSpace.from_opens(("a", "b"), fam)


def test_duplicate_labels_are_a_hard_error():
    with pytest.raises(FormatError):
        ft.FiniteSpace.from_opens(("a", "a"), {0, 0b11})


def test_carrier_limit():
    pts = tuple(f"p{i}" for i in range(17))
    with pytest.raises(ValidationError):
        ft.FiniteSpace.from_opens(pts, {0, (1 << 17) - 1})


@pytest.mark.parametrize("points, err, message, witness", [
    (tuple(f"p{i}" for i in range(17)), ValidationError, "carrier has 17 points, limit is 16", {"x": "p16"}),
    (("a", "b", "a"), FormatError, "duplicate point label 'a'", None),
], ids=["17-points", "duplicate"])
def test_a_family_checks_its_labels_once_and_first(monkeypatch, points, err, message, witness):
    """Read from a file or given as masks, a family's labels are checked once, before its
    members: an off-carrier member and a missing empty set are not what gets reported."""
    calls = []
    check = spaces._check_labels
    monkeypatch.setattr(spaces, "_check_labels", lambda *args: calls.append(args) or check(*args))
    text = f"points: {' '.join(points)}\nopen: {points[1]}\n"
    for load in (lambda: formats.load_space(text), lambda: ft.FiniteSpace.from_opens(points, {0b10, 1 << 20})):
        calls.clear()
        with pytest.raises(err, match=f"^{message}$") as e:
            load()
        assert len(calls) == 1 and getattr(e.value, "witness", None) == witness
    calls.clear()
    assert formats.load_space("points: a b\nopen: a\n").opens == {0, 0b01, 0b11}
    assert len(calls) == 1


def test_opens_closed_under_pairwise_ops(small_spaces):
    for sp in small_spaces:
        for a in sp.opens:
            for b in sp.opens:
                assert a | b in sp.opens
                assert a & b in sp.opens


def test_is_open_before_and_after_the_opens_are_built(spaces_up_to_4):
    for sp in spaces_up_to_4:
        fresh = ft.FiniteSpace(sp.points, sp.rel)  # opens not built yet
        for m in range(-1, sp.full + 2):
            assert fresh.is_open(m) == (m in sp.opens)
        assert "opens" not in vars(fresh)
        assert all(fresh.is_open(u) for u in fresh.opens)
        assert "opens" in vars(ft.FiniteSpace.from_opens(sp.points, sp.opens))  # kept, not rebuilt


def test_validation_witness_names_two_members_with_a_gap():
    rng = random.Random(2024)
    rejected = 0
    for _ in range(3000):
        n = rng.randint(2, 4)
        pts = tuple("abcd"[:n])
        full = (1 << n) - 1
        fam = {0, full} | {rng.randrange(1, full) for _ in range(rng.randint(1, 6))}
        if is_topology(n, fam):
            assert ft.FiniteSpace.from_opens(pts, fam).opens == fam
            continue
        rejected += 1
        with pytest.raises(ValidationError) as err:
            ft.FiniteSpace.from_opens(pts, fam)
        w = err.value.witness
        u = sum(1 << pts.index(p) for p in w["U"])
        v = sum(1 << pts.index(p) for p in w["V"])
        assert u in fam and v in fam
        gap = u | v if "union" in str(err.value) else u & v
        assert gap not in fam
    assert rejected > 1000


def test_validator_agrees_with_the_oracle_on_every_family_up_to_4_points():
    for n in range(5):
        pts, full = tuple("abcd"[:n]), (1 << n) - 1
        mids = range(1, full)
        accepted = 0
        for pick in range(1 << max(full - 1, 0)):
            fam = {0, full} | {m for i, m in enumerate(mids) if pick >> i & 1}
            if is_topology(n, fam):
                sp = ft.FiniteSpace.from_opens(pts, fam)
                accepted += 1
                assert sp.opens == fam
                assert sp.rel == tuple(
                    functools.reduce(int.__and__, (u for u in fam if u >> x & 1)) for x in range(n)
                )
                assert "opens_by_size" in vars(sp)
                assert sp.opens_by_size == tuple(sorted(fam, key=lambda u: (u.bit_count(), u)))
                continue
            with pytest.raises(ValidationError) as err:
                ft.FiniteSpace.from_opens(pts, fam)
            u, v = (sum(1 << pts.index(p) for p in err.value.witness[k]) for k in "UV")
            assert u in fam and v in fam
            assert (u | v if "union" in str(err.value) else u & v) not in fam
        assert accepted == [1, 1, 4, 29, 355][n]


@pytest.mark.parametrize(
    "fam, message, u, v",
    [
        ({0, 0b011, 0b110, 0b111}, "not closed under intersection", ("b", "c"), ("a", "b")),
        ({0, 0b001, 0b010, 0b111}, "not closed under union", ("a",), ("b",)),
        ({0, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111}, "not closed under intersection", ("a", "b"), ("a", "c")),
    ],
    ids=["kernels-not-a-preorder", "union-step-leaves", "fold-ends-short"],
)
def test_each_validation_route_names_its_witness(fam, message, u, v):
    with pytest.raises(ValidationError, match=f"^{message}$") as err:
        ft.FiniteSpace.from_opens(("a", "b", "c"), fam)
    assert err.value.witness == {"U": u, "V": v}


def test_all_topologies_by_preorders():
    counts = [len(ft.all_topologies(n)) for n in range(6)]
    assert counts == [1, 1, 4, 29, 355, 6942]  # OEIS A000798
    for n in range(5):
        got = [sp.opens for sp in ft.all_topologies(n)]
        assert len(set(got)) == len(got)
        assert set(got) == set(all_topologies_by_families(n))
    assert len({sp.opens for sp in ft.all_topologies(5)}) == 6942
    with pytest.raises(ValidationError):
        ft.all_topologies(6)


# -- base validation ------------------------------------------------------------


def test_overlap_without_interpolant_is_not_a_base():
    fam = ft.SetFamily(("0", "1", "2"), (0b111, 0b011, 0b110, 0))
    witness = base_witness(fam)
    assert witness["x"] == "1"
    assert sorted(witness["U"]) in (["0", "1"], ["1", "2"])
    assert sorted(witness["V"]) in (["0", "1"], ["1", "2"])
    assert witness["U"] != witness["V"]


def test_singletons_form_a_base():
    fam = ft.SetFamily(("a", "b", "c"), (0b001, 0b010, 0b100))
    assert base_witness(fam) is None


def test_overlapping_base_with_interpolant():
    fam = ft.SetFamily(("1", "2", "3"), (0b011, 0b110, 0b010))
    assert base_witness(fam) is None
    assert base_oracle(fam)


@given(st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_validate_base_matches_oracle(n, data):
    pts = tuple(chr(97 + i) for i in range(n))
    full = (1 << n) - 1
    members = tuple(
        data.draw(st.integers(0, full)) for _ in range(data.draw(st.integers(1, 5)))
    )
    fam = ft.SetFamily(pts, members)
    witness = base_witness(fam)
    assert (witness is None) == base_oracle(fam)
    if witness is None:
        assert set(members) <= ft.generate_topology(fam, "base").opens
    else:
        assert_base_witness(fam, witness)


def test_validate_base_matches_oracle_on_every_family_up_to_3_points():
    # the kernel criterion (every k_x is a member) against the triple loop,
    # on all 2^(2^n) families of subsets of n <= 3 points
    counts = {}
    for n in range(4):
        pts = tuple(chr(97 + i) for i in range(n))
        for pick in range(1 << (1 << n)):
            fam = ft.SetFamily(pts, tuple(bits(pick)))
            witness = base_witness(fam)
            assert (witness is None) == base_oracle(fam)
            if witness is None:
                assert set(fam.members) <= ft.generate_topology(fam, "base").opens
            else:
                assert_base_witness(fam, witness)
            counts[n] = counts.get(n, 0) + 1
    assert counts == {0: 2, 1: 4, 2: 16, 3: 256}


# -- generate_topology ----------------------------------------------------------


def test_generate_from_base_divisors(divisors):
    fam = ft.SetFamily(("1", "2", "3", "6"), (0b1000, 0b1010, 0b1100, 0b1111))
    assert ft.generate_topology(fam, "base").opens == divisors.opens


def test_generate_from_empty_subbase_is_indiscrete():
    fam = ft.SetFamily(("a", "b"), ())
    sp = ft.generate_topology(fam, "subbase")
    assert sp.opens == frozenset({0, 0b11})


def test_generate_from_subbase_divisors(divisors):
    fam = ft.SetFamily(("1", "2", "3", "6"), (0b1010, 0b1100))
    assert ft.generate_topology(fam, "subbase").opens == divisors.opens


def test_generate_rejects_invalid_base():
    fam = ft.SetFamily(("0", "1", "2"), (0b111, 0b011, 0b110, 0))
    with pytest.raises(ValidationError) as err:
        ft.generate_topology(fam, "base")
    assert err.value.witness["x"] == "1"
    with pytest.raises(FormatError, match="^unknown generation mode 'basis'$"):
        ft.generate_topology(fam, "basis")


def test_subbase_closure_brute_force():
    # close under intersections, then unions, and compare
    pts = ("a", "b", "c", "d")
    members = (0b0011, 0b0110, 0b1100)
    fam = ft.SetFamily(pts, members)
    inters = {0b1111}
    for pick in subsets((1 << len(members)) - 1):
        cur = 0b1111
        for i in bits(pick):
            cur &= members[i]
        inters.add(cur)
    opens = set()
    inters = sorted(inters)
    for pick in subsets((1 << len(inters)) - 1):
        cur = 0
        for i in bits(pick):
            cur |= inters[i]
        opens.add(cur)
    assert ft.generate_topology(fam, "subbase").opens == frozenset(opens)


# -- closure / interior ---------------------------------------------------------


def test_divisors_closure_interior_rows(divisors):
    r = ft.closure_interior(divisors, divisors.mask(["2"]))
    assert divisors.labels(r["closure"]) == ("1", "2")
    assert r["interior"] == 0
    r = ft.closure_interior(divisors, divisors.mask(["2", "6"]))
    assert divisors.labels(r["interior"]) == ("2", "6")
    r = ft.closure_interior(divisors, 0)
    assert r == {"closure": 0, "interior": 0, "boundary": 0}


def test_closure_interior_match_oracles(small_spaces):
    for sp in small_spaces:
        for m in subsets(sp.full):
            assert sp.closure(m) == closure_oracle(sp, m)
            assert sp.interior(m) == interior_oracle(sp, m)
            # duality
            assert sp.interior(m) == sp.full & ~sp.closure(sp.full & ~m)
            # every open containing m contains x iff the closure of x meets m
            mos = smallest_open_superset(sp, m)
            assert mos in sp.opens
            assert mos == sum(1 << x for x in range(sp.n) if sp.closure(1 << x) & m)


# -- Kuratowski closure tables ---------------------------------------------------


def test_downset_table_gives_divisors_topology(divisors):
    table = down_set_table(divisors)  # a space is its own specialization preorder
    table.validate()
    assert ft.topology_from_closure(table).opens == divisors.opens


def test_identity_table_gives_discrete():
    table = table_from_function(("a", "b", "c"), lambda a: a)
    sp = ft.topology_from_closure(table)
    assert sp.opens == ft.discrete_space(("a", "b", "c")).opens


def test_added_point_table():
    # cl(A) = A + {x0} for nonempty A: {x} open exactly for x != x0
    pts = ("a", "b", "x0")
    x0 = 0b100
    table = table_from_function(pts, lambda a: 0 if a == 0 else a | x0)
    sp = ft.topology_from_closure(table)
    assert sp.is_open(0b001) and sp.is_open(0b010)
    assert not sp.is_open(0b100)
    prof = ft.separation_profile(sp)
    assert prof.t0 and not prof.t1


def test_nonempty_empty_closure_rejected():
    with pytest.raises(ValidationError) as err:
        table_from_function(("a", "b"), lambda a: a | 1).validate()
    assert "cl(empty)=empty" in str(err.value)


def test_shrinking_table_rejected():
    with pytest.raises(ValidationError) as err:
        table_from_function(("a", "b"), lambda a: 0).validate()
    assert "cl(X)=X" in str(err.value)


def test_non_idempotent_table_rejected():
    pts = ("a", "b", "c")
    grow = {0: 0, 0b001: 0b011, 0b011: 0b111}

    def fn(a):
        return grow.get(a, 0b111)

    with pytest.raises(ValidationError) as err:
        table_from_function(pts, fn).validate()
    assert "cl(cl(A))" in str(err.value) or "cl(A|B)" in str(err.value)


def test_non_additive_table_rejected():
    # closure by transitive reachability in a cycle is monotone and idempotent
    # but not additive on this carrier? use a simple non-additive example:
    pts = ("a", "b", "c")

    def fn(a):
        return 0b111 if a.bit_count() >= 2 else a

    with pytest.raises(ValidationError) as err:
        table_from_function(pts, fn).validate()
    assert "cl(A|B)" in str(err.value)


def validation_fault(table):
    """(message, witness) of the ValidationError `validate` raises, or None."""
    try:
        table.validate()
    except ValidationError as err:
        return str(err), err.witness
    return None


def test_closure_validation_matches_pairwise_oracle(small_spaces):
    # every induced table with one entry replaced by every other subset
    for sp in small_spaces:
        base = ft.induced_closure_table(sp).table
        for a in subsets(sp.full):
            for v in subsets(sp.full):
                table = ft.ClosureTable(sp.points, base[:a] + (v,) + base[a + 1:])
                fault = validation_fault(table)
                assert (fault is None) == closure_axioms_hold(table)
                assert fault == closure_fault_by_scan(table)


def test_closure_validation_matches_scan_on_every_two_point_table():
    tables = [ft.ClosureTable(("a", "b"), t) for t in iproduct(range(4), repeat=4)]
    assert len(tables) == 256
    with pytest.raises(FormatError, match="^closure table must have one entry per subset$"):
        ft.ClosureTable(("a", "b"), (0, 1, 2))
    faults = [validation_fault(table) for table in tables]
    assert faults == [closure_fault_by_scan(table) for table in tables]
    assert sum(f is None for f in faults) == 4  # one table per topology on two points


def _fence(n):
    """The zigzag order on n points: each odd point lies above its two neighbours."""
    pts = tuple(f"f{i}" for i in range(n))
    pairs = [(pts[i], pts[j]) for i in range(0, n, 2) for j in (i - 1, i + 1) if 0 <= j < n]
    return ft.Preorder.from_pairs(pts, pairs)


def _seeded_preorder(n, seed):
    rng = random.Random(seed)
    pts = tuple(f"r{i}" for i in range(n))
    return ft.Preorder.from_pairs(pts, [tuple(rng.sample(pts, 2)) for _ in range(n)])


def test_induced_closure_table_matches_scan_on_5_points(spaces_on_5):
    for sp in spaces_on_5:
        assert ft.induced_closure_table(sp) == closure_table_by_scan(sp)


def test_induced_closure_table_matches_scan_at_the_cap():
    pts = tuple(f"d{i}" for i in range(16))
    fence, seeded = (ft.topology_from_poset(order) for order in (_fence(16), _seeded_preorder(16, 16)))
    for sp in (ft.discrete_space(pts), fence, seeded):
        table = ft.induced_closure_table(sp)
        assert table == closure_table_by_scan(sp)
        assert ft.topology_from_closure(table).rel == sp.rel


def test_kuratowski_round_trips(small_spaces):
    for sp in small_spaces:
        table = ft.induced_closure_table(sp)
        table.validate()
        back = ft.topology_from_closure(table)
        assert back.opens == sp.opens
        # table -> topology -> closure equals the table on every subset
        for m in subsets(sp.full):
            assert back.closure(m) == table.table[m]


# -- poset topologies -------------------------------------------------------------


def test_divisibility_poset_topology(divisors):
    assert len(divisors.opens) == 6


def test_antichain_gives_discrete():
    order = ft.Preorder.from_pairs(("a", "b", "c"), [])
    sp = ft.topology_from_poset(order)
    assert sp.opens == ft.discrete_space(("a", "b", "c")).opens


def test_chain_topology():
    order = ft.Preorder.from_pairs(("a", "b"), [("a", "b")])
    sp = ft.topology_from_poset(order)
    assert sp.opens == frozenset({0, 0b10, 0b11})


def test_from_pairs_names_an_unknown_label():
    with pytest.raises(FormatError, match="^unknown point 'z'$"):
        ft.Preorder.from_pairs(("a", "b"), [("a", "z")])


def test_poset_round_trips(spaces_up_to_4):
    for sp in spaces_up_to_4:
        order = ft.Preorder(sp.points, sp.rel)  # the specialization order is the space's own `rel`
        assert ft.topology_from_poset(order).opens == sp.opens
    order = ft.Preorder.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert ft.topology_from_poset(order).rel == order.rel


# -- neighborhood systems -----------------------------------------------------------


def test_neighborhood_filter_rows(divisors):
    k = divisors.rel[divisors.index("3")]  # the neighborhood filter's kernel
    assert divisors.labels(k) == ("3", "6")
    base = [u for u in divisors.opens_by_size if u >> divisors.index("3") & 1]
    assert [divisors.labels(u) for u in base] == [
        ("3", "6"),
        ("2", "3", "6"),
        ("1", "2", "3", "6"),
    ]
    disc = ft.discrete_space(("x", "y"))
    assert disc.rel[disc.index("x")] == 0b01
    ind = indiscrete_space(("x", "y"))
    assert ind.rel[ind.index("x")] == 0b11


def test_neighborhood_filter_unknown_point(divisors):
    with pytest.raises(FormatError):
        divisors.rel[divisors.index("7")]


def test_kernel_systems_match_the_subset_oracle():
    """Every reflexive kernel system on up to 4 points. A transitive one, each kernel
    holding its members' kernels, is a space whose opens are the sets holding their
    points' kernels; any other is refused with a triple y in k_x, z in k_y, z not in k_x."""
    for n in range(5):
        pts = tuple("abcd"[:n])
        choices = [[(1 << x) | r for r in subsets(((1 << n) - 1) & ~(1 << x))] for x in range(n)]
        for kernels in iproduct(*choices):
            opens = opens_from_kernels_by_subsets(n, kernels)
            if all(k in opens for k in kernels):
                assert ft.FiniteSpace(pts, kernels).opens == opens
                continue
            with pytest.raises(ValidationError) as err:
                ft.FiniteSpace(pts, kernels)
            assert str(err.value) == "relation is not transitive"
            x, y, z = (pts.index(err.value.witness[v]) for v in "xyz")
            assert kernels[x] >> y & 1 and kernels[y] >> z & 1 and not kernels[x] >> z & 1


def test_transitivity_scan_names_the_first_triple_on_every_relation_up_to_3_points():
    """By j, then i, then k: the order of the preorder and metric-quotient witnesses."""
    for n in range(4):
        for rows in iproduct(range(1 << n), repeat=n):
            want = next(
                ((i, j, k) for j in range(n) for i in range(n) for k in range(n)
                 if rows[i] >> j & 1 and rows[j] >> k & 1 and not rows[i] >> k & 1),
                None,
            )
            assert intransitive_triple(rows) == want


def test_kernel_vector_checks():
    """A kernel vector is checked as a preorder on a carrier of at most 16 distinct
    labels, and its rows must lie in the carrier; the first row off it is named."""
    for kernels, bad in [((0b101, 0b10), 0b101), ((0b11, 0b110), 0b110), ((-1, 0b10), -1), ((0b01, 0b100), 0b100)]:
        with pytest.raises(FormatError) as err:
            ft.FiniteSpace(("a", "b"), kernels)
        assert str(err.value) == f"relation row {bad:#x} is not a subset of the carrier"
    with pytest.raises(FormatError):
        ft.FiniteSpace(("a",), (0b11,))
    with pytest.raises(FormatError, match="^duplicate point label 'a'$"):
        ft.FiniteSpace(("a", "a"), (0b01, 0b10))
    wide = [f"p{i}" for i in range(17)]
    with pytest.raises(ValidationError, match="^carrier has 17 points, limit is 16$"):
        ft.FiniteSpace(wide, [1 << i for i in range(17)])
    for kernels, x in [((0b10, 0b10), "a"), ((0b10, 0b01), "a"), ((0b11, 0b01), "b"), ((0b01, 0b10, 0b011), "c")]:
        with pytest.raises(ValidationError) as err:
            ft.FiniteSpace(("a", "b", "c")[:len(kernels)], kernels)
        assert (str(err.value), err.value.witness) == ("relation is not reflexive", {"x": x})
    for kernels in [(0b01,), (0b01, 0b10, 0b11)]:
        with pytest.raises(FormatError, match="^relation must have one row per point$"):
            ft.FiniteSpace(("a", "b"), kernels)
    with pytest.raises(ValidationError, match="not transitive"):
        ft.FiniteSpace(("a", "b", "c"), (0b011, 0b110, 0b100))


# -- separation ---------------------------------------------------------------------


def test_indiscrete_four_points_profile():
    sp = indiscrete_space(("1", "2", "3", "4"))
    prof = ft.separation_profile(sp)
    assert prof.t3 and not prof.t2 and not prof.t1


def test_six_open_t4_not_t3():
    sp = space_of(("1", "2", "3", "4"), ["1"], ["1", "2"], ["1", "3"], ["1", "2", "3"])
    prof = ft.separation_profile(sp)
    assert prof.t4 and not prof.t3


def test_discrete_profile_all_true():
    prof = ft.separation_profile(ft.discrete_space(("a", "b", "c")))
    assert prof == ft.SeparationProfile(True, True, True, True, True, True, True)


def test_profile_matches_naive_quantifiers(spaces_up_to_4):
    for sp in spaces_up_to_4:
        prof = ft.separation_profile(sp)
        t0, t1, t2, t3, t4 = naive_profile(sp)
        assert (prof.t0, prof.t1, prof.t2, prof.t3, prof.t4) == (t0, t1, t2, t3, t4)
        assert prof.regular == (t1 and t3)
        assert prof.normal == (t1 and t4)


def test_profile_matches_closed_set_oracle_on_5_points(spaces_on_5):
    for sp in spaces_on_5:
        prof = ft.separation_profile(sp)
        assert (prof.t0, prof.t1, prof.t2, prof.t3, prof.t4) == separation_by_closed_sets(sp)


def test_t3_t4_shrinking_neighborhood_characterizations(spaces_up_to_4):
    for sp in spaces_up_to_4:
        prof = ft.separation_profile(sp)
        char_t3 = all(
            any(u >> x & 1 and is_subset(sp.closure(u), g) for u in sp.opens)
            for x in range(sp.n)
            for g in sp.opens
            if g >> x & 1
        )
        char_t4 = all(
            any(is_subset(f, u) and is_subset(sp.closure(u), g) for u in sp.opens)
            for f in closed_sets(sp)
            for g in sp.opens
            if is_subset(f, g)
        )
        assert prof.t3 == char_t3
        assert prof.t4 == char_t4


# -- specialization and density --------------------------------------------------------


def test_specialization_examples(divisors):
    # a space's `rel` is its specialization order: x <= y iff y is in x's kernel
    le = {(a, b) for a in divisors.points for b in divisors.points
          if divisors.rel[divisors.index(a)] >> divisors.index(b) & 1}
    divides = {(a, b) for a in divisors.points for b in divisors.points
               if int(b) % int(a) == 0}
    assert le == divides
    assert divisors.is_poset
    assert ft.discrete_space(("a", "b")).rel == (0b01, 0b10)
    ind = indiscrete_space(("a", "b"))
    assert ind.rel == (0b11, 0b11)
    assert not ind.is_poset


def test_is_poset_equals_t0(spaces_up_to_4):
    for sp in spaces_up_to_4:
        assert sp.is_poset == ft.separation_profile(sp).t0


def test_is_poset_matches_the_pairwise_definition(spaces_up_to_4, spaces_on_5):
    # every preorder on up to 5 points is the kernel vector of one of these spaces
    for sp in spaces_up_to_4 + spaces_on_5:
        assert sp.is_poset == is_antisymmetric(sp)
