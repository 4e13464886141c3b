import random
from itertools import product as iproduct

import pytest

import finitetop as ft
from finitetop.bitsets import bits, is_subset, subsets
from finitetop.construct import block_labels, homeomorphism_fault, product_label
from finitetop.errors import FormatError, ValidationError

from conftest import indiscrete_space, space_of
from oracles import continuity_witness_by_opens, final_opens_by_subsets, opens_from_kernels_by_subsets


def pm(src, dst, pairs):
    return ft.PointMap.from_dict(src, dst, dict(pairs))


def all_maps(src, dst):
    for choice in iproduct(range(dst.n), repeat=src.n):
        yield ft.PointMap(src, dst, choice)


# -- continuity ----------------------------------------------------------------


def test_constant_maps_are_continuous(divisors, sierpinski):
    for t in sierpinski.points:
        f = pm(divisors, sierpinski, [(p, t) for p in divisors.points])
        assert ft.is_continuous(f).ok


def test_divisors_to_sierpinski(divisors, sierpinski):
    f = pm(divisors, sierpinski, [("1", "0"), ("2", "0"), ("3", "0"), ("6", "1")])
    assert ft.is_continuous(f).ok
    g = pm(divisors, sierpinski, [("1", "1"), ("2", "0"), ("3", "0"), ("6", "0")])
    check = ft.is_continuous(g)
    assert not check.ok
    assert sierpinski.labels(check.witness_open) == ("1",)


def test_continuity_definitional_oracle(small_spaces):
    # preimage of every open is open, spelled out, on every pair of small
    # spaces; the smallest failing open is the witness either way
    for src in small_spaces:
        for dst in [sp for sp in small_spaces if sp.n <= 2]:
            for f in all_maps(src, dst):
                witness = continuity_witness_by_opens(f)
                check = ft.is_continuous(f)
                assert check.ok == (witness is None)
                assert check.witness_open == witness


def test_map_must_be_total(divisors, sierpinski):
    with pytest.raises(FormatError):
        ft.PointMap.from_dict(divisors, sierpinski, {"1": "0"})


def test_map_range_error_names_the_source_point_and_index(sierpinski):
    with pytest.raises(FormatError, match=r"^map image of '1' is 5, not a target point index$"):
        ft.PointMap(sierpinski, sierpinski, (0, 5))


@pytest.mark.parametrize(
    "call, msg",
    [
        (lambda s: ft.initial_topology(s.points, [((0,), s)]), "map must be total on the source carrier"),
        (lambda s: ft.initial_topology(s.points, [((0, 2), s)]), "map image of '1' is 2, not a target point index"),
        (lambda s: ft.final_topology(s.points, [(s, (0, 1, 1))]), "map must be total on the source carrier"),
        (lambda s: ft.final_topology(s.points, [(s, (-1, 0))]), "map image of '0' is -1, not a target point index"),
    ],
    ids=["initial-length", "initial-range", "final-length", "final-range"],
)
def test_construction_assignment_is_checked_like_a_point_map(sierpinski, call, msg):
    with pytest.raises(FormatError) as err:
        call(sierpinski)
    assert str(err.value) == msg


def test_image_and_preimage_check_their_mask(sierpinski, divisors):
    f = pm(sierpinski, divisors, [("0", "1"), ("1", "2")])
    assert f.image(0b11) == divisors.mask(["1", "2"])
    with pytest.raises(FormatError, match=r"^set 0x4 is not a subset of the carrier$"):
        f.image(0b100)
    with pytest.raises(FormatError, match=r"^set -0x1 is not a subset of the carrier$"):
        f.image(-1)
    off = 1 << divisors.n
    assert f.preimage(divisors.full) == sierpinski.full
    with pytest.raises(FormatError, match=rf"^set {off | 1:#x} is not a subset of the carrier$"):
        f.preimage(off | 1)


# -- homeomorphisms --------------------------------------------------------------


def test_identity_is_homeomorphism(divisors):
    ident = pm(divisors, divisors, [(p, p) for p in divisors.points])
    assert homeomorphism_fault(ident) is None


def test_discrete_to_indiscrete_identity_is_not():
    disc = ft.discrete_space(("a", "b"))
    ind = indiscrete_space(("a", "b"))
    f = pm(disc, ind, [("a", "a"), ("b", "b")])
    assert ft.is_continuous(f).ok
    assert sorted(f.assignment) == list(range(ind.n))  # a bijection
    assert homeomorphism_fault(f) is not None


@pytest.mark.parametrize(
    "source, target, pairs, message, witness",
    [
        ("discrete", "discrete", [("a", "a"), ("b", "a")], "map is not injective", {"x": "a", "y": "b"}),
        ("discrete", "discrete3", [("a", "a"), ("b", "b")], "map is not surjective", {"y": "c"}),
        ("indiscrete", "sierpinski", [("a", "a"), ("b", "b")], "map is not continuous", {"open": "{b}"}),
        ("discrete", "indiscrete", [("a", "a"), ("b", "b")], "inverse map is not continuous", {"open": "{a}"}),
        ("discrete", "discrete", [("a", "b"), ("b", "a")], None, None),
    ],
)
def test_homeomorphism_fault_names_the_first_failure(source, target, pairs, message, witness):
    spaces = {
        "discrete": ft.discrete_space(("a", "b")),
        "discrete3": ft.discrete_space(("a", "b", "c")),
        "indiscrete": indiscrete_space(("a", "b")),
        "sierpinski": space_of(("a", "b"), ["b"]),
    }
    fault = homeomorphism_fault(pm(spaces[source], spaces[target], pairs))
    if message is None:
        assert fault is None
    else:
        assert (str(fault), fault.witness) == (message, witness)


def test_relabeled_divisors_homeomorphic(divisors):
    relabel = dict(zip(("1", "2", "3", "6"), ("e", "p", "q", "t")))
    other = ft.topology_from_poset(
        ft.Preorder(tuple(relabel[p] for p in divisors.points), divisors.rel)  # the space is its own order
    )
    f = pm(divisors, other, relabel.items())
    assert homeomorphism_fault(f) is None


# -- initial topologies -----------------------------------------------------------


def test_subspace_of_divisors(divisors):
    sub = ft.subspace(divisors, divisors.mask(["2", "3", "6"]))
    want = {(), ("6",), ("2", "6"), ("3", "6"), ("2", "3", "6")}
    assert {sub.labels(u) for u in sub.opens} == want


def test_subspace_matches_trace_oracle(divisors):
    keep = divisors.mask(["1", "2", "6"])
    sub = ft.subspace(divisors, keep)
    traces = set()
    for u in divisors.opens:
        traces.add(frozenset(divisors.labels(u & keep)))
    assert {frozenset(sub.labels(u)) for u in sub.opens} == traces


def test_product_of_sierpinski(sierpinski):
    sp = ft.product(sierpinski, sierpinski)
    assert sp.n == 4
    assert len(sp.opens) == 6
    # opens are exactly the unions of open rectangles
    rect_unions = set()
    ops = sorted(sierpinski.opens)
    rects = []
    for u in ops:
        for v in ops:
            m = 0
            for i in bits(u):
                for j in bits(v):
                    m |= 1 << sp.index(product_label(sierpinski.points[i], sierpinski.points[j]))
            rects.append(m)
    for pick in subsets((1 << len(rects)) - 1):
        m = 0
        for i in bits(pick):
            m |= rects[i]
        rect_unions.add(m)
    assert sp.opens == frozenset(rect_unions)


def test_initial_identity_returns_same_topology(divisors):
    sp = ft.initial_topology(divisors.points, [(range(divisors.n), divisors)])
    assert sp.opens == divisors.opens


def test_initial_universal_property(small_spaces):
    # h into the initial carrier is continuous iff every composite is,
    # checked for every h from every space on up to 3 points
    targets = [sp for sp in small_spaces if sp.n == 2]
    z_pool = [sp for sp in small_spaces if 1 <= sp.n <= 3]
    carrier = ("u", "v", "w")
    for t1 in targets:
        for t2 in targets[:2]:
            maps = [((0, 1, 1), t1), ((1, 0, 1), t2)]
            a = ft.initial_topology(carrier, maps)
            fs = [ft.PointMap(a, t, m) for m, t in maps]
            assert all(continuity_witness_by_opens(f) is None for f in fs)
            for z in z_pool:
                for h in all_maps(z, a):
                    lhs = ft.is_continuous(h).ok
                    rhs = all(
                        ft.is_continuous(
                            ft.PointMap(z, f.target, tuple(f.assignment[j] for j in h.assignment))
                        ).ok
                        for f in fs
                    )
                    assert lhs == rhs


def test_initial_is_smallest(small_spaces):
    # every topology strictly below the initial one breaks some factor
    t1 = space_of(("x", "y"), ["x"])
    a = ft.initial_topology(("u", "v"), [((0, 1), t1)])
    for candidate in (ft.FiniteSpace(("u", "v"), sp.rel) for sp in ft.all_topologies(2)):
        if candidate.opens < a.opens:
            f = ft.PointMap(candidate, t1, (0, 1))
            assert not ft.is_continuous(f).ok


# -- final topologies ---------------------------------------------------------------


def test_quotient_of_divisors(divisors):
    eq = ft.EquivalenceRelation(
        divisors.points,
        (divisors.mask(["1"]), divisors.mask(["2", "3"]), divisors.mask(["6"])),
    )
    sp, assignment = ft.quotient(divisors, eq)
    assert sp.points == ("1", "23", "6")
    want = {(), ("6",), ("23", "6"), ("1", "23", "6")}
    assert {sp.labels(u) for u in sp.opens} == want
    class_of = {p: sp.points[c] for p, c in zip(divisors.points, assignment)}
    assert class_of["2"] == class_of["3"] == "23"
    relabelled = ft.EquivalenceRelation(("a", "b", "c", "d"), eq.blocks)
    with pytest.raises(ValidationError, match="^equivalence relation lives on a different carrier$"):
        ft.quotient(divisors, relabelled)


def test_quotient_preimage_criterion(divisors):
    eq = ft.EquivalenceRelation(
        divisors.points, (divisors.mask(["1", "2"]), divisors.mask(["3", "6"]))
    )
    sp, assignment = ft.quotient(divisors, eq)
    for u in subsets(sp.full):
        union_upstairs = 0
        for i in range(divisors.n):
            if u >> assignment[i] & 1:
                union_upstairs |= 1 << i
        assert (u in sp.opens) == (union_upstairs in divisors.opens)


def partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def test_final_topology_matches_preimage_oracle(spaces_up_to_4, small_spaces):
    # every quotient of every space on up to 4 points
    for sp in spaces_up_to_4:
        for part in partitions(list(range(sp.n))):
            blocks = tuple(sum(1 << i for i in b) for b in part)
            q, assignment = ft.quotient(sp, ft.EquivalenceRelation(sp.points, blocks))
            assert q.opens == final_opens_by_subsets(q.points, [(sp, assignment)])
    # every sum of two spaces on up to 3 points, with a third map folding both
    for a in small_spaces:
        a2 = ft.FiniteSpace.from_opens(tuple(p.upper() for p in a.points), a.opens)
        for b in small_spaces:
            s = ft.topological_sum(a2, b)
            factors = [(a2, range(a2.n)), (b, range(a2.n, s.n))]
            assert s.opens == final_opens_by_subsets(s.points, factors)
            if a.n == b.n:
                factors.append((b, range(b.n)))  # b's i-th point onto a2's i-th
                got = ft.final_topology(s.points, factors)
                assert got.opens == final_opens_by_subsets(s.points, factors)


def test_sum_of_singletons_is_discrete():
    a = ft.discrete_space(("a",))
    b = ft.discrete_space(("b",))
    sp = ft.topological_sum(a, b)
    assert sp.opens == ft.discrete_space(("a", "b")).opens


def test_sum_label_clash():
    with pytest.raises(ValidationError):
        ft.topological_sum(ft.discrete_space(("a",)), ft.discrete_space(("a",)))


def test_final_identity_returns_same_topology(divisors):
    sp = ft.final_topology(divisors.points, [(divisors, range(divisors.n))])
    assert sp.opens == divisors.opens


def test_block_labels_sorted():
    sp = ft.discrete_space(("b", "a", "c"))
    assert block_labels(sp, (0b111,)) == ("abc",)


def test_block_labels_collisions():
    sp = ft.discrete_space(("1", "2", "12"))
    assert block_labels(sp, (0b011, 0b100)) == ("1+2", "12")
    sp = ft.discrete_space(("1", "2", "12", "1+2"))
    eq = ft.EquivalenceRelation(sp.points, (0b0011, 0b0100, 0b1000))
    with pytest.raises(ValidationError) as err:
        ft.quotient(sp, eq)
    assert err.value.witness == {"A": ("1", "2"), "B": ("1+2",)}


def test_partition_block_off_the_carrier_is_a_format_error():
    with pytest.raises(FormatError, match="^partition block 0x4 is not a subset of the carrier$"):
        ft.EquivalenceRelation(("a", "b"), (0b11, 0b100))


# -- Hausdorff vs diagonal, image subspace --------------------------------------------


def diagonal_mask(space, factor):
    m = 0
    for p in factor.points:
        m |= 1 << space.index(product_label(p, p))
    return m


def test_hausdorff_iff_diagonal_closed(small_spaces):
    for sp in small_spaces:
        if sp.n == 0:
            continue
        prod = ft.product(sp, sp)
        diag = diagonal_mask(prod, sp)
        assert ft.separation_profile(sp).t2 == (prod.closure(diag) == diag)


def test_image_subspace_well_formed(small_spaces):
    pool = [sp for sp in small_spaces if 1 <= sp.n <= 2]
    for src in pool[:6]:
        for dst in pool[:6]:
            for f in all_maps(src, dst):
                img = f.image(src.full)
                sub = ft.subspace(dst, img)  # validates its own invariants
                assert sub.full == (1 << img.bit_count()) - 1


# -- one point extension ----------------------------------------------------------------


def test_one_point_extension_of_empty():
    empty = ft.FiniteSpace.from_opens((), {0})
    sp = ft.one_point_extension(empty, "inf")
    assert sp.points == ("inf",)
    assert sp.opens == frozenset({0, 1})


def test_one_point_extension_of_discrete():
    for n in (1, 2):
        base = ft.discrete_space(tuple(chr(97 + i) for i in range(n)))
        sp = ft.one_point_extension(base, "inf")
        assert sp.opens == ft.discrete_space(base.points + ("inf",)).opens


def test_one_point_extension_trace_and_isolated_point():
    base = ft.discrete_space(("a", "b", "c"))
    sp = ft.one_point_extension(base, "w")
    keep = sp.mask(["a", "b", "c"])
    traces = {u & keep for u in sp.opens}
    assert traces == set(base.opens)
    assert sp.is_open(sp.mask(["w"]))  # the whole base is compact


def test_one_point_extension_rejections(sierpinski):
    with pytest.raises(ValidationError) as err:
        ft.one_point_extension(sierpinski, "inf")
    assert err.value.witness == {"x": "0", "y": "1"}
    disc = ft.discrete_space(("a", "b"))
    with pytest.raises(ValidationError):
        ft.one_point_extension(disc, "a")


# -- internal constructors against the validating one -------------------------------


def built_spaces(sp, rng):
    """What every internal constructor builds from the space, by name."""
    n = sp.n
    two = space_of(("S0", "S1"), ["S1"])
    yield "all_topologies", sp
    yield "discrete", ft.discrete_space(sp.points)
    yield "indiscrete", indiscrete_space(sp.points)
    yield "poset", ft.topology_from_poset(ft.Preorder(sp.points, sp.rel))
    yield "closure", ft.topology_from_closure(ft.induced_closure_table(sp))
    yield "base", ft.generate_topology(ft.SetFamily(sp.points, tuple(sorted(sp.opens))))
    yield "product", ft.product(sp, two)
    yield "sum", ft.topological_sum(sp, two)
    if not n:
        return
    yield "subspace", ft.subspace(sp, rng.randrange(1, 1 << n))
    cut = rng.randint(1, n)
    order = rng.sample(range(n), n)
    blocks = tuple(sum(1 << i for i in part) for part in (order[:cut], order[cut:]) if part)
    yield "quotient", ft.quotient(sp, ft.EquivalenceRelation(sp.points, blocks))[0]
    pts = tuple(f"y{i}" for i in range(rng.randint(1, 4)))
    yield "initial", ft.initial_topology(pts, [([rng.randrange(n) for _ in pts], sp)])
    yield "final", ft.final_topology(pts, [(sp, [rng.randrange(len(pts)) for _ in sp.points])])


def test_internal_constructors_match_the_validating_constructor(spaces_up_to_4, five_point_sample):
    rng = random.Random(55)
    seen = set()
    for sp in spaces_up_to_4 + five_point_sample:
        for name, built in built_spaces(sp, rng):
            seen.add(name)
            back = ft.FiniteSpace.from_opens(built.points, built.opens)
            assert back == built, name
            assert back.rel == built.rel, name
            assert built.opens == opens_from_kernels_by_subsets(built.n, back.rel), name
    assert len(seen) == 12
