import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finitetop as ft
from finitetop.bitsets import bits, subsets
from finitetop.cli import main
from finitetop.errors import FormatError, ValidationError
from finitetop.formats import load_matrix
from finitetop.pmetric import NonConvergence, _triangle_suspects, open_ball

from oracles import (
    chain_distances_by_fractions,
    chain_units,
    hausdorff_distance_threshold,
    opens_from_balls,
    squeeze_violation,
    stationary_by_squaring,
)


def plane_metric(points_xy, labels=None):
    labels = labels or tuple(str(i + 1) for i in range(len(points_xy)))
    d = [
        [math.dist(p, q) for q in points_xy]
        for p in points_xy
    ]
    return ft.PMetricSpace(labels, d)


def random_pseudometric(rng, n):
    # random plane points, with occasional duplicates for pseudo behaviour
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.3:
            pts.append(rng.choice(pts))
        else:
            pts.append((rng.uniform(0, 4), rng.uniform(0, 4)))
    return plane_metric(pts)


@st.composite
def pmetric_spaces(draw, max_points=5):
    n = draw(st.integers(2, max_points))
    seed = draw(st.integers(0, 10**6))
    return random_pseudometric(random.Random(seed), n)


# -- validation -----------------------------------------------------------------


def test_discrete_metric_validates():
    sp = ft.PMetricSpace(("a", "b", "c"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert sp.is_metric


def test_pseudometric_without_separation():
    sp = ft.PMetricSpace(("a", "b", "c"), [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    assert not sp.is_metric


def test_triangle_violation_reports_triple():
    with pytest.raises(ValidationError) as err:
        ft.PMetricSpace(("a", "b", "c"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    w = err.value.witness
    assert {w["x"], w["y"], w["z"]} == {"a", "b", "c"}


def test_rejection_witness_is_the_first_failing_entry():
    """Random whole-number matrices, some with a broken entry, against the entry-by-entry oracle."""
    rng = random.Random(31)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 7)
        d = [[0.0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            d[i][j] = d[j][i] = float(rng.randint(1, 9))
        for _ in range(rng.choice((0, 0, 1, 2))):
            i, j, v = rng.randrange(n), rng.randrange(n), rng.choice((-1.0, 0.0, 3.0, math.nan))
            d[i][j] = v
            if rng.random() < 0.5:
                d[j][i] = v
        labels = tuple(f"p{i}" for i in range(n))
        want = oracles.first_violation(d, 0.0)  # whole distances: the 1e-9 slack cannot matter
        if want is None:
            ft.PMetricSpace(labels, d)
            continue
        with pytest.raises(ValidationError) as err:
            ft.PMetricSpace(labels, d)
        message, idx = want
        names = ("x", "y", "z")
        assert str(err.value) == message
        assert err.value.witness == {name: labels[i] for name, i in zip(names, idx)}
        seen.add(message)
    assert len(seen) == 4


def test_triangle_witness_at_larger_n():
    """Symmetric triangle violations planted anywhere in matrices of up to 16 points."""
    rng = random.Random(47)
    rows_hit = set()
    for _ in range(300):
        n = rng.randint(3, 16)
        d = [[0.0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            d[i][j] = d[j][i] = float(rng.randint(5, 9))  # any such matrix is a metric
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            d[i][j] = d[j][i] = rng.choice((1.0, 2.0, 19.0, 30.0))  # too short or too long
        labels = tuple(f"p{i}" for i in range(n))
        want = oracles.first_violation(d, 0.0)
        if want is None:
            ft.PMetricSpace(labels, d)
            continue
        message, (x, y, z) = want
        assert message == "triangle inequality fails"
        with pytest.raises(ValidationError) as err:
            ft.PMetricSpace(labels, d)
        assert str(err.value) == message
        assert err.value.witness == {"x": labels[x], "y": labels[y], "z": labels[z]}
        rows_hit.add(x)
    assert len(rows_hit) >= 10


def _triangle_verdict(d):
    """The constructor's verdict on matrix d, held to `first_violation(d, 1e-9)`; the witness row, or None."""
    labels = tuple(f"p{i}" for i in range(len(d)))
    want = oracles.first_violation(d, 1e-9)
    if want is None:
        ft.PMetricSpace(labels, d)
        return None
    with pytest.raises(ValidationError) as err:
        ft.PMetricSpace(labels, d)
    message, idx = want
    assert str(err.value) == message
    assert err.value.witness == {name: labels[i] for name, i in zip(("x", "y", "z"), idx)}
    return idx[0]


def _l1(points):
    return [[float(sum(abs(a - b) for a, b in zip(p, q))) for q in points] for p in points]


def _plant(rng, d, values):
    """Set up to three symmetric pairs of d to values drawn from `values(v)`, v the pair's old distance."""
    n = len(d)
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        d[i][j] = d[j][i] = rng.choice(values(d[i][j]))
    return d


def _whole(rng, n, span):
    pts = [tuple(rng.randrange(span) for _ in range(3)) for _ in range(n - n // 10)]
    pts += rng.sample(pts, n // 10)  # repeated points: a pseudometric
    rng.shuffle(pts)
    return _plant(rng, _l1(pts), lambda v: (0.0, v // 2, v + 1, v * 3 + 1, v * 5 + 7))


def _tenths(rng, n):
    pts = [tuple(rng.randrange(60) for _ in range(2)) for _ in range(n)]
    text = "".join(",".join(str(v / 10) for v in row) + "\n" for row in _l1(pts))
    return _plant(rng, load_matrix(text), lambda v: (0.0, v + 0.1, round(v * 2 + 0.3, 1), v + 9.9))


def _euclid(rng, n):
    pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(n)]
    d = [[math.dist(p, q) for q in pts] for p in pts]
    return _plant(rng, d, lambda v: (0.0, v / 3, v * 1.5 + 0.01, v + 4.0, v + 1e-6))


def _chain(rng):
    chain = random_chain(rng, max_points=40, max_depth=5)
    while chain.n < 12:
        chain = random_chain(rng, max_points=40, max_depth=5)
    d = [list(row) for row in ft.pseudometric_from_chain(chain).dist]
    return _plant(rng, d, lambda v: (0.0, v / 4, v + 0.25, v + 0.75))


def _boundary(rng, n):
    """Points on a line, so most triangles are tight, with one pair pushed out by under or over the slack."""
    xs = sorted(rng.sample(range(1000), n))
    d = [[float(abs(x - y)) for y in xs] for x in xs]
    i = rng.randrange(n - 2)
    j = rng.randrange(i + 2, n)
    d[i][j] = d[j][i] = d[i][j] + rng.choice((0.5e-9, 1e-9, 1.5e-9, 2e-9))
    return d


def _into_binade(d, x):
    """d times the power of two that puts its largest entry in the binade of x."""
    k = math.frexp(x)[1] - math.frexp(max(map(max, d)))[1]
    return [[math.ldexp(v, k) for v in row] for row in d]


def _two_clusters(rng, n, near, far):
    """Points of two clusters: `near(i, j)` inside one, `far` across."""
    side = [rng.randrange(2) for _ in range(n)]
    return [[0.0 if i == j else near(i, j) if side[i] == side[j] else far for j in range(n)] for i in range(n)]


MATRIX_CLASSES = {
    "whole-byte": lambda rng: _whole(rng, rng.randint(17, 70), 12),
    "whole-wide": lambda rng: _whole(rng, rng.randint(17, 50), 400),
    "whole-large": lambda rng: _into_binade(_whole(rng, 20, 12), 2.0**45),
    "whole-beyond-lanes": lambda rng: _into_binade(_whole(rng, 20, 12), 2.0**46),
    "fraction-large": lambda rng: _into_binade(_euclid(rng, 20), 2.0**11),
    "fraction-beyond-lanes": lambda rng: _into_binade(_euclid(rng, 20), 2.0**12),
    "chain": _chain,
    "tenths": lambda rng: _tenths(rng, rng.randint(12, 50)),
    "euclid": lambda rng: _euclid(rng, rng.randint(12, 50)),
    "boundary": lambda rng: _boundary(rng, rng.randint(12, 40)),
    "inf": lambda rng: _plant(rng, _two_clusters(rng, rng.randint(12, 30), lambda i, j: 1.0 + (i + j) % 2, math.inf),
                              lambda v: (math.inf, 0.0, 5.0)),
    "mixed": lambda rng: _plant(rng, _two_clusters(rng, rng.randint(12, 30), lambda i, j: 5e-324, 1e300),
                                lambda v: (1e300, 1e300, 0.0)),
    "subnormal": lambda rng: _two_clusters(rng, rng.randint(12, 30), lambda i, j: 5e-324 * (1 + (i ^ j) % 3), 1e-310),
}


@pytest.mark.parametrize("kind", MATRIX_CLASSES)
def test_triangle_test_matches_the_entry_by_entry_oracle(kind):
    """Verdict, message and witness against the float sweep over (i, j, k), with the 1e-9 slack."""
    rng = random.Random(kind)
    verdicts = [_triangle_verdict(MATRIX_CLASSES[kind](rng)) for _ in range(25)]
    if kind != "subnormal":  # every distance there is below the slack
        assert None in verdicts and len(set(verdicts)) >= 4


def test_triangle_test_on_edge_cases():
    """Tiny carriers, the inf a library caller can pass, a pair 0.5e-9 and 2e-9 past a tight triangle,
    and violations at 200 points in rows far apart."""
    for d in ([], [[0.0]], [[0.0, 1.0], [1.0, 0.0]]):
        assert _triangle_verdict(d) is None
    inf = math.inf
    assert _triangle_verdict([[0.0, 1.0, inf], [1.0, 0.0, 1.0], [inf, 1.0, 0.0]]) == 0
    with pytest.raises(ValidationError) as err:
        ft.PMetricSpace(("a", "b", "c"), [[0, 1, inf], [1, 0, 1], [inf, 1, 0]])
    assert err.value.witness == {"x": "a", "z": "b", "y": "c"}
    xs = range(0, 60, 2)  # 30 points on a line: d(0, 58) = d(0, k) + d(k, 58) for every k
    for bump, verdict in ((0.5e-9, None), (2e-9, 0)):
        d = [[float(abs(x - y)) for y in xs] for x in xs]
        d[0][-1] = d[-1][0] = 58 + bump
        assert _triangle_verdict(d) == verdict
    rng = random.Random(200)
    pts = [tuple(rng.randrange(12) for _ in range(3)) for _ in range(200)]
    rows = set()
    for _ in range(3):
        d = _l1(pts)
        i, j = sorted(rng.sample(range(200), 2))
        d[i][j] = d[j][i] = 40.0
        rows.add(_triangle_verdict(d))
    assert len(rows) == 3


@pytest.mark.parametrize(
    "kind", ["whole-byte", "whole-wide", "whole-large", "fraction-large", "chain", "tenths", "euclid", "subnormal"]
)
def test_lanes_clear_every_pair_of_a_valid_matrix(kind):
    """On valid matrices of at least 12 points the integer lanes leave no pair to the float test."""
    rng = random.Random(kind)
    checked = 0
    while checked < 10:
        d = MATRIX_CLASSES[kind](rng)
        if oracles.first_violation(d, 1e-9) is None:
            sp = ft.PMetricSpace(tuple(map(str, range(len(d)))), d)
            assert list(_triangle_suspects(sp.dist)) == []
            checked += 1


@pytest.mark.parametrize("span", [12, 22, 40, 400, 2**20])
def test_lanes_flag_exactly_the_failing_pairs_of_a_whole_matrix(span):
    """On whole numbers below 2^46 the lanes are exact: a pair is flagged iff some k has d_ik + d_kj < d_ij.

    Span 22 puts the largest L1 distance at 63, the last one byte lanes hold;
    the planted distances and the larger spans take wider lanes."""
    rng = random.Random(span)
    flagged = 0
    for _ in range(20):
        d = _whole(rng, rng.randint(12, 40), span)
        n = len(d)
        want = [(i, j) for i, j in combinations(range(n), 2) if min(map(sum, zip(d[i], d[j]))) < d[i][j]]
        assert list(_triangle_suspects(tuple(map(tuple, d)))) == want
        flagged += len(want)
    assert flagged


@pytest.mark.parametrize("kind", ["whole-beyond-lanes", "fraction-beyond-lanes", "inf", "mixed"])
def test_lanes_fall_back_to_every_pair(kind):
    """An inf, whole numbers from 2^46 or fractions from 2^12 leave every pair to the float test, in order."""
    d = MATRIX_CLASSES[kind](random.Random(kind))
    n = len(d)
    assert list(_triangle_suspects(tuple(map(tuple, d)))) == list(combinations(range(n), 2))


def test_negative_and_asymmetric_rejected():
    with pytest.raises(ValidationError):
        ft.PMetricSpace(("a", "b"), [[0, -1], [-1, 0]])
    with pytest.raises(ValidationError):
        ft.PMetricSpace(("a", "b"), [[0, 1], [2, 0]])
    with pytest.raises(ValidationError):
        ft.PMetricSpace(("a", "b"), [[0.5, 1], [1, 0]])


# -- induced topology ----------------------------------------------------------------


@given(pmetric_spaces())
@settings(max_examples=40, deadline=None)
def test_bounded_transforms_preserve_topology(sp):
    """The bounded equivalents min(d, 1) and d/(1+d) give d's topology, every union of d's open balls."""
    want = opens_from_balls(sp)
    for f in (lambda v: min(v, 1.0), lambda v: v / (1.0 + v)):
        bounded = ft.PMetricSpace(sp.points, [[f(v) for v in row] for row in sp.dist])
        assert opens_from_balls(bounded) == want
        assert ft.topology_from_pmetric(bounded).opens == want
    assert ft.topology_from_pmetric(sp).opens == want


def test_topology_from_discrete_metric():
    sp = ft.PMetricSpace(("a", "b", "c"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert ft.topology_from_pmetric(sp).opens == ft.discrete_space(sp.points).opens


def test_topology_from_single_point():
    sp = ft.PMetricSpace(("a",), [[0]])
    assert ft.topology_from_pmetric(sp).opens == frozenset({0, 1})


def test_topology_of_glued_pair():
    sp = ft.PMetricSpace(
        ("a", "b", "c"), [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    )
    top = ft.topology_from_pmetric(sp)
    assert {top.labels(u) for u in top.opens} == {(), ("a", "b"), ("c",), ("a", "b", "c")}


@given(pmetric_spaces())
@settings(max_examples=30, deadline=None)
def test_metric_iff_discrete_topology(sp):
    top = ft.topology_from_pmetric(sp)
    assert (len(top.opens) == 1 << sp.n) == sp.is_metric


# -- quotient --------------------------------------------------------------------------


def test_metric_quotient_example():
    sp = ft.PMetricSpace(("a", "b", "c"), [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    q, classes = ft.metric_quotient(sp)
    assert q.points == ("ab", "c")
    assert q.dist[q.index("ab")][q.index("c")] == 1.0
    assert [sp.labels(c) for c in classes] == [("a", "b"), ("c",)]


def test_metric_quotient_identity_on_metric():
    sp = plane_metric([(0, 0), (1, 0), (0, 2)])
    q, classes = ft.metric_quotient(sp)
    assert q.n == 3 and all(c.bit_count() == 1 for c in classes)


def test_metric_quotient_all_zero():
    sp = ft.PMetricSpace(("a", "b"), [[0, 0], [0, 0]])
    q, classes = ft.metric_quotient(sp)
    assert q.n == 1 and classes == (0b11,)


def test_metric_quotient_colliding_names():
    line = [[0, 0, 1, 2], [0, 0, 1, 2], [1, 1, 0, 1], [2, 2, 1, 0]]
    q, _ = ft.metric_quotient(ft.PMetricSpace(("1", "2", "12", "3"), line))
    assert q.points == ("1+2", "12", "3")
    with pytest.raises(ValidationError):
        ft.metric_quotient(ft.PMetricSpace(("1", "2", "12", "1+2"), line))


@given(pmetric_spaces())
@settings(max_examples=30, deadline=None)
def test_metric_quotient_is_metric(sp):
    q, _ = ft.metric_quotient(sp)
    assert q.is_metric


def test_metric_quotient_refuses_a_nontransitive_zero():
    """The quotient and the topology read the same zero classes, and refuse them alike."""
    for fn in (ft.metric_quotient, ft.topology_from_pmetric):
        # valid: the triangle test allows 1e-9 of slack, so d(1,3) = 1e-10 passes
        sp = ft.PMetricSpace(("1", "2", "3"), [[0, 0, 1e-10], [0, 0, 0], [1e-10, 0, 0]])
        with pytest.raises(ValidationError) as err:
            fn(sp)
        assert str(err.value) == "distance zero is not transitive"
        assert err.value.witness == {"x": "1", "y": "2", "z": "3"}
        # the witness is ordered so that d(x, y) = d(y, z) = 0 < d(x, z)
        sp = ft.PMetricSpace(("a", "b", "c"), [[0, 1e-10, 0], [1e-10, 0, 0], [0, 0, 0]])
        with pytest.raises(ValidationError) as err:
            fn(sp)
        x, y, z = (sp.index(err.value.witness[v]) for v in "xyz")
        assert sp.dist[x][y] == sp.dist[y][z] == 0 < sp.dist[x][z]


def test_metric_quotient_moves_no_distance_between_classes():
    # classes {a, b} and {c, d}; with 1e-9 of slack per triangle, d(b, d)
    # can exceed d(a, c) by 1.6e-9, more than the slack
    e = 0.8e-9
    sp = ft.PMetricSpace(
        ("a", "b", "c", "d"),
        [[0, 0, 1, 1 + e], [0, 0, 1 + e, 1 + 2 * e], [1, 1 + e, 0, 0], [1 + e, 1 + 2 * e, 0, 0]],
    )
    with pytest.raises(ValidationError) as err:
        ft.metric_quotient(sp)
    assert str(err.value) == "quotient distance is not well defined"
    assert err.value.witness == {"x": "b", "y": "d"}


def test_metric_quotient_classes_are_the_zero_rows():
    """On 3000 small matrices with many zeros: the classes partition the points,
    each class's members are at distance zero from each other and from no one
    else, classes are listed by lowest point, and the quotient is a metric that
    the constructor would build alike.
    The topology is every union of open balls, or refused like the quotient."""
    rng = random.Random(77)
    quotients = 0
    for _ in range(3000):
        n = rng.randint(1, 6)
        d = [[0.0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            d[i][j] = d[j][i] = rng.choice((0.0, 0.0, 1.0, 2.0, 1e-10))
        try:
            sp = ft.PMetricSpace(tuple(f"p{i}" for i in range(n)), d)
        except ValidationError:
            continue
        try:
            q, classes = ft.metric_quotient(sp)
        except ValidationError as e:
            assert str(e) == "distance zero is not transitive"
            x, y, z = (sp.index(e.witness[v]) for v in "xyz")
            assert sp.dist[x][y] == sp.dist[y][z] == 0 < sp.dist[x][z]
            with pytest.raises(ValidationError) as err:
                ft.topology_from_pmetric(sp)
            assert (str(err.value), err.value.witness) == (str(e), e.witness)
            continue
        assert ft.topology_from_pmetric(sp).opens == opens_from_balls(sp)
        quotients += 1
        assert sum(classes) == sp.full and len(set(classes)) == len(classes)
        assert [c & -c for c in classes] == sorted(c & -c for c in classes)
        for c in classes:
            for i in bits(c):
                assert {j for j in range(n) if d[i][j] == 0.0} == set(bits(c))
        assert q.is_metric and q.n == len(classes)
        assert q == ft.PMetricSpace(q.points, q.dist)  # the checks it skips would pass, on the same fields
    assert quotients > 1000


# -- point-to-set distance ---------------------------------------------------------------


@pytest.mark.parametrize(
    "call, mask",
    [
        (lambda sp, rs: ft.hausdorff_distance(sp, -1, 1), -1),
        (lambda sp, rs: ft.hausdorff_distance(sp, 1, 0b110), 0b110),
        (lambda sp, rs: ft.ultrametric_from_rank(rs, 4, 1), 4),
    ],
    ids=["hausdorff-negative", "hausdorff-wide", "ultrametric"],
)
def test_set_arguments_must_lie_in_the_carrier(call, mask):
    sp = ft.PMetricSpace(("a", "b"), [[0, 1], [1, 0]])
    rs = ft.RankedSets(("a", "b"), (1, 2))
    with pytest.raises(FormatError, match=rf"^set {mask:#x} is not a subset of the carrier$"):
        call(sp, rs)


@given(pmetric_spaces())
@settings(max_examples=30, deadline=None)
def test_dist_to_set_lipschitz_and_closure(sp):
    """d(x, A), the least distance from x to a point of A, is 1-Lipschitz in x and 0 exactly on cl A."""
    top = ft.topology_from_pmetric(sp)
    for a in range(1, 1 << sp.n):
        dist = [min(row[j] for j in bits(a)) for row in sp.dist]
        for x in range(sp.n):
            for z in range(sp.n):
                assert abs(dist[x] - dist[z]) <= sp.dist[x][z] + 1e-12
            assert (dist[x] == 0.0) == bool(top.closure(a) >> x & 1)


# -- Hausdorff distance ---------------------------------------------------------------------


def test_hausdorff_examples():
    sp = plane_metric([(0, 0), (1, 0), (2, 0)], labels=("0", "1", "2"))
    assert ft.hausdorff_distance(sp, 0b001, 0b010) == sp.dist[sp.index("0")][sp.index("1")]
    assert ft.hausdorff_distance(sp, 0b011, 0b011) == 0.0
    assert ft.hausdorff_distance(sp, 0b011, 0b101) == 1.0
    with pytest.raises(ValidationError, match="^Hausdorff distance needs nonempty sets$"):
        ft.hausdorff_distance(sp, 0, 0b001)


@given(pmetric_spaces())
@settings(max_examples=40, deadline=None)
def test_hausdorff_forms_agree(sp):
    for c in range(1, 1 << sp.n):
        for d in range(1, 1 << sp.n):
            assert ft.hausdorff_distance(sp, c, d) == hausdorff_distance_threshold(sp, c, d)


def test_hausdorff_is_pseudometric_on_subsets():
    rng = random.Random(7)
    for _ in range(5):
        sp = random_pseudometric(rng, 5)
        nonempty = [m for m in range(1, 1 << sp.n)]
        labels = tuple(f"s{m}" for m in nonempty)
        rows = [
            [ft.hausdorff_distance(sp, a, b) for b in nonempty] for a in nonempty
        ]
        hyper = ft.PMetricSpace(labels, rows)  # validates the axioms
        if sp.is_metric:
            # on subsets of a metric space the Hausdorff distance separates
            assert hyper.is_metric


# -- epsilon nets -------------------------------------------------------------------------------


def test_epsilon_net_examples():
    sp = plane_metric([(0, 0), (1, 0), (2, 0), (3, 0)], labels=("0", "1", "2", "3"))
    assert ft.epsilon_net(sp, 10.0) == ["0"]
    assert ft.epsilon_net(sp, 1.5) == ["0", "2"]
    assert ft.epsilon_net(sp, 0.5) == ["0", "1", "2", "3"]
    for eps in (0.0, -1.0):
        with pytest.raises(ValidationError, match="^net radius must be positive$"):
            ft.epsilon_net(sp, eps)


@given(pmetric_spaces(), st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_epsilon_net_covers(sp, eps):
    centers = ft.epsilon_net(sp, eps)
    covered = 0
    for c in centers:
        covered |= open_ball(sp, sp.points.index(c), eps)
    assert covered == (1 << sp.n) - 1


# -- relation chains ------------------------------------------------------------------------------


def full_rel(n):
    return tuple((1 << n) - 1 for _ in range(n))


def sym_pairs(n, pairs):
    rel = [1 << i for i in range(n)]
    for i, j in pairs:
        rel[i] |= 1 << j
        rel[j] |= 1 << i
    return tuple(rel)


def compose3(rel, n):
    def step(base, mask):
        out = 0
        for j in bits(mask):
            out |= base[j]
        return out

    once = tuple(step(rel, rel[i]) for i in range(n))
    return tuple(step(rel, once[i]) for i in range(n))


def random_chain(rng, max_points=6, max_depth=4):
    n = rng.randint(2, max_points)
    depth = rng.randint(1, max_depth)
    finest = sym_pairs(
        n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
    )
    rels = [finest]
    for _ in range(depth - 1):
        grown = list(compose3(rels[0], n))
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            grown[i] |= 1 << j
            grown[j] |= 1 << i
        rels.insert(0, tuple(grown))
    return ft.RelationChain(tuple(chr(97 + i) for i in range(n)), tuple(rels))


def test_chain_all_full_gives_zero():
    chain = ft.RelationChain(("a", "b", "c"), (full_rel(3), full_rel(3)))
    res = ft.pseudometric_from_chain(chain)
    assert all(v == 0.0 for row in res.dist for v in row)


def test_chain_single_equivalence_level():
    chain = ft.RelationChain(("a", "b", "c"), (sym_pairs(3, [(0, 1)]),))
    res = ft.pseudometric_from_chain(chain)
    assert res.dist[res.index("a")][res.index("b")] <= 0.5
    assert res.dist[res.index("a")][res.index("c")] == res.dist[res.index("b")][res.index("c")] == 0.5
    assert not res.is_metric


def test_chain_nontransitive_level_keeps_points_apart():
    # path a-b-c is not transitive, so nothing collapses to distance zero
    chain = ft.RelationChain(("a", "b", "c"), (sym_pairs(3, [(0, 1), (1, 2)]),))
    res = ft.pseudometric_from_chain(chain)
    assert res.dist[res.index("a")][res.index("b")] == 0.25
    assert res.dist[res.index("a")][res.index("c")] == 0.5  # two quarter-weight steps
    assert res.is_metric


def exact(res, chain):
    """The chain metric's distances as exact dyadics, from their whole numbers of units."""
    scale = 1 << (chain.depth + 1)
    return tuple(tuple(Fraction(v, scale) for v in row) for row in chain_units(chain, res))


def test_chain_squeeze_on_adversarial_path():
    # a 6-point path at the finest level whose closure escapes level 1
    n = 6
    v2 = sym_pairs(n, [(i, i + 1) for i in range(n - 1)])
    v1 = tuple(
        sum(1 << j for j in range(n) if abs(i - j) <= 3) for i in range(n)
    )
    chain = ft.RelationChain(tuple("123456"), (v1, v2))
    res = ft.pseudometric_from_chain(chain)
    assert squeeze_violation(chain, chain_units(chain, res)) is None
    assert exact(res, chain)[0][5] >= Fraction(1, 4)  # pair (1,6) must stay out of level 1
    assert exact(res, chain) == chain_distances_by_fractions(chain)


def test_chain_squeeze_on_200_random_chains():
    rng = random.Random(2024)
    for _ in range(200):
        chain = random_chain(rng)
        res = ft.pseudometric_from_chain(chain)
        assert squeeze_violation(chain, chain_units(chain, res)) is None
        ex = exact(res, chain)
        assert ex == chain_distances_by_fractions(chain)
        assert res.dist == tuple(tuple(map(float, row)) for row in ex)
        # the squeeze again, spelled out against the exact distances
        for level, rel in enumerate(chain.relations, start=1):
            bound = Fraction(1, 2**level)
            for i in range(chain.n):
                for j in range(chain.n):
                    if rel[i] >> j & 1:
                        assert ex[i][j] < bound
                    if ex[i][j] < bound and level >= 2:
                        assert chain.relations[level - 2][i] >> j & 1


def symmetric_relations(n):
    """Every reflexive symmetric relation on n points, as row masks."""
    pairs = list(combinations(range(n), 2))
    return [sym_pairs(n, [p for b, p in enumerate(pairs) if pick >> b & 1]) for pick in range(1 << len(pairs))]


def valid_chains(n, depth):
    labels = tuple("abcd"[:n])
    out = []
    for rels in product(symmetric_relations(n), repeat=depth):
        try:
            out.append(ft.RelationChain(labels, rels))
        except ValidationError:
            pass
    return out


def test_chain_squeeze_on_every_small_chain():
    """Every valid chain of depth at most 2 on up to 4 points, and of depth 3 on 3."""
    count = 0
    for n, depth in [(n, d) for n in range(5) for d in range(3)] + [(3, 3)]:
        for chain in valid_chains(n, depth):
            res = ft.pseudometric_from_chain(chain)
            assert squeeze_violation(chain, chain_units(chain, res)) is None, chain
            assert exact(res, chain) == chain_distances_by_fractions(chain)
            count += 1
    assert count > 500


def test_squeeze_oracle_sees_a_broken_distance():
    chain = ft.RelationChain(("a", "b", "c"), (sym_pairs(3, [(0, 1)]),))
    units = chain_units(chain, ft.pseudometric_from_chain(chain))
    assert units[0][1] == 0 and units[0][2] == 2  # depth 1: units of 1/4
    units[0][1] = 2  # a pair of V1 at distance 1/2
    assert squeeze_violation(chain, units) == (1, 0, 1, "lower")
    chain = ft.RelationChain(("a", "b", "c"), (sym_pairs(3, [(0, 1)]), sym_pairs(3, [(0, 1)])))
    units = chain_units(chain, ft.pseudometric_from_chain(chain))
    units[0][2] = 1  # 1/8 < 1/4, but (a, c) is not in V1
    assert squeeze_violation(chain, units) == (2, 0, 2, "upper")


def test_chain_axiom_violations():
    with pytest.raises(ValidationError) as err:
        ft.RelationChain(("a", "b"), ((0b01, 0b10 | 0b01),))  # asymmetric
    assert "symmetric" in str(err.value)
    with pytest.raises(ValidationError) as err:
        ft.RelationChain(("a", "b"), ((0b10, 0b01),))
    assert "diagonal" in str(err.value)
    v_fine = sym_pairs(3, [(0, 1), (1, 2)])  # its cube reaches (a,c)
    v_coarse = sym_pairs(3, [(0, 1)])
    with pytest.raises(ValidationError) as err:
        ft.RelationChain(("a", "b", "c"), (v_coarse, v_fine))
    assert err.value.witness["level"] == 2
    with pytest.raises(FormatError, match="^relation 2 must have one row per point$"):
        ft.RelationChain(("a", "b", "c"), (v_coarse, v_coarse[:2]))


# -- ultrametric from ranks ------------------------------------------------------------------------


def test_ultrametric_examples():
    rs = ft.RankedSets(("w1", "w2"), (1, 2))
    assert ft.ultrametric_from_rank(rs, 0b01, 0b01) == 0.0
    assert ft.ultrametric_from_rank(rs, 0b01, 0b10) == 0.5
    with pytest.raises(FormatError, match="^need one rank per point$"):
        ft.RankedSets(("w1", "w2"), (1,))


def test_ultrametric_strong_triangle_exhaustive():
    rs = ft.RankedSets(("a", "b", "c", "d"), (1, 2, 2, 3))
    full = 0b1111
    for a in subsets(full):
        for b in subsets(full):
            dab = ft.ultrametric_from_rank(rs, a, b)
            assert dab == ft.ultrametric_from_rank(rs, b, a)
            assert (dab == 0.0) == (a == b)
            for c in subsets(full):
                assert dab <= max(
                    ft.ultrametric_from_rank(rs, a, c),
                    ft.ultrametric_from_rank(rs, c, b),
                )


# -- solvers ------------------------------------------------------------------------------------------


def test_banach_halving():
    res = ft.banach_fixed_point(lambda v: [x / 2 for x in v], [1.0], tol=1e-12)
    assert abs(res.x[0]) < 1e-11
    assert res.gamma_estimate <= 0.5 + 1e-12


def test_banach_affine():
    res = ft.banach_fixed_point(lambda v: [0.5 * x + 1 for x in v], [0.0], tol=1e-12)
    assert abs(res.x[0] - 2.0) < 1e-11


def test_banach_cosine():
    res = ft.banach_fixed_point(
        lambda v: [math.cos(x) for x in v], [0.0], metric="linf", tol=1e-9
    )
    assert abs(res.x[0] - 0.739085) < 1e-5
    assert res.gamma_estimate < 1.0
    # returned point is a fixed point within tolerance
    assert abs(math.cos(res.x[0]) - res.x[0]) <= 1e-9


def test_banach_divergence_carries_trace():
    with pytest.raises(NonConvergence) as err:
        ft.banach_fixed_point(lambda v: [x + 1 for x in v], [0.0], max_iter=20)
    assert err.value.witness["trace_tail"] == [[17.0], [18.0], [19.0], [20.0]]


def test_banach_keeps_only_the_reported_iterates():
    # all 1001 iterates of 1000 floats would take some 32 MB; the witness reports four
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergence):
            ft.banach_fixed_point(lambda v: [x + 1.0 for x in v], [0.0] * 1000, max_iter=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_banach_rejects_bad_args():
    with pytest.raises(ValidationError):
        ft.banach_fixed_point(lambda v: v, [0.0], tol=0.0)
    with pytest.raises(FormatError, match="^unknown metric 'l3'$"):
        ft.banach_fixed_point(lambda v: v, [0.0], metric="l3")


PAPER_WEB = (
    (0, 1, 0, 0, 0),
    (0.5, 0, 0.5, 0, 0),
    (1 / 3, 1 / 3, 0, 0, 1 / 3),
    (1, 0, 0, 0, 0),
    (0, 1 / 3, 1 / 3, 1 / 3, 0),
)


def test_pagerank_paper_matrix():
    m = ft.StochasticMatrix(PAPER_WEB)
    p = ft.pagerank(m, tol=1e-9, max_iter=200)
    expected = (0.293, 0.390, 0.220, 0.024, 0.073)
    assert all(abs(a - b) <= 0.002 for a, b in zip(p, expected))
    assert abs(sum(p) - 1.0) <= 1e-9
    import numpy as np

    assert float(np.abs(p @ np.array(m.rows) - p).sum()) <= 2e-9


def test_pagerank_symmetric_two_state():
    m = ft.StochasticMatrix(((0.5, 0.5), (0.5, 0.5)))
    p = ft.pagerank(m)
    assert tuple(p) == (0.5, 0.5)


def test_pagerank_bipartite_chain_oscillates_from_the_uniform_start(tmp_path, capsys):
    # the uniform start is invariant under a permutation, so the swap converges...
    assert tuple(ft.pagerank(ft.StochasticMatrix(((0, 1), (1, 0))))) == (0.5, 0.5)
    # ...and a periodic chain that is not a permutation oscillates from it
    web = tmp_path / "bipartite.csv"
    web.write_text("0,1,0\n0.5,0,0.5\n0,1,0\n")
    assert main(["solve", "pagerank", "--in", str(web)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "failed: power iteration did not converge in 200 iterations; iterates oscillate with period 2 [{'trace_tail': "
    )


def test_pagerank_matches_squaring_oracle():
    m = ft.StochasticMatrix(PAPER_WEB)
    p = ft.pagerank(m, tol=1e-9, max_iter=200)
    oracle = stationary_by_squaring(m)
    assert max(abs(a - b) for a, b in zip(p, oracle)) <= 1e-6


def test_stochastic_matrix_validation():
    with pytest.raises(ValidationError):
        ft.StochasticMatrix(((0.5, 0.6), (0.5, 0.5)))
    with pytest.raises(ValidationError):
        ft.StochasticMatrix(((-0.5, 1.5), (0.5, 0.5)))


def test_stochastic_matrix_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError) as err:
            ft.StochasticMatrix(((0.5, 0.5), (bad, 1.0)))
        assert "finite" in str(err.value) and err.value.witness == {"row": 1}


def test_stochastic_matrix_rejects_empty_matrix():
    with pytest.raises(FormatError):
        ft.StochasticMatrix(())
