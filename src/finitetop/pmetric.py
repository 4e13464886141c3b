"""Pseudometric spaces on finite point sets, plus the iterative solvers.

A distance is kept as given, an int, a Fraction or a float at its binary
value, and compared exactly. In the chain construction path lengths are whole
multiples of 2^-(k+1) for a chain of depth k: they are summed as ints in those
units and divided once, so every distance is an exact float.
The triangle test costs n^2/2 big-int sums over rows packed into lanes, and
n sums for the first pair they flag (`_triangle_suspects`).
"""

import math
import struct
from itertools import combinations
from operator import add, itemgetter, ne, sub
from sys import byteorder

from .bitsets import bits, intransitive_triple
from .construct import block_labels
from .errors import FormatError, ValidationError
from .records import record
from .spaces import Carrier, FiniteSpace, _union

_LANES_FROM = 11  # fewer points check every pair: packing them costs more than it saves


@record
class PMetricSpace(Carrier):
    points: tuple
    dist: tuple  # tuple of row tuples of ints, Fractions or floats

    def __post_init__(self):
        self._carrier(cap=False)
        object.__setattr__(self, "dist", tuple(map(tuple, self.dist)))
        n = len(self.points)
        if len(self.dist) != n or any(len(r) != n for r in self.dist):
            raise FormatError("distance matrix shape does not match the point count")
        q = _on_one_scale(self.dist)
        # Each check runs over a whole row of q at once; the first failing entry,
        # in row-major order, is looked up only in a row known to fail. A NaN
        # fails `!=`, so `min` decides the sign on rows of numbers only.
        for i, col in enumerate(zip(*q)):
            row = q[i]
            if row[i] != 0:
                raise ValidationError("nonzero self-distance", {"x": self.points[i]})
            if min(row) < 0 or any(map(ne, row, col)):
                j = next(j for j in range(n) if row[j] < 0 or row[j] != col[j])
                what = "negative distance" if row[j] < 0 else "asymmetric distance"
                raise ValidationError(what, {"x": self.points[i], "y": self.points[j]})
        # q is symmetric now, so row j stands in for column j, and the pair
        # (j, i) sums the same numbers as (i, j): the upper triangle decides,
        # and the first failing pair in row-major order lies in it.
        for i, j in _triangle_suspects(q):
            if q[i][j] > min(map(add, q[i], q[j])):
                k = next(k for k in range(n) if q[i][j] > q[i][k] + q[k][j])
                raise ValidationError(
                    "triangle inequality fails",
                    {"x": self.points[i], "z": self.points[k], "y": self.points[j]},
                )

    @property
    def is_metric(self):
        return all(v > 0 for i, row in enumerate(self.dist) for j, v in enumerate(row) if i != j)


def _on_one_scale(d):
    """d with each finite entry times the lcm of their denominators, as ints (inf and nan stay), or
    d itself if whole and below 2^53, where a float sum that rounds is past every entry."""
    values = set().union(*d)
    ratio = {v: v.as_integer_ratio() for v in values if v - v == 0}
    scale = math.lcm(*[b for _, b in ratio.values()])
    if scale == 1 and max(ratio, default=0) < 2**53:
        return d
    whole = {v: a * (scale // b) for v, (a, b) in ratio.items()}
    return [list(map(whole.get, row, row)) for row in d]


def _triangle_suspects(q):
    """The pairs i < j, in row-major order, for which some k has q_ik + q_kj < q_ij.

    q is whole and nonnegative (`_on_one_scale`); below 2^52 the low bits of
    the float q + 2^52 are q. Each row packs the low bytes of its q into one
    int of w-bit lanes, and for a pair, lane k of P_i + G + P_j - q_ij*ONES
    keeps its guard bit (G holds the top bit of every lane) iff
    q_ik + q_jk >= q_ij. Every q is below 2^(w-2), so no lane borrows from or
    carries into the next. Entries from 2^46 would need lanes past the 48
    bits below the float's exponent; they, an inf, and carriers too small to
    pay for the packing yield every pair.
    """
    n = len(q)
    top = max(map(max, q)) if n >= _LANES_FROM else math.inf
    if not top < 2**46:
        yield from combinations(range(n), 2)
        return
    size = (math.frexp(top)[1] + 9) // 8  # bytes for lanes of the bits of top, a carry and the guard
    raw = struct.pack(f"{n * n}d", *[v + 2.0**52 for row in q for v in row])
    lanes = bytearray(size * n * n)
    for k in range(size):  # the low bytes of each q, least significant first
        lanes[k::size] = raw[k if byteorder == "little" else 7 - k :: 8]
    step = size * n
    packed = [int.from_bytes(lanes[i : i + step], "little") for i in range(0, step * n, step)]
    cells = memoryview(raw).cast("Q")  # q plus the bits of 2^52, which the diagonal's 0 holds alone
    base = cells[0]
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * n, "little")
    guard = ones << 8 * size - 1
    for i in range(n):
        a = packed[i] + guard
        row = cells[i * n : i * n + n]
        for j in range(i + 1, n):
            if (a + packed[j] - (row[j] - base) * ones) & guard != guard:
                yield i, j


def open_ball(sp: PMetricSpace, center: int, radius: float) -> int:
    return sum(1 << j for j in range(sp.n) if sp.dist[center][j] < radius)


def _zero_rows(sp: PMetricSpace) -> list:
    """Row i is the mask of the points at distance zero from i: an equivalence, as the triangle test is exact."""
    return [sum(1 << j for j, v in enumerate(row) if v == 0) for row in sp.dist]


def topology_from_pmetric(sp: PMetricSpace) -> FiniteSpace:
    """The topology of the open balls: the partition topology of the zero classes.

    On a finite carrier the smallest ball around x, of radius the least
    positive distance, is x's zero class, so that class is the kernel k_x.
    The definitional route, every union of open balls, is a test oracle.
    """
    return FiniteSpace(sp.points, _zero_rows(sp))


def _picker(idx):
    """row -> the tuple of row's entries at the indices idx."""
    get = itemgetter(*idx)
    return get if len(idx) > 1 else lambda row: (get(row),)


def metric_quotient(sp: PMetricSpace):
    """Collapse the distance-zero classes; the induced distance is a metric.

    The classes are the distinct zero rows, listed by lowest point, at their
    lowest points' distance: with the triangle inequality exact, any members
    a ~ a', b ~ b' give d(a, b) <= d(a, a') + d(a', b') + d(b', b) = d(a', b').
    """
    zero = _zero_rows(sp)
    classes = tuple(dict.fromkeys(zero))
    labels = block_labels(sp, classes)
    lowest = [(c & -c).bit_length() - 1 for c in classes]
    reps = _picker(lowest)
    # built past the constructor: the representatives' distances are a principal
    # submatrix of a matrix that passed, and `block_labels` names are distinct
    q = object.__new__(PMetricSpace)
    q.__dict__.update(points=labels, dist=tuple(reps(sp.dist[i]) for i in lowest))
    return q, classes


def hausdorff_distance(sp: PMetricSpace, c: int, d: int):
    """Symmetric max of the two directed point-to-set distances, one of the entries of sp.dist."""
    sp._require_subset((c, d), "set")
    if c == 0 or d == 0:
        raise ValidationError("Hausdorff distance needs nonempty sets")
    ab = max(min(sp.dist[i][j] for j in bits(d)) for i in bits(c))
    ba = max(min(sp.dist[j][i] for i in bits(c)) for j in bits(d))
    return max(ab, ba)


def epsilon_net(sp: PMetricSpace, eps: float):
    """Greedy cover: first uncovered point (carrier order) becomes a center."""
    if not eps > 0:  # NaN too: its balls are empty
        raise ValidationError("net radius must be positive")
    covered = 0
    centers = []
    while covered != sp.full:
        c = next(i for i in range(sp.n) if not covered >> i & 1)
        centers.append(sp.points[c])
        covered |= open_ball(sp, c, eps)
    return centers


# ---------------------------------------------------------------------------
# relation chains


def _compose(rel_a, rel_b):
    return tuple(_union(rel_b[j] for j in bits(row)) for row in rel_a)


@record
class RelationChain(Carrier):
    """Symmetric relations V1..Vk with V_{n+1}^3 below V_n (V0 = everything)."""

    points: tuple
    relations: tuple  # each relation: tuple of row masks

    def __post_init__(self):
        levels = enumerate(self.relations, start=1)
        # one check per level; a chain of depth 0 still checks its labels
        relations = tuple(self._carrier(rel, f"relation {lv} row", cap=False) for lv, rel in levels)
        object.__setattr__(self, "relations", relations or self._carrier(cap=False))
        n = len(self.points)
        prev = ((1 << n) - 1,) * n
        for level, rel in enumerate(self.relations, start=1):
            if len(rel) != n:
                raise FormatError(f"relation {level} must have one row per point")
            for i in range(n):
                if not rel[i] >> i & 1:
                    raise ValidationError(
                        "chain relation misses the diagonal",
                        {"level": level, "x": self.points[i]},
                    )
                for j in bits(rel[i]):
                    if not rel[j] >> i & 1:
                        raise ValidationError(
                            "chain relation is not symmetric",
                            {"level": level, "x": self.points[i], "y": self.points[j]},
                        )
            triple = _compose(_compose(rel, rel), rel)
            for i in range(n):
                if triple[i] & ~prev[i]:
                    j = next(bits(triple[i] & ~prev[i]))
                    raise ValidationError(
                        "chain axiom V^3 <= previous fails",
                        {"level": level, "x": self.points[i], "y": self.points[j]},
                    )
            prev = rel

    @property
    def depth(self):
        return len(self.relations)


def pseudometric_from_chain(chain: RelationChain) -> PMetricSpace:
    """Shortest-path pseudometric squeezed between consecutive chain levels.

    A pair that drops out of the chain after level m gets edge weight
    2^-(m+1); pairs related at every level get weight 0 when the finest
    relation is transitive (it is then an equivalence relation, and its
    classes are the distance-zero classes), and 2^-(k+1) otherwise, which
    amounts to continuing the chain with the identity relation. With k the
    depth, every weight and path sum is a whole number of units 2^-(k+1),
    so the shortest paths run on ints and each distance is divided once.
    The squeeze V_n <= {d < 2^-n} <= V_{n-1} then holds at every level; it
    is a theorem, checked by a test oracle and not rerun here.
    """
    n, k = chain.n, chain.depth
    last = chain.relations[-1] if k else ((1 << n) - 1,) * n
    last_transitive = intransitive_triple(last) is None
    units = []
    for i in range(n):
        row = [1 << k] * n  # unrelated at level 1
        for m, rel in enumerate(chain.relations, start=1):  # V_m lies inside V_(m-1)
            for j in bits(rel[i]):
                row[j] = 1 << (k - m)
        for j in bits(last[i] if last_transitive else 1 << i):
            row[j] = 0
        units.append(row)
    for m, row_m in enumerate(units):
        for i, row_i in enumerate(units):
            dim = row_i[m]
            units[i] = [v if v <= dim + w else dim + w for v, w in zip(row_i, row_m)]
    scale = 1 << (k + 1)
    return PMetricSpace(chain.points, tuple(tuple(v / scale for v in row) for row in units))


@record
class RankedSets(Carrier):
    points: tuple
    rank: tuple  # positive integer per point

    def __post_init__(self):
        self._carrier(cap=False)
        object.__setattr__(self, "rank", tuple(int(r) for r in self.rank))
        if len(self.rank) != len(self.points):
            raise FormatError("need one rank per point")
        for p, r in zip(self.points, self.rank):
            if r <= 0:
                raise ValidationError("ranks must be positive", {"x": p, "rank": r})


def ultrametric_from_rank(rs: RankedSets, a: int, b: int) -> float:
    """2^-(least rank of a witness distinguishing the two sets)."""
    rs._require_subset((a, b), "set")
    diff = a ^ b
    if diff == 0:
        return 0.0
    c = min(rs.rank[i] for i in bits(diff))
    return 2.0 ** (-c)


# ---------------------------------------------------------------------------
# fixed-point solvers


@record
class FixpointResult:
    x: tuple
    iterations: int
    gamma_estimate: float


class NonConvergence(ValidationError):
    def __init__(self, message, trace):
        super().__init__(message, {"trace_tail": [list(map(float, v)) for v in trace[-4:]]})


def _linf(v):
    """The largest |x|, or nan when some x is nan: `max` alone may skip a nan."""
    a = list(map(abs, v))
    total = sum(a)  # nan iff some |x| is nan
    return total if math.isnan(total) else max(a, default=0.0)


_VECTOR_NORMS = {
    "l1": lambda v: sum(map(abs, v)),
    "l2": lambda v: math.sqrt(sum(x * x for x in v)),
    "linf": _linf,
}


def banach_fixed_point(f, x0, metric="l2", tol=1e-12, max_iter=1000) -> FixpointResult:
    """Iterate x -> f(x) until consecutive iterates are tol-close.

    The contraction factor is estimated from the observed step ratios, not
    assumed; non-convergence raises with the trailing iterates attached.
    """
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    if metric not in _VECTOR_NORMS:
        raise FormatError(f"unknown metric {metric!r}")
    norm = _VECTOR_NORMS[metric]
    x = list(map(float, x0))
    trace = [x]
    gamma = 0.0
    prev_step = None
    for it in range(1, max_iter + 1):
        nxt = list(map(float, f(x)))
        trace.append(nxt)
        del trace[:-4]  # the witness reports the last four iterates only
        step = norm(map(sub, nxt, x))
        if prev_step is not None and prev_step > 0:
            gamma = max(gamma, step / prev_step)
        if step <= tol:
            return FixpointResult(tuple(nxt), it, gamma)
        prev_step = step
        x = nxt
    raise NonConvergence(f"no fixed point within {max_iter} iterations", trace)


@record
class StochasticMatrix:
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(map(float, row)) for row in self.rows))
        n = len(self.rows)
        if not n:
            raise FormatError("stochastic matrix has no rows")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise FormatError("stochastic matrix must be square")
            if not all(map(math.isfinite, row)):  # `min` orders numbers only
                raise ValidationError("stochastic matrix entries must be finite", {"row": i})
            if min(row) < 0:
                j = next(j for j, v in enumerate(row) if v < 0)
                raise ValidationError("stochastic matrix entries must be nonnegative", {"row": i, "col": j})
            total = sum(row)
            if abs(total - 1.0) > 1e-12:
                raise ValidationError("stochastic matrix rows must sum to 1", {"row": i, "sum": total})


def pagerank(matrix: StochasticMatrix, tol=1e-9, max_iter=200):
    """Left power iteration from the uniform vector; L1 stopping rule.

    The uniform vector is invariant under every permutation matrix, so a
    periodic chain that permutes its states converges at once; from it the
    rows 0,1,0 / 0.5,0,0.5 / 0,1,0 oscillate with period 2, as the error says.
    """
    import numpy as np

    P = np.array(matrix.rows, dtype=float)
    p = np.full(len(P), 1.0 / len(P))
    older = None
    for _ in range(max_iter):
        nxt = p @ P
        if float(np.abs(nxt - p).sum()) <= tol:
            return nxt
        older, p = p, nxt
    diag = ""
    if older is not None and float(np.abs(p @ P @ P - p).sum()) <= tol:
        diag = "; iterates oscillate with period 2"
    raise NonConvergence(
        f"power iteration did not converge in {max_iter} iterations{diag}",
        [older, p] if older is not None else [p],
    )

