"""Pseudometric spaces on finite point sets, plus the iterative solvers.

Distances are floats except in the chain construction, whose path lengths
are whole multiples of 2^-(k+1) for a chain of depth k: they are summed as
ints in those units and divided once, so every distance is exact.
The triangle test costs n^2/2 big-int sums over rows packed into lanes, and
n float sums only for the pairs those cannot clear (`_triangle_suspects`).
"""

import math
import struct
from itertools import combinations
from operator import add, ne, sub
from sys import byteorder

from .bitsets import bits, intransitive_triple
from .construct import block_labels
from .errors import FormatError, ValidationError
from .records import record
from .spaces import Carrier, FiniteSpace, _union

_EPS = 1e-9
_LANES_FROM = 11  # fewer points check every pair: packing them costs more than it saves


@record
class PMetricSpace(Carrier):
    points: tuple
    dist: tuple  # tuple of row tuples

    def __post_init__(self):
        self._carrier(cap=False)
        object.__setattr__(self, "dist", tuple(tuple(map(float, row)) for row in self.dist))
        n = len(self.points)
        d = self.dist
        if len(d) != n or any(len(r) != n for r in d):
            raise FormatError("distance matrix shape does not match the point count")
        # Each check runs over a whole row at once; the first failing entry,
        # in row-major order, is looked up only in a row known to fail. A NaN
        # fails `!=`, so `min` decides the sign on rows of numbers only.
        for i, col in enumerate(zip(*d)):
            row = d[i]
            if row[i] != 0.0:
                raise ValidationError("nonzero self-distance", {"x": self.points[i]})
            if min(row) < 0 or any(map(ne, row, col)):
                j = next(j for j in range(n) if row[j] < 0 or row[j] != col[j])
                what = "negative distance" if row[j] < 0 else "asymmetric distance"
                raise ValidationError(what, {"x": self.points[i], "y": self.points[j]})
        # d is symmetric now, so row j stands in for column j, and the pair
        # (j, i) sums the same floats as (i, j): the upper triangle decides,
        # and the first failing pair in row-major order lies in it.
        for i, j in _triangle_suspects(d):
            if d[i][j] > min(map(add, d[i], d[j])) + _EPS:
                k = next(k for k in range(n) if d[i][j] > d[i][k] + d[k][j] + _EPS)
                raise ValidationError(
                    "triangle inequality fails",
                    {"x": self.points[i], "z": self.points[k], "y": self.points[j]},
                )

    @property
    def is_metric(self):
        return all(v > 0 for i, row in enumerate(self.dist) for j, v in enumerate(row) if i != j)


def _triangle_suspects(d):
    """The pairs i < j, in row-major order, on which the float triangle test can fail.

    Every entry becomes an int q = d 2^s, rounded, on one scale: the low 52
    bits of the float d + 2^(52-s) count d in units 2^-s while d < 2^(52-s).
    Each row packs the low bytes of its q into one int of w-bit lanes, and
    for a pair, lane k of P_i + G + P_j - t*ONES keeps its guard bit (G holds
    the top bit of every lane) iff q_ik + q_jk >= t. Every q is below
    2^(w-2), so no lane borrows from or carries into the next. A pair whose
    guard bits all survive passes the float test, so it is skipped:
    - whole numbers (s = 0, so q = d, and t = q_ij): d_ik + d_kj >= d_ij
      exactly, and rounding to nearest is monotone while d_ij is a float;
    - fractions below 2^12 (s >= 33, t = q_ij + 2 - m, m = floor(2^s eps/2)
      >= 4): d_ik + d_kj >= (t - 1) 2^-s > d_ij - eps/2, and the two float
      additions lose at most 2u(d_ik + d_kj) + u eps < 2^-39 + u eps < eps/2
      (u = 2^-53). Lane k = i holds q_ij itself, so without the margin m
      no rounded pair would pass.
    Whole numbers from 2^46 and fractions from 2^12 would need lanes past the
    48 bits below the float's exponent; they, an inf, and carriers too small
    to pay for the packing keep every pair.
    """
    n = len(d)
    if n < _LANES_FROM:
        return combinations(range(n), 2)
    whole = all(all(map(float.is_integer, row)) for row in d)
    top = 0.0
    for most in map(max, d):  # row by row: an entry out of reach, or an inf, ends the scan
        if not most < (2**46 if whole else 2**12):
            return combinations(range(n), 2)
        top = max(top, most)
    e = max(math.frexp(top)[1], -900)  # top < 2^e; the bound keeps 2^(52-s) normal
    if whole:  # bytes for lanes of e bits, a carry and the guard
        size, s, lift = (e + 9) // 8, 0, 0
    else:  # bytes for 33 or more bits below the point and e above it, a spare bit, a carry and the guard
        size = max((e + 43) // 8, 1)
        s = 8 * size - 3 - e
        lift = 2 - int(math.ldexp(_EPS / 2, s))
    big = math.ldexp(1.0, 52 - s)
    raw = struct.pack(f"{n * n}d", *[v + big for row in d for v in row])
    lanes = bytearray(size * n * n)
    for k in range(size):  # the low bytes of each q, least significant first
        lanes[k::size] = raw[k if byteorder == "little" else 7 - k :: 8]
    step = size * n
    packed = [int.from_bytes(lanes[i : i + step], "little") for i in range(0, step * n, step)]
    cells = memoryview(raw).cast("Q")  # q plus the bits of big, the diagonal's 0 + big
    q = [cells[i : i + n] for i in range(0, n * n, n)]
    return _lane_suspects(packed, q, size, lift - cells[0])


def _lane_suspects(packed, q, size, lift):
    """The pairs i < j whose lanes of `size` bytes in P_i + G + P_j - (q_ij + lift)*ONES lose a guard bit."""
    n = len(packed)
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * n, "little")
    guard = ones << 8 * size - 1
    for i, qi in enumerate(q):
        a = packed[i] + guard
        for j in range(i + 1, n):
            t = qi[j] + lift
            if t > 0 and (a + packed[j] - t * ones) & guard != guard:
                yield i, j


def open_ball(sp: PMetricSpace, center: int, radius: float) -> int:
    return sum(1 << j for j in range(sp.n) if sp.dist[center][j] < radius)


def _zero_rows(sp: PMetricSpace) -> list:
    """Row i is the mask of the points at distance zero from i, checked to be an equivalence.

    The relation is reflexive and symmetric, so it is an equivalence iff the
    rows of related points are equal. Distance zero need not be transitive:
    the triangle test allows a slack of 1e-9, so the witness names x, y, z
    with d(x, y) = d(y, z) = 0 < d(x, z).
    """
    zero = [sum(1 << j for j, v in enumerate(row) if v == 0.0) for row in sp.dist]
    bad = intransitive_triple(zero)
    if bad:
        x, y, z = (sp.points[i] for i in bad)
        raise ValidationError("distance zero is not transitive", {"x": x, "y": y, "z": z})
    return zero


def topology_from_pmetric(sp: PMetricSpace) -> FiniteSpace:
    """The topology of the open balls: the partition topology of the zero classes.

    On a finite carrier the smallest ball around x, of radius the least
    positive distance, is x's zero class, so that class is the kernel k_x.
    The definitional route, every union of open balls, is a test oracle.
    """
    return FiniteSpace(sp.points, _zero_rows(sp))


def metric_quotient(sp: PMetricSpace):
    """Collapse the distance-zero classes; the induced distance is a metric.

    The classes are the distinct zero rows, listed by lowest point.
    """
    classes = tuple(dict.fromkeys(_zero_rows(sp)))
    labels = block_labels(sp, classes)
    members = [tuple(bits(c)) for c in classes]
    dmat = [[sp.dist[a[0]][b[0]] for b in members] for a in members]
    # the slack lets two classes' members lie up to 2e-9 further apart than their lowest points
    for ci, drow in zip(members, dmat):
        for cj, v in zip(members, drow):
            for a in ci:
                for b in cj:
                    if abs(sp.dist[a][b] - v) > _EPS:
                        raise ValidationError(
                            "quotient distance is not well defined",
                            {"x": sp.points[a], "y": sp.points[b]},
                        )
    # built past the constructor: the representatives' distances are a principal
    # submatrix of a matrix that passed, and `block_labels` names are distinct
    q = object.__new__(PMetricSpace)
    q.__dict__.update(points=labels, dist=tuple(map(tuple, dmat)))
    return q, classes


def hausdorff_distance(sp: PMetricSpace, c: int, d: int) -> float:
    """Symmetric max of the two directed point-to-set distances."""
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

