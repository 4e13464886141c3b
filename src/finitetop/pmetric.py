"""Pseudometric spaces on finite point sets, plus the iterative solvers.

Distances are floats except in the chain construction, where exact dyadic
arithmetic (fractions) keeps the squeeze property decidable without
floating-point slack.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, ne

from .bitsets import bits
from .construct import block_labels
from .errors import FormatError, ValidationError
from .spaces import Carrier, FiniteSpace, SetFamily, _check_labels, generate_topology

_EPS = 1e-9


@dataclass(frozen=True)
class PMetricSpace(Carrier):
    points: tuple
    dist: tuple  # tuple of row tuples

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "dist", tuple(tuple(map(float, row)) for row in self.dist))
        _check_labels(self.points, cap=False)
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
        # d is symmetric now, so row j stands in for column j.
        for i in range(n):
            for j in range(n):
                if d[i][j] > min(map(add, d[i], d[j])) + _EPS:
                    k = next(k for k in range(n) if d[i][j] > d[i][k] + d[k][j] + _EPS)
                    raise ValidationError(
                        "triangle inequality fails",
                        {"x": self.points[i], "z": self.points[k], "y": self.points[j]},
                    )

    @property
    def n(self):
        return len(self.points)

    @property
    def is_metric(self):
        return all(
            self.dist[i][j] > 0
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )

    def d(self, a, b):
        return self.dist[self.points.index(a)][self.points.index(b)]


def pmetric_from_matrix(points, matrix) -> PMetricSpace:
    return PMetricSpace(tuple(points), tuple(tuple(row) for row in matrix))


def bounded_transforms(sp: PMetricSpace):
    """The two standard bounded pseudometrics: min(d,1) and d/(1+d)."""
    d1 = tuple(tuple(min(v, 1.0) for v in row) for row in sp.dist)
    d2 = tuple(tuple(v / (1.0 + v) for v in row) for row in sp.dist)
    return PMetricSpace(sp.points, d1), PMetricSpace(sp.points, d2)


def open_ball(sp: PMetricSpace, center: int, radius: float) -> int:
    return sum(1 << j for j in range(sp.n) if sp.dist[center][j] < radius)


def topology_from_pmetric(sp: PMetricSpace) -> FiniteSpace:
    """Topology with the open balls as base; only threshold radii matter."""
    radii = sorted({v for row in sp.dist for v in row if v > 0})
    radii.append((radii[-1] if radii else 0.0) + 1.0)
    balls = {open_ball(sp, i, r) for i in range(sp.n) for r in radii}
    fam = SetFamily(sp.points, tuple(sorted(balls)))
    return generate_topology(fam, mode="base")


def metric_quotient(sp: PMetricSpace):
    """Collapse distance-zero classes; the induced distance is a metric."""
    n = sp.n
    assigned = [-1] * n
    blocks = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        cls = [j for j in range(n) if sp.dist[i][j] == 0.0]
        for j in cls:
            assigned[j] = len(blocks)
        blocks.append(cls)
    classes = tuple(sum(1 << j for j in cls) for cls in blocks)
    labels = block_labels(sp, classes)
    reps = [cls[0] for cls in blocks]
    dmat = [[sp.dist[a][b] for b in reps] for a in reps]
    # well-definedness across representatives
    for bi, ci in enumerate(blocks):
        for bj, cj in enumerate(blocks):
            for a in ci:
                for b in cj:
                    if abs(sp.dist[a][b] - dmat[bi][bj]) > _EPS:
                        raise ValidationError(
                            "quotient distance is not well defined",
                            {"x": sp.points[a], "y": sp.points[b]},
                        )
    out = PMetricSpace(labels, tuple(tuple(r) for r in dmat))
    assert out.is_metric
    return out, classes


def dist_to_set(sp: PMetricSpace, label, mask: int) -> float:
    if mask == 0:
        raise ValidationError("distance to the empty set is undefined")
    i = sp.points.index(label)
    return min(sp.dist[i][j] for j in bits(mask))


def hausdorff_distance(sp: PMetricSpace, c: int, d: int) -> float:
    """Symmetric max of the two directed point-to-set distances."""
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
# relation chains and partition uniformities


def _compose(rel_a, rel_b, n):
    out = [0] * n
    for i in range(n):
        acc = 0
        for j in bits(rel_a[i]):
            acc |= rel_b[j]
        out[i] = acc
    return tuple(out)


@dataclass(frozen=True)
class RelationChain:
    """Symmetric relations V1..Vk with V_{n+1}^3 below V_n (V0 = everything)."""

    points: tuple
    relations: tuple  # each relation: tuple of row masks

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(
            self, "relations", tuple(tuple(rel) for rel in self.relations)
        )
        _check_labels(self.points, cap=False)
        n = len(self.points)
        full_rel = tuple((1 << n) - 1 for _ in range(n))
        prev = full_rel
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
            triple = _compose(_compose(rel, rel, n), rel, n)
            for i in range(n):
                if triple[i] & ~prev[i]:
                    j = next(bits(triple[i] & ~prev[i]))
                    raise ValidationError(
                        "chain axiom V^3 <= previous fails",
                        {"level": level, "x": self.points[i], "y": self.points[j]},
                    )
            prev = rel

    @property
    def n(self):
        return len(self.points)

    @property
    def depth(self):
        return len(self.relations)


@dataclass(frozen=True)
class ChainMetric:
    space: PMetricSpace
    exact: tuple  # Fractions, same shape as space.dist
    weights: tuple


def pseudometric_from_chain(chain: RelationChain) -> ChainMetric:
    """Shortest-path pseudometric squeezed between consecutive chain levels.

    A pair that drops out of the chain after level m gets edge weight
    2^-(m+1); pairs related at every level get weight 0 when the finest
    relation is transitive (it is then an equivalence relation, and its
    classes are the distance-zero classes), and 2^-(k+1) otherwise, which
    amounts to continuing the chain with the identity relation. Path sums
    are exact dyadics, and the squeeze V_n <= {d < 2^-n} <= V_{n-1} holds
    at every level.
    """
    n = chain.n
    k = chain.depth
    if n == 0:
        return ChainMetric(PMetricSpace((), ()), (), ())
    last = chain.relations[-1] if k else tuple((1 << n) - 1 for _ in range(n))
    last_transitive = all(
        _compose(last, last, n)[i] & ~last[i] == 0 for i in range(n)
    )
    weights = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            level = 0
            for m, rel in enumerate(chain.relations, start=1):
                if rel[i] >> j & 1:
                    level = m
                else:
                    break
            if level == k and last_transitive and (k == 0 or last[i] >> j & 1):
                weights[i][j] = Fraction(0)
            else:
                weights[i][j] = Fraction(1, 2 ** (level + 1))
    dist = [row[:] for row in weights]
    for m in range(n):
        for i in range(n):
            dim = dist[i][m]
            row_m = dist[m]
            row_i = dist[i]
            for j in range(n):
                via = dim + row_m[j]
                if via < row_i[j]:
                    row_i[j] = via
    exact = tuple(tuple(row) for row in dist)
    space = PMetricSpace(chain.points, tuple(tuple(float(v) for v in row) for row in dist))
    _verify_squeeze(chain, exact)
    return ChainMetric(space, exact, tuple(tuple(row) for row in weights))


def _verify_squeeze(chain, exact):
    for level, rel in enumerate(chain.relations, start=1):
        bound = Fraction(1, 2**level)
        prev = chain.relations[level - 2] if level >= 2 else None
        for i in range(chain.n):
            for j in range(chain.n):
                if rel[i] >> j & 1 and not exact[i][j] < bound:
                    raise AssertionError("squeeze lower inclusion failed")
                if exact[i][j] < bound and prev is not None and not prev[i] >> j & 1:
                    raise AssertionError("squeeze upper inclusion failed")


@dataclass(frozen=True)
class PartitionUniformity:
    points: tuple
    relations: tuple  # one symmetric relation per partition
    report: dict


def uniformity_from_partitions(points, partitions) -> PartitionUniformity:
    """Block-square relations of finite partitions; a base for a uniformity."""
    points = tuple(points)
    _check_labels(points)
    n = len(points)
    rels = []
    for blocks in partitions:
        seen = 0
        rel = [0] * n
        for block in blocks:
            m = 0
            for lab in block:
                i = points.index(lab)
                if seen >> i & 1:
                    raise ValidationError("partition blocks overlap", {"x": lab})
                seen |= 1 << i
                m |= 1 << i
            if m == 0:
                raise ValidationError("empty partition block")
            for i in bits(m):
                rel[i] |= m
        if seen != (1 << n) - 1:
            missing = next(i for i in range(n) if not seen >> i & 1)
            raise ValidationError("partition does not cover the carrier", {"x": points[missing]})
        rels.append(tuple(rel))
    report = {
        "diagonal": all(rel[i] >> i & 1 for rel in rels for i in range(n)),
        "symmetric": all(
            (rel[i] >> j & 1) == (rel[j] >> i & 1)
            for rel in rels
            for i in range(n)
            for j in range(n)
        ),
        "compose_within": all(
            _compose(rel, rel, n)[i] & ~rel[i] == 0 for rel in rels for i in range(n)
        ),
        "refinement": True,
    }
    for ra in rels:
        for rb in rels:
            # blocks of the common refinement are the nonempty pairwise
            # block intersections; its relation must fall inside both
            refined = tuple(ra[i] & rb[i] for i in range(n))
            for i in range(n):
                if refined[i] & ~ra[i] or refined[i] & ~rb[i]:
                    report["refinement"] = False
                if _compose(refined, refined, n)[i] & ~refined[i]:
                    report["refinement"] = False  # not block-square
    return PartitionUniformity(points, tuple(rels), report)


@dataclass(frozen=True)
class RankedSets(Carrier):
    points: tuple
    rank: tuple  # positive integer per point

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "rank", tuple(int(r) for r in self.rank))
        _check_labels(self.points, cap=False)
        if len(self.rank) != len(self.points):
            raise FormatError("need one rank per point")
        if any(r <= 0 for r in self.rank):
            raise ValidationError("ranks must be positive")


def ultrametric_from_rank(rs: RankedSets, a: int, b: int) -> float:
    """2^-(least rank of a witness distinguishing the two sets)."""
    diff = a ^ b
    if diff == 0:
        return 0.0
    c = min(rs.rank[i] for i in bits(diff))
    return 2.0 ** (-c)


# ---------------------------------------------------------------------------
# fixed-point solvers


@dataclass(frozen=True)
class FixpointResult:
    x: tuple
    iterations: int
    gamma_estimate: float


class NonConvergence(ValidationError):
    def __init__(self, message, trace):
        super().__init__(message, {"trace_tail": [list(map(float, v)) for v in trace[-4:]]})
        self.trace = trace


# numpy is imported inside the solvers, so importing the package does not
# load it; the norms need only ndarray methods
_VECTOR_NORMS = {
    "l1": lambda v: float(abs(v).sum()),
    "l2": lambda v: math.sqrt(float((v * v).sum())),
    "linf": lambda v: float(abs(v).max()) if len(v) else 0.0,
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
    import numpy as np

    norm = _VECTOR_NORMS[metric]
    x = np.asarray(x0, dtype=float)
    trace = [x]
    gamma = 0.0
    prev_step = None
    for it in range(1, max_iter + 1):
        nxt = np.asarray(f(x), dtype=float)
        trace.append(nxt)
        step = norm(nxt - x)
        if prev_step is not None and prev_step > 0:
            gamma = max(gamma, step / prev_step)
        if step <= tol:
            return FixpointResult(tuple(float(v) for v in nxt), it, gamma)
        prev_step = step
        x = nxt
    raise NonConvergence(f"no fixed point within {max_iter} iterations", trace)


@dataclass(frozen=True)
class StochasticMatrix:
    rows: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "rows", tuple(tuple(float(v) for v in row) for row in self.rows)
        )
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise FormatError("stochastic matrix must be square")
            if any(v < 0 for v in row):
                raise ValidationError("stochastic matrix entries must be nonnegative")
            if abs(sum(row) - 1.0) > 1e-12:
                raise ValidationError("stochastic matrix rows must sum to 1", {"sum": sum(row)})

    @property
    def n(self):
        return len(self.rows)

    def array(self):
        import numpy as np

        return np.array(self.rows, dtype=float)


def pagerank(matrix: StochasticMatrix, tol=1e-9, max_iter=200, start=None):
    """Left power iteration, uniform start by default; L1 stopping rule.

    The uniform vector is invariant under every permutation matrix, so the
    oscillating failure mode of periodic chains only shows up from a
    non-uniform `start`.
    """
    import numpy as np

    P = matrix.array()
    n = matrix.n
    if start is None:
        p = np.full(n, 1.0 / n)
    else:
        p = np.asarray(start, dtype=float)
        if p.shape != (n,) or np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValidationError("start must be a probability distribution")
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

