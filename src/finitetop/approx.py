"""Constructive uniform approximation on the unit interval.

Two constructions: the square-root iteration (a monotone polynomial scheme
converging to sqrt from below) and the normalized kernel polynomial
P_n(x) = Q_n(x) / (2 J_n) with Q_n(x) the integral of f(u) (1-(u-x)^2)^n
over [0,1] and J_n = (sqrt(pi)/2) Gamma(n+1)/Gamma(n+3/2) the integral of
(1-v^2)^n over [0,1]. The kernel mass ratio J*_n/J_n (tail above a cutoff,
over the whole mass) is bounded by (n+1)(1-delta^2)^n, which is what
drives uniform convergence on interior subintervals.

The rule for Q_n is sized to the kernel, whose width is about 1/sqrt(2n):
a 16-point Gauss-Legendre rule (DLMF 3.5) summed over dyadic panels
no wider than sqrt(2/n), at least two so that 1/2 is a panel edge, and for
x in [0, 1] only over the panels within sqrt(41/n) of x, outside which the
kernel is below e^-41 of its peak (for x outside [0, 1], near the ends where
it can reach e^-41 of its top there); the first and last panel are split
geometrically towards the end, so an endpoint singularity such as sqrt's
is resolved. f is sampled once per node, lazily per panel, and no sum is
compensated, so every value is the one the rule gives for the same
integrand. The tail ratio is the regularized incomplete beta function
I_{1-delta^2}(n+1, 1/2) in closed form (DLMF 8.17), from its continued
fraction, and J_n past n = 10^4 is its asymptotic series.
"""

import functools
import math

from .errors import FormatError, ValidationError
from .records import cached, record


@record
class GridFunction:
    grid: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(x) for x in self.grid))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.grid) != len(self.values):
            raise FormatError("grid and values must have equal length")
        if any(not 0.0 <= x <= 1.0 for x in self.grid):
            raise FormatError("grid points must lie in [0, 1]")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise FormatError("grid must be strictly increasing")


def sqrt_iteration(n: int, grid) -> GridFunction:
    """n steps of f <- f + (t - f^2)/2 from f = 0, evaluated on the grid.

    Each iterate is squeezed between the previous one and sqrt(t).
    """
    if n < 0:
        raise ValidationError("iteration count must be nonnegative")
    f = GridFunction(grid := tuple(grid), (0.0,) * len(grid))  # f_0, on the grid converted and checked
    vals = f.values
    for _ in range(n):
        vals = [v + 0.5 * (t - v * v) for t, v in zip(f.grid, vals)]
    return GridFunction(f.grid, vals)


BUILTIN_FUNCTIONS = {
    "abs-half": lambda x: abs(x - 0.5),
    "sin-scaled": lambda x: math.sin(math.pi * x),
    "square": lambda x: x * x,
    "sqrt": math.sqrt,
}


def named_function(name: str):
    """Resolve a built-in: a known name, `constant:<c>`, or `poly:c0,c1,...`."""
    if name in BUILTIN_FUNCTIONS:
        return BUILTIN_FUNCTIONS[name]
    kind, _, arg = name.partition(":")
    if kind not in ("constant", "poly"):
        raise FormatError(f"unknown function {name!r}")
    try:
        coeffs = [float(v) for v in (arg.split(",") if kind == "poly" else [arg])]
    except ValueError:
        raise FormatError(f"{name!r} needs comma-separated numbers after the colon") from None
    if not all(map(math.isfinite, coeffs)):  # nan, inf, or a literal past the float range
        raise FormatError(f"{name!r} needs finite numbers after the colon")
    if kind == "constant":
        c = coeffs[0]
        return lambda x: c
    return polynomial(coeffs)


def polynomial(coeffs):
    coeffs = tuple(float(c) for c in coeffs)

    def ev(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return ev


SERIES_FROM = 10_000  # J_n from its asymptotic series from here on


def kernel_mass(n: int) -> float:
    """J_n, the integral of (1-v^2)^n over [0, 1], as (sqrt(pi)/2) Gamma(n+1) / Gamma(n+3/2).

    Below SERIES_FROM the Gamma ratio is exp of an `lgamma` difference; from
    there on, where that difference cancels digits away (a relative error of
    4e-6 at n = 10^9), it is the series n^(-1/2) (1 - 3/(8n) + 25/(128n^2)
    - 105/(1024n^3) + ...), whose next term is below 1e-17 there.
    """
    if n < SERIES_FROM:
        return math.sqrt(math.pi) / 2.0 * math.exp(math.lgamma(n + 1) - math.lgamma(n + 1.5))
    t = 1.0 / n
    return math.sqrt(math.pi * t) / 2.0 * (1.0 + t * (-3.0 / 8.0 + t * (25.0 / 128.0 - t * (105.0 / 1024.0))))


GAUSS_POINTS = 16
WINDOW = 41.0  # past sqrt(WINDOW/n) from its centre, the kernel is below e^-WINDOW of its peak


@functools.cache
def gauss_legendre():
    """The GAUSS_POINTS-point Gauss-Legendre rule on [0, 1] as (nodes, weights), nodes ascending.

    The roots of the Legendre polynomial P_m by Newton's method from
    cos(pi (i - 1/4) / (m + 1/2)), i = 1 .. m/2, until a step no longer moves the root
    (four or five steps), and the weights 2 / ((1 - t^2) P_m'(t)^2)
    (DLMF 3.5.19), halved onto [0, 1].
    """
    m = GAUSS_POINTS
    nodes, weights = [0.0] * m, [0.0] * m
    for i in range(m // 2):  # the roots +-t from the largest down
        t = math.cos(math.pi * (i + 0.75) / (m + 0.5))
        for _ in range(10):
            p0, p1 = 1.0, t
            for k in range(2, m + 1):
                p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
            dp = m * (t * p1 - p0) / (t * t - 1.0)
            t, last = t - p1 / dp, t
            if t == last:
                break
        nodes[i], nodes[m - 1 - i] = (1.0 - t) / 2.0, (1.0 + t) / 2.0
        weights[i] = weights[m - 1 - i] = 1.0 / ((1.0 - t * t) * dp * dp)
    return tuple(nodes), tuple(weights)


def panel_count(n: int) -> int:
    """The dyadic panel count of the degree-n kernel: the fewest 2^k >= 2 with width 2^-k <= sqrt(2/n)."""
    k = 1
    while 2 * 4**k < n:
        k += 1
    return 1 << k


def _panel_pieces(p: int, count: int):
    """Panel p of `count` on [0, 1] as its (a, b) pieces, ascending.

    The first and last panel are cut at h/8, h/64 and h/512 from the end.
    """
    h = 1.0 / count
    if p == 0:
        edges = [0.0, h / 512, h / 64, h / 8, h]
    elif p == count - 1:
        edges = [1.0 - h, 1.0 - h / 8, 1.0 - h / 64, 1.0 - h / 512, 1.0]
    else:
        edges = [p * h, (p + 1) * h]
    return zip(edges, edges[1:])


def _panel_window(x: float, n: int, count: int):
    """The panels the kernel at x is summed over: where |1 - (u - x)^2|^n may reach e^-WINDOW of its top on [0, 1].

    For x in [0, 1] the top is 1 at u = x, and these are the panels meeting
    [x - w, x + w], w = sqrt(WINDOW/n). For any other x the top is at an end;
    with c that top of |1 - s^2| times e^(-WINDOW/n), |1 - s^2| >= c holds
    for s up to sqrt(1 - c) and from sqrt(1 + c) on, that is within a span
    of the near end and within a span of the far end, and the panels are
    those within these spans, the end that holds the top always included.
    So a kernel past the float range at some node still raises
    OverflowError there, and a kernel that piles up at an end is summed on
    a few panels at any n.
    """
    if 0.0 <= x <= 1.0:
        w = math.sqrt(WINDOW / n)
        return range(max(0, math.floor((x - w) * count)), min(count, math.ceil((x + w) * count)))
    if not math.isfinite(x):  # the kernel is inf or nan at every node
        return range(1)
    near = -x if x < 0.0 else x - 1.0
    far = near + 1.0
    g_near, g_far = abs(1.0 - near * near), far * far - 1.0
    c = max(g_near, g_far) * math.exp(-WINDOW / n)
    k_near = math.ceil((math.sqrt(1.0 - c) - near) * count) if c < 1.0 else 0
    k_far = math.ceil((far - math.sqrt(1.0 + c)) * count)
    k_near, k_far = (max(k_near, 1), max(k_far, 0)) if g_near >= g_far else (max(k_near, 0), max(k_far, 1))
    if k_near + k_far >= count:
        return range(count)
    from_0, from_1 = (k_near, k_far) if x < 0.0 else (k_far, k_near)
    return [*range(from_0), *range(count - from_1, count)]


@record
class KernelPolynomial:
    """Evaluator for the degree-2n kernel polynomial of a function.

    P_n(x) is a GAUSS_POINTS-point Gauss-Legendre sum over the pieces of
    the panels in `_panel_window`, in ascending node order from -0.0, of
    (f(u) * weight) * (1 - d * d)^n, d = u - x, over 2 J_n. f is sampled
    once per node, on the first call that reaches the node's panel.
    """

    f: object
    n: int
    panels: int  # `panel_count(n)`
    j_value: float

    @cached
    def _samples(self):
        """Panel index: (its nodes, f(node) * weight at each), filled as calls reach the panel."""
        return {}

    def _sample(self, p):
        nodes, weights = gauss_legendre()
        us, fws = [], []
        f = self.f
        for a, b in _panel_pieces(p, self.panels):
            h = b - a
            for t, w in zip(nodes, weights):
                u = a + h * t
                us.append(u)
                fws.append(f(u) * (h * w))
        self._samples[p] = us, fws
        return us, fws

    def __call__(self, x: float) -> float:
        n = float(self.n)  # as `**` converts it, once
        samples = self._samples
        acc = -0.0  # the sum of -0.0 terms stays -0.0
        for p in _panel_window(x, self.n, self.panels):
            us, fws = samples.get(p) or self._sample(p)
            for u, fw in zip(us, fws):
                d = u - x
                acc += fw * (1.0 - d * d) ** n
        return acc / (2.0 * self.j_value)


def weierstrass_polynomial(f, n: int) -> KernelPolynomial:
    if n < 1:
        raise ValidationError("degree parameter must be at least 1")
    return KernelPolynomial(f, n, panel_count(n), kernel_mass(n))


@record
class RatioReport:
    ratio: float
    bound: float
    below_bound: bool  # decided without the factor (1-delta^2)^n, so it holds where both underflow


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (DLMF 8.17.22), by Lentz's method.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times this. Below the switch point
    x = (a + 1) / (a + b + 2), and with a or b equal to 1/2 as here, it
    settles to the last bit in at most about 45 steps at any n (measured
    from n = 1 to 10^12); the cap only bounds the loop.
    """
    tiny = 1e-300
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c, h = 1.0, d
    for m in range(1, 200):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 2.3e-16:
            break
    return h


def kernel_ratio(n: int, delta: float) -> RatioReport:
    """Tail-to-total kernel mass ratio and its closed-form bound.

    With v^2 = 1 - t the tail integral of (1-v^2)^n over [delta, 1] is
    B(q; n+1, 1/2) / 2, q = 1 - delta^2, and J_n is B(n+1, 1/2) / 2, so the
    ratio is the regularized incomplete beta function I_q(n+1, 1/2), from
    its continued fraction (`_beta_fraction`), or from 1 - I_{delta^2}(1/2, n+1)
    where q is past the fraction's switch point. 1 - q is delta^2 as given,
    never 1 - (1 - delta^2). Ratio and bound share the factor q^n, which is
    divided out of the ratio, so neither side of the comparison underflows at
    any n; it is exp(n log q) with log q from log1p of delta^2 itself (of -delta
    and delta past delta^2 = 1/2), so the rounding of q, which q**n would raise
    to the n-th power, does not enter it.
    """
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie strictly between 0 and 1")
    if n < 1:
        raise ValidationError("degree parameter must be at least 1")
    d2 = delta * delta
    if d2 <= 0.5:
        q, log_q = 1.0 - d2, math.log1p(-d2)
    else:  # no cancellation as delta nears 1
        q, log_q = (1.0 - delta) * (1.0 + delta), math.log1p(-delta) + math.log1p(delta)
    qn, a, j = math.exp(n * log_q), n + 1.0, kernel_mass(n)
    if q < (a + 1.0) / (a + 2.5):  # I_q(a, 1/2) = q^a delta / (a 2 J_n) * fraction
        scaled_ratio = q * delta * _beta_fraction(a, 0.5, q) / (a * 2.0 * j)
    else:  # 1 - I_{delta^2}(1/2, a), with I_{delta^2}(1/2, a) = delta q^a / J_n * fraction
        scaled_ratio = (1.0 - delta * qn * q * _beta_fraction(0.5, a, d2) / j) / qn
    return RatioReport(scaled_ratio * qn, (n + 1) * qn, scaled_ratio < n + 1)
