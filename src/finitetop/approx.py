"""Constructive uniform approximation on the unit interval.

Two constructions: the square-root iteration (a monotone polynomial scheme
converging to sqrt from below) and the normalized kernel polynomial
P_n(x) = Q_n(x) / (2 J_n) with Q_n(x) the integral of f(u) (1-(u-x)^2)^n
over [0,1] and J_n = (sqrt(pi)/2) Gamma(n+1)/Gamma(n+3/2) the integral of
(1-v^2)^n over [0,1]. The kernel mass ratio J*_n/J_n (tail above a cutoff,
over the whole mass) is bounded by (n+1)(1-delta^2)^n, which is what
drives uniform convergence on interior subintervals.

Both integrals use one composite Simpson rule (`simpson_rule`) with the
integrand inlined in a plain loop over its node table: a kernel polynomial
samples f once per node on its first call, not once per node and grid
point, and no sum is compensated, so every value is the one the rule
gives for the same integrand.
"""

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


MAX_PANELS = 1 << 16  # the node table of a Simpson rule is O(panels) floats


def simpson_rule(a: float, b: float, panels: int):
    """The composite Simpson rule on [a, b] as (h, nodes, weights).

    The nodes are the interior points a + i h, i = 1 .. panels - 1, with
    weights 4, 2, ..., 2, 4. The rule for g is g(a) + g(b), then each
    g(u_i) * w_i added in node order, then times h / 3; every caller sums
    in that order, so the results agree to the last bit. `panels` must be
    even, at least 2 and at most MAX_PANELS.
    """
    if panels < 2 or panels % 2:
        raise ValidationError("Simpson quadrature needs an even panel count >= 2")
    if panels > MAX_PANELS:
        raise ValidationError(f"Simpson quadrature takes at most {MAX_PANELS} panels")
    h = (b - a) / panels
    nodes = [a + i * h for i in range(1, panels)]
    weights = [4.0, 2.0] * (panels // 2)
    weights.pop()
    return h, nodes, weights


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


def kernel_mass(n: int) -> float:
    """J_n, the integral of (1-v^2)^n over [0, 1], as (sqrt(pi)/2) Gamma(n+1) / Gamma(n+3/2)."""
    return math.sqrt(math.pi) / 2.0 * math.exp(math.lgamma(n + 1) - math.lgamma(n + 1.5))


@record
class KernelPolynomial:
    """Evaluator for the degree-2n kernel polynomial of a function.

    f is sampled once per Simpson node, on the first call; each call then
    sums f(u) (1 - (u - x)^2)^n over the nodes in the order `simpson_rule`
    gives, so P_n(x) is the same float as the quadrature of that integrand.
    """

    f: object
    n: int
    panels: int
    j_value: float

    @cached
    def _samples(self):
        """(h, f(0), f(1), nodes, f at each node, weights)."""
        f = self.f
        h, nodes, weights = simpson_rule(0.0, 1.0, self.panels)
        return h, f(0.0), f(1.0), nodes, [f(u) for u in nodes], weights

    def __call__(self, x: float) -> float:
        n = self.n
        h, f0, f1, nodes, values, weights = self._samples
        acc = f0 * (1.0 - x ** 2) ** n + f1 * (1.0 - (1.0 - x) ** 2) ** n
        for u, fu, w in zip(nodes, values, weights):
            acc += fu * (1.0 - (u - x) ** 2) ** n * w
        return acc * h / 3.0 / (2.0 * self.j_value)


def weierstrass_polynomial(f, n: int, panels: int = 2048) -> KernelPolynomial:
    if n < 1:
        raise ValidationError("degree parameter must be at least 1")
    return KernelPolynomial(f, n, panels, kernel_mass(n))


@record
class RatioReport:
    ratio: float
    bound: float
    below_bound: bool  # decided without the factor (1-delta^2)^n, so it holds where both underflow


def kernel_ratio(n: int, delta: float, panels: int = 2048) -> RatioReport:
    """Tail-to-total kernel mass ratio and its closed-form bound.

    Ratio and bound share the factor q^n, q = 1 - delta^2. The tail is
    integrated with it divided out (the integrand is then 1 at delta), so
    neither side of the comparison underflows at any n.
    """
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie strictly between 0 and 1")
    if n < 1:
        raise ValidationError("degree parameter must be at least 1")
    q = 1.0 - delta * delta
    h, nodes, weights = simpson_rule(delta, 1.0, panels)
    acc = 1.0  # the integrand is q/q = 1 at delta and 0 at 1, exactly
    for v, w in zip(nodes, weights):
        acc += ((1.0 - v * v) / q) ** n * w
    scaled_ratio = acc * h / 3.0 / kernel_mass(n)
    return RatioReport(scaled_ratio * q**n, (n + 1) * q**n, scaled_ratio < n + 1)
