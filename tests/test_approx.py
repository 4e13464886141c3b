import math
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finitetop as ft
from finitetop.approx import (
    SERIES_FROM,
    gauss_legendre,
    kernel_mass,
    named_function,
    panel_count,
    weierstrass_polynomial,
)
from finitetop.cli import main
from finitetop.errors import FormatError, ValidationError

from oracles import (
    kernel_mass_exact,
    kernel_polynomial_by_gauss,
    kernel_polynomial_by_simpson,
    kernel_polynomial_exact,
    kernel_polynomial_reference,
    kernel_ratio_by_simpson,
    kernel_ratio_exact,
    simpson_by_index,
)

GRID = tuple(i / 32 for i in range(33))
INTERIOR = tuple(0.1 + i * 0.8 / 32 for i in range(33))

# sup-errors of the kernel polynomial against |x - 1/2| on [0.1, 0.9],
# frozen from a 16384-panel quadrature run
PINNED_ABS_HALF_ERR = {4: 0.2445927371582, 64: 0.0698446601632}


def test_sqrt_first_step_is_half_t():
    gf = ft.sqrt_iteration(1, GRID)
    assert all(abs(v - t / 2) < 1e-15 for t, v in zip(gf.grid, gf.values))


def test_sqrt_second_step_at_one():
    gf = ft.sqrt_iteration(2, (0.0, 1.0))
    assert gf.values[1] == 7 / 8
    assert gf.values[0] == 0.0


def test_sqrt_zero_stays_zero():
    for n in (0, 3, 50):
        gf = ft.sqrt_iteration(n, (0.0, 0.3, 1.0))
        assert gf.values[0] == 0.0


def test_sqrt_iterates_monotone_and_dominated():
    prev = ft.sqrt_iteration(0, GRID).values
    for n in range(1, 201):
        cur = ft.sqrt_iteration(n, GRID).values
        for t, lo, hi in zip(GRID, prev, cur):
            assert lo <= hi <= math.sqrt(t) + 1e-15
        prev = cur
    # after 200 steps the approximation is visibly close away from 0
    assert max(math.sqrt(t) - v for t, v in zip(GRID, prev)) < 0.02


def test_sqrt_rejects_negative_count():
    with pytest.raises(ValidationError):
        ft.sqrt_iteration(-1, GRID)


def test_sqrt_grid_is_checked_before_any_step():
    """A bad grid fails before the n steps run; SIGALRM fails the test if they run first."""

    def expire(signum, frame):
        raise TimeoutError("the steps ran before the grid check")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        with pytest.raises(FormatError, match=r"^grid points must lie in \[0, 1\]$"):
            ft.sqrt_iteration(10**9, [2.0])
        with pytest.raises(FormatError, match="^grid must be strictly increasing$"):
            ft.sqrt_iteration(10**9, iter([0.5, 0.2]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert ft.sqrt_iteration(2, (t for t in (0.0, 1.0))).values == (0.0, 7 / 8)  # any iterable is a grid


def test_grid_validation():
    with pytest.raises(FormatError, match="^grid and values must have equal length$"):
        ft.GridFunction((0.0, 0.5), (0.0,))
    with pytest.raises(FormatError):
        ft.GridFunction((0.5, 0.2), (0.0, 0.0))
    with pytest.raises(FormatError):
        ft.GridFunction((0.0, 1.5), (0.0, 0.0))


# -- kernel mass ----------------------------------------------------------------


def test_j1_is_two_thirds():
    assert abs(kernel_mass(1) - 2 / 3) < 1e-10


def test_closed_form_matches_simpson_at_small_n():
    for n in (2, 5, 9):
        simpson = simpson_by_index(lambda v: (1.0 - v * v) ** n, 0.0, 1.0, 2048)
        assert kernel_mass(n) == pytest.approx(simpson, rel=1e-12)


def test_j_n_exceeds_harmonic_bound():
    for n in range(1, 21):
        assert kernel_mass(n) > 1.0 / (n + 1)


def test_kernel_mass_is_exact_on_both_sides_of_the_series_crossover():
    """J_n against (2n)!!/(2n+1)!!: the `lgamma` difference below SERIES_FROM, the series from there on."""
    for n, rel in ((1, 1e-15), (1024, 1e-11), (SERIES_FROM - 1, 5e-11), (SERIES_FROM, 1e-15), (2 * SERIES_FROM, 1e-15)):
        exact = kernel_mass_exact(n)
        assert abs(Fraction(kernel_mass(n)) - exact) <= rel * exact, n


def test_gauss_node_table_matches_numpy():
    """The pure-Python table is numpy's 16-point Gauss-Legendre rule moved onto [0, 1]."""
    import numpy as np

    t, w = np.polynomial.legendre.leggauss(16)
    nodes, weights = gauss_legendre()
    assert len(nodes) == len(weights) == 16 and list(nodes) == sorted(nodes)
    assert max(abs(u - (1.0 + v) / 2.0) for u, v in zip(nodes, t)) <= 1e-15
    assert max(abs(u - v / 2.0) for u, v in zip(weights, w)) <= 1e-15


def test_panel_count_is_the_fewest_dyadic_panels_narrower_than_the_kernel():
    for n, count in ((1, 2), (8, 2), (9, 4), (16, 4), (1024, 32), (10**5, 256), (10**9, 32768)):
        assert panel_count(n) == count
        assert 1.0 / count <= math.sqrt(2.0 / n) and (count == 2 or 2.0 / count > math.sqrt(2.0 / n))


# -- kernel polynomial ------------------------------------------------------------


def test_kernel_polynomial_linear_in_f():
    f = named_function("abs-half")
    g = named_function("sin-scaled")
    combo = lambda u: 2.0 * f(u) - 0.5 * g(u)
    pf = weierstrass_polynomial(f, 6)
    pg = weierstrass_polynomial(g, 6)
    pc = weierstrass_polynomial(combo, 6)
    for x in (0.0, 0.3, 0.77, 1.0):
        assert abs(pc(x) - (2.0 * pf(x) - 0.5 * pg(x))) < 1e-9


def test_kernel_polynomial_positive_for_positive_f():
    p = weierstrass_polynomial(lambda u: 0.2 + u * u, 5)
    assert all(p(x) >= 0.0 for x in GRID)


def test_kernel_polynomial_constant_degenerates_gracefully():
    p = weierstrass_polynomial(named_function("constant:1"), 3)
    # kernel mass over the clipped window never exceeds the full mass
    assert all(0.0 < p(x) <= 1.0 + 1e-12 for x in GRID)


def test_pinned_sup_errors_and_improvement():
    f = named_function("abs-half")
    for n, pinned in PINNED_ABS_HALF_ERR.items():
        ev = weierstrass_polynomial(f, n)
        err = max(abs(ev(x) - f(x)) for x in INTERIOR)
        assert abs(err - pinned) < 1e-6
    assert PINNED_ABS_HALF_ERR[64] < PINNED_ABS_HALF_ERR[4]


def test_interior_improvement_for_other_builtins():
    for name in ("sin-scaled", "square"):
        f = named_function(name)
        errs = {}
        for n in (4, 64):
            ev = weierstrass_polynomial(f, n)
            errs[n] = max(abs(ev(x) - f(x)) for x in INTERIOR)
        assert errs[64] < errs[4]


# fractional, polynomial, oscillating, signed-zero and cusp integrands, at
# grid points inside, on the ends of and outside [0, 1]
KERNEL_FUNCTIONS = ("abs-half", "sin-scaled", "square", "sqrt", "constant:-0", "poly:1.5,-2,0.25,3")
KERNEL_XS = (0.0, 1e-9, 0.1, 1 / 3, 0.5, 0.77, 1.0, -0.25, 1.2, 1.75, -3.0)


def _value_or_overflow(fn, *args):
    """fn(*args) as (value, sign), or "overflow" when float `**` raises."""
    try:
        v = fn(*args)
    except OverflowError:
        return "overflow"
    return v, math.copysign(1.0, v)


@pytest.mark.parametrize("name", KERNEL_FUNCTIONS)
def test_kernel_polynomial_is_its_quadrature_bitwise(name):
    f = named_function(name)
    for n in (1, 3, 16, 64, 1000, 10**5):
        ev = weierstrass_polynomial(f, n)
        for x in KERNEL_XS:  # from n = 1000 on the kernel overflows at x = 1.75 and -3
            want = _value_or_overflow(kernel_polynomial_by_gauss, f, n, x)
            assert _value_or_overflow(ev, x) == want, (n, x)


def test_kernel_polynomial_samples_f_once_per_node():
    """Never at construction, at most once per node, and only on the panels a call reaches."""
    # (n, grid, nodes sampled): every node of the 2, 2 and 32 panels (the end
    # panels have 4 pieces of 16); three windows of about 13 panels of 1024;
    # a kernel piled up at u = 1, on the last panel alone
    for n, xs, sampled in ((1, GRID, 128), (8, GRID, 128), (1024, GRID, 608), (10**6, (0.0, 0.5, 1.0), 544),
                           (10**6, (1.2,), 64)):
        calls = []

        def f(u):
            calls.append(u)
            return u * u

        ev = weierstrass_polynomial(f, n)
        assert calls == []
        for x in xs:
            ev(x)
        assert len(set(calls)) == len(calls) == sampled, n


def test_a_kernel_piled_up_at_an_end_is_summed_there_at_any_degree():
    """Just outside [0, 1], P_n for f = 1 is half the tail ratio beyond the distance to the end, on a few panels."""
    for n in (10**4, 10**6, 10**12):  # 2^20 panels at n = 10^12
        for b in (1e-4, 1e-3, 0.01):
            calls = []

            def f(u):
                calls.append(u)
                return 1.0

            ev = weierstrass_polynomial(f, n)
            half_tail = ft.kernel_ratio(n, b).ratio / 2.0
            assert ev(1.0 + b) == pytest.approx(half_tail, rel=1e-9) and ev(-b) == pytest.approx(half_tail, rel=1e-9)
            assert len(calls) <= 16 * 24


@pytest.mark.parametrize("coeffs", [(1.0,), (-2.5,), (1.5, -2.0, 0.25, 3.0), (0.0, 0.0, 1.0)])
def test_kernel_polynomial_matches_exact_polynomial_integrals(coeffs):
    """For a polynomial f, P_n(x) in exact rational arithmetic at the same float x, up to n = 64."""
    f = named_function("poly:" + ",".join(map(str, coeffs)))
    for n in (1, 2, 5, 16, 64):
        ev = weierstrass_polynomial(f, n)
        for x in (0.0, 0.3, 0.5, 0.77, 1.0):
            exact = kernel_polynomial_exact(coeffs, n, x)
            assert abs(Fraction(ev(x)) - exact) <= 1e-13 * max(1, abs(exact)), (n, x)


@pytest.mark.parametrize("name", ("abs-half", "sin-scaled", "square", "sqrt"))
def test_no_builtin_is_less_accurate_than_the_2048_panel_simpson_rule(name):
    """Against a converged reference, at every grid point, to within a few rounding errors."""
    f = named_function(name)
    for n in (1, 4, 16, 64, 1024):
        ev = weierstrass_polynomial(f, n)
        ref = kernel_polynomial_reference(f, n, GRID)
        ours = max(abs(ev(x) - r) for x, r in zip(GRID, ref))
        simpson = max(abs(kernel_polynomial_by_simpson(f, n, x, 2048) - r) for x, r in zip(GRID, ref))
        assert ours <= simpson + 1e-15, (n, ours, simpson)
    if name == "sqrt":  # the graded end panels resolve the cusp at 0 that Simpson's rule does not
        assert ours < 1e-9 < 1e-6 < simpson


def test_constant_one_is_the_kernel_mass_inside_the_interval():
    """For f = 1, P_n(x) is 1 less half the tail ratios beyond x and beyond 1 - x, at any degree.

    The kernel at n = 10^9 is far narrower than any fixed panel; the rule is
    sized to it. There each node's 1 - (u - x)^2 rounds by up to 1e-16, which
    the power n makes 1e-7, so the sum is good to about 1e-8. At n = 1024, J_n
    by `lgamma` is good to about 1e-12.
    """
    f = named_function("constant:1")
    for n, tol in ((1, 1e-14), (16, 1e-14), (1024, 1e-11), (10**5, 1e-11), (10**7, 1e-10), (10**9, 1e-8)):
        ev = weierstrass_polynomial(f, n)
        for x in (0.0, 0.01, 0.3, 0.5, 0.99, 1.0):
            tails = sum(ft.kernel_ratio(n, d).ratio if 0.0 < d < 1.0 else float(d == 0.0) for d in (x, 1.0 - x))
            assert abs(ev(x) - (1.0 - tails / 2.0)) < tol, (n, x)


def test_degree_parameter_validation():
    with pytest.raises(ValidationError):
        weierstrass_polynomial(named_function("square"), 0)


# -- mass ratio ----------------------------------------------------------------------


def test_ratio_examples():
    r = ft.kernel_ratio(1, 0.5)
    assert r.ratio < r.bound == 2 * 0.75
    r = ft.kernel_ratio(20, 0.5)
    assert r.bound == pytest.approx(21 * 0.75**20)
    assert r.ratio < r.bound
    assert ft.kernel_ratio(8, 0.999).ratio < 1e-20


def test_ratio_below_bound_where_both_underflow(capsys):
    r = ft.kernel_ratio(100_000_000, 0.5)
    assert r.ratio == r.bound == 0.0 and r.below_bound
    assert main(["approx", "kernel-ratio", "--n", "100000000", "--delta", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ratio_below_bound: True"


def test_ratio_bound_grid():
    for delta in (0.1, 0.3, 0.5, 0.9):
        for n in range(1, 33):
            r = ft.kernel_ratio(n, delta)
            assert r.ratio < r.bound and r.below_bound


def test_ratio_decreases_in_n():
    for delta in (0.1, 0.5):
        prev = None
        for n in range(1, 65):
            r = ft.kernel_ratio(n, delta).ratio
            if prev is not None:
                assert r < prev
            prev = r


def test_ratio_is_the_exact_tail():
    """I_{1-delta^2}(n+1, 1/2) against the binomial expansion of the tail, in exact arithmetic."""
    for n in (1, 2, 7, 16, 64):
        for delta in (1e-9, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999999):
            exact = float(kernel_ratio_exact(n, delta))  # 0.0 where it underflows
            assert ft.kernel_ratio(n, delta).ratio == pytest.approx(exact, rel=1e-13, abs=0.0), (n, delta)


def test_ratio_matches_a_fine_simpson_rule_where_the_kernel_is_narrow():
    """Where the tail is narrower than 1/2048 of [delta, 1], against 2^20 Simpson panels."""
    for n, delta in ((10**5, 0.01), (10**6, 0.001)):
        want = kernel_ratio_by_simpson(n, delta, 1 << 20)
        assert ft.kernel_ratio(n, delta).ratio == pytest.approx(want, rel=1e-9)


def test_ratio_rejects_bad_delta():
    for delta in (0.0, 1.0, -0.2, 7):
        with pytest.raises(ValidationError):
            ft.kernel_ratio(3, delta)
    with pytest.raises(ValidationError, match="^degree parameter must be at least 1$"):
        ft.kernel_ratio(0, 0.5)


@given(st.integers(1, 12), st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_ratio_always_in_unit_interval(n, delta):
    r = ft.kernel_ratio(n, delta)
    assert 0.0 <= r.ratio < 1.0


def test_named_function_errors():
    with pytest.raises(FormatError):
        named_function("does-not-exist")
    p = named_function("poly:1,0,2")  # 1 + 2x^2
    assert p(0.5) == 1.5
    assert named_function("constant:-2.5")(0.3) == -2.5
    for name in ("constant:1,2", "constant:", "poly:1,,2", "poly:x"):
        with pytest.raises(FormatError, match="needs comma-separated numbers"):
            named_function(name)
    for name in ("constant:nan", "constant:inf", "poly:1,-inf", "poly:1e309,0"):
        with pytest.raises(FormatError, match="needs finite numbers"):
            named_function(name)


@pytest.mark.parametrize(
    "fn, n, grid, witness",
    [
        ("constant:1e306", 4, "0,0.5,1,3", 3.0),  # P_4(3) is 1454.9... times f(3)
        ("poly:1e308,1e308", 4, "0,0.5,1", 0.0),
        ("poly:1e308,1.6e308", 1000, "0,0.5,1", 0.5),  # P_1000(0) is finite, f(0.5) and P_1000(0.5) are not
        ("square", 4, "0.5,1e160", 1e160),  # float ** raises OverflowError rather than return inf
        ("square", 1000, "0.5,3", 3.0),
    ],
)
def test_weierstrass_overflow_fails_at_the_first_bad_grid_point(capsys, fn, n, grid, witness):
    # the inputs are finite, so they pass `named_function` and the grid
    # parser; the report must not print inf or nan cells with exit 0, nor
    # end in a traceback
    assert main(["approx", "weierstrass", "--fn", fn, "--n", str(n), "--grid", grid]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"failed: P_{n}(x) or f(x) leaves the float range [{{'x': {witness!r}}}]\n"
