import math
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finitetop as ft
from finitetop.approx import MAX_PANELS, kernel_mass, named_function, simpson_rule, weierstrass_polynomial
from finitetop.cli import main
from finitetop.errors import FormatError, ValidationError

from oracles import kernel_polynomial_by_quadrature, kernel_ratio_by_quadrature, simpson_by_index

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


def test_simpson_needs_even_panels():
    for panels in (0, 1, 3, 2049):
        with pytest.raises(ValidationError, match="^Simpson quadrature needs an even panel count >= 2$"):
            simpson_rule(0.0, 1.0, panels)
    with pytest.raises(ValidationError, match=f"^Simpson quadrature takes at most {MAX_PANELS} panels$"):
        simpson_rule(0.0, 1.0, MAX_PANELS + 2)


def test_simpson_node_table_matches_index_rule_bitwise():
    """The table holds the step, nodes and weights `simpson_by_index` reads off each index, bit for bit."""
    for a, b in ((0.0, 1.0), (-1.5, 2.25), (0.3, 0.3000001)):
        for panels in (2, 4, 10, 2048):
            h, nodes, weights = simpson_rule(a, b, panels)
            assert h.hex() == ((b - a) / panels).hex()
            assert [u.hex() for u in nodes] == [(a + i * h).hex() for i in range(1, panels)]
            assert weights == [4.0 if i % 2 else 2.0 for i in range(1, panels)]


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
KERNEL_XS = (0.0, 1e-9, 0.1, 1 / 3, 0.5, 0.77, 1.0, -0.25, 1.75)


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
    for n, panels in ((1, 2), (3, 6), (16, 64), (64, 2048), (1000, 512)):
        ev = weierstrass_polynomial(f, n, panels)
        for x in KERNEL_XS:  # at n = 1000 the kernel overflows at x = 1.75
            want = _value_or_overflow(kernel_polynomial_by_quadrature, f, n, x, panels)
            assert _value_or_overflow(ev, x) == want, (n, panels, x)


def test_kernel_polynomial_samples_f_once_per_node():
    for panels in (2, 64, 2048):
        calls = []

        def f(u):
            calls.append(u)
            return u * u

        ev = weierstrass_polynomial(f, 8, panels)
        assert calls == []
        for x in GRID:
            ev(x)
        assert len(calls) == panels + 1
        assert len(set(calls)) == panels + 1  # every node once


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


def test_ratio_is_its_quadrature_bitwise():
    for n in (1, 2, 7, 64, 1000, 100_000_000):
        for delta in (1e-9, 0.1, 0.3, 0.5, 0.9, 0.999999):
            for panels in (2, 8, 2048):
                assert ft.kernel_ratio(n, delta, panels).ratio == kernel_ratio_by_quadrature(n, delta, panels)


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
        ("constant:1e306", 4, "0,0.5,1", 0.0),  # Simpson's running sum overflows at every x
        ("poly:1e308,1e308", 4, "0,0.5,1", 0.0),
        ("poly:" + ",".join(["0"] * 20 + ["1e307"]), 4, "0,0.5,1", 0.5),  # P_4(0) is finite, P_4(0.5) is not
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
