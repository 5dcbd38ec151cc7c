import math
from collections import deque

import numpy as np
import pytest

from rieszlab import optimize
from rieszlab.optimize import C1, C2, EPS, MAXCOR, OptimizeResult, _clip, _cubic_min, _Memory, _Point, minimize


def quadratic(n=50, seed=0):
    """f(x) = (x - m).A(x - m)/2 with eigenvalues of A in [1e2, 1e4], and m.

    Both scales set how close to m the stopping rules let the solver get.
    The minimum value is 0, because rounding in f is eps |f|: with f(m) of
    order 1, any line search on values stalls near |x - m| ~ sqrt(eps), as
    L-BFGS-B does.
    """
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(np.geomspace(1e2, 1e4, n)) @ Q.T
    m = rng.standard_normal(n)

    def fun(x):
        Ar = A @ (x - m)
        return 0.5 * (x - m) @ Ar, Ar

    return fun, m


def rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)])
    return f, g


def test_quadratic_reaches_its_minimizer():
    fun, x_star = quadratic()
    out = minimize(fun, np.zeros(x_star.size), maxiter=1000)
    assert isinstance(out, OptimizeResult)
    assert np.abs(out.x - x_star).max() <= 1e-10
    assert out.fun == fun(out.x)[0]
    assert out.stop == "line_search"
    assert 0 < out.nit < out.nfev


def test_result_has_the_fields_a_tracer_reads():
    out = minimize(rosenbrock, np.array([-1.2, 1.0]), maxiter=3)
    assert isinstance(out.x, np.ndarray)
    assert isinstance(out.fun, float)
    assert (type(out.nit), type(out.nfev), type(out.stop)) == (int, int, str)


@pytest.mark.parametrize("maxiter", [1, 2, 5])
def test_iteration_cap(maxiter):
    out = minimize(rosenbrock, np.array([-1.2, 1.0]), maxiter=maxiter)
    assert (out.nit, out.stop) == (maxiter, "max_iter")


def test_stationary_start_takes_no_step():
    calls = []

    def counted(x):
        calls.append(x.copy())
        return 3.0, np.zeros_like(x)

    x0 = np.arange(5.0)
    out = minimize(counted, x0, maxiter=100)
    # g = 0 is no descent direction: the first line search ends the run
    # without evaluating f, and nothing divides by |g|
    assert (out.nit, out.nfev, out.stop, out.fun) == (0, 1, "line_search", 3.0)
    np.testing.assert_array_equal(out.x, x0)
    assert len(calls) == 1


def test_monitor_sees_each_accepted_iterate_and_can_end_the_run():
    x0 = np.array([-1.2, 1.0])
    counts = []
    full = minimize(rosenbrock, x0, maxiter=100, monitor=lambda x, nfev: counts.append(nfev) or "")
    assert len(counts) == full.nit and counts == sorted(counts) and counts[-1] <= full.nfev
    seen = []

    def monitor(x, nfev):
        seen.append((x.copy(), nfev))
        return "enough" if len(seen) == 3 else ""

    out = minimize(rosenbrock, x0, maxiter=100, monitor=monitor)
    assert (out.nit, out.nfev, out.stop) == (3, counts[2], "enough")
    np.testing.assert_array_equal(seen[-1][0], out.x)
    assert out.fun == rosenbrock(out.x)[0]


def test_every_step_meets_the_strong_wolfe_conditions():
    # the run capped at k iterations ends at the k-th iterate; the spy holds
    # f and grad f at every point the solver evaluated
    seen = {}

    def spy(x):
        f, g = rosenbrock(x)
        seen[x.tobytes()] = (f, g)
        return f, g

    x0 = np.array([-1.2, 1.0])
    final = minimize(spy, x0, maxiter=500)
    assert final.stop != "max_iter"
    assert np.abs(final.x - 1.0).max() <= 1e-6
    assert final.nfev > final.nit + 1  # some line searches took more than one trial
    prev = x0
    for k in range(1, final.nit + 1):
        x = minimize(spy, x0, maxiter=k).x
        (f0, g0), (f1, g1) = seen[prev.tobytes()], seen[x.tobytes()]
        s = x - prev
        assert g0 @ s < 0.0
        assert f1 <= f0 + C1 * (g0 @ s)
        assert abs(g1 @ s) <= C2 * abs(g0 @ s)
        prev = x


@pytest.mark.parametrize("outside", [math.inf, math.nan])
def test_nonfinite_trial_shrinks_the_step(outside):
    # -log(r^2 - |x|^2) is finite only inside the ball of radius r = 0.1, and
    # the first trial step has length 1, so it lands outside
    def barrier(x):
        room = 0.01 - x @ x
        if room <= 0.0:
            return outside, np.full_like(x, math.nan)
        return -math.log(room), 2.0 * x / room

    out = minimize(barrier, np.array([0.05, 0.02, 0.0]), maxiter=100)
    assert np.abs(out.x).max() <= 1e-8
    assert out.fun == pytest.approx(-math.log(0.01), abs=1e-12)


def test_search_stops_when_f_cannot_resolve_a_decrease():
    # at f0 = 1e4 the rounding of f is ~2e-12, and the linear model promises
    # |g|^2 alpha = 1e-13 for the first (rejected) step alpha = 1/|g|
    out = minimize(lambda x: (1e4 + 0.5 * x @ x, x.copy()), np.array([1e-13]), maxiter=10)
    assert (out.nit, out.nfev, out.stop) == (0, 2, "line_search")


def test_too_short_a_step_is_extrapolated(monkeypatch):
    # from 0 the first step 1/|g| lands at x = 1, where the slope is still
    # 0.99 of the first, too steep for the curvature condition: the search
    # grows the step, the cubic's minimizer clipped to [1.1, 4] widths on
    clips = []

    def spy(alpha, low, high):
        clips.append((low, high))
        return clip(alpha, low, high)

    clip = optimize._clip
    monkeypatch.setattr(optimize, "_clip", spy)
    out = minimize(lambda x: ((x[0] - 100.0) ** 2, 2.0 * (x - 100.0)), np.zeros(1), maxiter=10)
    assert len(clips) == 2
    assert (out.nit, out.x[0]) == (3, 100.0)


@pytest.mark.parametrize("f_r", [-2.0 / 3.0, -1.0], ids=["complex-critical-points", "a-line"])
def test_cubic_without_a_minimizer_extrapolates_to_the_far_end(f_r):
    # slope -1 at both ends: with phi(1) = -2/3 the cubic's critical points
    # are complex, and phi(alpha) = -alpha is a line; either way _clip takes
    # the far end of the extrapolation
    alpha = _cubic_min(_Point(0.0, 0.0, -1.0, None), _Point(1.0, f_r, -1.0, None))
    assert math.isnan(alpha)
    assert _clip(alpha, 1.1, 4.0) == 4.0


def test_nonfinite_start_raises():
    with pytest.raises(ValueError, match="starting point"):
        minimize(lambda x: (math.inf, x), np.zeros(2), maxiter=10)


def two_loop_direction(g, pairs):
    """-H g for the L-BFGS inverse Hessian H of ``pairs`` (s, y, 1/s.y),
    oldest first, scaled by s.y / y.y of the newest pair: the two-loop
    recursion (Liu & Nocedal 1989) that the compact memory replaced."""
    r = -g
    coef = []
    for s, y, rho in reversed(pairs):
        a = rho * s.dot(r)
        r -= a * y
        coef.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        r /= rho * y.dot(y)
    for (s, y, rho), a in zip(pairs, reversed(coef)):
        r += (a - rho * y.dot(r)) * s
    return r


def test_compact_memory_matches_the_two_loop_recursion():
    # steps of many lengths on a diagonal quadratic, in minimize's call order:
    # one direction at g, then the pair of the step from g when the sy rule
    # keeps it; the ring wraps, and a fresh memory starts over
    rng = np.random.default_rng(0)
    n = 40
    curvature = rng.uniform(1.0, 100.0, n)
    memory, pairs = _Memory(n), deque(maxlen=MAXCOR)
    g = rng.standard_normal(n)
    skipped = 0
    for k in range(3 * MAXCOR):
        if k == MAXCOR + 7:
            memory = _Memory(n)
            pairs.clear()
        d, ref = memory.direction(g), two_loop_direction(g, pairs)
        assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)
        s = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        y = (-1.0 if k == 12 else 1.0) * curvature * s  # negative curvature once
        g_new = g + y
        sy = s.dot(y)
        if sy > -EPS * g.dot(s):
            memory.push(s, y, sy, g, g_new)
            pairs.append((s, y, 1.0 / sy))
        else:
            skipped += 1
        g = g_new
    assert skipped == 1
    assert memory.size == len(pairs) == MAXCOR
