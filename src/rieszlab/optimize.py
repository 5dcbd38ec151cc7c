"""Limited-memory BFGS for the dual solver, in numpy.

L-BFGS (Liu & Nocedal 1989): the two-loop recursion applies the inverse
Hessian approximation built from the last ``MAXCOR`` steps s and gradient
changes y, and a line search (Nocedal & Wright, *Numerical Optimization*,
Alg. 3.5 and 3.6) finds a step meeting the strong Wolfe conditions with
L-BFGS-B's constants ``C1`` and ``C2``.  The first step has length 1/||g||;
later ones try the quasi-Newton step 1 first.  A trial point whose value or
gradient is not finite counts as too long a step, so an objective that
overflows far from its minimum shrinks the step instead of failing.

``extremal`` binds ``minimize`` at module level, where a profiler can
rebind it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, NamedTuple

import numpy as np

#: Correction pairs (s, y) kept for the inverse Hessian approximation.
MAXCOR = 30
#: Sufficient decrease and curvature constants of the strong Wolfe conditions.
C1, C2 = 1e-3, 0.9
#: Stop when max |g| is at most this.
GTOL = 1e-14
#: Stop when an iteration lowers f by at most this times max(|f_old|, |f|, 1).
FTOL = 1e-18
#: Objective evaluations allowed in one line search.
MAX_LINE_EVALS = 20

EPS = float(np.finfo(float).eps)


class OptimizeResult(NamedTuple):
    """The last accepted iterate x, f(x), the iteration and objective
    evaluation counts, and why the run stopped: ``"gtol"``, ``"ftol"``,
    ``"max_iter"``, or ``"line_search"`` (no strong-Wolfe step, even
    along -g)."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    stop: str


class _Point(NamedTuple):
    """A point x + alpha d of a line search: phi(alpha) = f(x + alpha d),
    its slope g . d, and the gradient there."""

    alpha: float
    f: float
    slope: float
    g: np.ndarray


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray, *, maxiter: int
) -> OptimizeResult:
    """Minimize a smooth f from x0, where ``fun(x)`` returns (f(x), grad f(x)).

    Runs at most ``maxiter`` iterations.  When the line search finds no
    strong-Wolfe step along the L-BFGS direction, the correction pairs are
    dropped and it tries -g once more before stopping.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    f = float(f)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ValueError("objective or gradient not finite at the starting point")
    nit, nfev = 0, 1
    reduction = math.inf  # relative decrease of f in the last iteration
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MAXCOR)
    stop = None
    while stop is None:
        if np.max(np.abs(g), initial=0.0) <= GTOL:
            stop = "gtol"
        elif reduction <= FTOL:
            stop = "ftol"
        elif nit >= maxiter:
            stop = "max_iter"
        else:
            d = _direction(g, pairs)
            step, evals = _line_search(fun, x, f, g, d, 1.0 if pairs else 1.0 / float(np.linalg.norm(g)))
            nfev += evals
            if step is None:
                if not pairs:
                    stop = "line_search"
                pairs.clear()
                continue
            s, y = step.alpha * d, step.g - g
            sy = s.dot(y)
            if sy > -EPS * g.dot(s):
                pairs.append((s, y, 1.0 / sy))
            reduction = (f - step.f) / max(abs(f), abs(step.f), 1.0)
            x, f, g = x + s, step.f, step.g
            nit += 1
    return OptimizeResult(x, f, nit, nfev, stop)


def _direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of ``pairs`` (oldest first),
    scaled by s.y / y.y of the newest pair."""
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


def _line_search(fun, x, f0, g0, d, alpha):
    """A step alpha > 0 along d meeting the strong Wolfe conditions

        f(x + alpha d) <= f0 + C1 alpha g0.d,   |g(x + alpha d).d| <= C2 |g0.d|,

    as a ``_Point`` (None when none is found in ``MAX_LINE_EVALS``
    evaluations), and the number of evaluations made.

    ``lo`` is the lowest point found that satisfies sufficient decrease,
    and its slope points into the bracket [lo, hi] once ``hi`` is set:
    until then the step grows, and afterwards cubic interpolation
    (bisection when that falls near an end or ``hi`` is not finite)
    shrinks the bracket.  The search gives up once a rejected step is so
    short that alpha |g0.d| is below the rounding of f0, since no shorter
    step can show a decrease.
    """
    slope0 = float(g0 @ d)
    if not slope0 < 0.0:
        return None, 0
    lo = prev = _Point(0.0, f0, slope0, g0)
    hi = None
    for evals in range(1, MAX_LINE_EVALS + 1):
        f, g = fun(x + alpha * d)
        f = float(f)
        finite = np.isfinite(f) and bool(np.all(np.isfinite(g)))
        trial = _Point(alpha, f, float(g @ d) if finite else math.nan, g)
        if not finite or f > f0 + C1 * alpha * slope0 or f >= lo.f:
            if -alpha * slope0 <= EPS * abs(f0):
                break  # even the linear model's decrease is below f's rounding here
            hi = trial
        elif abs(trial.slope) <= -C2 * slope0:
            return trial, evals
        else:
            # lo's slope must point into the bracket; when the trial's does
            # not, the old lo becomes the far end (N&W Alg. 3.6)
            toward_hi = 1.0 if hi is None else hi.alpha - alpha
            if trial.slope * toward_hi >= 0.0:
                hi = lo
            prev, lo = lo, trial
        if hi is None:
            width = lo.alpha - prev.alpha
            alpha = _clip(_cubic_min(prev, lo), lo.alpha + 1.1 * width, lo.alpha + 4.0 * width)
        else:
            a, b = sorted((lo.alpha, hi.alpha))
            if b - a <= EPS * b:
                break
            alpha = _cubic_min(lo, hi) if math.isfinite(hi.slope) else math.nan
            if not a + 0.1 * (b - a) <= alpha <= b - 0.1 * (b - a):
                alpha = 0.5 * (a + b)
    return None, evals


def _cubic_min(p: _Point, r: _Point) -> float:
    """Minimizer of the cubic matching phi and its slope at p and r
    (Nocedal & Wright, eq. 3.59); nan when it has none."""
    d1 = p.slope + r.slope - 3.0 * (p.f - r.f) / (p.alpha - r.alpha)
    disc = d1 * d1 - p.slope * r.slope
    if not disc >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), r.alpha - p.alpha)
    denom = r.slope - p.slope + 2.0 * d2
    if denom == 0.0:
        return math.nan
    return r.alpha - (r.alpha - p.alpha) * (r.slope + d2 - d1) / denom


def _clip(alpha: float, low: float, high: float) -> float:
    """alpha clipped to [low, high]; high when alpha is nan."""
    return high if math.isnan(alpha) else min(max(alpha, low), high)
