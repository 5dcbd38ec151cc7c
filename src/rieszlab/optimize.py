"""Limited-memory BFGS for the dual solver, in numpy.

L-BFGS (Liu & Nocedal 1989) keeps the last ``MAXCOR`` steps s and gradient
changes y, and a line search (Nocedal & Wright, *Numerical Optimization*,
Alg. 3.5 and 3.6) finds a step meeting the strong Wolfe conditions with
L-BFGS-B's constants ``C1`` and ``C2``.  The first step has length 1/||g||;
later ones try the quasi-Newton step 1 first.  A trial point whose value or
gradient is not finite counts as too long a step, so an objective that
overflows far from its minimum shrinks the step instead of failing.

The inverse Hessian approximation is applied in the compact form of Byrd,
Nocedal & Schnabel (Math. Programming 63, 1994), which equals the two-loop
recursion of Liu & Nocedal; ``tests/test_optimize.py`` keeps the two-loop
recursion as its reference.  The memory keeps the pairs as ring rows of
one array, the m x m matrices of the compact form (the inverse of the
upper triangle of S'Y, and Y'Y), each updated by one row and column per
pair, and the products of the pairs with the current gradient.  So an
iteration reads the pairs twice: for their products with the new
gradient, and to combine them into the direction.  A pair is kept when
s.y > -eps g.s, and the first line search that finds no strong-Wolfe step
ends the run, also where g vanishes (there is no gradient floor).  A
``monitor`` hook sees each accepted iterate and its evaluation count, and
ends the run by returning a reason, which the result carries as its
``stop``: the dual solver stops a cap this way when its duality gap
certifies or stalls.

``extremal`` binds ``minimize`` at module level, where a profiler can
rebind it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

#: Correction pairs (s, y) kept for the inverse Hessian approximation.
MAXCOR = 30
#: Sufficient decrease and curvature constants of the strong Wolfe conditions.
C1, C2 = 1e-3, 0.9
#: Objective evaluations allowed in one line search.
MAX_LINE_EVALS = 20

EPS = float(np.finfo(float).eps)


class OptimizeResult(NamedTuple):
    """The last accepted iterate x, f(x), the iteration and objective
    evaluation counts, and why the run stopped: ``"max_iter"``,
    ``"line_search"`` (no strong-Wolfe step along the L-BFGS direction, as
    where g vanishes), or the reason the ``monitor`` returned (the dual
    solver's ``"certified"`` and ``"gap_stall"``)."""

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
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    *,
    maxiter: int,
    monitor: Callable[[np.ndarray, int], str] | None = None,
) -> OptimizeResult:
    """Minimize a smooth f from x0, where ``fun(x)`` returns (f(x), grad f(x)).

    Runs at most ``maxiter`` iterations, and stops at the first line search
    that finds no strong-Wolfe step along the L-BFGS direction.  After each
    accepted iteration ``monitor(x, nfev)``, when given, sees the new
    iterate and the evaluations so far; a non-empty string it returns ends
    the run with that string as the result's ``stop``.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    f = float(f)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ValueError("objective or gradient not finite at the starting point")
    nit, nfev = 0, 1
    memory = _Memory(x.size)
    while True:
        if nit >= maxiter:
            return OptimizeResult(x, f, nit, nfev, "max_iter")
        d = memory.direction(g)
        step, evals = _line_search(fun, x, f, g, d, 1.0 if memory.size else None)
        nfev += evals
        if step is None:
            return OptimizeResult(x, f, nit, nfev, "line_search")
        s, y = step.alpha * d, step.g - g
        sy = s.dot(y)
        if sy > -EPS * g.dot(s):
            memory.push(s, y, sy, g, step.g)
        x, f, g = x + s, step.f, step.g
        nit += 1
        if monitor is not None and (stop := monitor(x, nfev)):
            return OptimizeResult(x, f, nit, nfev, stop)


class _Memory:
    """The last ``MAXCOR`` correction pairs (s_i, y_i), and -H g for the
    L-BFGS inverse Hessian H they define, in compact form.

    The pairs are ring slots: slot j is rows 2j and 2j + 1 of ``rows``,
    s_j and y_j.  The m x m matrices are in age order, oldest first:
    ``rinv`` is R^-1 for the upper triangle R of s_i.y_j, ``yy`` holds
    y_i.y_j and ``sy`` the diagonal s_i.y_i.  Each pair adds one row and
    column, and a full memory drops its first.  The products ``rows @ g``
    of a direction are kept, so the next ``push`` reads rows @ y off
    ``rows @ g_new - rows @ g`` and keeps ``rows @ g_new`` for the next
    direction.
    """

    def __init__(self, n: int):
        self.rows = np.empty((2 * MAXCOR, n))
        self.rinv = np.zeros((MAXCOR, MAXCOR))  # its lower triangle stays 0
        self.yy = np.empty((MAXCOR, MAXCOR))
        self.sy = np.empty(MAXCOR)
        self.size = 0  # pairs held
        self.newest = -1  # slot of the newest pair
        self._kept: tuple[np.ndarray, np.ndarray] | None = None  # g and _products(g)

    def _slots(self) -> np.ndarray:
        """The held slots, oldest first."""
        return (self.newest + 1 + np.arange(self.size)) % self.size

    def _products(self, g: np.ndarray) -> np.ndarray:
        """[s_j.g, y_j.g] for each held slot j."""
        if self._kept is None or self._kept[0] is not g:
            self._kept = g, (self.rows[: 2 * self.size] @ g).reshape(self.size, 2)
        return self._kept[1]

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g, where H starts from gamma I with gamma = s.y / y.y of the
        newest pair (Byrd, Nocedal & Schnabel 1994, Theorem 2.2):

            H g = gamma g + S R^-T ((D + gamma Y'Y) t - gamma Y'g) - gamma Y t,

        where t = R^-1 S'g, S and Y stack the pairs oldest first, R is the
        upper triangle of S'Y and D its diagonal."""
        m = self.size
        if not m:
            return -g
        slots = self._slots()
        sg, yg = self._products(g)[slots].T
        rinv, yy, sy = self.rinv[:m, :m], self.yy[:m, :m], self.sy[:m]
        gamma = sy[-1] / yy[-1, -1]
        t = rinv @ sg
        coef = np.empty((m, 2))
        coef[slots, 0] = (sy * t + gamma * (yy @ t - yg)) @ rinv
        coef[slots, 1] = -gamma * t
        d = coef.ravel() @ self.rows[: 2 * m]
        d += gamma * g
        return np.negative(d, out=d)

    def push(self, s: np.ndarray, y: np.ndarray, sy: float, g: np.ndarray, g_new: np.ndarray) -> None:
        """Add the pair s = x_new - x, y = g_new - g with s.y = ``sy``, in
        place of the oldest when ``MAXCOR`` are held."""
        m = self.size
        products = np.empty((min(m + 1, MAXCOR), 2))
        products[:m] = (self.rows[: 2 * m] @ g_new).reshape(m, 2)
        s_y, y_y = (products[:m] - self._products(g))[self._slots()].T  # S'y and Y'y, oldest first
        if m == MAXCOR:  # drop the oldest pair: R's trailing block has R^-1's trailing block as inverse
            m -= 1
            s_y, y_y = s_y[1:], y_y[1:]
            for a in (self.rinv, self.yy):
                a[:m, :m] = a[1:, 1:]
            self.sy[:m] = self.sy[1:]
        # R gains the column (s_y, sy): R^-1 gains (-R^-1 s_y / sy, 1 / sy)
        self.rinv[:m, m] = -(self.rinv[:m, :m] @ s_y) / sy
        self.rinv[m, m] = 1.0 / sy
        self.yy[:m, m] = self.yy[m, :m] = y_y
        self.yy[m, m] = y.dot(y)
        self.sy[m] = sy
        slot = (self.newest + 1) % MAXCOR
        self.rows[2 * slot] = s
        self.rows[2 * slot + 1] = y
        products[slot] = s.dot(g_new), y.dot(g_new)
        self.size, self.newest = m + 1, slot
        self._kept = g_new, products


def _line_search(fun, x, f0, g0, d, alpha):
    """A step alpha > 0 along d meeting the strong Wolfe conditions

        f(x + alpha d) <= f0 + C1 alpha g0.d,   |g(x + alpha d).d| <= C2 |g0.d|,

    as a ``_Point`` (None when d is no descent direction or none is found
    in ``MAX_LINE_EVALS`` evaluations), and the number of evaluations
    made.  The first trial is ``alpha``, or 1/||d|| when that is None.

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
    alpha = 1.0 / float(np.linalg.norm(d)) if alpha is None else alpha  # d != 0, as slope0 < 0
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
