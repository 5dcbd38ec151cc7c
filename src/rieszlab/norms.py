"""L^p functionals on the torus for the full range 0 <= p <= infinity.

``lp_norm`` treats p = 0 as the geometric mean exp(mean log |g|), the
limit of the L^p quasinorms as p -> 0+, and p = inf as the grid sup.
Alongside the norms live the exponent bookkeeping used throughout: the
conjugate exponent, the conjectured critical exponent

    a_d(q) = 2 + 2 / (d + 2/(q-2)),

the classical Riesz projection operator norm (1/sin(pi/q))^d, and the
interpolation lower bounds 2q/(4-q) on [4/3, 2] and 4q/(q+2) on
[2, inf].
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import GridFunction

#: Moduli below this floor contribute log(GEOMEAN_FLOOR) to the geometric
#: mean; log singularities are integrable, so clipping keeps the
#: quadrature finite without biasing smooth integrands.
GEOMEAN_FLOOR = 1e-300

#: Smallest normal float64; a mean of |g|^p below it has lost digits.
_TINY = np.finfo(np.float64).tiny


def lp_norm(g: GridFunction, p: float) -> float:
    """L^p quasinorm of grid samples; p=0 geometric mean, p=inf sup."""
    p = float(p)
    if math.isnan(p) or p < 0:
        raise ValueError("p must lie in [0, inf]")
    mags = np.abs(g.samples)
    if mags.size == 0:
        raise ValueError("empty grid")
    if p == 0.0:
        if not mags.any():
            raise ValueError("geometric mean of identically zero samples")
        value = float(np.exp(np.mean(np.log(np.maximum(mags, GEOMEAN_FLOOR)))))
    elif math.isinf(p):
        value = float(mags.max())
    else:
        if p < 1.0:
            # the power 1/p amplifies the rounding of m = mean |h|^p, h = g / max|g|; for m > 1/2,
            # as at every small p, expm1 sums m - 1 with less rounding than m itself
            top = float(mags.max())
            with np.errstate(all="ignore"):  # a zero sample gives expm1(-inf) = -1
                logs = np.log(mags / top)
                x = p * logs
                if np.abs(x).max() < _TINY and logs.any():
                    # every p log h is subnormal, too short for expm1 to carry digits: p is 0 here
                    return lp_norm(g, 0.0)
                excess = float(np.mean(np.expm1(x)))
            if excess > -0.5:  # false also when a sample, and so excess, is not finite
                return top * math.exp(math.log1p(excess) / p)
        with np.errstate(over="ignore", under="ignore"):
            mean = np.mean(mags**p)
            if not math.isfinite(mean) or (mean < _TINY and mags.any()):
                # mags**p left the normal range: ||g||_p = max * ||g / max||_p
                top = float(mags.max())
                if not math.isfinite(top):
                    raise ValueError("grid samples are not finite")
                return top * float(np.mean((mags / top) ** p) ** (1.0 / p))
        return float(mean ** (1.0 / p))
    if not math.isfinite(value):
        raise ValueError("grid samples are not finite")
    return value


def nonlinear_map(g: GridFunction, p: float) -> GridFunction:
    """Pointwise map N_p g = |g|^{p-2} g, with 0 where g vanishes.

    N_2 is the identity; N_p and N_{p'} are mutually inverse when
    (p-1)(p'-1) = 1.
    """
    mags = np.abs(g.samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(mags > 0, mags ** (float(p) - 2.0) * g.samples, 0.0)
    return g.with_samples(out)


def conjugate(q: float) -> float:
    """Holder conjugate q* = q/(q-1); conjugate(1) = inf, conjugate(inf) = 1."""
    q = float(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1.0:
        return math.inf
    if math.isinf(q):
        return 1.0
    return q / (q - 1.0)


def conjectured_exponent(d: int, q: float) -> float:
    """Conjectured critical exponent a_d(q) = 2 + 2/(d + 2/(q-2)).

    Removable special cases are evaluated exactly: a_d(2) = 2,
    a_d(inf) = 2 + 2/d, and a_1(q) = 4(1 - 1/q).  Raises below the
    admissible range q >= 2d/(d+1).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    q = float(q)
    q_min = 2.0 * d / (d + 1.0)
    if q < q_min - 1e-12:
        raise ValueError(f"q={q} below the admissible range [{q_min}, inf]")
    if math.isinf(q):
        return 2.0 + 2.0 / d
    if q == 2.0:
        return 2.0
    if d == 1:
        return 4.0 * (1.0 - 1.0 / q)
    return 2.0 + 2.0 / (d + 2.0 / (q - 2.0))


def riesz_projection_norm(q: float, d: int = 1) -> float:
    """Operator norm of the Riesz projection L^q -> H^q: (1/sin(pi/q))^d."""
    q = float(q)
    if not (1.0 < q) or math.isinf(q):
        raise ValueError("operator norm is finite only for 1 < q < inf")
    if d < 1:
        raise ValueError("d must be >= 1")
    return float((1.0 / math.sin(math.pi / q)) ** d)


def interpolation_lower_bound(q: float) -> float:
    """One-dimensional lower bound for the critical exponent.

    4q/(q+2) for q >= 2, 2q/(4-q) on [4/3, 2), and the trivial bound 0
    on [1, 4/3).
    """
    q = float(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.isinf(q):
        return 4.0
    if q >= 2.0:
        return 4.0 * q / (q + 2.0)
    if q >= 4.0 / 3.0:
        return 2.0 * q / (4.0 - q)
    return 0.0
