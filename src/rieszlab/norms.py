"""L^p functionals on the torus for the full range 0 <= p <= infinity.

``lp_norm`` treats p = 0 as the geometric mean exp(mean log |g|), the
limit of the L^p quasinorms as p -> 0+, and p = inf as the grid sup.
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
            mags **= p  # in place, and still numpy's fast path at p = 0.5, 1 and 2
            mean = np.mean(mags)
            if not math.isfinite(mean) or (mean < _TINY and g.samples.any()):
                # mags**p left the normal range: ||g||_p = max * ||g / max||_p
                mags = np.abs(g.samples)
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
