"""Point-evaluation kernels on the circle and their hypergeometric norm series.

For w in the open unit disc and k_w(z) = 1/(1 - conj(w) z), with
r = |w|^2:

    ||k_w||_p^p           = sum_n binom(n-1+p/2, n)^2 r^n = 2F1(p/2, p/2; 1; r)
    min ||psi||_q over
    {P+ psi = k_w}        = (1 - r)^{-s} = 2F1(s, 1; 1; r),   s = 1/q*

``series.hyp2f1`` sums both; for p > 2 it applies the Euler transform,
(1-r)^{1-p} 2F1(1-p/2, 1-p/2; 1; r), which terminates for even p.

The comparison of the two series coefficientwise decides whether
||k_w||_p <= ||psi||_q can hold for all w: it does precisely when
p <= 4/q*, with the first violation at n = 1 otherwise.  The extremal
function for point evaluation at w is C (1 - conj(w) z)^{-2/q*}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import conjugate
from .fourier import GridFunction, TrigPoly, grid_from_function
from .series import REL_TOL, hyp2f1, require_converged


def _point(w) -> tuple[complex, float]:
    """(w, r = |w|^2) for an evaluation point w in the open unit disc."""
    w = complex(w)
    r = abs(w) ** 2
    if not r < 1.0:
        raise ValueError(f"|w| = {abs(w)} must be < 1")
    return w, r


def szego_norm(w, p: float) -> float:
    """||k_w||_p from 2F1(p/2, p/2; 1; r) (p > 0)."""
    p = float(p)
    if not p > 0 or math.isinf(p):
        raise ValueError("p must be a positive finite exponent")
    w, r = _point(w)
    tally = hyp2f1(p / 2.0, p / 2.0, 1.0, r)
    total = require_converged(tally, f"szego_norm(w={w}, p={p})")
    return total ** (1.0 / p)


@dataclass(frozen=True)
class ExtremalKernelNorm:
    """Closed form and independently summed series for the same quantity."""

    closed_form: float
    series: float


def extremal_kernel_norm(w, q: float) -> ExtremalKernelNorm:
    """(1-r)^{-1/q*} with its cross-check by the series 2F1(1/q*, 1; 1; r).

    The two routes must agree within 10x the series tolerance; a larger
    discrepancy is reported as nonconvergence.
    """
    q = float(q)
    if not q > 1:
        raise ValueError("q must exceed 1")
    w, r = _point(w)
    s = 1.0 / conjugate(q)
    closed = (1.0 - r) ** (-s)
    tally = hyp2f1(s, 1.0, 1.0, r)
    total = require_converged(tally, f"extremal_kernel_norm(w={w}, q={q})")
    if abs(total - closed) > 10.0 * REL_TOL * max(abs(closed), 1.0) + tally.tail_bound:
        raise ArithmeticError(
            f"series {total!r} and closed form {closed!r} disagree beyond tolerance"
        )
    return ExtremalKernelNorm(closed_form=closed, series=total)


@dataclass(frozen=True)
class CoefficientReport:
    """Coefficientwise comparison of the two norm series.

    ``margins[n-1]`` is binom(n-1+p/q*, n) - binom(n-1+p/2, n)^2 for
    n = 1..n_max; ``factor_margins[j-1]`` is the per-factor estimate
    j(j-1+(p/2)^2) - (j-1+p/2)^2 >= 0 that proves the sufficient
    direction.  ``first_violation`` is the smallest n with a negative
    margin, or None.
    """

    q: float
    p: float
    n_max: int
    first_violation: int | None
    margins: tuple[float, ...]
    factor_margins: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.first_violation is None


def coefficient_check(q: float, p: float, n_max: int = 50) -> CoefficientReport:
    """Compare the extremal-kernel and Szego norm series term by term.

    The operative inequality binom(n-1+p/q*, n) >= binom(n-1+p/2, n)^2
    holds for every n iff p <= 4/q*; for larger p the n = 1 term
    p/q* >= (p/2)^2 already fails.  A p so large (or infinite) that a
    margin is not finite in float64 is refused with ValueError.
    """
    q = float(q)
    p = float(p)
    if not q > 1:
        raise ValueError("q must exceed 1")
    if not p > 0:
        raise ValueError("p must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    s = p / conjugate(q)
    t = p / 2.0
    margins = []
    first_violation = None
    lhs = 1.0
    rhs = 1.0
    for n in range(1, n_max + 1):
        lhs *= (n - 1.0 + s) / n  # at n = 1 exactly s, where (s + 1) - 1 would drop s < 1.1e-16
        rhs *= (n - 1.0 + t) / n
        m = lhs - rhs * rhs
        margins.append(m)
        if first_violation is None and m < -1e-13 * max(abs(lhs), rhs * rhs, 1e-30):
            first_violation = n
    # finite margins keep t^2 finite, and t^4 / 4 too once n_max >= 2, so every
    # factor margin below is finite, and its square raises no OverflowError
    if not all(map(math.isfinite, margins)):
        raise ValueError(f"p = {p} gives a margin that is not finite in float64")
    factor_margins = tuple(
        j * (j - 1.0 + t * t) - (j - 1.0 + t) ** 2 for j in range(1, n_max + 1)
    )
    return CoefficientReport(
        q=q,
        p=p,
        n_max=n_max,
        first_violation=first_violation,
        margins=tuple(margins),
        factor_margins=factor_margins,
    )


def point_extremal_function(w, q_star: float, n_per_axis: int = 256) -> GridFunction:
    """Principal-branch samples of (1 - conj(w) z)^{-2/q*}, C = 1.

    For q* = 2 this is the Szego kernel itself.
    """
    q_star = float(q_star)
    if not q_star >= 1:
        raise ValueError("q_star must be >= 1")
    wbar = np.conj(_point(w)[0])
    kernel = lambda t: (1.0 - wbar * np.exp(1j * t)) ** (-2.0 / q_star)
    return grid_from_function(kernel, 1, n_per_axis)


def truncated_szego_poly(w, degree: int) -> TrigPoly:
    """Degree-``degree`` Taylor truncation of k_w: sum of conj(w)^n z^n."""
    w, _ = _point(w)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    wbar = np.conj(w)
    coeffs = {}
    term = 1.0 + 0.0j
    for n in range(degree + 1):
        coeffs[(n,)] = term
        term *= wbar
    return TrigPoly(1, coeffs)


def poisson_kernel(w, n_per_axis: int = 256) -> GridFunction:
    """Poisson kernel (1 - |w|^2)/|1 - conj(w) e^{i theta}|^2 (real part >= 0)."""
    w, r = _point(w)
    kernel = lambda t: (1.0 - r) / np.abs(1.0 - np.conj(w) * np.exp(1j * t)) ** 2
    return grid_from_function(kernel, 1, n_per_axis)
