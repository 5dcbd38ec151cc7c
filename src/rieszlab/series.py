"""Truncated power-series evaluation with tail accounting.

The package sums a series only for a value with no closed form, and
every such series is a Gauss 2F1(a, b; c; z), z < 1: 2F1(p/2, p/2; 1; r)
in ``kernels``; 2F1(-q*/2, 1/2; 1; z), 2F1(-s, 1/2; 1; z),
2F1(-s, 3/2; 2; z) and 2F1(-p/2, 1/2; 1; z) in ``homog2``.  ``hyp2f1``
sums them after a Pfaff transform when z < -1/2 or an Euler
transform when a + b > c + 1.  ``sum_series`` underneath, which no
module outside this one calls, takes the first term and a term-to-term
ratio callback, adds terms until the running term drops below
``REL_TOL`` relative to the partial sum (or the ``MAX_TERMS`` cap is
hit), and reports a geometric tail bound computed from the asymptotic
term ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable


class NonconvergenceError(ArithmeticError):
    """A truncated series or iterative solve missed its accuracy target."""


#: Every series stops after MAX_TERMS terms, or once a term is within REL_TOL of the partial sum.
MAX_TERMS = 200
REL_TOL = 1e-16


@dataclass(frozen=True)
class SeriesTally:
    """Outcome of a truncated summation."""

    value: float
    terms: int
    tail_bound: float
    converged: bool


def sum_series(first_term: float, ratio: Callable[[int], float], tail_ratio: float) -> SeriesTally:
    """Sum t_0 + t_1 + ... where t_{n+1} = t_n * ratio(n).

    Stops once |t_n| <= REL_TOL * |sum|, or after MAX_TERMS terms.  The
    reported tail bound is the geometric bound |t_last| * rho / (1 - rho)
    with rho = ``tail_ratio``, the asymptotic term-to-term ratio (e.g. the
    radius r for a series in powers of r).  If the cap is hit first, the
    summation still counts as converged when the tail bound is within a
    decade of the tolerance.
    """
    total = first_term
    term = first_term
    terms_used = 1
    hit_tolerance = False
    for n in range(MAX_TERMS - 1):
        term = term * ratio(n)
        total += term
        terms_used += 1
        if abs(term) <= REL_TOL * abs(total):
            hit_tolerance = True
            break
    if 0.0 <= tail_ratio < 1.0:
        tail = abs(term) * tail_ratio / (1.0 - tail_ratio)
    else:
        tail = math.inf if term != 0.0 else 0.0
    converged = hit_tolerance or tail <= 10.0 * REL_TOL * abs(total)
    return SeriesTally(value=total, terms=terms_used, tail_bound=tail, converged=converged)


def _nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def hyp2f1(a: float, b: float, c: float, z: float) -> SeriesTally:
    """Gauss 2F1(a, b; c; z) for z < 1, by a rule chosen from (a, b, c, z):

    - z < -1/2: Pfaff, (1-z)^{-a} 2F1(a, c-b; c; z/(z-1)), keeping a
      nonpositive-integer parameter as ``a`` so the series terminates;
    - a + b > c + 1, neither a nor b a nonpositive integer: Euler,
      (1-z)^{c-a-b} 2F1(c-a, c-b; c; z), whose terms decay where the
      direct ones grow like n^{a+b-c-1};
    - otherwise the direct sum, term ratio (n+a)(n+b)/((n+c)(n+1)) z.

    The prefactor scales both the value and the tail bound.
    """
    if not z < 1.0:
        raise ValueError(f"hyp2f1 needs z < 1, got {z}")
    scale = 1.0
    if z < -0.5:
        if _nonpositive_int(b):
            a, b = b, a
        scale = (1.0 - z) ** -a
        b, z = c - b, z / (z - 1.0)
    elif a + b > c + 1.0 and not (_nonpositive_int(a) or _nonpositive_int(b)):
        scale = (1.0 - z) ** (c - a - b)
        a, b = c - a, c - b
    tally = sum_series(1.0, lambda n: (n + a) * (n + b) / ((n + c) * (n + 1.0)) * z, abs(z))
    return replace(tally, value=scale * tally.value, tail_bound=scale * tally.tail_bound)


def require_converged(tally: SeriesTally, what: str) -> float:
    """Unwrap a tally, raising ``NonconvergenceError`` when truncation failed."""
    if not tally.converged:
        raise NonconvergenceError(
            f"{what}: series not converged after {tally.terms} terms "
            f"(tail bound {tally.tail_bound:.3e})"
        )
    return tally.value
