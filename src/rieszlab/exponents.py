"""Exponent bookkeeping used throughout, in closed form and without numpy:
the conjugate exponent, the conjectured critical exponent

    a_d(q) = 2 + 2 / (d + 2/(q-2)),

the classical Riesz projection operator norm (1/sin(pi/q))^d, and the
interpolation lower bounds 2q/(4-q) on [4/3, 2] and 4q/(q+2) on
[2, inf].
"""

from __future__ import annotations

import math


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
