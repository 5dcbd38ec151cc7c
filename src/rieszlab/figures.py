"""Tabulated upper and lower bounds for the critical exponent curves.

Rows are sampled along x = 4(1 - 1/q), the natural parametrization in
which the d = 1 upper bound is the identity; x runs over [0, 4] with
x = 4 mapping to q = inf.

d = 1:  upper  4(1 - 1/q)                       (kernel family)
        lower  0 on [1, 4/3)                    (endpoint)
               2q/(4-q) on [4/3, 2)             (interpolation)
               4q/(q+2) on [2, inf]             (interpolation)

d = 2:  upper  -1 below 4/3 (exact there), else 4 - q*
        lower  -1 below 4/3 (exact there)
               0 on [4/3, 8/5)                  (composed endpoint)
               2q/(8-3q) on [8/5, 2)            (composed interpolation)
               8q/(3q+2) on [2, inf]            (composed interpolation)

The composed d = 2 lower bounds are the d = 1 interpolation bounds
applied twice, using that the exponent in d1 + d2 variables dominates
the composition of the one-variable exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exponents import conjectured_exponent, interpolation_lower_bound


@dataclass(frozen=True)
class BoundRow:
    q: float
    upper: float
    lower: float
    upper_source: str
    lower_source: str

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper} at q={self.q}")


@dataclass(frozen=True)
class BoundTable:
    dim: int
    rows: tuple[BoundRow, ...]


def _q_samples() -> list[float]:
    qs = []
    for i in range(33):  # x = 0, 1/8, ..., 4
        x = i / 8.0
        qs.append(math.inf if x == 4.0 else 4.0 / (4.0 - x))
    return qs


def figure_tables(dim: int) -> BoundTable:
    """Bound table for d = 1 or d = 2."""
    if dim not in (1, 2):
        raise ValueError("bound tables are tabulated for d=1 and d=2 only")
    rows = []
    for q in _q_samples():
        if dim == 1:
            upper = conjectured_exponent(1, q) if q > 1 else 0.0
            upper_source = "conjectured" if q > 1 else "exact"
            lower = interpolation_lower_bound(q)
            lower_source = "endpoint" if q < 4.0 / 3.0 else "interpolation"
        elif q < 4.0 / 3.0:
            upper, upper_source, lower, lower_source = -1.0, "exact", -1.0, "exact"
        else:
            upper, upper_source = conjectured_exponent(2, q), "conjectured"
            inner = interpolation_lower_bound(q)
            if inner < 4.0 / 3.0:  # endpoint bound 0; at q = 4/3, inner rounds below 1
                lower, lower_source = 0.0, "composed-endpoint"
            else:
                lower, lower_source = interpolation_lower_bound(inner), "composed-interpolation"
        rows.append(
            BoundRow(
                q=q, upper=upper, lower=lower, upper_source=upper_source, lower_source=lower_source
            )
        )
    return BoundTable(dim=dim, rows=tuple(rows))
