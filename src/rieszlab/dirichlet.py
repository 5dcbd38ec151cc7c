"""Spherical Dirichlet kernels D_{R,d} = sum_{|alpha| <= R} z^alpha.

Experimental probe of small-exponent norm growth: for d > 1 and
0 < p <= 1 the L^p quasinorm grows like R^{(d-1)/2} (up to constants),
while d = 1 is the degenerate control with only logarithmic growth.
``growth_fit`` estimates the exponent by least squares on log-log data,
discarding the smallest radius as preasymptotic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fourier import TrigPoly, sample
from .norms import lp_norm

#: Refuse to enumerate lattice balls beyond this many points.
LATTICE_CAP = 2_000_000

#: Dimension and radius guardrails for the desk-scale experiments.
MAX_DIM = 3
MAX_RADIUS = {1: 4096.0, 2: 40.0, 3: 12.0}


@dataclass(frozen=True)
class DirichletSpec:
    """Kernel parameters: Euclidean radius and dimension."""

    radius: float
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim > MAX_DIM:
            raise ValueError(f"dim must be in 1..{MAX_DIM}")
        if not 0.0 <= self.radius <= MAX_RADIUS[self.dim]:
            raise ValueError(
                f"radius {self.radius} outside [0, {MAX_RADIUS[self.dim]}] for d={self.dim}"
            )


def lattice_points(radius: float, dim: int) -> np.ndarray:
    """Integer points with Euclidean norm <= radius, shape (count, dim)."""
    m = int(math.floor(radius))
    side = 2 * m + 1
    if side**dim > LATTICE_CAP:
        raise ValueError(f"lattice ball would enumerate {side ** dim} points; cap is {LATTICE_CAP}")
    axes = np.meshgrid(*([np.arange(-m, m + 1)] * dim), indexing="ij")
    stacked = np.stack([a.ravel() for a in axes], axis=1)
    mask = (stacked.astype(float) ** 2).sum(axis=1) <= radius**2 + 1e-9
    return stacked[mask]


def lattice_count(radius: float, dim: int) -> int:
    return int(lattice_points(radius, dim).shape[0])


def spherical_dirichlet(spec: DirichletSpec) -> TrigPoly:
    """The kernel as a sparse polynomial with unit coefficients."""
    pts = lattice_points(spec.radius, spec.dim)
    return TrigPoly._from_canonical(spec.dim, dict.fromkeys(map(tuple, pts.tolist()), 1.0 + 0.0j))


def default_grid(spec: DirichletSpec, p: float) -> int:
    """Grid size resolving |D|^p: exact for even integer p, 4x
    oversampled otherwise.

    For p = 2m the integrand is band-limited with bandwidth 2mR per
    axis, so N = 2m*floor(R) + 2 integrates it exactly.  For other p
    the integrand has cusps on the kernel's zero set and the bandwidth
    rule N >= 2R+2 is quadrupled instead.
    """
    m = int(math.floor(spec.radius))
    even_integer = p > 0 and not math.isinf(p) and float(p).is_integer() and int(p) % 2 == 0
    return int(p) * m + 2 if even_integer else 4 * (2 * m + 2)


def dirichlet_norm(spec: DirichletSpec, p: float, n_per_axis: int | None = None) -> float:
    """||D_{R,d}||_p; the sup norm is the lattice count exactly, other p
    use quadrature on an N^d grid, which must resolve bandwidth floor(R)."""
    p = float(p)
    if math.isinf(p):
        return float(lattice_count(spec.radius, spec.dim))
    n = int(n_per_axis) if n_per_axis is not None else default_grid(spec, p)
    return lp_norm(sample(spherical_dirichlet(spec), n), p)


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth fit log||D|| ~ exponent * log R + intercept."""

    dim: int
    p: float
    exponent: float
    c_hat: float  # exp(p * intercept): implied constant for ||D||_p^p ~ c R^{p*exponent}
    target: float  # (d-1)/2, the predicted exponent for 0 < p <= 1


def fit_radii(radii, ps) -> list[float]:
    """The radii as floats, if a growth fit at each p in ``ps`` can use them:
    four or more, strictly increasing, and p neither 0 nor inf, where
    c_hat = exp(p * intercept) is 1 or inf whatever the norms."""
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("need at least 4 radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if any(p == 0.0 or math.isinf(p) for p in ps):
        raise ValueError("no growth fit at p = 0 or p = inf")
    return radii


def growth_fit(dim: int, p: float, radii, norms) -> GrowthFit:
    """Fit the growth exponent of R -> ||D_{R,d}||_p to the norms measured
    at ``radii``, leaving out the smallest radius as preasymptotic."""
    radii = fit_radii(radii, [p])
    if len(norms) != len(radii):
        raise ValueError(f"{len(norms)} norms for {len(radii)} radii")
    log_r = np.log(np.asarray(radii[1:]))
    log_n = np.log(np.asarray(norms[1:]))
    slope, intercept = np.polyfit(log_r, log_n, 1)
    log_c = float(p) * float(intercept)
    if not log_c <= math.log(sys.float_info.max):  # math.exp would overflow
        raise ValueError(f"c_hat = exp({log_c!r}) is not finite in float64 at p = {p}")
    return GrowthFit(
        dim=dim,
        p=float(p),
        exponent=float(slope),
        c_hat=math.exp(log_c),
        target=(dim - 1) / 2.0,
    )
