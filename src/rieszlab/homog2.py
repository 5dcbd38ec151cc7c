"""The perturbed 2-homogeneous family on the two-torus.

The family is built from the analytic polynomial

    f = z1 z2 + eps (z1^2 - z2^2),      0 < eps < 1/4,

whose modulus satisfies |f|^2 = 1 + eps^2 |z1^2 - z2^2|^2 on T^2.  With
psi = N_{q*} f (so ||psi||_q^q = ||f||_{q*}^{q*}) and phi = P+ psi, all
norms of interest reduce to Gauss hypergeometric values in eps^2:

    ||psi||_q^q = sum_j binom(q*/2, j) C(2j, j) eps^{2j} = 2F1(-q*/2, 1/2; 1; -4 eps^2)
    a           = 2F1(1-q*/2, 1/2; 1; -4 eps^2)
    b           = sum_j binom(q*/2-1, j) C(2j+1, j+1) eps^{2j} = 2F1(1-q*/2, 3/2; 2; -4 eps^2)
    phi         = a z1 z2 + eps b (z1^2 - z2^2),   x = b eps / a
    ||phi||_p   = a 2F1(-p/2, 1/2; 1; -4 x^2)^{1/p}
    ||phi||_0   = a exp( (1/2) sum_{j>=1} ((-1)^{j+1}/j) C(2j, j) x^{2j} )

For 4x^2 > 1/2 ``series.hyp2f1`` uses the Pfaff transform, and the p = 0
series is summed in its variable t = 4x^2/(1+4x^2), so ||phi||_p holds
at every eps; Euler's transform is never needed here.

Everything stays 2-homogeneous (coefficient support on the line
alpha_1 + alpha_2 = 2), which pins the structure of P+ psi to the two
coefficients (a, b).  The threshold scan locates the exponent p at which
||phi||_p crosses ||psi||_q and extrapolates it to eps -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exponents import conjugate
from .fourier import GridFunction, TrigPoly, sample
from .norms import nonlinear_map
from .series import hyp2f1, require_converged, sum_series


def base_polynomial() -> TrigPoly:
    """z1 z2, the unperturbed extremal of the family."""
    return TrigPoly.monomial((1, 1))


def perturbation_polynomial() -> TrigPoly:
    """z1^2 - z2^2, the even 2-homogeneous perturbation direction."""
    return TrigPoly(2, {(2, 0): 1.0, (0, 2): -1.0})


def family_polynomial(eps: float) -> TrigPoly:
    return base_polynomial() + perturbation_polynomial().scale(float(eps))


@dataclass(frozen=True)
class PerturbedFamily:
    """Family member: perturbation size eps and conjugate exponent q*."""

    eps: float
    q_star: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 0.25:
            raise ValueError("eps must lie in (0, 1/4)")
        if not 1.0 <= self.q_star < math.inf:
            raise ValueError(f"q must exceed 1 (q* = {self.q_star} must be finite and >= 1)")

    @property
    def q(self) -> float:
        return conjugate(self.q_star) if self.q_star > 1 else math.inf


def build_family(eps: float, q_star: float, n_per_axis: int = 128) -> GridFunction:
    """psi = N_{q*} f sampled on the N^2 grid; ValueError when |f|^{q*-2}
    overflows float64, as it does for q near 1."""
    fam = PerturbedFamily(eps=float(eps), q_star=float(q_star))
    with np.errstate(over="ignore", invalid="ignore"):
        psi = nonlinear_map(sample(family_polynomial(fam.eps), n_per_axis), fam.q_star)
    if not np.all(np.isfinite(psi.samples)):
        raise ValueError(f"N_q* f overflows float64 at q* = {fam.q_star:g}")
    return psi


def kernel_polynomial(fam: PerturbedFamily) -> TrigPoly:
    """psi = N_{q*} f as an exact TrigPoly when q* is an even integer.

    |f|^{q*-2} f = f^{q*/2} conj(f)^{q*/2 - 1} is then a polynomial.
    """
    half = fam.q_star / 2.0
    if abs(half - round(half)) > 1e-12 or round(half) < 1:
        raise ValueError("exact kernel polynomial needs q* an even integer >= 2")
    m = int(round(half))
    f = family_polynomial(fam.eps)
    out = TrigPoly.monomial((0, 0))
    for _ in range(m):
        out = out * f
    fc = f.conjugate()
    for _ in range(m - 1):
        out = out * fc
    return out


def kernel_norm_series(fam: PerturbedFamily) -> float:
    """||psi||_q, q = fam.q, from the eps^2 series."""
    q = fam.q
    if math.isinf(q):
        return 1.0  # |psi| = 1 pointwise
    tally = hyp2f1(-fam.q_star / 2.0, 0.5, 1.0, -4.0 * fam.eps**2)
    return require_converged(tally, f"kernel_norm_series(q*={fam.q_star})") ** (1.0 / q)


class ProjectionCoefficients(NamedTuple):
    """Coefficients (a, b) of P+ psi = a z1 z2 + eps b (z1^2 - z2^2)."""

    a: float
    b: float


def projection_coefficients(fam: PerturbedFamily) -> ProjectionCoefficients:
    s = fam.q_star / 2.0 - 1.0
    z = -4.0 * fam.eps**2
    a = require_converged(hyp2f1(-s, 0.5, 1.0, z), f"projection a(q*={fam.q_star})")
    b = require_converged(hyp2f1(-s, 1.5, 2.0, z), f"projection b(q*={fam.q_star})")
    return ProjectionCoefficients(a=a, b=b)


def projection_polynomial(fam: PerturbedFamily) -> TrigPoly:
    """P+ psi as an exact two-term polynomial built from (a, b)."""
    a, b = projection_coefficients(fam)
    return base_polynomial().scale(a) + perturbation_polynomial().scale(fam.eps * b)


def projection_norm_series(fam: PerturbedFamily, p: float) -> float:
    """||P+ psi||_p from the series; p = 0 gives the geometric mean.

    With x = b eps / a the series converges for every x: for 4x^2 > 1/2
    both the 2F1 and the p = 0 series are summed in t = 4x^2/(1+4x^2),
    and log(||P+ psi||_0 / a) = log(1+4x^2)/2 - (1/2) sum_{j>=1}
    (1/2)_j/(j j!) t^j.
    """
    p = float(p)
    if p < 0:
        raise ValueError("p must be >= 0")
    a, b = projection_coefficients(fam)
    x = b * fam.eps / a
    if math.isinf(p):
        # |phi|^2 = a^2 + 4 (b eps)^2 sin^2(t1 - t2) peaks at sin^2 = 1
        return a * math.sqrt(1.0 + 4.0 * x * x)
    x2 = x * x
    if p > 0.0:
        tally = hyp2f1(-p / 2.0, 0.5, 1.0, -4.0 * x2)
        return a * require_converged(tally, f"projection norm series(p={p})") ** (1.0 / p)
    # sum_{j>=1} -(1/2)_j/(j j!) (-4v)^j: v = x^2 directly, v = -t/4 after Pfaff
    shift, v = (0.0, x2) if 4.0 * x2 <= 0.5 else (math.log1p(4.0 * x2), -x2 / (1.0 + 4.0 * x2))
    tally = sum_series(
        2.0 * v,  # j=1 term: (1/1) C(2,1) v
        lambda j: -((j + 1.0) / (j + 2.0)) * (2.0 * (2 * j + 3.0) / (j + 2.0)) * v,
        4.0 * abs(v),
    )
    log_sum = shift + require_converged(tally, "projection geometric-mean series")
    return a * math.exp(0.5 * log_sum)


def projection_geometric_mean_closed(fam: PerturbedFamily) -> float:
    """Independent closed form for ||P+ psi||_0.

    On the grid |phi|^2 = a^2 + 4 eps^2 b^2 sin^2(t1 - t2), and the
    geometric mean of A + B cos has the classical closed form
    ((A + sqrt(A^2 - B^2))/2)^{1/2}; this collapses to
    a (1 + sqrt(1 + 4 x^2))/2 with x = b eps / a.
    """
    a, b = projection_coefficients(fam)
    x = b * fam.eps / a
    return a * (1.0 + math.sqrt(1.0 + 4.0 * x * x)) / 2.0


# ---------------------------------------------------------------------------
# threshold scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    eps: float
    threshold_p: float | None
    a: float
    b: float
    psi_norm: float
    gm_gap: float  # ||phi||_0 - ||psi||_q (positive = violation at p=0)


@dataclass(frozen=True)
class ThresholdScan:
    q: float
    q_star: float
    rows: tuple[ScanRow, ...]
    extrapolated: float | None


def threshold_scan(
    q: float,
    eps_list: tuple[float, ...] = (0.08, 0.04, 0.02),
    p_lo: float = 0.05,
    p_hi: float = 4.5,
    resolution: float = 1e-4,
) -> ThresholdScan:
    """Largest p with ||P+ psi||_p <= ||psi||_q for each eps, then the
    Richardson limit in eps^2 of those thresholds.

    ||phi||_p is increasing in p, so the crossing is located by
    bisection to ``resolution``.  A row reports ``threshold_p = None``
    when even p = p_lo violates the bound (no positive p survives on
    the scanned range), and ``threshold_p = p_hi`` when the bound still
    holds at p_hi (the crossing lies above the window).  Only rows whose
    crossing the bisection located enter the extrapolation.  Needs
    0 <= p_lo < p_hi < inf and a finite resolution > 0.
    """
    if not 0.0 <= p_lo < p_hi < math.inf:
        raise ValueError(f"p window needs 0 <= p_lo < p_hi < inf, got [{p_lo}, {p_hi}]")
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    q = float(q)
    q_star = conjugate(q)
    rows, located = [], []
    for eps in sorted(eps_list, reverse=True):
        fam = PerturbedFamily(eps=float(eps), q_star=q_star)
        psi_norm = kernel_norm_series(fam)
        a, b = projection_coefficients(fam)
        gm_gap = projection_norm_series(fam, 0.0) - psi_norm

        def diff(p: float) -> float:
            return projection_norm_series(fam, p) - psi_norm

        if diff(p_lo) > 0.0:
            threshold = None
        elif diff(p_hi) <= 0.0:
            threshold = p_hi
        else:
            lo, hi = p_lo, p_hi
            # the midpoint test stops a resolution below the float spacing
            while hi - lo > resolution and lo < (mid := 0.5 * (lo + hi)) < hi:
                if diff(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
            threshold = 0.5 * (lo + hi)
            located.append((float(eps), threshold))
        rows.append(
            ScanRow(
                eps=float(eps),
                threshold_p=threshold,
                a=a,
                b=b,
                psi_norm=psi_norm,
                gm_gap=gm_gap,
            )
        )

    extrapolated = None
    if len(located) >= 2:
        (e1, t1), (e2, t2) = located[-2], located[-1]  # e2 is the smallest eps
        extrapolated = (t2 * e1**2 - t1 * e2**2) / (e1**2 - e2**2)
    return ThresholdScan(q=q, q_star=q_star, rows=tuple(rows), extrapolated=extrapolated)
