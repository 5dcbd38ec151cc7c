"""Inner-outer machinery and dual extremal problems on the circle.

Two groups of tools:

* Inner-outer helpers: the outer function with prescribed boundary
  modulus (exponentiate the analytic completion of log m), finite
  Blaschke products, and checks for the geometric-mean bound
  exp(mean log |P+ psi|) <= ||psi||_1 together with its equality
  certificate (conj(I) psi >= 0 a.e. for the inner factor I of P+ psi).

* The dual extremal problem for an analytic polynomial phi and
  1 < q < inf:

      minimize ||phi + conj(phi0)||_q over phi0 in H^q with phi0(0)=0,

  solved as a smooth convex program in the truncated coefficients of
  phi0 (quasi-Newton with line search).  The dual witness
  f = N_q(psi) certifies optimality: for analytic f,
  |<f, phi>| / ||f||_{q*} is a lower bound for the minimum, so the
  duality gap sandwiches the value.

The quasi-Newton method is the numpy L-BFGS of ``optimize``, reached
through the module-level name ``minimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .exponents import conjugate
from .fourier import (
    MAX_GRID_POINTS,
    GridFunction,
    TrigPoly,
    grid_from_function,
    grid_from_spectrum,
    grid_inner,
    grid_spectrum,
    riesz_project,
)
from .norms import lp_norm, nonlinear_map
from .optimize import minimize
from .series import NonconvergenceError


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def outer_from_modulus(m: GridFunction) -> GridFunction:
    """Outer function with boundary modulus m (d=1, m > 0 on the grid).

    Exponentiates the analytic completion 2 P+(log m) - mean(log m), whose
    real part is log m; the value at the origin is then exp(mean log m) > 0.
    """
    if m.dim != 1:
        raise ValueError("outer_from_modulus is defined for dim=1 only")
    vals = m.samples
    if np.max(np.abs(vals.imag)) > 1e-12 * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError("modulus data must be real")
    mags = vals.real
    if mags.min() <= 0.0:
        raise ValueError("modulus data must be strictly positive")
    log_m = np.log(mags)
    completion = 2.0 * riesz_project(m.with_samples(log_m)).samples - np.mean(log_m)
    return m.with_samples(np.exp(completion))


def blaschke_product(
    zeros: Sequence[complex], n_per_axis: int = 256, offset: float = 0.5
) -> GridFunction:
    """Finite Blaschke product with the given zeros (|a| < 1 required).

    Each factor is (|a|/a)(a - z)/(1 - conj(a) z), normalized to be
    positive at the origin; a zero at the origin contributes a factor z.
    """

    def product(theta: np.ndarray) -> np.ndarray:
        z = np.exp(1j * theta)
        out = np.ones_like(z)
        for a in map(complex, zeros):
            if not abs(a) < 1.0:
                raise ValueError(f"Blaschke zero |{a}| must be < 1")
            out = out * z if a == 0 else out * (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
        return out

    return grid_from_function(product, 1, n_per_axis, offset)


class L1BoundCheck(NamedTuple):
    """lhs = exp(mean log |P+ psi|), rhs = ||psi||_1, gap = rhs - lhs."""

    lhs: float
    rhs: float
    gap: float


def geometric_mean_l1_check(psi: GridFunction) -> L1BoundCheck:
    """Evaluate the geometric-mean bound for the projection (d=1)."""
    if psi.dim != 1:
        raise ValueError("check is defined for dim=1 only")
    projected = riesz_project(psi)
    lhs = lp_norm(projected, 0.0)
    rhs = lp_norm(psi, 1.0)
    return L1BoundCheck(lhs=lhs, rhs=rhs, gap=rhs - lhs)


class EqualityCertificate(NamedTuple):
    holds: bool
    min_real: float
    max_imag: float


def l1_equality_certificate(
    psi: GridFunction, inner_zeros: Sequence[complex], tol: float = 1e-8
) -> EqualityCertificate:
    """Check conj(I) psi >= 0 on the grid for the inner function I with
    the given zeros; this is the equality condition in the L^1 bound."""
    inner = blaschke_product(inner_zeros, psi.n_per_axis, psi.offset)
    u = np.conj(inner.samples) * psi.samples
    min_real = float(u.real.min())
    max_imag = float(np.abs(u.imag).max())
    return EqualityCertificate(
        holds=(min_real >= -tol and max_imag <= tol),
        min_real=min_real,
        max_imag=max_imag,
    )


def holder_equality_residual(f: GridFunction, q_star: float) -> float:
    """| ||psi||_q ||f||_{q*} - <f, psi> | for psi = N_{q*} f.

    Vanishes identically: the nonlinear map builds the function that
    saturates Holder against f.
    """
    q_star = float(q_star)
    q = conjugate(q_star)
    psi = nonlinear_map(f, q_star)
    lhs = lp_norm(psi, q) * lp_norm(f, q_star)
    rhs = grid_inner(f, psi).real
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# dual extremal solver
# ---------------------------------------------------------------------------


#: Objective evaluations between two duality-gap checks during a cap's solve.
GAP_CHECK_EVALS = 20
#: Checks over which a cap's gap must halve, or count as stalled.
GAP_STALL_WINDOW = 5
#: Share of a check's gap below which the cap's own gap counts as solved:
#: the iterate is then that close to the cap's minimum, and the rest of
#: the gap is the truncation's.
GAP_OWN_SHARE = 0.1


class CapAttempt(NamedTuple):
    """One truncation cap tried by the dual solver: its grid, the L-BFGS
    iteration and objective evaluation counts, why L-BFGS stopped
    (``optimize.OptimizeResult.stop``: ``"certified"``, where a gap check
    made during the solve certified tol, ``"gap_stall"``, where a check
    found that solving this cap further cannot certify, the truncation
    holding more than tol of the gap, ``"line_search"``, where the first
    line search that found no strong-Wolfe step ended the run, or
    ``"max_iter"``), the duality gap at the end, which certified or did
    not, and where it did not, the truncation gap: the part of it that the
    truncation holds up, the gap less the cap-K problem's own gap (None on
    a certified cap, whose gap needs no split).  Then the number of gap
    checks made during the solve, and the smallest gap seen by those
    checks and the final one, with the evaluation count at which it was
    seen."""

    trunc_degree: int
    n_per_axis: int
    iterations: int
    nfev: int
    stop: str
    duality_gap: float
    truncation_gap: float | None
    certified: bool
    gap_checks: int
    best_gap: float
    best_gap_nfev: int


@dataclass
class ExtremalTriple:
    """Solution bundle of the dual extremal problem.

    natural_kernel:    the analytic datum phi
    extremal_kernel:   psi = phi + conj(phi0) attaining the minimum, exact:
                       phi's coefficients, and the certifying conj(c_k) at -k
    value:             ||psi||_q = sup |<f, phi>| / ||f||_{q*}
    attempts:          every escalation cap tried, in order; the last
                       one certified, and ``iterations``,
                       ``duality_gap`` and ``trunc_degree`` are its own
    """

    natural_kernel: TrigPoly
    extremal_kernel: TrigPoly
    value: float
    q: float
    attempts: tuple[CapAttempt, ...]

    @property
    def q_star(self) -> float:
        return conjugate(self.q)

    @property
    def iterations(self) -> int:
        return self.attempts[-1].iterations

    @property
    def duality_gap(self) -> float:
        return self.attempts[-1].duality_gap

    @property
    def trunc_degree(self) -> int:
        return self.attempts[-1].trunc_degree

    def to_json_dict(self) -> dict:
        """The certifying cap's summary, every attempt, phi, and the
        coefficient table of psi with its radius (``_coeff_radius``);
        ``cli`` encodes the nested records."""
        radius = _coeff_radius(self.q, self.value, self.duality_gap)
        return {
            "q": self.q,
            "q_star": self.q_star,
            "value": self.value,
            "duality_gap": self.duality_gap,
            "iterations": self.iterations,
            "trunc_degree": self.trunc_degree,
            "attempts": self.attempts,
            "natural_kernel": self.natural_kernel,
            "coeff_radius": radius,
            "extremal_kernel_coeffs": TrigPoly._from_canonical(
                1, {a: c for a, c in self.extremal_kernel.coeffs.items() if a[0] >= 0 or abs(c) > radius}
            ),
        }


def _coeff_radius(q: float, value: float, gap: float) -> float:
    """A bound on ||psi - psi*||_q, where psi* minimizes the grid problem
    and psi, of q-norm ``value``, has duality gap ``gap``; it bounds each
    coefficient's distance from psi*'s too, as |c_k| <= ||.||_1 <= ||.||_q.

    The gap bounds value - ||psi*||_q, and the midpoint of psi and psi* is
    feasible, so its norm is at least ||psi*||_q.  For 1 < q <= 2, 2-uniform
    convexity (Ball, Carlen & Lieb 1994) then gives
    (q - 1) ||(psi - psi*)/2||^2 <= (value^2 - ||psi*||^2)/2 <= value gap;
    for q >= 2, Clarkson's inequality gives
    ||(psi - psi*)/2||^q <= (value^q - ||psi*||^q)/2 <= q value^(q-1) gap/2.
    The two agree at q = 2.  A gap below 0 is rounding, and counts by its
    size."""
    gap = abs(gap)
    if q <= 2.0:
        return math.sqrt(4.0 * value * gap / (q - 1.0))
    return 2.0 * (0.5 * q * gap) ** (1.0 / q) * value ** (1.0 - 1.0 / q)


def _psi_poly(phi: TrigPoly, x: np.ndarray) -> TrigPoly:
    """psi = phi + conj(phi0) exactly, for x the float64 view of phi0's c_1..c_k."""
    conj_phi0 = {(-j,): c for j, c in enumerate(np.conj(x.view(np.complex128)).tolist(), 1)}
    return TrigPoly(1, {**phi.coeffs, **conj_phi0})


def dual_extremal_solve(
    phi: TrigPoly,
    q: float,
    trunc_degree: int | None = None,
    tol: float = 1e-6,
    n_per_axis: int | None = None,
    max_iter: int = 4000,
) -> ExtremalTriple:
    """Solve min ||phi + conj(phi0)||_q over truncated phi0 in H^q_0.

    Parameters
    ----------
    phi : analytic TrigPoly, d=1, not identically zero.
    q : exponent in [1.05, 64] (the solver's supported range).
    trunc_degree : degree cap for phi0.  When omitted, the cap starts at
        4x deg(phi) and doubles until the duality gap certifies ``tol``
        (the weak-duality witness sees the truncation tail, so a small
        gap certifies the untruncated optimum too).  The first cap starts
        L-BFGS from zero; each later cap starts from the previous cap's
        solution, zero-padded.
    tol : required duality gap |primal - dual| at the solution; finite
        and > 0.  Each cap stops at its first gap check within tol.
    n_per_axis : quadrature grid; defaults to a power of two resolving
        4x the combined bandwidth.  A given grid takes only the caps K it
        resolves, n >= 2 (deg(phi) + K + 1).
    max_iter : L-BFGS iteration cap for each truncation degree; >= 1.

    The problem is 1-homogeneous in phi, so it is solved for phi / s,
    s = max |phi_k|, to tol / max(s, 1), and the value, the gaps and
    conj(phi0) are scaled back by s, so the printed gap is at most
    tol min(1, s).  Every cap tried is recorded in ``attempts``.  Raises
    ``NonconvergenceError``, naming each cap's gap, when no cap
    certifies; for s > 1, where tol stays absolute, it also gives s and
    the smallest gap as a share of the value.
    """
    if phi.dim != 1:
        raise ValueError("dual_extremal_solve expects d=1 input")
    if not phi.coeffs:
        raise ValueError("phi must not be identically zero")
    if len(riesz_project(phi).coeffs) != len(phi.coeffs):
        raise ValueError("phi must be analytic (nonnegative frequencies only)")
    q = float(q)
    if not 1.05 <= q <= 64.0:
        raise ValueError("q outside the supported range [1.05, 64]")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol = {tol} must be finite and > 0")
    if max_iter < 1:
        raise ValueError(f"max_iter = {max_iter} must be >= 1")

    deg = phi.bandwidth()
    if trunc_degree is not None:
        if trunc_degree < 1:
            raise ValueError("trunc_degree must be >= 1")
        caps = [int(trunc_degree)]
    else:
        # escalate the cap until the gap certifies tol
        k0 = max(4 * deg, 8)
        caps = [k0 * (2**i) for i in range(6)]
    resolved = [K for K in caps if n_per_axis is None or n_per_axis >= 2 * (deg + K + 1)]
    if not resolved:
        raise ValueError("grid too small for phi plus the truncated phi0")
    s = max(map(abs, phi.coeffs.values()))
    unit = TrigPoly(1, {alpha: c / s for alpha, c in phi.coeffs.items()})
    attempts: list[CapAttempt] = []
    x = np.zeros(0)
    for cap in resolved:
        x, attempt, value = _solve_at_degree(unit, q, cap, tol / max(s, 1.0), n_per_axis, max_iter, x)
        gaps = ("duality_gap", "truncation_gap", "best_gap")
        attempts.append(attempt._replace(**{k: s * v for k in gaps if (v := getattr(attempt, k)) is not None}))
        if attempt.certified:
            return ExtremalTriple(phi, _psi_poly(phi, s * x), s * value, q, tuple(attempts))
    gap = min(a.best_gap for a in attempts)
    raise NonconvergenceError(
        f"duality gap above tol={tol:.1e} at every cap: "
        + "; ".join(
            f"K={r.trunc_degree} gap {r.duality_gap:.3e} after {r.iterations} iterations ({r.stop})"
            for r in attempts
        )
        + ("; the grid resolves no larger cap" if len(resolved) < len(caps) else "")
        + (
            f"; --tol stays absolute above unit coefficient scale, and s = max|phi_k| = {s:.6g}:"
            f" the smallest gap {gap:.3e} is {gap / (s * value):.1e} of the value"
            if s > 1.0
            else ""
        )
    )


def _objective(phi: TrigPoly, q: float, K: int, n: int):
    """The cap-K problem on the unshifted n-point grid, nodes 2 pi j / n,
    as two maps of x, the float64 view of phi0's coefficients c_1..c_K:
    (F, h), F = mean |psi|^q for psi = phi + conj(phi0) and h the spectrum
    of conj(N_q psi), the only code that computes psi; and (F, grad F),
    whose gradient is q times the float64 view of h's bins 1..K.

    One spectrum holds conj(psi) = phi0 + conj(phi): bin -k holds
    conj(phi_k), set once, and bins 1..K hold c_k, written from x at each
    call, so one inverse FFT gives conj(psi).  One power per sample:
    w = |psi|^(q-2), 0 where psi vanishes, so |psi|^q = w |psi|^2 and
    conj(N_q psi) = w conj(psi), a real scaling made in place."""
    spec = np.zeros(n, dtype=np.complex128)
    for (k,), c in phi.coeffs.items():
        spec[-k] = c.conjugate()
    coeffs = spec[1 : K + 1]
    # a trial step far from the minimum can overflow |psi|^q; the line search shrinks it
    quiet = np.errstate(over="ignore", divide="ignore", invalid="ignore")

    @quiet
    def power_and_spectrum(x: np.ndarray) -> tuple[float, np.ndarray]:
        coeffs[:] = x.view(np.complex128)
        conj_psi = grid_from_spectrum(spec, 0.0).samples
        a = np.abs(conj_psi)
        w = a ** (q - 2.0)
        w[a == 0.0] = 0.0
        conj_psi *= w
        return float(np.mean(w * a * a)), grid_spectrum(GridFunction(conj_psi, 0.0))

    @quiet
    def fun_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        F, h = power_and_spectrum(x)
        return F, q * h[1 : K + 1].view(np.float64)

    return power_and_spectrum, fun_and_grad


def _solve_at_degree(
    phi: TrigPoly,
    q: float,
    trunc_degree: int,
    tol: float,
    n_per_axis: int | None,
    max_iter: int,
    x0: np.ndarray,
) -> tuple[np.ndarray, CapAttempt, float]:
    """One L-BFGS solve at cap K, started from x0 (a solution at a cap
    <= K, zero-padded here; empty for a cold start).  Returns the solution
    x, the float64 view of c_1..c_K in phi0 = sum_k c_k e^{ik theta}, the
    cap's attempt, which says whether the gap certified tol, and the
    q-norm of psi = phi + conj(phi0) at x.

    Every ``GAP_CHECK_EVALS`` objective evaluations the solve checks the
    duality gap at its current iterate from the objective's own (F, h):
    the primal is F^(1/q), nan where F is not a normal float, and N_q(psi)
    has spectrum conj(h[-k]).  It stops with ``"certified"`` at the first
    check whose gap is within tol.  The cap-K problem has its own witness,
    N_q(psi) less its frequencies -1..-K, whose dual bound is at most the
    cap's minimum, so the cap's own gap, primal minus that bound, bounds
    how far the primal lies above that minimum.  The rest of the gap, the
    truncation gap, estimates the part that solving this cap exactly
    would leave; at the cap's minimizer the cap's own gap is 0 and the
    estimate is exact.  A check above tol stops the solve with
    ``"gap_stall"`` when the truncation gap exceeds tol and either the
    cap's own gap is below ``GAP_OWN_SHARE`` of the gap, or the gap has
    stalled, the smallest of the last ``GAP_STALL_WINDOW`` checks being
    more than half the smallest before them; the stall catches the caps
    that L-BFGS converges slowly.  While the truncation gap is at most
    tol, the optimization holds the gap up, and the solve goes on.  A cap
    stopped at a check keeps that check's primal, gap and truncation gap.
    """
    deg = phi.bandwidth()
    K = int(trunc_degree)
    n = int(n_per_axis) if n_per_axis is not None else max(256, 1 << (4 * (deg + K) - 1).bit_length())
    if n > MAX_GRID_POINTS:
        raise ValueError(f"a grid of {n}^1 points exceeds the limit of {MAX_GRID_POINTS}")

    power_and_spectrum, fun_and_grad = _objective(phi, q, K, n)
    conj_phi = np.conj([phi.coeff((k,)) for k in range(deg + 1)])

    def dual(spec: np.ndarray, inner: float, keep: int) -> float:
        """The weak-duality bound |<f, phi>| / ||f||_{q*} of the witness f with spectrum spec[:keep]."""
        f = grid_from_spectrum(np.where(np.arange(n) < keep, spec, 0.0), 0.0)
        denom = lp_norm(f, conjugate(q))
        return inner / denom if denom > 0 else 0.0

    def certificate(x: np.ndarray) -> tuple[float, float, float | None]:
        """The primal ||psi||_q at x, the duality gap, and, for a gap above
        tol, the part of it that the truncation holds up: the gap less the
        cap's own gap, the cap-K witness's bound less the gap's.  One
        spectrum of N_q(psi) holds both witnesses (bins 0..n/2-1 the gap's,
        P+ N_q(psi), and bins 0..n-K-1 the cap's), and |<f, phi>| is one
        sum over phi's bins 0..deg."""
        F, h = power_and_spectrum(x)
        # where |psi|^q under- or overflows, F^(1/q) is no norm: the gap is nan
        primal = F ** (1.0 / q) if np.finfo(float).tiny <= F < math.inf else math.nan
        spec = np.conj(h[-np.arange(n)])
        inner = float(abs(spec[: deg + 1] @ conj_phi))
        bound = dual(spec, inner, n // 2)
        gap = primal - bound
        return primal, gap, None if gap <= tol else dual(spec, inner, n - K) - bound

    checks: list[tuple[float, int]] = []  # (gap, nfev) of each check
    last = None  # the latest check's certificate, which a stop at a check keeps

    def monitor(x: np.ndarray, nfev: int) -> str:
        nonlocal last
        if nfev < (checks[-1][1] if checks else 0) + GAP_CHECK_EVALS:
            return ""
        _, gap, truncation = last = certificate(x)
        checks.append((gap, nfev))
        if gap <= tol:
            return "certified"
        if not truncation > tol:
            return ""  # the optimization holds the gap up
        gaps = [g for g, _ in checks]
        recent, before = gaps[-GAP_STALL_WINDOW:], gaps[:-GAP_STALL_WINDOW]
        solved = gap - truncation < GAP_OWN_SHARE * gap
        return "gap_stall" if solved or (before and min(recent) > 0.5 * min(before)) else ""

    result = minimize(fun_and_grad, np.pad(x0, (0, 2 * K - x0.size)), maxiter=max_iter, monitor=monitor)
    primal, gap, truncation = last if result.stop in ("certified", "gap_stall") else certificate(result.x)
    certified = math.isfinite(gap) and gap <= tol
    best_gap, best_nfev = min([*checks, (gap, result.nfev)])
    attempt = CapAttempt(
        K, n, result.nit, result.nfev, result.stop, gap, truncation, certified, len(checks), best_gap, best_nfev
    )
    return result.x, attempt, primal
