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
    GridFunction,
    TrigPoly,
    coefficients,
    grid_from_function,
    grid_from_spectrum,
    grid_inner,
    grid_spectrum,
    offset_phase,
    riesz_project,
    sample,
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


class CapAttempt(NamedTuple):
    """One truncation cap tried by the dual solver: its grid, the L-BFGS
    iteration and objective evaluation counts, why L-BFGS stopped
    (``optimize.OptimizeResult.stop``: ``"gtol"``, ``"max_iter"``, or
    ``"line_search"``, where the first line search that found no
    strong-Wolfe step ended the run), and the duality gap, which
    certified or did not."""

    trunc_degree: int
    n_per_axis: int
    iterations: int
    nfev: int
    stop: str
    duality_gap: float
    certified: bool


@dataclass
class ExtremalTriple:
    """Solution bundle of the dual extremal problem.

    natural_kernel:    the analytic datum phi
    extremal_kernel:   psi = phi + conj(phi0) attaining the minimum
    value:             ||psi||_q = sup |<f, phi>| / ||f||_{q*}
    attempts:          every escalation cap tried, in order; the last
                       one certified, and ``iterations``,
                       ``duality_gap`` and ``trunc_degree`` are its own
    """

    natural_kernel: TrigPoly
    extremal_kernel: GridFunction
    value: float
    q: float
    q_star: float
    attempts: tuple[CapAttempt, ...]

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
        """The certifying cap's summary, every attempt, phi and the
        coefficient table of psi; ``cli`` encodes the nested records."""
        return {
            "q": self.q,
            "q_star": self.q_star,
            "value": self.value,
            "duality_gap": self.duality_gap,
            "iterations": self.iterations,
            "trunc_degree": self.trunc_degree,
            "attempts": self.attempts,
            "natural_kernel": self.natural_kernel,
            "extremal_kernel_coeffs": coefficients(
                self.extremal_kernel,
                min(
                    max(self.trunc_degree, self.natural_kernel.bandwidth()),
                    self.extremal_kernel.n_per_axis // 2 - 1,
                ),
            ).prune(1e-14),
        }


def _pad_solution(x: np.ndarray, K: int) -> np.ndarray:
    """Zero-pad x = [Re c_1..c_k, Im c_1..c_k] to cap K >= k, half by half,
    so that it describes the same phi0 at cap K."""
    k = x.size // 2
    out = np.zeros(2 * K)
    out[:k] = x[:k]
    out[K : K + k] = x[k:]
    return out


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
        and > 0.
    n_per_axis : quadrature grid; defaults to a power of two resolving
        4x the combined bandwidth.
    max_iter : L-BFGS iteration cap for each truncation degree; >= 1.

    Every cap tried is recorded in ``attempts``.  Raises
    ``NonconvergenceError``, naming each cap's gap, when no cap certifies.
    """
    if phi.dim != 1:
        raise ValueError("dual_extremal_solve expects d=1 input")
    if not phi.coeffs:
        raise ValueError("phi must not be identically zero")
    if not phi.is_analytic():
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
    attempts: list[CapAttempt] = []
    x = np.zeros(0)
    for cap in caps:
        x, attempt, psi_grid, value = _solve_at_degree(phi, q, cap, tol, n_per_axis, max_iter, x)
        attempts.append(attempt)
        if attempt.certified:
            return ExtremalTriple(phi, psi_grid, value, q, conjugate(q), tuple(attempts))
    raise NonconvergenceError(
        f"duality gap above tol={tol:.1e} at every cap: "
        + "; ".join(
            f"K={r.trunc_degree} gap {r.duality_gap:.3e} after {r.iterations} iterations ({r.stop})"
            for r in attempts
        )
    )


def _objective(phi_grid: GridFunction, q: float, K: int):
    """The cap-K problem on phi's grid as two maps of x = [Re c, Im c]:
    the samples of psi = phi + conj(phi0), and (mean |psi|^q, its gradient).

    The gradient takes one power per sample: w = |psi|^(q-2), 0 where psi
    vanishes, so |psi|^q = w |psi|^2 and conj(N_q psi) = w conj(psi), a
    real scaling of conj(psi) = phi0 + conj(phi) made in place."""
    n = phi_grid.n_per_axis
    phi_s = phi_grid.samples
    conj_phi_s = np.conj(phi_s)
    ks = np.arange(1, K + 1)
    fwd_phase = offset_phase(ks, n, phi_grid.offset)  # coefficients -> bins
    rev_phase = offset_phase(-ks, n, phi_grid.offset)  # bins -> coefficients
    spec = np.zeros(n, dtype=np.complex128)  # bins 1..K are rewritten for each x
    coeffs = spec[1 : K + 1]

    def phi0_samples(x: np.ndarray) -> np.ndarray:
        coeffs.real, coeffs.imag = x[:K], x[K:]
        np.multiply(coeffs, fwd_phase, out=coeffs)
        return grid_from_spectrum(spec, phi_grid.offset).samples

    def psi_samples(x: np.ndarray) -> np.ndarray:
        return phi_s + np.conj(phi0_samples(x))

    def fun_and_grad(x: np.ndarray):
        # a trial step far from the minimum can overflow |psi|^q; the line
        # search sees the inf or nan and shrinks the step
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            conj_psi = phi0_samples(x)
            conj_psi += conj_phi_s
            a = np.abs(conj_psi)
            w = a ** (q - 2.0)
            w[a == 0.0] = 0.0
            F = float(np.mean(w * a * a))
            conj_psi *= w
            h_hat = grid_spectrum(phi_grid.with_samples(conj_psi))[1 : K + 1] * rev_phase
        grad = q * np.concatenate([h_hat.real, h_hat.imag])
        return F, grad

    return psi_samples, fun_and_grad


def _solve_at_degree(
    phi: TrigPoly,
    q: float,
    trunc_degree: int,
    tol: float,
    n_per_axis: int | None,
    max_iter: int,
    x0: np.ndarray,
) -> tuple[np.ndarray, CapAttempt, GridFunction, float]:
    """One L-BFGS solve at cap K, started from x0 (a solution at a cap
    <= K, zero-padded here; empty for a cold start).  Returns the solution
    x = [Re c_1..c_K, Im c_1..c_K] of phi0 = sum_k c_k e^{ik theta}, the
    cap's attempt, which says whether the gap certified tol, and the grid
    and q-norm of psi = phi + conj(phi0)."""
    deg = phi.bandwidth()
    K = int(trunc_degree)
    n = int(n_per_axis) if n_per_axis is not None else max(256, 1 << (4 * (deg + K) - 1).bit_length())
    if n < 2 * (deg + K + 1):
        raise ValueError("grid too small for phi plus the truncated phi0")

    phi_grid = sample(phi, n)
    psi_samples, fun_and_grad = _objective(phi_grid, q, K)
    result = minimize(fun_and_grad, _pad_solution(x0, K), maxiter=max_iter)

    psi_grid = phi_grid.with_samples(psi_samples(result.x))
    primal = lp_norm(psi_grid, q)
    f_analytic = riesz_project(nonlinear_map(psi_grid, q))  # P+ of the dual witness N_q(psi)
    denom = lp_norm(f_analytic, conjugate(q))
    dual = abs(grid_inner(f_analytic, phi_grid)) / denom if denom > 0 else 0.0
    gap = float(primal - dual)
    certified = math.isfinite(gap) and gap <= tol
    attempt = CapAttempt(K, n, result.nit, result.nfev, result.stop, gap, certified)
    return result.x, attempt, psi_grid, primal
