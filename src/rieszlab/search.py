"""Empirical search for violations of ||P+ psi||_p <= ||psi||_q.

Candidates come from four families -- seeded random polynomials, the
point-kernel family over w (d=1), the perturbed 2-homogeneous family
over eps (d=2), and frequency-shifted spherical Dirichlet kernels --
followed by coordinate-wise ascent on the coefficients of the best
candidate.  The scan is a branch and bound: every candidate first gets
the exact bound :func:`_ratio_bound` from Parseval's identity (and, for
p > 2, a small grid), and only those whose bound can still beat the
best ratio scored so far are scored on the full grid, so the best
candidate is the one an exhaustive scan picks.  Ascent trials are
scored incrementally on running sample arrays (one coefficient
changes, so the samples change by one separable wave; no FFT), and a
trial that would undo the move just accepted is skipped, since it
always loses; the ratio the search reports for the ascended polynomial
is recomputed from scratch by :func:`projection_ratio`.  A certificate is emitted only when the
measured ratio clears 1 + RATIO_MARGIN *and* survives re-verification
on a grid of twice the resolution; merely grazing 1 proves nothing at
grid accuracy.

Everything is deterministic for a fixed seed: candidates are generated
up front, scored one at a time in descending bound, and ties are broken
by candidate index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dirichlet import lattice_points
from .exponents import conjugate
from .fourier import DEFAULT_GRID, TrigPoly, axis_angles, coefficients, resolving_grid, riesz_project, sample
from .homog2 import PerturbedFamily, build_family, kernel_polynomial
from .kernels import point_extremal_function
from .norms import lp_norm, nonlinear_map

#: A ratio must exceed 1 by this margin to count as a violation.
RATIO_MARGIN = 1e-8
#: A candidate is skipped only when its bound, widened by this factor, is
#: below the best ratio scored; at p = 4, q = 2 the bound is attained.
BOUND_MARGIN = 1e-9
#: Each kernel candidate keeps its coefficients with |alpha| <= this cutoff.
KERNEL_CUTOFF = 24


def projection_ratio(psi: TrigPoly, p: float, q: float, n_per_axis: int, offset: float = 0.5) -> float:
    """||P+ psi||_p / ||psi||_q with the projection done exactly in
    coefficient space and both norms by grid quadrature."""
    denom = lp_norm(sample(psi, n_per_axis, offset), q)
    if denom == 0.0:
        raise ValueError("psi vanishes identically")
    projected = riesz_project(psi)
    if not projected.coeffs:
        return 0.0
    num = lp_norm(sample(projected, n_per_axis, offset), p)
    return num / denom


def _ratio_bound(psi: TrigPoly, p: float, q: float) -> float:
    """An upper bound on every :func:`projection_ratio` of psi when
    0 <= p <= 4 and q >= 2 (inf otherwise): ||P+ psi||_2 / ||psi||_2
    for p <= 2, and ||P+ psi||_2^(1-t) ||P+ psi||_4^t / ||psi||_2 with
    t = 2 - 4/p above.

    Each grid that ratio accepts has more than 2 * bandwidth points per
    axis, so its means of |P+ psi|^2, |P+ psi|^4 and |psi|^2 are exact.
    On the grid's probability measure the power-mean inequality gives
    ||psi||_q >= ||psi||_2 and, for p <= 2, ||P+ psi||_p <= ||P+ psi||_2;
    for 2 < p <= 4, L^p norms are log-convex in 1/p, and
    1/p = (1-t)/2 + t/4.  Both L^2 norms are Parseval's; the L^4 norm is
    sampled on the smallest grid that is exact for it.  When q = 2 the
    bound is attained at p = 2 and at p = 4.
    """
    l2 = psi.l2_norm()
    if l2 == 0.0:
        raise ValueError("psi vanishes identically")
    if not (p <= 4.0 and q >= 2.0):
        return math.inf
    projected = riesz_project(psi)
    if not projected.coeffs:
        return 0.0
    l2_plus = projected.l2_norm()
    if p <= 2.0:
        return l2_plus / l2
    l4_plus = lp_norm(sample(projected, resolving_grid(projected, 2)), 4.0)
    return l4_plus * (l2_plus / l4_plus) ** (4.0 / p - 1.0) / l2  # 1 - t = 4/p - 1


@dataclass(frozen=True)
class ViolationCertificate:
    """Self-contained, re-checkable record of an observed violation."""

    dim: int
    q: float
    p: float
    psi: TrigPoly
    ratio: float
    seed: int
    n_per_axis: int
    offset: float
    family: str

    def recompute_ratio(self, scale: int = 1) -> float:
        n = resolving_grid(self.psi, self.n_per_axis * scale)
        return projection_ratio(self.psi, self.p, self.q, n, self.offset)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ViolationCertificate":
        return cls(
            dim=int(doc["dim"]),
            q=float(doc["q"]),
            p=float(doc["p"]),
            psi=TrigPoly.from_json_dict(doc["psi"]),
            ratio=float(doc["ratio"]),
            seed=int(doc["seed"]),
            n_per_axis=int(doc["n_per_axis"]),
            offset=float(doc["offset"]),
            family=str(doc["family"]),
        )


@dataclass
class SearchResult:
    certificate: ViolationCertificate | None
    best_ratio: float
    best_family: str
    evaluations: int
    dim: int
    q: float
    p: float
    seed: int

    def to_json_dict(self) -> dict:
        """The fields plus ``found`` and ``method``; ``cli`` encodes the certificate."""
        return {
            **vars(self),
            "found": self.certificate is not None,
            "method": "finite empirical search; no certificate proves nothing",
        }


# ---------------------------------------------------------------------------
# candidate families
# ---------------------------------------------------------------------------


def _random_poly(rng: np.random.Generator, dim: int, degree: int) -> TrigPoly:
    """Every |alpha_i| <= degree gets a standard complex Gaussian
    coefficient, drawn (re, im) in row-major order of alpha."""
    m = 2 * degree + 1
    values = rng.standard_normal((m**dim, 2)).view(np.complex128).ravel()
    alphas = np.indices((m,) * dim).reshape(dim, -1).T - degree
    coeffs = {alpha: c for alpha, c in zip(map(tuple, alphas.tolist()), values.tolist()) if c}
    return TrigPoly._from_canonical(dim, coeffs)


def _kernel_family_candidates(q: float, n_per_axis: int) -> list[tuple[str, TrigPoly]]:
    """Truncated minimal kernels psi_w = N_{q*} (1-conj(w)z)^{-2/q*}."""
    q_star = conjugate(q)
    out = []
    for r_pow in (0.02, 0.05, 0.1, 0.2, 0.4):
        w = math.sqrt(r_pow)
        f = point_extremal_function(w, q_star, n_per_axis)
        psi_grid = nonlinear_map(f, q_star)
        psi = coefficients(psi_grid, KERNEL_CUTOFF).prune(1e-13)
        out.append((f"kernel(w={w:.4f})", psi))
    return out


def _homog2_candidates(q: float, n_per_axis: int) -> list[tuple[str, TrigPoly]]:
    q_star = conjugate(q)
    out = []
    for eps in (0.02, 0.05, 0.1, 0.2):
        fam = PerturbedFamily(eps=eps, q_star=q_star)
        try:
            psi = kernel_polynomial(fam)  # exact when q* is an even integer
        except ValueError:
            psi_grid = build_family(eps, q_star, n_per_axis)
            psi = coefficients(psi_grid, min(16, n_per_axis // 2 - 1)).prune(1e-13)
        out.append((f"homog2(eps={eps})", psi))
    return out


def _shifted_dirichlet_candidates(
    rng: np.random.Generator, dim: int, count: int
) -> list[tuple[str, TrigPoly]]:
    """Spherical kernels with the spectrum shifted so the projection
    cuts through the ball."""
    out = []
    max_r = {1: 12.0, 2: 6.0, 3: 3.0}[dim]
    for _ in range(count):
        radius = float(rng.integers(1, int(max_r) + 1))
        pts = lattice_points(radius, dim)
        beta = rng.integers(0, int(radius) + 1, size=dim)
        psi = TrigPoly._from_canonical(dim, dict.fromkeys(map(tuple, (pts - beta).tolist()), 1.0 + 0.0j))
        out.append((f"dirichlet(R={radius},shift={tuple(int(b) for b in beta)})", psi))
    return out


def _ascend(
    psi: TrigPoly,
    p: float,
    q: float,
    n_per_axis: int,
    offset: float,
    steps: int,
) -> tuple[TrigPoly, float, int]:
    """Coordinate-wise ascent on coefficient real/imag parts.

    A trial moves one coefficient c_alpha by delta, which moves the
    samples of psi by delta e^{i alpha.theta}, and those of P+ psi too
    when alpha >= 0 (otherwise the numerator norm is reused).  On the
    grid that wave is an outer product of cached 1-D exponentials, so a
    trial is scored in O(N^d) on running sample arrays, with no FFT.
    The returned ratio is recomputed from scratch by
    :func:`projection_ratio`.

    A visit to c_alpha tries +delta, -delta, +i delta and -i delta with
    one step size, so after +delta or +i delta is accepted the next
    trial would undo it: it returns to the ratio just beaten by more
    than the acceptance factor, up to one rounding per sample, and is
    always rejected.  It is skipped and counted as one evaluation, so
    the budget and every later decision are those of trying it.
    """
    dim = psi.dim
    coeffs = dict(psi.coeffs)
    plus = sum(min(a) >= 0 for a in coeffs)  # terms of P+ psi
    angles = axis_angles(n_per_axis, offset)
    waves: dict[int, np.ndarray] = {}
    cur = sample(psi, n_per_axis, offset)
    cur_plus = sample(riesz_project(psi), n_per_axis, offset)
    trial = cur.with_samples(np.empty_like(cur.samples))  # the only scratch array
    num = lp_norm(cur_plus, p) if plus else 0.0
    best_ratio = num / lp_norm(cur, q)
    evals = 1
    step = 0.1
    keys = sorted(coeffs)
    while evals < steps and step > 1e-4:
        improved = False
        for alpha in keys:
            base = coeffs.get(alpha, 0.0 + 0.0j)
            scale = max(abs(base), 0.1)
            analytic = min(alpha) >= 0
            for a in alpha:
                if a not in waves:
                    waves[a] = np.exp(1j * a * angles)
            head = waves[alpha[0]].reshape((-1,) + (1,) * (dim - 1))
            tail = reduce(np.multiply.outer, [waves[a] for a in alpha[1:]], np.ones(()))
            undo = None  # the trial that would undo the move just accepted
            for delta in (step * scale, -step * scale, 1j * step * scale, -1j * step * scale):
                if evals >= steps:
                    break
                value = base + delta
                held = alpha in coeffs
                if value == 0 and len(coeffs) == held:
                    continue
                if delta == undo:
                    evals += 1
                    continue
                shift = head * delta  # trial.samples below becomes delta e^{i alpha.theta}
                trial_num = num
                if analytic:
                    trial_num = 0.0
                    if value != 0 or plus > held:
                        np.multiply(shift, tail, out=trial.samples)
                        trial.samples += cur_plus.samples
                        trial_num = lp_norm(trial, p)
                np.multiply(shift, tail, out=trial.samples)
                trial.samples += cur.samples
                ratio = trial_num / lp_norm(trial, q)
                evals += 1
                if ratio > best_ratio * (1.0 + 1e-12):
                    best_ratio, num = ratio, trial_num
                    cur, trial = trial, cur
                    if analytic:  # replay the accepted wave onto P+ psi
                        np.multiply(shift, tail, out=trial.samples)
                        cur_plus.samples += trial.samples
                        plus += (value != 0) - held
                    if value != 0:
                        coeffs[alpha] = value
                    else:
                        del coeffs[alpha]
                    base = coeffs.get(alpha, 0.0 + 0.0j)
                    undo = -delta
                    improved = True
        if not improved:
            step *= 0.5
    del cur, cur_plus, trial  # free the running samples before resampling
    best = TrigPoly(dim, coeffs)
    if best.coeffs != psi.coeffs:
        best_ratio = projection_ratio(best, p, q, n_per_axis, offset)
    return best, best_ratio, evals


def violation_search(
    dim: int,
    q: float,
    p: float,
    budget: int = 200,
    seed: int = 0,
    n_per_axis: int | None = None,
) -> SearchResult:
    """Maximize the projection ratio over the candidate families.

    ``budget`` caps the total number of ratio evaluations (roughly);
    about 30% goes to scanning the families (a quarter to random
    polynomials, a twentieth to shifted Dirichlet kernels, plus the
    d = 1 or d = 2 family), the rest to local ascent from the best
    candidate.  The scan bounds every candidate by
    :func:`_ratio_bound`, visits them in descending bound (ties by
    index) and scores on the grid only those whose bound, widened by
    ``BOUND_MARGIN``, reaches the best ratio scored so far; every
    candidate, bounded or scored, counts as one evaluation.
    Every candidate it skips has a ratio below the best, so the winner
    is the one an exhaustive scan picks.  ``n_per_axis`` is the grid
    floor (default ``DEFAULT_GRID[dim]``).  Deterministic for fixed seed.
    """
    seed = int(seed)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if dim < 1 or dim > 3:
        raise ValueError("search supports d in {1, 2, 3}")
    if not q >= 1:
        raise ValueError("q must be >= 1")
    if not p >= 0:
        raise ValueError("p must be >= 0")
    n = DEFAULT_GRID[dim] if n_per_axis is None else int(n_per_axis)
    offset = 0.5  # every ratio below samples at sample's default offset
    rng = np.random.default_rng(seed)

    candidates: list[tuple[str, TrigPoly]] = []
    n_random = max(4, int(budget * 0.25))
    max_degree = min(8, 8 // dim + 2)
    for _ in range(n_random):
        degree = int(rng.integers(1, max_degree + 1))
        candidates.append(("random", _random_poly(rng, dim, degree)))
    if dim == 1 and q > 1:
        candidates.extend(_kernel_family_candidates(q, max(n, 256)))
    if dim == 2 and q > 1:
        candidates.extend(_homog2_candidates(q, n))
    candidates.extend(_shifted_dirichlet_candidates(rng, dim, count=max(4, budget // 20)))

    bounds = [_ratio_bound(poly, p, q) for _, poly in candidates]
    ratios: dict[int, float] = {}
    best_ratio = 0.0
    for i in sorted(range(len(candidates)), key=lambda i: (-bounds[i], i)):
        if bounds[i] * (1.0 + BOUND_MARGIN) < best_ratio:
            break  # the bounds descend, so no later candidate can win either
        poly = candidates[i][1]
        ratios[i] = projection_ratio(poly, p, q, resolving_grid(poly, n), offset)
        best_ratio = max(best_ratio, ratios[i])
    evaluations = len(candidates)  # bounded and scored alike

    best_idx = min(ratios, key=lambda i: (-ratios[i], i))
    best_family, best_poly = candidates[best_idx]

    ascent_budget = max(0, budget - evaluations)
    if ascent_budget > 10:
        grid = resolving_grid(best_poly, n)
        improved, improved_ratio, used = _ascend(best_poly, p, q, grid, offset, ascent_budget)
        evaluations += used
        if improved_ratio > best_ratio:
            best_poly, best_ratio = improved, improved_ratio
            best_family = best_family + "+ascent"

    certificate = None
    if best_ratio > 1.0 + RATIO_MARGIN:
        cert = ViolationCertificate(
            dim=dim,
            q=float(q),
            p=float(p),
            psi=best_poly,
            ratio=best_ratio,
            seed=seed,
            n_per_axis=resolving_grid(best_poly, n),
            offset=offset,
            family=best_family,
        )
        if cert.recompute_ratio(scale=2) > 1.0 + RATIO_MARGIN:
            certificate = cert

    return SearchResult(
        certificate=certificate,
        best_ratio=best_ratio,
        best_family=best_family,
        evaluations=evaluations,
        dim=dim,
        q=float(q),
        p=float(p),
        seed=seed,
    )
