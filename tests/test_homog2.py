import json
import math

import mpmath
import numpy as np
import pytest

from rieszlab.cli import _json_text
from rieszlab.exponents import conjugate
from rieszlab.fourier import coefficients, riesz_project, sample
from rieszlab.homog2 import (
    PerturbedFamily,
    ProjectionCoefficients,
    base_polynomial,
    build_family,
    family_polynomial,
    kernel_norm_series,
    kernel_polynomial,
    perturbation_polynomial,
    projection_coefficients,
    projection_geometric_mean_closed,
    projection_norm_series,
    projection_polynomial,
    threshold_scan,
)
from rieszlab.norms import lp_norm

Q_GRID = [1.5, 2.0, 3.0, 4.0]
EPS_GRID = [0.05, 0.1, 0.2]


def family(eps, q):
    return PerturbedFamily(eps=eps, q_star=conjugate(q))


def psi_grid(eps, q, n=128):
    return build_family(eps, conjugate(q), n_per_axis=n)


# ---------------------------------------------------------------------------
# structure of the family
# ---------------------------------------------------------------------------


def test_modulus_identity():
    # |f|^2 = 1 + eps^2 |z1^2 - z2^2|^2 pointwise on the torus
    eps = 0.17
    f = sample(family_polynomial(eps), 64)
    pert = sample(perturbation_polynomial(), 64)
    lhs = np.abs(f.samples) ** 2
    rhs = 1.0 + eps**2 * np.abs(pert.samples) ** 2
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_perturbation_even_norms():
    # || z1^2 - z2^2 ||_{2j}^{2j} = C(2j, j): check against quadrature
    pert = sample(perturbation_polynomial(), 32)
    for j in (1, 2, 3, 4):
        quad = lp_norm(pert, 2.0 * j) ** (2 * j)
        assert quad == pytest.approx(math.comb(2 * j, j), rel=1e-12)


def test_family_validation():
    with pytest.raises(ValueError):
        PerturbedFamily(eps=0.3, q_star=2.0)
    with pytest.raises(ValueError):
        PerturbedFamily(eps=0.0, q_star=2.0)
    with pytest.raises(ValueError):
        PerturbedFamily(eps=0.1, q_star=0.8)


def test_kernel_polynomial_even_qstar():
    fam = PerturbedFamily(eps=0.1, q_star=4.0)
    exact = kernel_polynomial(fam)
    grid = psi_grid(0.1, fam.q, n=64)
    direct = coefficients(grid, exact.bandwidth())
    assert direct.distance(exact) <= 1e-12
    with pytest.raises(ValueError):
        kernel_polynomial(PerturbedFamily(eps=0.1, q_star=3.0))


# ---------------------------------------------------------------------------
# norm series vs quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_kernel_norm_series_vs_quadrature(q, eps):
    fam = family(eps, q)
    got = kernel_norm_series(fam)
    quad = lp_norm(psi_grid(eps, q), q)
    assert got == pytest.approx(quad, abs=1e-9, rel=1e-9)


def test_kernel_norm_qstar1_unimodular():
    fam = PerturbedFamily(eps=0.1, q_star=1.0)
    assert kernel_norm_series(fam) == 1.0
    grid = psi_grid(0.1, math.inf)
    assert np.abs(np.abs(grid.samples) - 1.0).max() <= 1e-13


@pytest.mark.parametrize("q", Q_GRID + [math.inf])
@pytest.mark.parametrize("eps", EPS_GRID)
def test_projection_coefficients_vs_fft(q, eps):
    fam = PerturbedFamily(eps=eps, q_star=conjugate(q))
    a, b = projection_coefficients(fam)
    grid = psi_grid(eps, q)
    hat = coefficients(grid, 3)
    assert complex(hat.coeff((1, 1))).real == pytest.approx(a, abs=1e-10)
    assert complex(hat.coeff((2, 0))).real == pytest.approx(eps * b, abs=1e-10)
    assert complex(hat.coeff((0, 2))).real == pytest.approx(-eps * b, abs=1e-10)
    # the projection keeps no other sizable coefficients
    other = [
        abs(c)
        for alpha, c in hat.coeffs.items()
        if alpha not in ((1, 1), (2, 0), (0, 2)) and min(alpha) >= 0
    ]
    assert max(other, default=0.0) <= 1e-10


def test_projection_polynomial_matches_exact_projection():
    fam = PerturbedFamily(eps=0.15, q_star=4.0)
    exact = riesz_project(kernel_polynomial(fam))
    two_term = projection_polynomial(fam)
    assert exact.distance(two_term) <= 1e-12


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 3.0, math.inf])
def test_projection_norm_series_vs_quadrature(p):
    fam = PerturbedFamily(eps=0.12, q_star=1.5)
    got = projection_norm_series(fam, p)
    grid = sample(projection_polynomial(fam), 256)
    quad = lp_norm(grid, p)
    tol = 1e-9 if p not in (math.inf,) else 1e-4  # grid sup underestimates
    assert got == pytest.approx(quad, abs=tol, rel=1e-6 if p == math.inf else 1e-9)


def test_geometric_mean_closed_form_agrees_with_mpmath_quadrature():
    # |phi|^2 = a^2 + 4 (b eps)^2 sin^2(t1 - t2), so exp(mean log |phi|) is a 1-d mean
    points = [(q_star, eps) for q_star in (1.0, 1.5, 2.0, 3.0, 4.0) for eps in EPS_GRID]
    x2s = []
    for q_star, eps in points + [(1001.0, 0.2), (1001.0, 0.249)]:
        fam = PerturbedFamily(eps=eps, q_star=q_star)
        a, b = projection_coefficients(fam)
        x2s.append((b * eps / a) ** 2)
        with mpmath.workdps(40):
            a, c = mpmath.mpf(a), 2 * mpmath.mpf(b) * mpmath.mpf(eps)
            mean_log = mpmath.quad(lambda t: mpmath.log(a**2 + (c * mpmath.sin(t)) ** 2), [0, mpmath.pi / 2])
            exact = float(mpmath.exp(mean_log / mpmath.pi))  # (1/2) the mean of log |phi|^2 over [0, pi/2]
        assert projection_geometric_mean_closed(fam) == pytest.approx(exact, rel=1e-15)
    assert min(x2s) < 1 / 8 < max(x2s)  # 4x^2 both below and above 1/2


def test_projection_norm_rejects_negative_p():
    with pytest.raises(ValueError):
        projection_norm_series(PerturbedFamily(eps=0.1, q_star=2.0), -1.0)


def test_projection_norm_outside_series_disc(monkeypatch):
    # (a, b) = (1, 3) at eps = 0.2 puts x = b eps / a = 0.6 outside the
    # disc 4x^2 < 1/2: the Pfaff transform still sums every p
    monkeypatch.setattr(
        "rieszlab.homog2.projection_coefficients", lambda fam: ProjectionCoefficients(1.0, 3.0)
    )
    fam = PerturbedFamily(eps=0.2, q_star=2.0)
    phi = base_polynomial() + perturbation_polynomial().scale(0.6)
    for p in (2.0, 4.0):
        quad = lp_norm(sample(phi, 16), p)  # exact: |phi|^p is a trig polynomial
        assert projection_norm_series(fam, p) == pytest.approx(quad, rel=1e-14)
    for p in (2.6, 1.0):
        with mpmath.workdps(40):
            exact = float(mpmath.hyp2f1(-p / 2, 0.5, 1, -1.44) ** (1 / mpmath.mpf(p)))
        assert projection_norm_series(fam, p) == pytest.approx(exact, rel=1e-13)
    closed = projection_geometric_mean_closed(fam)
    assert closed == pytest.approx((1.0 + math.sqrt(2.44)) / 2.0, rel=1e-15)
    assert projection_norm_series(fam, 0.0) == pytest.approx(closed, rel=1e-13)


def test_perturbed_family_needs_finite_q_star():
    with pytest.raises(ValueError, match="q must exceed 1"):
        PerturbedFamily(eps=0.1, q_star=math.inf)


# ---------------------------------------------------------------------------
# expansion coefficients via Richardson extrapolation
# ---------------------------------------------------------------------------


def richardson(f, e1=0.02, e2=0.01):
    return (f(e2) * e1**2 - f(e1) * e2**2) / (e1**2 - e2**2)


@pytest.mark.parametrize("q", Q_GRID)
def test_eps2_coefficient_of_psi_norm(q):
    # ||psi||_q = 1 + (q* - 1) eps^2 + O(eps^4)
    q_star = conjugate(q)

    def c2(eps):
        return (kernel_norm_series(family(eps, q)) - 1.0) / eps**2

    assert richardson(c2) == pytest.approx(q_star - 1.0, rel=1e-2)


@pytest.mark.parametrize("q", Q_GRID)
def test_eps2_coefficient_of_projection_norm(q):
    # same eps^2 coefficient as ||psi||_q: the gap only opens at eps^4
    q_star = conjugate(q)
    p = 1.7

    def c2(eps):
        return (projection_norm_series(family(eps, q), p) - 1.0) / eps**2

    assert richardson(c2) == pytest.approx(q_star - 1.0, rel=1e-2)


@pytest.mark.parametrize(
    "q,p",
    [(4.0, 3.0), (3.0, 4.0), (2.0, 1.0), (1.5, 0.5)],
)
def test_eps4_gap_coefficient(q, p):
    # ||phi||_p - ||psi||_q = (p - (4 - q*)) eps^4 / 4 + O(eps^6)
    q_star = conjugate(q)
    expect = (p - (4.0 - q_star)) / 4.0

    def c4(eps):
        fam = family(eps, q)
        return (projection_norm_series(fam, p) - kernel_norm_series(fam)) / eps**4

    assert richardson(c4) == pytest.approx(expect, rel=1e-2)


# ---------------------------------------------------------------------------
# threshold scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [1.5, 2.0, 4.0, math.inf])
def test_threshold_extrapolates_to_4_minus_qstar(q):
    scan = threshold_scan(q)
    assert scan.extrapolated is not None
    assert scan.extrapolated == pytest.approx(4.0 - conjugate(q), abs=0.02)


def test_threshold_rows_ordered_and_tightening():
    scan = threshold_scan(4.0)
    eps = [row.eps for row in scan.rows]
    assert eps == sorted(eps, reverse=True)
    limit = 4.0 - conjugate(4.0)
    errs = [abs(row.threshold_p - limit) for row in scan.rows]
    assert errs == sorted(errs, reverse=True)


def test_threshold_vanishes_at_minimal_q():
    # q = 4/3 (q* = 4): no positive p survives
    scan = threshold_scan(4.0 / 3.0, eps_list=(0.05,))
    assert scan.rows[0].threshold_p is None
    assert scan.extrapolated is None


def test_threshold_clamped_at_p_hi_is_not_extrapolated():
    # q = 3: every threshold lies above 4 - q* = 2.5, so a window ending at 2.4 locates no crossing
    scan = threshold_scan(3.0, p_hi=2.4)
    assert [row.threshold_p for row in scan.rows] == [2.4, 2.4, 2.4]
    assert scan.extrapolated is None
    # a row clamped at p_hi is left out, and the two located rows still extrapolate
    scan = threshold_scan(3.0, eps_list=(0.2, 0.04, 0.02), p_hi=2.505)
    assert [row.threshold_p == 2.505 for row in scan.rows] == [True, False, False]
    assert scan.extrapolated == pytest.approx(2.5, abs=1e-3)


def test_geometric_mean_violation_below_minimal_q():
    # q = 1.2 (q* = 6): even p = 0 violates at eps = 0.02
    scan = threshold_scan(1.2, eps_list=(0.02,))
    assert scan.rows[0].gm_gap > 0.0
    assert scan.rows[0].threshold_p is None


def test_scan_refuses_repeated_eps():
    # two located rows at one eps would put e1^2 - e2^2 = 0 under the Richardson step
    for eps_list in ((0.02, 0.02), (0.08, 0.04, 0.08)):
        with pytest.raises(ValueError, match="eps values must be distinct"):
            threshold_scan(3.0, eps_list=eps_list)


def test_scan_json_shape():
    doc = json.loads(_json_text(threshold_scan(2.0, eps_list=(0.08, 0.04))))
    assert doc["q"] == 2.0 and doc["q_star"] == 2.0
    assert len(doc["rows"]) == 2
    assert set(doc["rows"][0]) == {"eps", "threshold_p", "a", "b", "psi_norm", "gm_gap"}

