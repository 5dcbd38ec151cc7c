import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszlab.cli import _json_text
from rieszlab.exponents import conjugate
from rieszlab.fourier import coefficients, sample
from rieszlab.kernels import (
    coefficient_check,
    extremal_kernel_norm,
    point_extremal_function,
    poisson_kernel,
    szego_norm,
    truncated_szego_poly,
)
from rieszlab.norms import lp_norm
from rieszlab.series import NonconvergenceError


def quadrature_norm(w, p, n=4096):
    return lp_norm(point_extremal_function(w, 2.0, n_per_axis=n), p)


def test_kernel_point_validation():
    # ||k_w||_2 = (1 - |w|^2)^{-1/2}; at w = 0.99 the series needs 1631 terms, past the cap
    got = szego_norm(0.9, 2.0)
    assert got == pytest.approx((1.0 - 0.9**2) ** -0.5)
    with pytest.raises(NonconvergenceError):
        szego_norm(0.99, 2.0)
    with pytest.raises(ValueError):
        szego_norm(1.0, 2.0)
    with pytest.raises(ValueError):
        szego_norm(1.0j, 2.0)


def test_p2_closed_form():
    # ||k_w||_2^2 = sum r^n = 1/(1-r)
    for r in (0.1, 0.5, 0.81):
        got = szego_norm(math.sqrt(r), 2.0)
        assert got == pytest.approx((1.0 - r) ** -0.5, rel=1e-14)


def test_even_p_counting_oracle():
    # ||k_w||_4^4 = sum (n+1)^2 r^n = (1+r)/(1-r)^3
    for r in (0.2, 0.6):
        got = szego_norm(math.sqrt(r), 4.0) ** 4
        assert got == pytest.approx((1.0 + r) / (1.0 - r) ** 3, rel=1e-13)


@given(st.floats(0.05, 0.81), st.sampled_from([1.0, 4.0 / 3.0, 2.5, 4.0]))
def test_series_vs_quadrature(r, p):
    w = math.sqrt(r)
    assert szego_norm(w, p) == pytest.approx(quadrature_norm(w, p), abs=1e-9, rel=1e-9)


def test_complex_w_norm_depends_on_modulus_only():
    w = 0.6 * np.exp(0.77j)
    assert szego_norm(w, 3.0) == pytest.approx(szego_norm(0.6, 3.0), rel=1e-14)


def test_nonconvergence_near_boundary():
    with pytest.raises(NonconvergenceError):
        szego_norm(0.9995, 3.0)


# ---------------------------------------------------------------------------
# minimal-norm extension of the kernel
# ---------------------------------------------------------------------------


def test_extremal_kernel_norm_closed_vs_series():
    for q in (4.0 / 3.0, 1.5, 2.0, 3.0):
        q_star = conjugate(q)
        for r in (0.1, 0.4, 0.7):
            pair = extremal_kernel_norm(math.sqrt(r), q)
            assert pair.closed_form == pytest.approx((1.0 - r) ** (-1.0 / q_star), rel=1e-14)
            assert pair.series == pytest.approx(pair.closed_form, rel=1e-12)


def test_extremal_kernel_norm_q2_is_szego_norm():
    r = 0.5
    pair = extremal_kernel_norm(math.sqrt(r), 2.0)
    assert pair.closed_form == pytest.approx(szego_norm(math.sqrt(r), 2.0), rel=1e-13)


def test_extremal_function_saturates_norm():
    # the extremal function (1 - conj(w) z)^{-2/q*} has |f|^{q*} equal to
    # |k_w|^2 up to normalization, so its q* norm comes from the p=2 series
    q = 4.0
    q_star = conjugate(q)
    w = 0.55
    f = point_extremal_function(w, q_star, n_per_axis=2048)
    lhs = lp_norm(f, q_star) ** q_star
    rhs = szego_norm(w, 2.0) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_point_extremal_q2_is_kernel():
    # at q* = 2 it is k_w = sum conj(w)^n z^n, here summed to degree 100 (|w|^101 < 1e-44)
    w = 0.3 + 0.2j
    f = point_extremal_function(w, 2.0, n_per_axis=256)
    k = sample(truncated_szego_poly(w, 100), 256)
    assert np.allclose(f.samples, k.samples, atol=1e-12)


# ---------------------------------------------------------------------------
# coefficientwise comparison
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_coefficient_check_passes_at_critical_p(q):
    report = coefficient_check(q=q, p=4.0 / conjugate(q), n_max=50)
    assert report.passed
    assert report.first_violation is None
    assert all(m >= -1e-12 for m in report.margins)
    assert all(m >= -1e-12 for m in report.factor_margins)


@pytest.mark.parametrize("q", [4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_coefficient_check_fails_just_above(q):
    report = coefficient_check(q=q, p=4.0 / conjugate(q) + 0.01, n_max=50)
    assert not report.passed
    assert report.first_violation == 1


def test_coefficient_check_keeps_a_tiny_first_factor():
    # near q = 1, s = p/q* = 4e-20 at p = 4/q*: the n = 1 factor must be s
    # itself, not (s + 1) - 1 = 0, so the margin s - t^2 is exactly 0, no violation
    q = 1.0000000001
    report = coefficient_check(q=q, p=4.0 / conjugate(q), n_max=50)
    assert report.margins[0] == 0.0
    assert report.passed and report.first_violation is None


def test_coefficient_check_json():
    doc = json.loads(_json_text(coefficient_check(q=3.0, p=1.0, n_max=5)))
    assert doc["q"] == 3.0 and doc["n_max"] == 5
    assert len(doc["margins"]) == 5
    assert doc["first_violation"] is None


def test_factor_margin_formula():
    # per-factor slack j(j-1+t^2) - (j-1+t)^2 = (j-1)(1-t)^2 with t = 2/q*
    q = 4.0
    t = 2.0 / conjugate(q)
    report = coefficient_check(q=q, p=4.0 / conjugate(q), n_max=12)
    for j, fm in enumerate(report.factor_margins, start=1):
        assert fm == pytest.approx((j - 1) * (1 - t) ** 2, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# truncated kernel polynomial
# ---------------------------------------------------------------------------


def test_truncated_szego_poly():
    w = 0.5 + 0.25j
    poly = truncated_szego_poly(w, 6)
    wbar = complex(w).conjugate()
    for n in range(7):
        assert poly.coeff((n,)) == pytest.approx(wbar**n)
    assert poly.bandwidth() == 6
    with pytest.raises(ValueError):
        truncated_szego_poly(w, -1)


def test_truncation_converges_to_kernel():
    w = 0.5
    poly = truncated_szego_poly(w, 60)
    grid = point_extremal_function(w, 2.0, n_per_axis=256)
    back = coefficients(grid, 60)
    assert back.distance(poly) <= 1e-12


def test_poisson_kernel_mean_one():
    grid = poisson_kernel(0.4 + 0.3j, n_per_axis=512)
    assert float(np.mean(grid.samples.real)) == pytest.approx(1.0, rel=1e-12)
    assert float(np.abs(grid.samples.imag).max()) <= 1e-15


@given(st.floats(0.5, 8.0), st.floats(0.0, 0.9))
def test_szego_norm_matches_mpmath_hypergeometric(p, r):
    # independent oracle: ||k_w||_p^p = 2F1(p/2, p/2; 1; |w|^2) at 40 digits
    with mpmath.workdps(40):
        half = mpmath.mpf(p) / 2
        exact = float(mpmath.hyp2f1(half, half, 1, mpmath.mpf(r)) ** (1 / mpmath.mpf(p)))
    try:
        got = szego_norm(math.sqrt(r), p)
    except NonconvergenceError:
        assert r > 0.84  # every sum up to r = 0.84 converges within the cap
        return
    assert got == pytest.approx(exact, rel=1e-13, abs=0)
