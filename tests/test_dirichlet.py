import math

import numpy as np
import pytest

from rieszlab.dirichlet import (
    DirichletSpec,
    default_grid,
    dirichlet_norm,
    growth_fit,
    lattice_count,
    lattice_points,
    spherical_dirichlet,
)


def brute_count(radius, dim):
    m = int(math.floor(radius)) + 1
    count = 0
    for idx in np.ndindex(*([2 * m + 1] * dim)):
        alpha = [i - m for i in idx]
        if sum(a * a for a in alpha) <= radius * radius + 1e-9:
            count += 1
    return count


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius", [1.0, 2.0, 2.5, 3.0])
def test_lattice_count_brute_force(dim, radius):
    assert lattice_count(radius, dim) == brute_count(radius, dim)


def test_lattice_gauss_circle_values():
    # classic counts of integer points in discs
    assert lattice_count(1.0, 2) == 5
    assert lattice_count(2.0, 2) == 13
    assert lattice_count(5.0, 2) == 81
    assert lattice_count(10.0, 2) == 317
    assert lattice_count(1.0, 3) == 7
    assert lattice_count(math.sqrt(2.0), 3) == 19


def test_lattice_points_within_ball():
    pts = lattice_points(2.5, 2)
    assert pts.shape[1] == 2
    norms = (pts**2).sum(axis=1)
    assert norms.max() <= 2.5**2 + 1e-6
    assert len(pts) == lattice_count(2.5, 2)


def test_spherical_dirichlet_coefficients():
    poly = spherical_dirichlet(DirichletSpec(2.0, 2))
    assert all(c == 1.0 for c in poly.coeffs.values())
    assert len(poly.coeffs) == 13
    assert poly.coeff((1, 1)) == 1.0 and poly.coeff((2, 1)) == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        DirichletSpec(-1.0, 2)
    with pytest.raises(ValueError):
        DirichletSpec(5.0, 4)
    with pytest.raises(ValueError):
        DirichletSpec(100.0, 3)  # above the per-dimension radius cap


def test_norm_p2_is_sqrt_count():
    for dim, radius in ((1, 10.0), (2, 4.0), (3, 2.0)):
        spec = DirichletSpec(radius, dim)
        got = dirichlet_norm(spec, 2.0)
        assert got == pytest.approx(math.sqrt(lattice_count(radius, dim)), rel=1e-12)


def test_norm_pinf_is_count():
    spec = DirichletSpec(3.0, 2)
    assert dirichlet_norm(spec, math.inf) == float(lattice_count(3.0, 2))


def test_norm_p4_counting_oracle_1d():
    # ||D||_4^4 counts additive quadruples: sum_k (2n+1-|k|)^2 over |k|<=2n
    n = 6
    spec = DirichletSpec(float(n), 1)
    quad = dirichlet_norm(spec, 4.0) ** 4
    exact = sum((2 * n + 1 - abs(k)) ** 2 for k in range(-2 * n, 2 * n + 1))
    assert quad == pytest.approx(float(exact), rel=1e-12)


def test_even_p_default_grid_is_exact():
    # doubling the default grid must not change an even-p norm
    spec = DirichletSpec(7.0, 1)
    n0 = default_grid(spec, 4.0)
    base = dirichlet_norm(spec, 4.0, n_per_axis=n0)
    refined = dirichlet_norm(spec, 4.0, n_per_axis=2 * n0)
    assert base == pytest.approx(refined, rel=1e-13)


def test_fractional_p_grid_stability():
    # |D| has corner-type zeros, so plain-mean quadrature is only good to
    # a few digits at the default grid; that is plenty on a log-log fit.
    spec = DirichletSpec(6.0, 1)
    base = dirichlet_norm(spec, 1.0)
    refined = dirichlet_norm(spec, 1.0, n_per_axis=16 * default_grid(spec, 1.0))
    assert base == pytest.approx(refined, rel=5e-3)


def test_norm_refuses_unresolving_grid():
    # bandwidth floor(R) = 2 needs at least 2 * (2 + 1) = 6 points per axis
    with pytest.raises(ValueError):
        dirichlet_norm(DirichletSpec(2.0, 2), 1.0, n_per_axis=4)


def measured_fit(dim, p, radii):
    norms = [dirichlet_norm(DirichletSpec(r, dim), p) for r in radii]
    return growth_fit(dim, p, radii, norms)


def test_growth_fit_d2():
    fit = measured_fit(2, 1.0, [5.0, 10.0, 20.0, 40.0])
    assert 0.35 <= fit.exponent <= 0.65
    assert fit.target == pytest.approx(0.5)


def test_growth_fit_d1_is_logarithmic():
    # Lebesgue-constant growth: log R, so the power-law slope stays small
    fit = measured_fit(1, 1.0, [64.0, 128.0, 256.0, 512.0])
    assert fit.exponent < 0.3
    assert fit.target == 0.0


def test_growth_fit_validation():
    with pytest.raises(ValueError):
        growth_fit(2, 1.0, [5.0, 10.0, 20.0], [1.0] * 3)
    with pytest.raises(ValueError):
        growth_fit(2, 1.0, [5.0, 5.0, 10.0, 20.0], [1.0] * 4)
    for p in (0.0, math.inf):
        with pytest.raises(ValueError, match="p = 0 or p = inf"):
            growth_fit(2, p, [5.0, 10.0, 20.0, 40.0], [1.0, 2.0, 3.0, 4.0])
    # c_hat = exp(p * intercept) = 10^(3p) is past float64 at p = 1000
    with pytest.raises(ValueError, match="not finite in float64 at p = 1000"):
        growth_fit(1, 1000.0, [5.0, 10.0, 20.0, 40.0], [1e3] * 4)
