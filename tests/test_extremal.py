import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nonzero_polys
from rieszlab import extremal
from rieszlab.cli import _json_text
from rieszlab.exponents import conjugate
from rieszlab.extremal import (
    _objective,
    _pad_solution,
    _solve_at_degree,
    blaschke_product,
    dual_extremal_solve,
    geometric_mean_l1_check,
    holder_equality_residual,
    l1_equality_certificate,
    outer_from_modulus,
)
from rieszlab.fourier import (
    TrigPoly,
    coefficients,
    grid_from_function,
    grid_spectrum,
    offset_phase,
    riesz_project,
    sample,
)
from rieszlab.kernels import truncated_szego_poly
from rieszlab.norms import lp_norm, nonlinear_map
from rieszlab.series import NonconvergenceError

WORKED_EXAMPLE = TrigPoly(1, {(-1,): 1.0, (1,): 2.0, (3,): 1.0})


# ---------------------------------------------------------------------------
# outer functions and Blaschke products
# ---------------------------------------------------------------------------


def test_outer_constant():
    grid = grid_from_function(lambda t: np.full_like(t, 3.0, dtype=complex), 1, 64)
    outer = outer_from_modulus(grid)
    assert np.allclose(outer.samples, 3.0, atol=1e-12)


def test_outer_reproduces_modulus():
    grid = grid_from_function(lambda t: np.abs(2.0 + np.exp(1j * t)), 1, 256)
    outer = outer_from_modulus(grid)
    assert np.allclose(np.abs(outer.samples), grid.samples.real, atol=1e-10)
    # analytic: negative-frequency content at noise level
    back = coefficients(outer, 100)
    neg = [abs(c) for a, c in back.coeffs.items() if a[0] < 0]
    assert max(neg, default=0.0) <= 1e-10
    # zero-frequency value is the geometric mean (= 2 for this modulus)
    assert back.coeff((0,)) == pytest.approx(2.0, rel=1e-10)


def test_outer_requires_positive_modulus():
    grid = grid_from_function(lambda t: np.cos(t), 1, 32)
    with pytest.raises(ValueError):
        outer_from_modulus(grid)


def disc_value(poly, z):
    """Evaluate the Taylor (analytic) part at an interior point."""
    return sum(c * z ** alpha[0] for alpha, c in poly.coeffs.items() if alpha[0] >= 0)


def test_blaschke_unimodular_and_zero():
    zeros = [0.5, -0.3 + 0.4j, 0.0]
    b = blaschke_product(zeros, 256)
    assert np.allclose(np.abs(b.samples), 1.0, atol=1e-12)
    # analytic in the disc: negative Taylor coefficients at noise level
    taylor = coefficients(b, 120)
    neg_mass = sum(abs(c) for a, c in taylor.coeffs.items() if a[0] < 0)
    assert neg_mass <= 1e-10  # ~120 bins of rounding noise
    # the rational function vanishes at each prescribed zero (the Taylor
    # tail beyond degree 120 is far below tolerance for |a| <= 0.5)
    for a in zeros:
        assert abs(disc_value(taylor, a)) <= 1e-10


def test_blaschke_rejects_boundary_zero():
    with pytest.raises(ValueError):
        blaschke_product([1.0], 64)


# ---------------------------------------------------------------------------
# geometric-mean vs L1 bound
# ---------------------------------------------------------------------------


def test_worked_example_equality():
    check = geometric_mean_l1_check(sample(WORKED_EXAMPLE, 512))
    assert check.lhs == pytest.approx(2.0, abs=1e-9)
    assert check.rhs == pytest.approx(2.0, abs=1e-9)
    assert abs(check.gap) <= 1e-9


def test_worked_example_certificate():
    cert = l1_equality_certificate(sample(WORKED_EXAMPLE, 512), inner_zeros=[0.0])
    assert cert.holds


def test_certificate_fails_for_wrong_inner():
    cert = l1_equality_certificate(sample(WORKED_EXAMPLE, 512), inner_zeros=[0.5])
    assert not cert.holds


@given(nonzero_polys(1, max_degree=6))
def test_gap_nonnegative(psi):
    grid = sample(psi, 128)
    if not np.abs(riesz_project(grid).samples).max() > 0:
        return  # projection annihilated everything; bound is vacuous
    check = geometric_mean_l1_check(grid)
    assert check.gap >= -1e-9 * max(1.0, check.rhs)


def test_blaschke_times_positive_saturates():
    # psi = conj(z) * (2 + 2 cos 2 theta) rebuilt from the worked example
    # pattern: inner factor z, nonnegative remaining mass
    psi = TrigPoly(1, {(-2,): 1.0, (0,): 2.0, (2,): 1.0})  # 2 + 2 cos 2t >= 0
    shifted = TrigPoly(1, {(a[0] + 1,): c for a, c in psi.coeffs.items()})
    check = geometric_mean_l1_check(sample(shifted, 256))
    assert abs(check.gap) <= 1e-9


# ---------------------------------------------------------------------------
# Holder saturation
# ---------------------------------------------------------------------------


@given(nonzero_polys(1, max_degree=4), st.sampled_from([4.0 / 3.0, 2.0, 3.0]))
def test_holder_residual_vanishes(f, q_star):
    grid = sample(f, 64)
    scale = lp_norm(grid, 2.0) ** 2  # bilinear scale of the residual
    assert holder_equality_residual(grid, q_star) <= 1e-9 * max(1.0, scale)


# ---------------------------------------------------------------------------
# dual extremal solver
# ---------------------------------------------------------------------------


def test_solve_q2_returns_l2_norm():
    phi = TrigPoly(1, {(0,): 1.0, (1,): -2.0j, (3,): 0.5})
    triple = dual_extremal_solve(phi, q=2.0, tol=1e-8)
    assert triple.value == pytest.approx(phi.l2_norm(), rel=1e-8)
    # at q=2 the minimizer is phi itself: the co-analytic correction dies
    corr = triple.extremal_kernel.samples - sample(phi, triple.extremal_kernel.n_per_axis).samples
    assert np.abs(corr).max() <= 1e-6 * phi.l2_norm()


def test_solve_kernel_closed_form():
    w = 0.4
    r = w * w
    q = 4.0 / 3.0
    phi = truncated_szego_poly(w, 24)
    triple = dual_extremal_solve(phi, q=q, tol=1e-8)
    assert triple.value == pytest.approx((1 - r) ** (-1.0 / conjugate(q)), abs=2e-6)
    assert triple.duality_gap <= 1e-8


def test_solve_value_never_below_projection_norm():
    # weak duality: value is at least |<f, phi>|/||f||_{q*} for the witness,
    # and at most ||phi||_q for the trivial extension
    phi = TrigPoly(1, {(0,): 1.0, (2,): 0.7})
    q = 3.0
    triple = dual_extremal_solve(phi, q=q, tol=1e-8)
    upper = lp_norm(sample(phi, 512), q)
    assert triple.value <= upper * (1 + 1e-10)
    assert triple.value > 0


def test_solve_monotone_in_truncation():
    phi = truncated_szego_poly(0.5, 12)
    v_small = dual_extremal_solve(phi, q=1.5, trunc_degree=4, tol=1e-2).value
    v_large = dual_extremal_solve(phi, q=1.5, trunc_degree=48, tol=1e-8).value
    assert v_large <= v_small * (1 + 1e-9)


def test_solve_validation():
    with pytest.raises(ValueError):
        dual_extremal_solve(TrigPoly(1, {}), q=2.0)
    with pytest.raises(ValueError):
        dual_extremal_solve(TrigPoly.monomial((-1,)), q=2.0)
    with pytest.raises(ValueError):
        dual_extremal_solve(TrigPoly.monomial((1, 1)), q=2.0)
    with pytest.raises(ValueError):
        dual_extremal_solve(TrigPoly.monomial((1,)), q=1.01)
    for tol in (math.nan, math.inf, -1e-6, 0.0):
        with pytest.raises(ValueError, match="tol"):
            dual_extremal_solve(TrigPoly.monomial((1,)), q=2.0, tol=tol)
    with pytest.raises(ValueError, match="max_iter"):
        dual_extremal_solve(TrigPoly.monomial((1,)), q=2.0, max_iter=0)


@pytest.mark.parametrize(
    "w,degree,q,value",
    [
        (0.5, 8, 1.05, 1.0137935762138641),
        (0.9, 40, 1.05, 1.0823262282027217),
        (0.6, 16, 1.3333, 1.1180246365458815),
        (0.9, 80, 1.5, 1.7394640919669124),
        (0.7, 20, 2.0, 1.4002798656028657),
        (0.9, 30, 4.0, 3.4645192394976125),
        (0.95, 50, 8.0, 7.5490845989796105),
        (0.8, 20, 64.0, 2.732268150930752),
    ],
)
def test_solve_matches_pinned_values(w, degree, q, value):
    # values from the solver on scipy's L-BFGS-B, which the numpy L-BFGS replaced
    triple = dual_extremal_solve(truncated_szego_poly(w, degree), q=q)
    assert abs(triple.value - value) <= 1e-9
    assert triple.duality_gap <= 1e-6


def direct_objective(grid, q, K, x):
    """mean |psi|^q and its gradient from their formulas: q [Re, Im] of
    bins 1..K of the spectrum of conj(N_q psi), with the offset removed."""
    psi_samples, _ = _objective(grid, q, K)
    psi = grid.with_samples(psi_samples(x))
    F = float(np.mean(np.abs(psi.samples) ** q))
    ks = np.arange(1, K + 1)
    h = grid_spectrum(psi.with_samples(np.conj(nonlinear_map(psi, q).samples)))[1 : K + 1]
    h *= offset_phase(-ks, grid.n_per_axis, grid.offset)
    return F, q * np.concatenate([h.real, h.imag])


@pytest.mark.parametrize("q", [1.05, 1.5, 4.0])
def test_objective_matches_its_formulas(q):
    grid, K = sample(truncated_szego_poly(0.8, 20), 512), 80
    x = np.random.default_rng(1).standard_normal(2 * K) * 0.1
    F, grad = _objective(grid, q, K)[1](x)
    F_ref, grad_ref = direct_objective(grid, q, K, x)
    assert abs(F - F_ref) <= 1e-12 * F_ref
    assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
    # and the gradient is the derivative of F, by central differences
    fun = _objective(grid, q, K)[1]
    h = 1e-6
    for i in (0, 7, K, 2 * K - 1):
        e = np.zeros(2 * K)
        e[i] = h
        slope = (fun(x + e)[0] - fun(x - e)[0]) / (2.0 * h)
        assert slope == pytest.approx(grad[i], rel=1e-6, abs=1e-9)


def test_objective_at_a_zero_of_psi():
    # on the offset-0 grid, psi = 1 - z at x = 0 vanishes at theta = 0, where
    # |psi|^(q-2) is infinite for q < 2 and N_q psi is 0
    q, K = 1.5, 8
    grid = sample(TrigPoly(1, {(0,): 1.0, (1,): -1.0}), 64, offset=0.0)
    assert grid.samples[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F, grad = _objective(grid, q, K)[1](np.zeros(2 * K))
    assert math.isfinite(F) and np.all(np.isfinite(grad))
    F_ref, grad_ref = direct_objective(grid, q, K, np.zeros(2 * K))
    assert abs(F - F_ref) <= 1e-12 * F_ref
    assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()


def test_objective_overflow_is_silent():
    # a trial point far from the minimum overflows |psi|^64; the line search
    # reads the inf, and no RuntimeWarning reaches the user
    _, fun_and_grad = _objective(sample(truncated_szego_poly(0.8, 20), 512), 64.0, 80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F, _ = fun_and_grad(np.full(160, 1e6))
    assert F == math.inf


def test_solve_nonconvergence_raises():
    phi = truncated_szego_poly(0.6, 16)
    with pytest.raises(NonconvergenceError):
        dual_extremal_solve(phi, q=1.3333, tol=1e-12, max_iter=2)


def test_triple_json():
    phi = TrigPoly(1, {(0,): 1.0, (1,): 0.5})
    triple = dual_extremal_solve(phi, q=2.5, tol=1e-7)
    doc = json.loads(_json_text(triple))
    assert doc["q"] == 2.5
    assert doc["value"] == pytest.approx(triple.value)
    back = TrigPoly.from_json_dict(doc["natural_kernel"])
    assert back.distance(phi) == 0.0
    assert "extremal_kernel_coeffs" in doc


def test_padded_solution_keeps_psi_samples():
    # x is [Re c_1..c_K, Im c_1..c_K]: padding each half keeps phi0, so psi
    # is unchanged on one grid; padding x as a whole moves Im parts into Re slots
    phi, q, K, n = truncated_szego_poly(0.9j, 10), 1.05, 40, 512
    x, _ = _solve_at_degree(phi, q, K, 1e-6, n, 4000, np.zeros(0))
    assert np.abs(x[K:]).max() > 0.1  # complex w: the Im half carries weight
    grid = sample(phi, n)
    psi_k, _ = _objective(grid, q, K)
    psi_2k, _ = _objective(grid, q, 2 * K)
    np.testing.assert_array_equal(psi_2k(_pad_solution(x, 2 * K)), psi_k(x))
    assert not np.allclose(psi_2k(np.pad(x, (0, x.size))), psi_k(x))


@pytest.mark.parametrize(
    "w,degree,q,caps,grids",
    [(0.9, 10, 1.05, [40, 80, 160], [256, 512, 1024]), (0.95, 20, 1.1, [80, 160], [512, 1024])],
)
def test_escalation_records_every_cap(w, degree, q, caps, grids):
    phi = truncated_szego_poly(w, degree)
    triple = dual_extremal_solve(phi, q=q)
    assert [a.trunc_degree for a in triple.attempts] == caps
    assert [a.n_per_axis for a in triple.attempts] == grids
    assert [a.certified for a in triple.attempts] == [False] * (len(caps) - 1) + [True]
    assert all(a.duality_gap > 1e-6 for a in triple.attempts[:-1])
    last = triple.attempts[-1]
    assert (last.iterations, last.duality_gap) == (triple.iterations, triple.duality_gap)
    assert triple.trunc_degree == caps[-1]
    # the warm start reaches the cold solution at the final cap, in fewer iterations
    cold = dual_extremal_solve(phi, q=q, trunc_degree=caps[-1])
    assert abs(triple.value - cold.value) <= 1e-6
    assert triple.iterations < cold.iterations


def test_each_solve_starts_from_the_previous_solution(monkeypatch):
    starts, ends = [], []

    def spy(fun, x0, **kwargs):
        starts.append(np.array(x0))
        out = minimize(fun, x0, **kwargs)
        ends.append(np.array(out.x))
        return out

    minimize = extremal.minimize
    monkeypatch.setattr(extremal, "minimize", spy)
    triple = dual_extremal_solve(truncated_szego_poly(0.95, 20), q=1.1)
    assert [x0.size // 2 for x0 in starts] == [80, 160]
    assert len(triple.attempts) == 2
    assert not starts[0].any()
    for x0, prev in zip(starts[1:], ends):
        np.testing.assert_array_equal(x0, _pad_solution(prev, x0.size // 2))


def test_nonconvergence_names_every_cap():
    phi = truncated_szego_poly(0.6, 16)
    with pytest.raises(NonconvergenceError) as exc:
        dual_extremal_solve(phi, q=1.3333, tol=1e-12, max_iter=2)
    for K in (64, 128, 256, 512, 1024, 2048):
        assert f"K={K} gap " in str(exc.value)
    assert str(exc.value).count("after 2 iterations (max_iter)") == 6
