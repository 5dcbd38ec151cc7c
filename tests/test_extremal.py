import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nonzero_polys
from rieszlab import extremal, optimize
from rieszlab.cli import _json_text
from rieszlab.exponents import conjugate
from rieszlab.extremal import (
    GAP_CHECK_EVALS,
    GAP_OWN_SHARE,
    GAP_STALL_WINDOW,
    _coeff_radius,
    _objective,
    _psi_poly,
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
    grid_from_spectrum,
    grid_inner,
    grid_spectrum,
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
    corr = sample(triple.extremal_kernel - phi, triple.attempts[-1].n_per_axis).samples
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
    # values from the solver on scipy's L-BFGS-B, which the numpy L-BFGS
    # replaced; a cap stops at its first check within tol, so the pins hold
    # at a tol below their bound
    phi = truncated_szego_poly(w, degree)
    tight = dual_extremal_solve(phi, q=q, tol=1e-10)
    assert abs(tight.value - value) <= 1e-9
    assert tight.duality_gap <= 1e-10
    # at the default tol the value lies above the minimum by at most its gap
    triple = dual_extremal_solve(phi, q=q)
    assert triple.duality_gap <= 1e-6
    assert -1e-9 <= triple.value - value <= triple.duality_gap + 1e-9


def direct_objective(phi, q, K, n, x):
    """mean |psi|^q and its gradient from their formulas, on the unshifted
    n-point grid: Re and Im, in turn, of bins 1..K of the spectrum of
    conj(N_q psi), times q."""
    psi = sample(_psi_poly(phi, x), n, offset=0.0)
    F = float(np.mean(np.abs(psi.samples) ** q))
    h = grid_spectrum(psi.with_samples(np.conj(nonlinear_map(psi, q).samples)))[1 : K + 1]
    return F, q * np.column_stack([h.real, h.imag]).ravel()


@pytest.mark.parametrize("q", [1.05, 1.5, 4.0])
def test_objective_matches_its_formulas(q):
    phi, K, n = truncated_szego_poly(0.8, 20), 80, 512
    x = np.random.default_rng(1).standard_normal(2 * K) * 0.1
    F, grad = _objective(phi, q, K, n)[1](x)
    F_ref, grad_ref = direct_objective(phi, q, K, n, x)
    assert abs(F - F_ref) <= 1e-12 * F_ref
    assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
    # and the gradient is the derivative of F, by central differences
    fun = _objective(phi, q, K, n)[1]
    h = 1e-6
    for i in (0, 7, K, 2 * K - 1):
        e = np.zeros(2 * K)
        e[i] = h
        slope = (fun(x + e)[0] - fun(x - e)[0]) / (2.0 * h)
        assert slope == pytest.approx(grad[i], rel=1e-6, abs=1e-9)


def test_objective_at_a_zero_of_psi():
    # on the unshifted grid, psi = 1 - z at x = 0 vanishes at theta = 0,
    # where |psi|^(q-2) is infinite for q < 2 and N_q psi is 0
    q, K, n, phi = 1.5, 8, 64, TrigPoly(1, {(0,): 1.0, (1,): -1.0})
    assert sample(phi, n, offset=0.0).samples[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F, grad = _objective(phi, q, K, n)[1](np.zeros(2 * K))
    assert math.isfinite(F) and np.all(np.isfinite(grad))
    F_ref, grad_ref = direct_objective(phi, q, K, n, np.zeros(2 * K))
    assert abs(F - F_ref) <= 1e-12 * F_ref
    assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()


def test_objective_overflow_is_silent():
    # a trial point far from the minimum overflows |psi|^64; the line search
    # reads the inf, and no RuntimeWarning reaches the user
    _, fun_and_grad = _objective(truncated_szego_poly(0.8, 20), 64.0, 80, 512)
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
    # q* is read off q, not stored beside it
    assert doc["q_star"] == triple.q_star == conjugate(2.5)
    assert "q_star" not in {field.name for field in dataclasses.fields(triple)}


def test_padded_solution_keeps_psi_samples():
    # x is the float64 view of c_1..c_K, Re and Im in turn: appending zeros
    # keeps phi0, so psi, and with it mean |psi|^q and the spectrum of
    # conj(N_q psi), is unchanged on one grid
    phi, q, K, n = truncated_szego_poly(0.9j, 10), 1.05, 40, 512
    x = _solve_at_degree(phi, q, K, 1e-6, n, 4000, np.zeros(0))[0]
    assert np.abs(x.view(np.complex128).imag).max() > 0.1  # complex w: the Im parts carry weight
    at_k, _ = _objective(phi, q, K, n)
    at_2k, _ = _objective(phi, q, 2 * K, n)
    F, h = at_k(x)
    F_padded, h_padded = at_2k(np.pad(x, (0, x.size)))
    assert F_padded == F
    np.testing.assert_array_equal(h_padded, h)


@pytest.mark.parametrize(
    "w,degree,q,caps,grids",
    [
        (0.9, 10, 1.05, [40, 80, 160], [256, 512, 1024]),
        (0.95, 20, 1.1, [80, 160, 320], [512, 1024, 2048]),
    ],
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
    assert [x0.size // 2 for x0 in starts] == [80, 160, 320]
    assert len(triple.attempts) == 3
    assert not starts[0].any()
    for x0, prev in zip(starts[1:], ends):
        np.testing.assert_array_equal(x0, np.pad(prev, (0, x0.size - prev.size)))


class Run:
    """One cap's L-BFGS run: its start, its end, the evaluation count at
    each monitor call, the iterate, evaluation count and objective (F, h)
    of each gap check the monitor made, and the certificates computed for
    the cap, each one call of the objective's (F, h) map: the (F, h) of
    each, how many each check made, and how many after the run ended."""

    def __init__(self, x0):
        self.x0, self.x, self.calls, self.checks = np.array(x0), None, [], []
        self.spectra, self.check_witnesses, self.end_witnesses = [], [], 0

    @property
    def witnesses(self) -> int:
        return len(self.spectra)

    @property
    def final_witnesses(self) -> int:
        return self.witnesses - self.end_witnesses


def record_runs(monkeypatch) -> list[Run]:
    """Spy on every cap's run; a monitor call made a gap check when it
    called the objective's (F, h) map, which the gradient does not reach:
    it calls the map it closes over, not the spy."""
    runs = []

    def spy_objective(phi, q, K, n):
        power_and_spectrum, fun_and_grad = objective(phi, q, K, n)

        def spied(x):
            F, h = power_and_spectrum(x)
            runs[-1].spectra.append((F, h))
            return F, h

        return spied, fun_and_grad

    def spy_minimize(fun, x0, *, monitor, **kwargs):
        run = Run(x0)
        runs.append(run)

        def watched(x, nfev):
            before = run.witnesses
            stop = monitor(x, nfev)
            run.calls.append(nfev)
            if run.witnesses > before:
                run.checks.append((np.array(x), nfev, run.spectra[-1]))
                run.check_witnesses.append(run.witnesses - before)
            return stop

        out = minimize(fun, x0, monitor=watched, **kwargs)
        run.x, run.end_witnesses = np.array(out.x), run.witnesses
        return out

    objective, minimize = extremal._objective, extremal.minimize
    monkeypatch.setattr(extremal, "_objective", spy_objective)
    monkeypatch.setattr(extremal, "minimize", spy_minimize)
    return runs


def reference_gaps(phi, q, attempt, F, h):
    """The duality gap on the attempt's cap and grid, by its formula from
    the objective's F = mean |psi|^q and spectrum h of conj(N_q psi): the
    primal F^(1/q) less |<f, phi>| / ||f||_{q*} for the witness f, bins
    0..n/2-1 of the spectrum conj(h[-k]) of N_q(psi), where <f, phi> is a
    Parseval sum over phi's bins.  And the part of the gap that the
    truncation holds up: the gap less the cap-K problem's own gap, whose
    witness is N_q(psi) without the frequencies -1..-K."""
    n, K, ks = attempt.n_per_axis, attempt.trunc_degree, np.arange(phi.bandwidth() + 1)
    spec = np.conj(h[-np.arange(n)])
    inner = float(abs(spec[: ks.size] @ np.conj([phi.coeff((k,)) for k in ks])))

    def dual(keep):
        return inner / lp_norm(grid_from_spectrum(np.where(np.arange(n) < keep, spec, 0.0), 0.0), conjugate(q))

    gap = F ** (1.0 / q) - dual(n // 2)
    return gap, dual(n - K) - dual(n // 2)


def independent_gap(phi, q, attempt, x):
    """The duality gap at x from psi sampled on the unshifted grid:
    ||psi||_q less the bound of the witness P+ N_q(psi), through
    nonlinear_map, riesz_project and grid_inner.  psi is sampled as the
    conjugate of conj(psi)'s samples, which are the solver's bit for bit:
    where psi nearly vanishes at a node, N_q(psi) amplifies the rounding
    of that sample, and two roundings of it would part by more than the
    formula's own few ulps."""
    n = attempt.n_per_axis
    conj_psi = sample(_psi_poly(phi, x).conjugate(), n, offset=0.0)
    psi = conj_psi.with_samples(np.conj(conj_psi.samples))
    witness = riesz_project(nonlinear_map(psi, q))
    return lp_norm(psi, q) - abs(grid_inner(witness, sample(phi, n, offset=0.0))) / lp_norm(witness, conjugate(q))


#: How far the independent gap may lie from the solver's, in ulps of the
#: value: both take ||psi||_q and a dual bound of its size, each to a few
#: roundings (2 ulps at most on the cases below).
GAP_ULPS = 4


@pytest.mark.parametrize(
    "w,degree,q", [(0.9, 80, 4.0 / 3.0), (0.9j, 20, 1.5)], ids=["dual_direct", "complex-w"]
)
def test_printed_psi_is_exact(monkeypatch, w, degree, q):
    # the printed coefficients of psi = phi + conj(phi0) are all of phi's at
    # k >= 0, and conj(c_k) of the certifying solution at -k where
    # |c_k| > coeff_radius; each one printed is exact
    ends = []

    def spy(fun, x0, **kwargs):
        out = minimize(fun, x0, **kwargs)
        ends.append(out.x)
        return out

    minimize = extremal.minimize
    monkeypatch.setattr(extremal, "minimize", spy)
    phi = truncated_szego_poly(w, degree)
    triple = dual_extremal_solve(phi, q=q)
    x, K = ends[-1], triple.trunc_degree
    doc = json.loads(_json_text(triple))
    radius = doc["coeff_radius"]
    printed = {term["alpha"][0]: complex(term["re"], term["im"]) for term in doc["extremal_kernel_coeffs"]["terms"]}
    want = {k: c for (k,), c in phi.coeffs.items()}
    want.update({-k: c.conjugate() for k, c in enumerate(x.view(np.complex128).tolist(), 1)})
    assert len(want) == phi.bandwidth() + 1 + K
    assert printed == {k: c for k, c in want.items() if k >= 0 or abs(c) > radius}
    assert all(printed[k] == c for (k,), c in phi.coeffs.items())
    assert phi.bandwidth() + 1 < len(printed) < len(want)


def leaves_cap(gaps, truncation, tol):
    """Whether the checks so far end the cap with "gap_stall", the last
    one's gap holding ``truncation`` from the truncation: the gap is above
    tol, more than tol of it is the truncation's, and either the cap's own
    gap, the rest, is below GAP_OWN_SHARE of it, or the gaps have stalled."""
    gap, recent, before = gaps[-1], gaps[-GAP_STALL_WINDOW:], gaps[:-GAP_STALL_WINDOW]
    stalled = bool(before) and min(recent) > 0.5 * min(before)
    return min(gaps) > tol and truncation > tol and (gap - truncation < GAP_OWN_SHARE * gap or stalled)


def test_a_stalled_cap_hands_its_solution_to_the_next(monkeypatch):
    runs = record_runs(monkeypatch)
    triple = dual_extremal_solve(truncated_szego_poly(0.9, 20), q=1.05)
    assert [a.stop for a in triple.attempts] == ["gap_stall", "gap_stall", "certified"]
    assert [a.trunc_degree for a in triple.attempts] == [80, 160, 320]
    assert [a.certified for a in triple.attempts] == [False, False, True]
    assert not runs[0].x0.any()
    for run, prev in zip(runs[1:], runs):
        np.testing.assert_array_equal(run.x0, np.pad(prev.x, (0, run.x0.size - prev.x.size)))


def test_a_stalled_cap_keeps_the_certificate_of_its_last_check(monkeypatch):
    phi, q = truncated_szego_poly(0.9, 20), 1.05
    runs = record_runs(monkeypatch)
    triple = dual_extremal_solve(phi, q=q)
    assert [a.stop for a in triple.attempts] == ["gap_stall", "gap_stall", "certified"]
    for run, attempt in zip(runs, triple.attempts):
        # one (F, h) per check gives both of its dual bounds
        assert run.check_witnesses == [1] * attempt.gap_checks
        # the check that stalled or certified the cap measured its last
        # iterate, and no (F, h) is computed again there
        assert run.final_witnesses == 0
        np.testing.assert_array_equal(run.checks[-1][0], run.x)
        assert attempt.duality_gap == reference_gaps(phi, q, attempt, *run.spectra[-1])[0]
        assert abs(attempt.duality_gap - independent_gap(phi, q, attempt, run.x)) <= GAP_ULPS * math.ulp(triple.value)


@pytest.mark.parametrize(
    "w,degree,q",
    [(0.9, 20, 1.05), (0.95, 20, 1.1), (0.9j, 5, 8.0), (0.9, 40, 1.05), (0.8, 20, 64.0)],
    ids=[
        "stalls-twice",
        "leaves-each-cap-near-its-minimum",
        "escalates-on-line-search",
        "certifies-at-a-check",
        "certifies-after-8-checks",
    ],
)
def test_gap_checks_follow_the_stall_rule(monkeypatch, w, degree, q):
    phi, tol = truncated_szego_poly(w, degree), 1e-6
    runs = record_runs(monkeypatch)
    triple = dual_extremal_solve(phi, q=q, tol=tol)
    assert len(runs) == len(triple.attempts)
    for run, attempt in zip(runs, triple.attempts):
        gaps, truncation = zip(*(reference_gaps(phi, q, attempt, F, h) for _, _, (F, h) in run.checks))
        gaps, nfevs = list(gaps), [nfev for _, nfev, _ in run.checks]
        for (x, _, _), gap in zip(run.checks, gaps):
            assert abs(gap - independent_gap(phi, q, attempt, x)) <= GAP_ULPS * math.ulp(triple.value)
        assert len(gaps) == attempt.gap_checks > 0
        assert all(b - a >= GAP_CHECK_EVALS for a, b in zip([0, *nfevs], nfevs))
        # the first certified check ends the run, and its gap is the attempt's
        assert all(gap > tol for gap in gaps[:-1])
        assert (gaps[-1] <= tol) == (attempt.stop == "certified") == attempt.certified
        if attempt.certified:
            assert run.calls[-1] == nfevs[-1] == attempt.nfev and attempt.duality_gap == gaps[-1]
        # the run stops at the first check after which solving the cap
        # further cannot certify: the truncation holds more than tol of the
        # gap, and the cap's own gap is small or the gaps have stalled
        assert not any(leaves_cap(gaps[:i], truncation[i - 1], tol) for i in range(1, len(gaps)))
        assert leaves_cap(gaps, truncation[-1], tol) == (attempt.stop == "gap_stall")
        # the attempt's truncation gap is that of its printed gap, and a
        # certified one has none
        end_gap, end_truncation = reference_gaps(phi, q, attempt, *run.spectra[-1])
        assert attempt.duality_gap == end_gap
        assert attempt.truncation_gap == (None if attempt.certified else end_truncation)
        assert (attempt.best_gap, attempt.best_gap_nfev) == min(
            [*zip(gaps, nfevs), (attempt.duality_gap, attempt.nfev)]
        )


@pytest.mark.parametrize(
    "w,degree,q,summary",
    [
        (0.9, 80, 4.0 / 3.0, (320, 2048, 18, 20, "certified", True)),  # the benchmark's dual_direct
        (0.9, 40, 1.05, (160, 1024, 76, 80, "certified", True)),
        (0.95, 50, 8.0, (200, 1024, 75, 80, "certified", True)),
        (0.8, 20, 64.0, (80, 512, 149, 160, "certified", True)),
    ],
)
def test_gap_checks_leave_a_certifying_first_cap_alone(w, degree, q, summary):
    # cap, grid, iterations, evaluations, stop and certified: the cap and grid
    # are those from before the checks, and the first certified check ends it
    triple = dual_extremal_solve(truncated_szego_poly(w, degree), q=q)
    assert [(*a[:5], a.certified) for a in triple.attempts] == [summary]


def test_gap_checks_leave_each_cap_of_dual_escalate_the_truncation_holds():
    # the benchmark's dual_escalate: caps 800 and 1600 each stop at the
    # first check where their own gap is below GAP_OWN_SHARE of the gap,
    # the truncation holding the rest above tol, and cap 3200 certifies
    tol = 1e-6
    triple = dual_extremal_solve(truncated_szego_poly(0.99, 200), q=1.05, tol=tol)
    assert [(*a[:5], a.certified) for a in triple.attempts] == [
        (800, 4096, 193, 200, "gap_stall", False),
        (1600, 8192, 50, 61, "gap_stall", False),
        (3200, 16384, 6, 20, "certified", True),
    ]
    *escalated, last = triple.attempts
    for a in escalated:
        assert a.truncation_gap > tol and a.duality_gap - a.truncation_gap < GAP_OWN_SHARE * a.duality_gap
    assert last.duality_gap <= tol and last.truncation_gap is None


#: The degree-20 slice of the sweep w x q, every truncated Szego kernel
#: solved to the default tol, and the number of caps each escalating one
#: tries; every other solve certifies at its first cap.
SWEEP_WS = (0.3, 0.6, 0.8, 0.9, 0.95, 0.98, 0.9j)
SWEEP_QS = (1.05, 1.1, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 8.0, 64.0)
SWEEP_CAPS = {
    (0.9, 1.05): 3,
    (0.9, 1.1): 4,
    (0.95, 1.05): 2,
    (0.95, 1.1): 3,
    (0.95, 4.0 / 3.0): 2,
    (0.95, 1.5): 2,
    (0.95, 64.0): 2,
    (0.98, 1.5): 2,
    (0.98, 3.0): 2,
    (0.98, 4.0): 2,
    (0.98, 8.0): 2,
    (0.98, 64.0): 2,
    (0.9j, 1.05): 3,
    (0.9j, 1.1): 4,
}


def test_sweep_certifies_every_solve_without_an_added_cap():
    # a stop rule may leave a cap sooner, but never so soon that a solve
    # needs a cap more, and every solve still certifies
    caps = {}
    for w in SWEEP_WS:
        for q in SWEEP_QS:
            triple = dual_extremal_solve(truncated_szego_poly(w, 20), q=q)
            assert triple.attempts[-1].certified and triple.duality_gap <= 1e-6
            caps[w, q] = len(triple.attempts)
    assert len(caps) == 63
    assert {k: n for k, n in caps.items() if n > SWEEP_CAPS.get(k, 1)} == {}


def test_a_certifying_check_ends_its_cap(monkeypatch):
    phi, q, tol = truncated_szego_poly(0.9, 20), 1.05, 1e-6
    runs = record_runs(monkeypatch)
    triple = dual_extremal_solve(phi, q=q, tol=tol)
    run, attempt = runs[-1], triple.attempts[-1]
    assert (attempt.stop, attempt.certified, attempt.gap_checks) == ("certified", True, len(run.checks))
    gaps = [reference_gaps(phi, q, attempt, F, h)[0] for _, _, (F, h) in run.checks]
    assert all(gap > tol for gap in gaps[:-1]) and gaps[-1] <= tol
    assert attempt.duality_gap == gaps[-1] == triple.duality_gap
    # no monitor call and no (F, h) after the certifying check
    assert run.calls[-1] == run.checks[-1][1] == attempt.nfev and run.final_witnesses == 0


def test_slow_certifying_cap_stops_at_its_first_certified_check():
    # a slowly converging cap: cap 1920 makes 61 checks before one
    # certifies, and the solve ends there
    triple = dual_extremal_solve(truncated_szego_poly(0.95, 60), q=1.05)
    assert [(*a[:5], a.certified, a.gap_checks) for a in triple.attempts] == [
        (240, 2048, 417, 420, "gap_stall", False, 21),
        (480, 4096, 105, 120, "gap_stall", False, 6),
        (960, 4096, 99, 120, "gap_stall", False, 6),
        (1920, 8192, 1163, 1220, "certified", True, 61),
    ]
    assert triple.duality_gap <= 1e-6


def test_fixed_cap_whose_gap_stalls_raises():
    with pytest.raises(NonconvergenceError, match=r"K=80 gap \S+ after \d+ iterations \(gap_stall\)"):
        dual_extremal_solve(truncated_szego_poly(0.9, 20), q=1.05, trunc_degree=80)


def test_a_gap_the_optimization_holds_up_does_not_stall():
    # cold at K = 1280 the gap falls too slowly to halve over 5 checks after
    # some 460 evaluations, but the truncation holds up less than tol of it,
    # so the solve runs on to max_iter
    with pytest.raises(NonconvergenceError, match=r"K=1280 gap \S+ after 600 iterations \(max_iter\)"):
        dual_extremal_solve(truncated_szego_poly(0.93, 40), q=1.05, trunc_degree=1280, max_iter=600)


@pytest.mark.parametrize("w,degree,q", [(0.9, 20, 1.05), (0.99, 30, 3.0)])
def test_coeff_radius_bounds_warm_against_cold(w, degree, q):
    # both solutions of the final cap's grid problem lie within their
    # radius of its minimizer, so within the sum of the radii of each other
    phi = truncated_szego_poly(w, degree)
    warm = dual_extremal_solve(phi, q=q)
    cold = dual_extremal_solve(phi, q=q, trunc_degree=warm.trunc_degree)
    n = warm.attempts[-1].n_per_axis
    assert len(warm.attempts) > 1 and n == cold.attempts[-1].n_per_axis
    warm_doc, cold_doc = warm.to_json_dict(), cold.to_json_dict()
    warm_radius, cold_radius = warm_doc["coeff_radius"], cold_doc["coeff_radius"]
    radii = warm_radius + cold_radius
    assert 0.0 < radii < 0.1
    diff = warm.extremal_kernel - cold.extremal_kernel
    assert max(map(abs, diff.coeffs.values())) <= radii
    assert lp_norm(sample(diff, n), q) <= radii
    # a coefficient the printed table drops is at most its radius, so the
    # minimizer's is at most 2 radii, and the other solution's 2 radii plus its own
    dropped = warm.extremal_kernel.coeffs.keys() - warm_doc["extremal_kernel_coeffs"].coeffs.keys()
    assert dropped and all(abs(cold.extremal_kernel.coeff(k)) <= 2 * warm_radius + cold_radius for k in dropped)


@pytest.mark.parametrize("q", [1.05, 1.5, 2.0, 3.0, 64.0])
def test_coeff_radius_formulas(q):
    # 2-uniform convexity below q = 2, Clarkson above, equal at q = 2
    v, gap = 1.3, 1e-8
    want = math.sqrt(4 * v * gap / (q - 1)) if q <= 2 else 2 * (q * v ** (q - 1) * gap / 2) ** (1 / q)
    assert _coeff_radius(q, v, gap) == pytest.approx(want, rel=1e-14)
    assert _coeff_radius(q, v, -gap) == _coeff_radius(q, v, gap)
    assert _coeff_radius(2.0, v, gap) == pytest.approx(2 * (2 * v * gap / 2) ** 0.5, rel=1e-15)


def test_first_failed_line_search_ends_each_cap(monkeypatch):
    # whether each line search found no step, one list per cap's run
    failed = []

    def spy_search(*args):
        step, evals = line_search(*args)
        failed[-1].append(step is None)
        return step, evals

    def spy_minimize(*args, **kwargs):
        failed.append([])
        return minimize(*args, **kwargs)

    line_search, minimize = optimize._line_search, extremal.minimize
    monkeypatch.setattr(optimize, "_line_search", spy_search)
    monkeypatch.setattr(extremal, "minimize", spy_minimize)
    # cap 20 makes a gap check that does not end it
    triple = dual_extremal_solve(truncated_szego_poly(0.9j, 5), q=8.0)
    assert [(a.stop, a.gap_checks) for a in triple.attempts] == [("line_search", 1), ("certified", 1)]
    assert len(failed) == 2
    assert failed[0].count(True) == 1 and failed[0][-1]
    # the cap that a gap check ended found a step at every line search
    assert failed[1] and not any(failed[1])


@pytest.mark.parametrize(
    "scale,q",
    [(1e-6, 1.5), (1e-6, 4.0), (2**-7, 16.0), (2**-14, 16.0), (1e-6, 16.0), (1e-6, 64.0), (2**-24, 64.0)],
    ids=["1e-6-q1.5", "1e-6-q4", "2^-7-q16", "2^-14-q16", "1e-6-q16", "1e-6-q64", "2^-24-q64"],
)
def test_small_phi_is_solved_as_accurately_as_unit_scale(scale, q):
    # the problem is 1-homogeneous in phi, and is solved at unit coefficient
    # scale to the same tol; at q = 16 and 64, |psi|^q of the small phi
    # itself would leave the normal floats, and no line search could start.
    # A power-of-two scale divides out exactly, so the two solves run the
    # same iterates and stop at the same check.
    phi = truncated_szego_poly(0.9, 40)
    unit = dual_extremal_solve(phi, q=q)
    small = dual_extremal_solve(phi.scale(scale), q=q)
    assert abs(small.value / scale - unit.value) <= 1e-13 * unit.value
    assert small.duality_gap <= 1e-6 * scale


def test_overflowing_power_is_solved_at_unit_scale():
    # |psi|^64 of 1e6 + 5e5 z overflows at the cold start; phi / 1e6 does not,
    # and the solve at tol 1e-4 is the unit one at tol 1e-10, scaled back
    phi, q = TrigPoly(1, {(0,): 1.0, (1,): 0.5}), 64.0
    unit = dual_extremal_solve(phi, q=q, tol=1e-10).value
    big = dual_extremal_solve(phi.scale(1e6), q=q, tol=1e-4)
    assert big.attempts[-1].certified and big.duality_gap <= 1e-4
    assert abs(big.value - 1e6 * unit) <= 1e-13 * 1e6 * unit


@pytest.mark.parametrize("scale", [1e-6, 2**-24], ids=["1e-06", "2^-24"])
def test_underflowing_power_certifies_no_false_value(scale):
    # at q = 64 mean |psi|^64 is subnormal for 1e-6 phi and 0 for 2^-24 phi,
    # and so is N_64(psi); neither may pass for a primal and dual of 0.  At
    # unit scale both certify the scaled unit-scale value.
    phi, q = truncated_szego_poly(0.9, 40), 64.0
    unit = dual_extremal_solve(phi, q=q).value
    triple = dual_extremal_solve(phi.scale(scale), q=q)
    assert triple.attempts[-1].certified
    assert abs(triple.value - scale * unit) <= 1e-13 * scale * unit


@pytest.mark.parametrize(
    "phi",
    [
        truncated_szego_poly(0.6, 5),
        truncated_szego_poly(0.9, 20),
        truncated_szego_poly(0.9j, 60),
        TrigPoly(1, {(0,): 2.5}),
    ],
    ids=["w0.6-deg5", "w0.9-deg20", "w0.9i-deg60", "constant"],
)
def test_q2_minimum_is_the_l2_norm_at_the_start(phi):
    # by Parseval ||phi + conj(phi0)||_2^2 = ||phi||_2^2 + ||phi0||_2^2, so
    # phi0 = 0, the cold start, is the minimizer; its gradient is rounding
    # (exactly 0 for a constant phi), along which no step decreases f
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        triple = dual_extremal_solve(phi, q=2.0)
    (attempt,) = triple.attempts
    assert attempt.certified and attempt.stop == "line_search" and attempt.nfev <= 2
    assert abs(triple.value - phi.l2_norm()) <= 1e-15 * phi.l2_norm()


def test_nonconvergence_names_every_cap():
    phi = truncated_szego_poly(0.6, 16)
    with pytest.raises(NonconvergenceError) as exc:
        dual_extremal_solve(phi, q=1.3333, tol=1e-12, max_iter=2)
    for K in (64, 128, 256, 512, 1024, 2048):
        assert f"K={K} gap " in str(exc.value)
    assert str(exc.value).count("after 2 iterations (max_iter)") == 6
