"""End-to-end acceptance checks, one test per advertised guarantee.

Every test asserts the documented tolerance and prints a single
``acceptance k (<label>): pass`` line with the measured wall time; the
stated per-criterion runtime budgets are asserted, not aspirational.
Run with ``pytest -v tests/test_acceptance.py`` for the per-line view.
"""

import math
import time

import numpy as np
import pytest

from rieszlab import cli
from rieszlab.dirichlet import DirichletSpec, dirichlet_norm, growth_fit
from rieszlab.exponents import conjectured_exponent, conjugate
from rieszlab.extremal import dual_extremal_solve, geometric_mean_l1_check, blaschke_product
from rieszlab.figures import figure_tables
from rieszlab.fourier import (
    TrigPoly,
    coefficients,
    partial_project,
    poly_inner,
    riesz_project,
    sample,
)
from rieszlab.homog2 import (
    PerturbedFamily,
    build_family,
    kernel_norm_series,
    projection_coefficients,
    projection_geometric_mean_closed,
    projection_norm_series,
    threshold_scan,
)
from rieszlab.kernels import (
    coefficient_check,
    point_extremal_function,
    szego_norm,
    truncated_szego_poly,
)
from rieszlab.norms import lp_norm
from rieszlab.selftest import run_selftest

SEED = 20240814
Q_SIX = [4.0 / 3.0, 3.0 / 2.0, 2.0, 3.0, 4.0, math.inf]


def _pass(num: int, label: str, t0: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - t0
    budget = f", budget {limit:.0f}s" if limit is not None else ""
    print(f"acceptance {num} ({label}): pass [{elapsed:.2f}s{budget}]")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget: {elapsed:.1f}s"


def _random_poly(rng, degree: int = 8) -> TrigPoly:
    c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    return TrigPoly(1, {(k - degree,): c[k] for k in range(2 * degree + 1)})


def test_criterion_1_sup_norm_bound():
    """||P+ psi||_4 <= ||psi||_inf, with equality for Blaschke products."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        psi = _random_poly(rng)
        sup = lp_norm(sample(psi, 2048), math.inf)
        quartic = lp_norm(sample(riesz_project(psi), 64), 4.0)
        assert quartic <= sup + 1e-10
    for _ in range(20):
        zeros = [
            complex(r * math.cos(t), r * math.sin(t))
            for r, t in zip(
                rng.uniform(0.0, 0.8, size=rng.integers(1, 5)),
                rng.uniform(0.0, 2 * math.pi, size=4),
            )
        ]
        grid = blaschke_product(zeros, 256)
        sup = lp_norm(grid, math.inf)
        quartic = lp_norm(riesz_project(grid), 4.0)
        assert abs(quartic - sup) <= 1e-9
    _pass(1, "sup-norm bound for the quartic projection norm", t0, 10.0)


def test_criterion_2_geometric_mean_l1_bound():
    """exp(mean log |P+ psi|) <= ||psi||_1, equality on the worked example."""
    t0 = time.perf_counter()
    worked = sample(TrigPoly(1, {(-1,): 1.0, (1,): 2.0, (3,): 1.0}), 256)
    check = geometric_mean_l1_check(worked)
    assert abs(check.lhs - 2.0) <= 1e-9
    assert abs(check.rhs - 2.0) <= 1e-9
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        psi = sample(_random_poly(rng), 2048)
        assert geometric_mean_l1_check(psi).gap >= -1e-9
    _pass(2, "geometric-mean bound against the L1 norm", t0, 10.0)


def test_criterion_3_kernel_coefficient_comparison():
    """Coefficientwise Taylor-domination of the kernel norms at p = 4/q*."""
    t0 = time.perf_counter()
    for q in Q_SIX:
        p_crit = 4.0 / conjugate(q)
        report = coefficient_check(q=q, p=p_crit, n_max=50)
        assert report.passed, f"q={q}: unexpected violation at n={report.first_violation}"
        above = coefficient_check(q=q, p=p_crit + 0.01, n_max=50)
        assert not above.passed and above.first_violation == 1
    for q in Q_SIX:
        p_crit = 4.0 / conjugate(q)
        for r in (0.25, 0.49, 0.81):
            w = math.sqrt(r)
            series = szego_norm(w, p_crit)
            quad = lp_norm(point_extremal_function(w, 2.0, n_per_axis=4096), p_crit)
            assert abs(series - quad) <= 1e-9, (q, r)
    _pass(3, "kernel norm coefficient comparison and series cross-check", t0, 5.0)


def test_criterion_4_minimal_extension_solver():
    """Best co-analytic completion of the truncated kernel at w = 0.5."""
    t0 = time.perf_counter()
    phi = truncated_szego_poly(0.5, 40)
    triple = dual_extremal_solve(phi, q=4.0 / 3.0)
    target = 0.75 ** (-1.0 / 4.0)
    assert abs(triple.value - target) <= 1e-4
    assert triple.duality_gap <= 1e-6
    _pass(4, "dual extremal solver against the closed form", t0, 60.0)


def _richardson(values_by_eps):
    (e1, g1), (e2, g2) = values_by_eps
    assert abs(e1 - 2 * e2) < 1e-15
    return (4.0 * g2 - g1) / 3.0


def test_criterion_5_two_dimensional_series():
    """Series, coefficients, and small-eps expansions of the 2-d family."""
    t0 = time.perf_counter()
    for q in (1.5, 2.0, 3.0, 4.0):
        for eps in (0.05, 0.1, 0.2):
            fam = PerturbedFamily(eps=eps, q_star=conjugate(q))
            psi = build_family(eps, conjugate(q), n_per_axis=128)
            assert abs(kernel_norm_series(fam) - lp_norm(psi, q)) <= 1e-9
    for q in (1.5, 2.0, 3.0, 4.0, math.inf):
        fam = PerturbedFamily(eps=0.1, q_star=conjugate(q))
        a, b = projection_coefficients(fam)
        psi = build_family(0.1, conjugate(q), n_per_axis=128)
        hat = coefficients(psi, 3)
        assert complex(hat.coeff((1, 1))).real == pytest.approx(a, abs=1e-10)
        assert complex(hat.coeff((2, 0))).real == pytest.approx(0.1 * b, abs=1e-10)
        assert complex(hat.coeff((0, 2))).real == pytest.approx(-0.1 * b, abs=1e-10)

    def fit_coeffs(value_at, c2_exact):
        eps_pair = (0.04, 0.02)
        c2 = _richardson([(e, (value_at(e) - 1.0) / e**2) for e in eps_pair])
        c4 = _richardson(
            [(e, (value_at(e) - 1.0 - c2_exact * e**2) / e**4) for e in eps_pair]
        )
        return c2, c4

    for q, p in ((4.0, 3.0), (3.0, 1.0), (2.0, 2.0), (1.5, 0.0)):
        qs = conjugate(q)
        c2_psi, c4_psi = fit_coeffs(
            lambda e: kernel_norm_series(PerturbedFamily(eps=e, q_star=qs)), qs - 1.0
        )
        assert c2_psi == pytest.approx(qs - 1.0, rel=0.01)
        assert c4_psi == pytest.approx((qs - 1.0) * (3.0 * qs - 8.0) / 4.0, rel=0.01)
        c2_phi, c4_phi = fit_coeffs(
            lambda e: projection_norm_series(PerturbedFamily(eps=e, q_star=qs), p),
            qs - 1.0,
        )
        assert c2_phi == pytest.approx(qs - 1.0, rel=0.01)
        assert c4_phi == pytest.approx(
            (p + 3.0 * qs**2 - 10.0 * qs + 4.0) / 4.0, rel=0.01
        )
    _pass(5, "two-dimensional family series and expansions", t0, 120.0)


def test_criterion_6_threshold_limit():
    """Threshold exponent of the perturbed family tends to 4 - q*."""
    t0 = time.perf_counter()
    for q in (1.5, 2.0, 4.0, math.inf):
        scan = threshold_scan(q)
        target = 4.0 - conjugate(q)
        assert scan.extrapolated is not None
        assert abs(scan.extrapolated - target) <= 0.02, (q, scan.extrapolated)
    edge = threshold_scan(4.0 / 3.0, eps_list=(0.05,))
    assert edge.rows[0].threshold_p is None  # no positive exponent survives
    fam = PerturbedFamily(eps=0.02, q_star=conjugate(1.2))
    assert projection_geometric_mean_closed(fam) > kernel_norm_series(fam)
    _pass(6, "threshold limit of the perturbed family", t0, 120.0)


def test_criterion_7_small_exponent_growth():
    """L^1 norm of the 2-d spherical kernel grows like sqrt(R)."""
    t0 = time.perf_counter()
    radii = [5.0, 10.0, 20.0, 40.0]
    fit = growth_fit(2, 1.0, radii, [dirichlet_norm(DirichletSpec(r, 2), 1.0) for r in radii])
    assert 0.35 <= fit.exponent <= 0.65, fit.exponent
    _pass(7, "small-exponent growth rate of spherical kernels", t0, 120.0)


def test_criterion_8_structural_invariants():
    """Projection algebra, Parseval, exponent functional equation, selftest."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        support = [tuple(int(v) for v in rng.integers(-4, 5, size=2)) for _ in range(6)]
        ints = rng.integers(-8, 9, size=(len(support), 4))
        f = TrigPoly(2, {a: complex(r1, i1) for a, (r1, i1, _, _) in zip(support, ints)})
        g = TrigPoly(2, {a: complex(r2, i2) for a, (_, _, r2, i2) in zip(support, ints)})
        pf = riesz_project(f)
        assert riesz_project(pf).coeffs == pf.coeffs  # idempotent, exactly
        # integer coefficients make both inner products exact
        assert poly_inner(pf, g) == poly_inner(f, riesz_project(g))
        assert partial_project(partial_project(f, [1]), [2]).coeffs == pf.coeffs
        grid = sample(f, 32)
        energy = sum(abs(c) ** 2 for c in f.coeffs.values())
        assert abs(lp_norm(grid, 2.0) ** 2 - energy) <= 1e-12 * max(1.0, energy)
    count = 0
    for d1 in range(1, 6):
        for d2 in range(1, 6):
            for q in (2.0, 2.25, 2.5, 3.0, 4.0, 6.0, 12.0, math.inf):
                inner = conjectured_exponent(d2, q)
                composed = conjectured_exponent(d1, inner)
                direct = conjectured_exponent(d1 + d2, q)
                assert abs(composed - direct) <= 1e-12
                count += 1
    assert count == 200
    passed, failed = run_selftest(out=lambda _line: None)
    assert failed == 0 and passed > 0
    _pass(8, "structural invariants and selftest", t0)


def test_criterion_9_bound_tables(tmp_path):
    """Pinned bound-table rows, byte-deterministic rendering."""
    t0 = time.perf_counter()
    d1 = {row.q: row for row in figure_tables(1).rows}
    assert d1[4.0 / 3.0].upper == pytest.approx(1.0)
    assert d1[4.0 / 3.0].lower == pytest.approx(1.0)
    assert d1[2.0].upper == pytest.approx(2.0) and d1[2.0].lower == pytest.approx(2.0)
    assert d1[math.inf].upper == pytest.approx(4.0)
    assert d1[math.inf].lower == pytest.approx(4.0)
    d2 = {row.q: row for row in figure_tables(2).rows}
    assert d2[4.0 / 3.0].upper == pytest.approx(0.0, abs=1e-12)
    assert d2[4.0 / 3.0].lower == pytest.approx(0.0, abs=1e-12)
    assert d2[math.inf].upper == pytest.approx(3.0)
    for dim in (1, 2):
        runs = [tmp_path / f"d{dim}_{i}.csv" for i in (1, 2)]
        assert [cli.main(["figures", "--d", str(dim), "--out", str(out)]) for out in runs] == [0, 0]
        assert runs[0].read_bytes() == runs[1].read_bytes()
    _pass(9, "bound tables pinned and deterministic", t0)
