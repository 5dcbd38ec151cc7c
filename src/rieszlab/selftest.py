"""Fast invariant suite behind the `selftest` subcommand.

Each check is a (name, callable) pair; callables raise AssertionError
with a short message on failure.  The suite covers the algebraic
identities that hold to rounding error and a few spot values with
stated tolerances — a no-network, no-fixture smoke test.
"""

from __future__ import annotations

import math

import numpy as np

from . import dirichlet, figures, homog2, kernels
from .exponents import conjectured_exponent, conjugate
from .fourier import (
    coefficients,
    partial_project,
    poly_inner,
    riesz_project,
    riesz_project_minus,
    sample,
)
from .norms import lp_norm, nonlinear_map
from .search import _random_poly


def check_projection_idempotent():
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        poly = _random_poly(rng, dim, 3)
        once = riesz_project(poly)
        assert once.distance(riesz_project(once)) == 0.0, "projection not idempotent"


def check_projection_self_adjoint():
    rng = np.random.default_rng(8)
    f = _random_poly(rng, 2, 3)
    g = _random_poly(rng, 2, 3)
    lhs = poly_inner(riesz_project(f), g)
    rhs = poly_inner(f, riesz_project(g))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), f"<P f, g> != <f, P g>: {lhs} vs {rhs}"


def check_decomposition():
    rng = np.random.default_rng(9)
    psi = _random_poly(rng, 1, 6)
    total = riesz_project(psi) + riesz_project_minus(psi)
    assert psi.distance(total) == 0.0, "P+ + P- != identity in d=1"


def check_partial_composition():
    rng = np.random.default_rng(10)
    poly = _random_poly(rng, 2, 3)
    both = partial_project(partial_project(poly, [1]), [2])
    assert both.distance(riesz_project(poly)) == 0.0, "partial projections do not compose"
    grid = sample(poly, 16)
    both = partial_project(partial_project(grid, [1]), [2]).samples
    resid = float(np.max(np.abs(both - riesz_project(grid).samples)))
    assert resid <= 1e-12 * poly.l2_norm(), f"partial projections do not compose on a grid: {resid}"


def check_round_trip():
    rng = np.random.default_rng(11)
    poly = _random_poly(rng, 2, 3)
    back = coefficients(sample(poly, 16), 3)
    assert back.distance(poly) <= 1e-12 * poly.l2_norm(), "sample/coefficients round trip"


def check_parseval():
    rng = np.random.default_rng(12)
    poly = _random_poly(rng, 1, 5)
    grid = sample(poly, 64)
    quad = lp_norm(grid, 2.0)
    assert abs(quad - poly.l2_norm()) <= 1e-12 * poly.l2_norm(), "Parseval mismatch"


def check_conjugate_involution():
    for q in (1.0, 4.0 / 3.0, 2.0, 3.0, 17.5, math.inf):
        back = conjugate(conjugate(q))
        if math.isinf(q):
            ok = math.isinf(back)
        else:
            ok = abs(back - q) <= 1e-12 * max(1.0, q)
        assert ok, f"conjugate not an involution at q={q}"


def check_functional_equation():
    qs = [2.0 + 0.1 * k for k in range(1, 30)]
    for q in qs:
        lhs = conjectured_exponent(3, q)
        rhs = conjectured_exponent(1, conjectured_exponent(2, q))
        assert abs(lhs - rhs) <= 1e-12, f"functional equation fails at q={q}: {lhs} vs {rhs}"


def check_pointwise_identity():
    rng = np.random.default_rng(13)
    psi = sample(_random_poly(rng, 1, 10), 64)
    plus = riesz_project(psi).samples
    minus = riesz_project_minus(psi).samples
    resid = plus**2 - minus**2 - psi.samples * (plus - minus)
    norm = math.sqrt(float(np.mean(np.abs(resid) ** 2)))
    assert norm <= 1e-12 * max(1.0, float(np.mean(np.abs(psi.samples) ** 2))), (
        f"square-difference identity residual {norm}"
    )


def check_nonlinear_map_norms():
    rng = np.random.default_rng(14)
    g = sample(_random_poly(rng, 1, 4), 128)
    q = 3.0
    q_star = conjugate(q)
    psi = nonlinear_map(g, q_star)
    lhs = lp_norm(psi, q) ** q
    rhs = lp_norm(g, q_star) ** q_star
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs), "||N_p g||-identity broken"


def check_kernel_norm_spot():
    val = kernels.szego_norm(0.5, 2.0)
    assert abs(val - math.sqrt(4.0 / 3.0)) <= 1e-12, f"||k_w||_2 spot value: {val}"
    assert abs(kernels.extremal_kernel_norm(0.5, 4.0 / 3.0) - 0.75**-0.25) <= 1e-12


def check_coefficient_check_spot():
    report = kernels.coefficient_check(q=math.inf, p=4.0, n_max=10)
    assert report.passed, "p=4, q=inf should pass"
    report = kernels.coefficient_check(q=4.0 / 3.0, p=1.2, n_max=10)
    assert report.first_violation == 1, "p>4/q* must fail at n=1"


def check_homog2_exact_q2():
    fam = homog2.PerturbedFamily(eps=0.1, q_star=2.0)
    assert abs(homog2.kernel_norm_series(fam) - math.sqrt(1.02)) <= 1e-14
    a, b = homog2.projection_coefficients(fam)
    assert a == 1.0 and b == 1.0, "q*=2 projection must be the identity data"


def check_dirichlet_counts():
    assert dirichlet.lattice_count(1.0, 2) == 5
    assert dirichlet.lattice_count(2.0, 2) == 13
    assert dirichlet.dirichlet_norm(dirichlet.DirichletSpec(1.0, 2), math.inf) == 5.0


def check_figure_spots():
    table = figures.figure_tables(1)
    by_q = {row.q: row for row in table.rows}
    assert abs(by_q[2.0].upper - 2.0) <= 1e-12 and abs(by_q[2.0].lower - 2.0) <= 1e-12
    assert abs(by_q[math.inf].upper - 4.0) <= 1e-12


CHECKS = [
    ("projection idempotent", check_projection_idempotent),
    ("projection self-adjoint", check_projection_self_adjoint),
    ("plus/minus decomposition", check_decomposition),
    ("partial projection composition", check_partial_composition),
    ("sample/coefficients round trip", check_round_trip),
    ("Parseval", check_parseval),
    ("conjugate involution", check_conjugate_involution),
    ("exponent functional equation", check_functional_equation),
    ("square-difference identity", check_pointwise_identity),
    ("nonlinear map norm identity", check_nonlinear_map_norms),
    ("kernel norm spot values", check_kernel_norm_spot),
    ("coefficient check spot values", check_coefficient_check_spot),
    ("homog2 exact q*=2", check_homog2_exact_q2),
    ("dirichlet lattice counts", check_dirichlet_counts),
    ("figure table spot values", check_figure_spots),
]


def run_selftest(out=print) -> tuple[int, int]:
    """Run all checks; returns (passed, failed)."""
    passed = failed = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            failed += 1
            out(f"FAIL {name}: {exc}")
        else:
            passed += 1
            out(f"ok   {name}")
    out(f"{passed} passed, {failed} failed")
    return passed, failed
