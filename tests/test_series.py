import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszlab.series import (
    MAX_TERMS,
    REL_TOL,
    NonconvergenceError,
    hyp2f1,
    require_converged,
    sum_series,
)


@given(st.floats(-0.9, 0.9))
def test_geometric_series(r):
    # MAX_TERMS terms reach REL_TOL, or a tail bound within a decade of it, for
    # -0.8314 <= r <= 0.8413 (r^200 ~ 1e-15); past |r| = 0.8414 the sum is refused, never wrong
    tally = sum_series(1.0, lambda n: r, abs(r))
    if -0.83 <= r <= 0.84:
        assert tally.converged
    if abs(r) > 0.8414:
        assert tally.converged is False
        assert tally.tail_bound > 10.0 * REL_TOL * abs(tally.value)
    if tally.converged:
        assert tally.value == pytest.approx(1.0 / (1.0 - r), rel=1e-14)


def test_exponential_series():
    x = 1.5
    tally = sum_series(1.0, lambda n: x / (n + 1), 0.0)
    assert tally.value == pytest.approx(math.exp(x), rel=1e-15)
    assert tally.converged


def test_cap_hit_not_converged():
    tally = sum_series(1.0, lambda n: 0.999, 0.999)
    assert tally.terms == MAX_TERMS and not tally.converged
    with pytest.raises(NonconvergenceError, match=f"after {MAX_TERMS} terms"):
        require_converged(tally, "slow geometric")


def test_cap_hit_but_tail_negligible():
    # at r = 0.84 the cap comes first, but the tail bound is already within a decade of REL_TOL
    tally = sum_series(1.0, lambda n: 0.84, 0.84)
    assert tally.terms == MAX_TERMS and tally.converged
    assert require_converged(tally, "fast geometric") == pytest.approx(1.0 / 0.16, rel=1e-14)


def test_tail_ratio_of_one_bounds_no_tail():
    # a ratio rho >= 1 gives no geometric bound |t| rho / (1 - rho)
    tally = sum_series(1.0, lambda n: 0.5, 1.0)
    assert tally.value == 2.0 and tally.tail_bound == math.inf


def test_tail_bound_is_a_bound():
    r = 0.9
    tally = sum_series(1.0, lambda n: r, r)
    assert tally.terms == MAX_TERMS and not tally.converged
    true_tail = 1.0 / (1.0 - r) - tally.value
    assert 0.0 <= true_tail <= tally.tail_bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# hypergeometric series against a 40-digit oracle
# ---------------------------------------------------------------------------

# (a, b, c, z) of every norm series the package sums, from two unit draws:
# p = 8u, r = 0.99v; q* = 1 + 49u, eps^2 = v/16; x^2 = 2.5v; 1/q* = u
FAMILIES = {
    "szego": lambda u, v: (4 * u, 4 * u, 1.0, 0.99 * v),
    "kernel_a": lambda u, v: (-(1 + 49 * u) / 2, 0.5, 1.0, -v / 4),
    "projection_a": lambda u, v: (1 - (1 + 49 * u) / 2, 0.5, 1.0, -v / 4),
    "projection_b": lambda u, v: (1 - (1 + 49 * u) / 2, 1.5, 2.0, -v / 4),
    "projection_p": lambda u, v: (-4 * u, 0.5, 1.0, -10 * v),
    "one_f_zero": lambda u, v: (u, 1.0, 1.0, 0.99 * v),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_hyp2f1_matches_mpmath(family, u, v):
    a, b, c, z = FAMILIES[family](u, v)
    tally = hyp2f1(a, b, c, z)
    if not tally.converged:
        return
    with mpmath.workdps(40):
        exact = float(mpmath.hyp2f1(a, b, c, z))
    assert tally.value == pytest.approx(exact, rel=1e-13, abs=0)


def test_hyp2f1_transforms():
    # Euler: 2F1(2, 2; 1; r) = (1 - r)^{-3} (1 + r), exact in three terms
    tally = hyp2f1(2.0, 2.0, 1.0, 0.999)
    assert tally.terms == 3 and tally.converged
    assert tally.value == pytest.approx(1.999 / 0.001**3, rel=1e-12)
    # Pfaff keeps the nonpositive integer as a, so the transformed series still terminates
    tally = hyp2f1(0.5, -2.0, 1.0, -2.0)
    assert tally.terms <= 4 and tally.converged
    with mpmath.workdps(40):
        assert tally.value == pytest.approx(float(mpmath.hyp2f1(0.5, -2, 1, -2)), rel=1e-14)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 1.0, 1.0)
