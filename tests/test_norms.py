import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nonzero_polys
from rieszlab.exponents import conjectured_exponent, conjugate, interpolation_lower_bound, riesz_projection_norm
from rieszlab.fourier import GridFunction, TrigPoly, sample
from rieszlab.norms import lp_norm, nonlinear_map

P_GRID = [0.0, 0.3, 0.5, 1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, 7.5, math.inf]


def constant_grid(c, n=8):
    return GridFunction(np.full(n, c, dtype=np.complex128))


@pytest.mark.parametrize("p", P_GRID)
def test_constants(p):
    assert lp_norm(constant_grid(2.5j), p) == pytest.approx(2.5, rel=1e-14)


@given(nonzero_polys(1, max_degree=4), st.sampled_from(P_GRID), st.sampled_from(P_GRID))
def test_monotone_in_p(f, p1, p2):
    if p1 > p2:
        p1, p2 = p2, p1
    grid = sample(f, 64)
    assert lp_norm(grid, p1) <= lp_norm(grid, p2) * (1 + 1e-12)


@given(nonzero_polys(1, max_degree=5))
def test_p2_is_parseval(f):
    assert lp_norm(sample(f, 16), 2.0) == pytest.approx(f.l2_norm(), rel=1e-12)


def test_geometric_mean_outer_oracle():
    # log|c + z| has mean value log|c| for |c| > 1 (mean-value property
    # of the harmonic extension), so the geometric mean is exactly |c|.
    for c in (2.0, 1.5 + 1.0j, -3.0):
        f = TrigPoly(1, {(0,): c, (1,): 1.0})
        got = lp_norm(sample(f, 512), 0.0)
        assert got == pytest.approx(abs(c), rel=1e-12)


def test_geometric_mean_inner_oracle():
    # modulus of z^3 is 1 everywhere, so every norm is 1
    f = TrigPoly.monomial((3,))
    grid = sample(f, 16)
    for p in P_GRID:
        assert lp_norm(grid, p) == pytest.approx(1.0, rel=1e-14)


def test_lp_norm_validation():
    g = constant_grid(1.0)
    with pytest.raises(ValueError):
        lp_norm(g, -0.5)
    with pytest.raises(ValueError):
        lp_norm(g, math.nan)
    zero = GridFunction(np.zeros(4, dtype=np.complex128))
    with pytest.raises(ValueError):
        lp_norm(zero, 0.0)


@pytest.mark.parametrize("scale", [1e300, 1e-161, 1e-200])
@pytest.mark.parametrize("p", [0.5, 2.0, 2.6, 4.0])
def test_extreme_magnitudes_rescale(scale, p):
    # |g|^p overflows or underflows (to subnormals or 0) while ||g||_p does not
    f = TrigPoly(1, {(0,): 1.0, (1,): 0.5})
    unit = lp_norm(sample(f, 16), p)
    with np.errstate(all="raise"):  # a stray overflow warning would raise here
        got = lp_norm(sample(f.scale(scale), 16), p)
    assert got == pytest.approx(unit * scale, rel=1e-14)


@pytest.mark.parametrize("p", [1e-12, 1e-6, 1e-3, 0.5])
def test_small_p_matches_mpmath(p):
    # mean |g|^p = 1 + O(p), and the power 1/p amplifies its rounding
    grid = sample(TrigPoly(1, {(0,): 3.0, (1,): 1.0}), 256)
    with mpmath.workdps(40):
        mean = mpmath.fsum(mpmath.mpf(float(m)) ** p for m in np.abs(grid.samples)) / grid.samples.size
        exact = float(mean ** (1 / mpmath.mpf(p)))
    assert lp_norm(grid, p) == pytest.approx(exact, rel=1e-14)


def test_tiny_p_is_the_geometric_mean():
    grid = sample(TrigPoly(1, {(0,): 3.0, (1,): 1.0}), 256)
    for p in (1e-300, 1e-318, 5e-324):
        assert lp_norm(grid, p) == pytest.approx(lp_norm(grid, 0.0), rel=1e-12), p


def test_non_finite_samples_refused():
    g = GridFunction(np.array([1.0, np.inf, 0.0, 2.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        lp_norm(g, 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("p", [0.0, math.inf])
def test_non_finite_samples_refused_at_p0_and_sup(p, bad, recwarn):
    g = GridFunction(np.array([1.0, bad, 2.0, 3.0], dtype=np.complex128))
    with pytest.raises(ValueError, match="not finite"):
        lp_norm(g, p)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_even_p_quadrature_exact():
    # ||f||_4^4 of f = 1 + z is sum over a+b=c+d of 1 = 6 for indices in {0,1}
    f = TrigPoly(1, {(0,): 1.0, (1,): 1.0})
    got = lp_norm(sample(f, 8), 4.0)
    assert got == pytest.approx(6.0**0.25, rel=1e-14)


# ---------------------------------------------------------------------------
# nonlinear map
# ---------------------------------------------------------------------------


def test_nonlinear_map_identity_at_2():
    grid = sample(TrigPoly(1, {(0,): 1.0, (2,): -2.0j}), 16)
    out = nonlinear_map(grid, 2.0)
    assert np.allclose(out.samples, grid.samples)


@given(nonzero_polys(1, max_degree=3), st.sampled_from([4.0 / 3.0, 1.5, 3.0, 4.0]))
def test_nonlinear_map_inverse_pair(f, q):
    q_star = conjugate(q)
    grid = sample(f, 32)
    back = nonlinear_map(nonlinear_map(grid, q_star), q)
    assert np.allclose(back.samples, grid.samples, atol=1e-9 * (1 + np.abs(grid.samples).max()))


def test_nonlinear_map_norm_power():
    f = TrigPoly(1, {(0,): 2.0, (1,): 1.0})
    q = 3.0
    q_star = conjugate(q)
    grid = sample(f, 256)
    lhs = lp_norm(nonlinear_map(grid, q_star), q) ** q
    rhs = lp_norm(grid, q_star) ** q_star
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_nonlinear_map_zero_handling():
    g = GridFunction(np.array([0.0, 1.0, 2.0, 0.0], dtype=np.complex128))
    out = nonlinear_map(g, 0.5)  # negative power of |g|
    assert out.samples[0] == 0.0 and np.isfinite(out.samples).all()


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------


def test_conjugate_values():
    assert conjugate(1.0) == math.inf
    assert conjugate(math.inf) == 1.0
    assert conjugate(2.0) == 2.0
    assert conjugate(4.0 / 3.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        conjugate(0.5)


@given(st.floats(1.01, 100.0))
def test_conjugate_involution(q):
    assert conjugate(conjugate(q)) == pytest.approx(q, rel=1e-12)
    assert 1.0 / q + 1.0 / conjugate(q) == pytest.approx(1.0, rel=1e-12)


def test_conjectured_exponent_special_cases():
    for d in (1, 2, 3, 7):
        assert conjectured_exponent(d, 2.0) == 2.0
        assert conjectured_exponent(d, math.inf) == pytest.approx(2.0 + 2.0 / d)
    assert conjectured_exponent(1, 4.0) == pytest.approx(3.0)
    assert conjectured_exponent(1, 4.0 / 3.0) == pytest.approx(1.0)
    assert conjectured_exponent(2, 4.0 / 3.0) == pytest.approx(0.0, abs=1e-12)
    assert conjectured_exponent(2, math.inf) == pytest.approx(3.0)


def test_conjectured_exponent_domain():
    with pytest.raises(ValueError):
        conjectured_exponent(2, 1.2)
    with pytest.raises(ValueError):
        conjectured_exponent(3, 1.49)
    with pytest.raises(ValueError):
        conjectured_exponent(1, 0.99)
    conjectured_exponent(3, 1.5)


@given(st.integers(1, 4), st.integers(1, 4), st.floats(2.0001, 60.0))
def test_functional_equation(d1, d2, q):
    lhs = conjectured_exponent(d1 + d2, q)
    rhs = conjectured_exponent(d1, conjectured_exponent(d2, q))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(st.integers(1, 4), st.floats(2.0, 50.0), st.floats(0.001, 10.0))
def test_conjectured_exponent_increasing(d, q, dq):
    assert conjectured_exponent(d, q) <= conjectured_exponent(d, q + dq) + 1e-12


def test_riesz_projection_norm():
    assert riesz_projection_norm(2.0) == pytest.approx(1.0)
    assert riesz_projection_norm(4.0 / 3.0) == pytest.approx(math.sqrt(2.0))
    assert riesz_projection_norm(4.0) == pytest.approx(math.sqrt(2.0))
    assert riesz_projection_norm(2.0, d=3) == pytest.approx(1.0)
    assert riesz_projection_norm(4.0, d=2) == pytest.approx(2.0)
    for bad in (1.0, math.inf, 0.5):
        with pytest.raises(ValueError):
            riesz_projection_norm(bad)


def test_interpolation_lower_bound():
    assert interpolation_lower_bound(1.2) == 0.0
    assert interpolation_lower_bound(4.0 / 3.0) == pytest.approx(1.0)
    assert interpolation_lower_bound(1.5) == pytest.approx(1.2)
    assert interpolation_lower_bound(2.0) == pytest.approx(2.0)
    assert interpolation_lower_bound(4.0) == pytest.approx(8.0 / 3.0)
    assert interpolation_lower_bound(math.inf) == pytest.approx(4.0)
