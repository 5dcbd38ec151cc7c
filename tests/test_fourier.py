import json
import math
import struct
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import coefficient_values, nonzero_polys, trig_polys
from rieszlab.fourier import (
    MAX_GRID_POINTS,
    GridFunction,
    TrigPoly,
    axis_angles,
    coefficients,
    grid_from_function,
    grid_from_spectrum,
    grid_inner,
    grid_spectrum,
    load_grid,
    offset_phase,
    partial_project,
    poly_inner,
    resolving_grid,
    riesz_project,
    riesz_project_minus,
    sample,
    save_grid,
)


# ---------------------------------------------------------------------------
# TrigPoly algebra
# ---------------------------------------------------------------------------


def test_zero_coefficients_dropped():
    f = TrigPoly(1, {(0,): 0.0, (1,): 2.0})
    assert (0,) not in f.coeffs
    assert f.coeff((1,)) == 2.0
    assert f.coeff((5,)) == 0.0


@pytest.mark.parametrize("c", [math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0)])
def test_non_finite_coefficients_rejected(c):
    with pytest.raises(ValueError, match="non-finite"):
        TrigPoly(1, {(0,): 1.0, (2,): c})


def test_monomial_and_bandwidth():
    f = TrigPoly.monomial((3, -5)).scale(2j)
    assert f.dim == 2
    assert f.bandwidth() == 5
    assert TrigPoly(2, {}).bandwidth() == 0


@given(trig_polys(1), trig_polys(1))
def test_add_sub_evaluate(f, g):
    theta = (0.7,)
    lhs = (f + g).evaluate(theta)
    rhs = f.evaluate(theta) + g.evaluate(theta)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    lhs = (f - g).evaluate(theta)
    rhs = f.evaluate(theta) - g.evaluate(theta)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(trig_polys(2, max_degree=3, max_terms=4), trig_polys(2, max_degree=3, max_terms=4))
def test_mul_evaluate(f, g):
    theta = (0.3, 2.1)
    lhs = (f * g).evaluate(theta)
    rhs = f.evaluate(theta) * g.evaluate(theta)
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_mul_convolves_indices():
    f = TrigPoly(1, {(1,): 1.0, (-1,): 1.0})
    sq = f * f
    assert sq.coeff((2,)) == 1.0
    assert sq.coeff((0,)) == 2.0
    assert sq.coeff((-2,)) == 1.0


@given(trig_polys(1))
def test_conjugate_flips_frequencies(f):
    g = f.conjugate()
    for alpha, c in f.coeffs.items():
        assert g.coeff((-alpha[0],)) == complex(c).conjugate()
    theta = (1.234,)
    assert g.evaluate(theta) == pytest.approx(complex(f.evaluate(theta)).conjugate(), abs=1e-9)


@given(trig_polys(2, max_degree=3))
def test_l2_norm_is_parseval(f):
    expected = math.sqrt(sum(abs(c) ** 2 for c in f.coeffs.values()))
    assert f.l2_norm() == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_l2_norm_neither_underflows_nor_overflows(scale):
    # |c|^2 leaves the float range at both scales; the norm itself does not
    assert TrigPoly(2, {(0, 0): 3.0 * scale, (1, -1): 4j * scale}).l2_norm() == pytest.approx(5.0 * scale, rel=1e-15)


def test_prune():
    f = TrigPoly(1, {(0,): 1.0, (1,): 1e-15})
    g = f.prune(1e-12)
    assert (1,) not in g.coeffs and (0,) in g.coeffs


def test_json_round_trip():
    f = TrigPoly(2, {(1, -2): 1.5 - 0.25j, (0, 0): 3.0})
    doc = json.dumps(f.to_json_dict())
    g = TrigPoly.from_json_dict(json.loads(doc))
    assert g.distance(f) == 0.0
    assert g.dim == 2


def test_json_rejects_bad_docs():
    for doc in ("[1, 2]", '{"dim": 1, "terms": 3}', '{"dim": 1, "terms": [[1]]}'):
        with pytest.raises(ValueError):
            TrigPoly.from_json_dict(json.loads(doc))
    term = '{"alpha": %s, "re": %s, "im": %s}'
    for dim, alpha, re, im in [
        ("null", "[1]", "1", "0"),
        ("1.0", "[1]", "1", "0"),
        ("true", "[1]", "1", "0"),
        ("1", "5", "1", "0"),
        ("1", "[1.5]", "1", "0"),
        ("1", "[1]", "null", "0"),
        ("1", "[1]", "1", '"0"'),
        ("1", "[1]", "1" + "0" * 400, "0"),  # an integer beyond float64
    ]:
        with pytest.raises(ValueError, match="TrigPoly"):
            TrigPoly.from_json_dict(json.loads('{"dim": %s, "terms": [%s]}' % (dim, term % (alpha, re, im))))
    with pytest.raises((ValueError, KeyError)):
        TrigPoly.from_json_dict(json.loads('{"terms": []}'))
    with pytest.raises((ValueError, KeyError)):
        TrigPoly.from_json_dict({"dim": 2, "terms": [{"alpha": [1], "re": 1, "im": 0}]})


# ---------------------------------------------------------------------------
# sampling and recovery
# ---------------------------------------------------------------------------


@given(trig_polys(1, max_degree=5), st.sampled_from([0.0, 0.25, 0.5]))
def test_round_trip_1d(f, offset):
    back = coefficients(sample(f, 16, offset), 5)
    assert back.distance(f) <= 1e-12 * max(1.0, f.l2_norm())


@given(trig_polys(2, max_degree=3, max_terms=5), st.sampled_from([0.0, 0.25, 0.5]))
def test_round_trip_2d(f, offset):
    back = coefficients(sample(f, 10, offset), 3)
    assert back.distance(f) <= 1e-12 * max(1.0, f.l2_norm())


@pytest.mark.parametrize("offset", [0.0, 0.25, 0.5])
def test_round_trip_3d(offset):
    rng = np.random.default_rng(3)
    f = TrigPoly(3, {a: complex(*rng.standard_normal(2)) for a in product(range(-2, 3), repeat=3)})
    back = coefficients(sample(f, 6, offset), 2)
    assert back.distance(f) <= 1e-12 * f.l2_norm()


@pytest.mark.parametrize("offset", [0.0, 0.25, 0.5])
def test_coefficients_match_direct_quadrature(offset):
    # loop reference: c_alpha = mean over the offset nodes of g(theta) e^{-i alpha.theta}
    rng = np.random.default_rng(7)
    n, cutoff = 6, 2
    grid = GridFunction(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), offset=offset)
    angles = axis_angles(n, offset)
    got = coefficients(grid, cutoff)
    for alpha in product(range(-cutoff, cutoff + 1), repeat=2):
        direct = np.mean(
            [grid.samples[j, k] * np.exp(-1j * (alpha[0] * s + alpha[1] * t))
             for (j, s), (k, t) in product(enumerate(angles), repeat=2)]
        )
        assert abs(got.coeff(alpha) - direct) <= 1e-12


def test_sample_matches_evaluate():
    f = TrigPoly(1, {(-2,): 1j, (1,): 2.0})
    grid = sample(f, 8, offset=0.5)
    angles = axis_angles(8, 0.5)
    direct = np.array([f.evaluate((t,)) for t in angles])
    assert np.allclose(grid.samples, direct, atol=1e-13)


def test_sample_matches_evaluate_2d():
    f = TrigPoly(2, {(1, -1): 1.0, (2, 0): -0.5j})
    grid = sample(f, 6)
    angles = axis_angles(6, 0.5)
    direct = np.array([[f.evaluate((s, t)) for t in angles] for s in angles])
    assert np.allclose(grid.samples, direct, atol=1e-13)


@pytest.mark.parametrize("offset", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("dim,n", [(1, 12), (2, 8), (3, 6)])
def test_sample_matches_evaluate_at_offsets(dim, n, offset):
    # the offset phase is folded into the coefficients; the labels stay
    rng = np.random.default_rng(dim)
    span = range(-2, 3)
    f = TrigPoly(dim, {a: complex(*rng.standard_normal(2)) for a in product(span, repeat=dim)})
    grid = sample(f, n, offset)
    assert grid.offset == offset
    angles = axis_angles(n, offset)
    direct = np.array([f.evaluate(theta) for theta in product(angles, repeat=dim)]).reshape((n,) * dim)
    assert np.max(np.abs(grid.samples - direct)) <= 1e-12


@st.composite
def sampled_polys(draw):
    """(poly, N): a sparse support that often touches the bins +-(N/2 - 1),
    and sometimes occupies every resolvable bin of one axis."""
    dim = draw(st.integers(1, 3))
    n = draw(st.sampled_from([2, 6, 16, 64] if dim == 3 else [2, 6, 16, 128]))
    edge = n // 2 - 1
    freq = st.integers(-edge, edge) | st.sampled_from([-edge, edge])
    support = draw(st.lists(st.tuples(*[freq] * dim), max_size=12))
    if draw(st.booleans()):
        axis, rest = draw(st.integers(0, dim - 1)), draw(st.tuples(*[freq] * dim))
        support += [rest[:axis] + (k,) + rest[axis + 1 :] for k in range(-edge, edge + 1)]
    return TrigPoly(dim, {alpha: draw(coefficient_values()) for alpha in support}), n


@given(sampled_polys(), st.sampled_from([0.0, 0.5]))
@example((TrigPoly(3, {}), 64), 0.5)
@example((TrigPoly(2, {(0, 0): 1.5 - 2j}), 16), 0.0)
@example((TrigPoly(3, {(0, 0, k): 1.0 + 1j * k for k in range(-31, 32)}), 64), 0.5)
def test_sample_equals_the_dense_inverse_fft_bit_for_bit(case, offset):
    # the dense route: scatter the phased coefficients into the full N^d
    # spectrum and run one ifftn; the search pins rest on this equality
    poly, n = case
    alphas = np.array(list(poly.coeffs), dtype=np.int64).reshape(-1, poly.dim)
    spec = np.zeros((n,) * poly.dim, dtype=np.complex128)
    spec[tuple((alphas % n).T)] = np.array(list(poly.coeffs.values()), dtype=np.complex128) * offset_phase(
        alphas.sum(axis=1), n, offset
    )
    assert np.array_equal(sample(poly, n, offset).samples, np.fft.ifftn(spec, norm="forward"))


def test_sample_refuses_aliasing():
    f = TrigPoly.monomial((4,))
    with pytest.raises(ValueError):
        sample(f, 8)  # needs N >= 10
    sample(f, 10)


def test_sample_refuses_odd_grid():
    with pytest.raises(ValueError):
        sample(TrigPoly.monomial((1,)), 7)


def test_sample_refuses_grids_beyond_the_point_limit():
    assert 256**3 <= MAX_GRID_POINTS < 512**3
    with pytest.raises(ValueError, match="limit"):
        sample(TrigPoly.monomial((0, 0, 0)), 512)


def test_resolving_grid_default_by_dim():
    for dim, n in ((1, 256), (2, 128), (3, 64)):
        assert resolving_grid(TrigPoly.monomial((1,) * dim)) == n
        assert resolving_grid(TrigPoly.monomial((200,) * dim)) == 402  # rounded up to resolve
    assert resolving_grid(TrigPoly.monomial((1,)), 7) == 8


def test_resolving_grid_no_default_for_dim_4():
    with pytest.raises(ValueError, match="no default grid for dim=4"):
        resolving_grid(TrigPoly.monomial((1, 1, 1, 1)))
    assert resolving_grid(TrigPoly.monomial((1, 1, 1, 1)), 8) == 8


def test_coefficients_cutoff_validation():
    grid = sample(TrigPoly.monomial((1,)), 8)
    with pytest.raises(ValueError):
        coefficients(grid, 4)  # N/2 = 4 is the ambiguous bin
    coefficients(grid, 3)


@pytest.mark.parametrize(
    "samples,word",
    [(np.zeros((4, 6)), "shape"), (np.zeros(3), "even"), (np.zeros(()), "dim")],
)
def test_grid_function_refuses_a_shape_that_is_not_an_even_cube(samples, word):
    with pytest.raises(ValueError, match=word):
        GridFunction(samples)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_function_reads_dim_and_n_off_its_samples(dim):
    samples = np.zeros((6,) * dim)
    grid = GridFunction(samples)
    assert (grid.dim, grid.n_per_axis) == (samples.ndim, samples.shape[0]) == (dim, 6)


def test_spectrum_inverse():
    rng = np.random.default_rng(5)
    grid = GridFunction(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    back = grid_from_spectrum(grid_spectrum(grid), grid.offset)
    assert np.allclose(back.samples, grid.samples, atol=1e-13)


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_grid_from_spectrum_leaves_input_unchanged(offset):
    rng = np.random.default_rng(6)
    spec = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
    before = spec.copy()
    grid = grid_from_spectrum(spec, offset)
    assert np.array_equal(spec, before)
    assert not np.shares_memory(grid.samples, spec)


def test_grid_from_function():
    grid = grid_from_function(lambda t: np.exp(1j * t), 1, 16)
    poly = coefficients(grid, 2)
    assert poly.distance(TrigPoly.monomial((1,))) <= 1e-13


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_project_keeps_nonnegative_orthant():
    f = TrigPoly(2, {(1, 1): 1.0, (1, -1): 2.0, (-1, -1): 3.0, (0, 0): 4.0})
    g = riesz_project(f)
    assert set(g.coeffs) == {(1, 1), (0, 0)}


@given(trig_polys(1, max_degree=5))
def test_plus_minus_decomposition(f):
    assert (riesz_project(f) + riesz_project_minus(f)).distance(f) == 0.0


@given(trig_polys(2, max_degree=3))
def test_projection_idempotent_poly(f):
    once = riesz_project(f)
    assert riesz_project(once).distance(once) == 0.0


@given(trig_polys(2, max_degree=3, max_terms=5), trig_polys(2, max_degree=3, max_terms=5))
def test_projection_self_adjoint(f, g):
    lhs = poly_inner(riesz_project(f), g)
    rhs = poly_inner(f, riesz_project(g))
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(trig_polys(2, max_degree=3))
def test_partial_projections_compose(f):
    assert partial_project(partial_project(f, [1]), [2]).distance(riesz_project(f)) == 0.0
    assert partial_project(f, [1, 2]).distance(riesz_project(f)) == 0.0


@given(st.integers(1, 3).flatmap(lambda dim: trig_polys(dim, max_degree=2**65)), st.data())
def test_projections_of_polys_filter_like_the_loop(f, data):
    # the filter reads a numpy index array, which may not be int64, and skips TrigPoly's
    # validation: each result must be the loop's, in key order, and what validation would build
    axes = data.draw(st.lists(st.integers(1, f.dim), max_size=f.dim))
    cases = [
        (riesz_project(f), lambda a: min(a) >= 0),
        (partial_project(f, axes), lambda a: all(a[k - 1] >= 0 for k in axes)),
    ]
    if f.dim == 1:
        cases.append((riesz_project_minus(f), lambda a: a[0] < 0))
    for g, keep in cases:
        assert list(g.coeffs.items()) == [(a, c) for a, c in f.coeffs.items() if keep(a)]
        # repr tells an int from an np.int64 and a complex from an np.complex128
        assert repr(TrigPoly(f.dim, g.coeffs)) == repr(g)


def test_partial_project_axis_validation():
    f = TrigPoly.monomial((1, 1))
    for x in (f, sample(f, 4)):
        with pytest.raises(ValueError):
            partial_project(x, [0])
        with pytest.raises(ValueError):
            partial_project(x, [3])


def test_partial_project_no_axes_is_identity():
    f = TrigPoly(2, {(-1, 2): 1.0, (1, -2): 2.0, (0, 0): 3j, (-2, -1): 4.0})
    assert list(partial_project(f, []).coeffs.items()) == list(f.coeffs.items())
    grid = sample(f, 8)
    same = partial_project(grid, [])
    assert same.aliasing_bound == 0.0
    assert np.max(np.abs(same.samples - grid.samples)) <= 1e-12


def test_projection_minus_only_1d():
    with pytest.raises(ValueError):
        riesz_project_minus(TrigPoly.monomial((1, 1)))


@pytest.mark.parametrize("offset", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 6)])
def test_grid_projection_matches_poly_route(dim, n, offset):
    # each projection is a multiplier on the unphased spectrum: it commutes with the grid shift
    rng = np.random.default_rng(dim)
    f = TrigPoly(dim, {a: complex(*rng.standard_normal(2)) for a in product(range(-2, 3), repeat=dim)})
    projections = [riesz_project, riesz_project_minus] if dim == 1 else [riesz_project]
    for r in range(1, dim):
        projections += [lambda x, axes=axes: partial_project(x, axes) for axes in combinations(range(1, dim + 1), r)]
    for project in projections:
        grid_route = project(sample(f, n, offset))
        poly_route = sample(project(f), n, offset)
        assert grid_route.offset == offset
        assert np.max(np.abs(grid_route.samples - poly_route.samples)) <= 1e-12
        assert grid_route.aliasing_bound == pytest.approx(0.0, abs=1e-12)


def test_grid_projection_reports_nyquist_loss():
    n = 8
    # place unit mass exactly in the ambiguous -N/2 bin
    spec = np.zeros(n, dtype=np.complex128)
    spec[n // 2] = 1.0
    grid = grid_from_spectrum(spec, 0.5)
    projected = riesz_project(grid)
    assert projected.aliasing_bound == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(projected.samples, 0.0, atol=1e-12)


def test_partial_grid_projection_drops_nyquist_on_filtered_axes_only():
    n = 8
    # unit mass in the bin (-N/2, 0): ambiguous on axis 1, nonnegative on axis 2
    spec = np.zeros((n, n), dtype=np.complex128)
    spec[n // 2, 0] = 1.0
    grid = grid_from_spectrum(spec, 0.5)
    dropped = partial_project(grid, [1])
    assert dropped.aliasing_bound == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(dropped.samples, 0.0, atol=1e-12)
    kept = partial_project(grid, [2])
    assert kept.aliasing_bound == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(kept.samples, grid.samples, atol=1e-12)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


@given(trig_polys(1, max_degree=4), trig_polys(1, max_degree=4))
def test_inner_products_agree(f, g):
    quad = grid_inner(sample(f, 16), sample(g, 16))
    exact = poly_inner(f, g)
    assert quad == pytest.approx(exact, abs=1e-9)


@given(nonzero_polys(1, max_degree=4))
def test_parseval_grid(f):
    grid = sample(f, 16)
    quad = math.sqrt(abs(grid_inner(grid, grid)))
    assert quad == pytest.approx(f.l2_norm(), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# binary dumps
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    for dim, n in ((1, 16), (2, 8)):
        grid = GridFunction(rng.standard_normal((n,) * dim) + 1j * rng.standard_normal((n,) * dim))
        path = tmp_path / f"g{dim}.rlgf"
        save_grid(grid, path)
        back = load_grid(path)
        assert back.dim == dim and back.n_per_axis == n and back.offset == grid.offset
        assert np.array_equal(back.samples, grid.samples)


def test_save_load_zero_offset(tmp_path):
    grid = GridFunction(np.arange(4, dtype=np.complex128), offset=0.0)
    path = tmp_path / "g.rlgf"
    save_grid(grid, path)
    assert load_grid(path).offset == 0.0


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rlgf"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError):
        load_grid(path)


@pytest.mark.parametrize("dim,half_cells", [(0, 1), (1, 3)])
def test_load_rejects_bad_header_fields(tmp_path, dim, half_cells):
    # a header save_grid never writes: dim 0, or an offset other than 0 or 1 half-cells
    path = tmp_path / "bad.rlgf"
    n = 4
    path.write_bytes(struct.pack("<4sIII", b"RLGF", dim, n, half_cells) + bytes(16 * n**dim))
    with pytest.raises(ValueError, match="dim must be >= 1|half-cells"):
        load_grid(path)


def test_load_rejects_truncated(tmp_path):
    grid = GridFunction(np.zeros(8, dtype=np.complex128))
    path = tmp_path / "short.rlgf"
    save_grid(grid, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        load_grid(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_load_rejects_non_finite_samples(tmp_path, bad):
    grid = GridFunction(np.array([1.0, bad, 2.0, 3.0], dtype=np.complex128))
    path = tmp_path / "bad.rlgf"
    save_grid(grid, path)
    with pytest.raises(ValueError, match="non-finite"):
        load_grid(path)


def test_sample_refuses_overflowing_l1_sum(recwarn):
    with pytest.raises(ValueError, match="l1 sum"):
        sample(TrigPoly(1, {(0,): 1.7e308, (1,): 1.7e308}), 4)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    big = sample(TrigPoly(1, {(0,): 1e308, (1,): 1e307j}), 4)  # l1 sum still finite
    assert np.isfinite(big.samples).all()
