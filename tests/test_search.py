import json
import math

import numpy as np
import pytest
from conftest import nonzero_polys
from hypothesis import given
from hypothesis import strategies as st

from rieszlab import search
from rieszlab.cli import _json_text
from rieszlab.fourier import DEFAULT_GRID, TrigPoly, resolving_grid, riesz_project, sample
from rieszlab.norms import lp_norm
from rieszlab.search import (
    BOUND_MARGIN,
    RATIO_MARGIN,
    ViolationCertificate,
    _ascend,
    _random_poly,
    _ratio_bound,
    projection_ratio,
    violation_search,
)


def test_projection_ratio_oracle():
    # psi = conj(z) + z: projection is z, so the ratio is ||z||_p / ||psi||_q
    psi = TrigPoly(1, {(-1,): 1.0, (1,): 1.0})
    # ||psi||_2 = sqrt(2), ||z||_p = 1 for every p
    got = projection_ratio(psi, 4.0, 2.0, 128)
    assert got == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("dim,degree", [(1, 5), (2, 3), (3, 2)])
def test_random_poly_is_the_checked_construction(dim, degree):
    # built without TrigPoly's checks, it is in the form they would give
    poly = _random_poly(np.random.default_rng(dim), dim, degree)
    assert poly == TrigPoly(dim, dict(poly.coeffs))
    assert len(poly.coeffs) == (2 * degree + 1) ** dim
    assert {type(a) for alpha in poly.coeffs for a in alpha} == {int}
    assert {type(c) for c in poly.coeffs.values()} == {complex}


def test_projection_ratio_analytic_input_q2_p2():
    psi = TrigPoly(1, {(0,): 1.0, (1,): 0.5, (2,): 0.25})
    assert projection_ratio(psi, 2.0, 2.0, 64) == pytest.approx(1.0, rel=1e-12)


def test_projection_ratio_zero_denominator():
    with pytest.raises(ValueError):
        projection_ratio(TrigPoly(1, {}), 2.0, 2.0, 32)


@given(
    st.integers(1, 3).flatmap(lambda dim: nonzero_polys(dim, max_degree=3, max_terms=5)),
    st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]), st.floats(0.0, 4.0)),
    st.one_of(st.sampled_from([2.0, 3.0, math.inf]), st.floats(2.0, 64.0)),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([2, 16]),
)
def test_ratio_bound_bounds_the_projection_ratio(psi, p, q, offset, floor):
    # sparse supports, so P+ psi often vanishes at grid points and sometimes identically
    bound = _ratio_bound(psi, p, q)
    ratio = projection_ratio(psi, p, q, resolving_grid(psi, floor), offset)
    assert ratio <= bound * (1.0 + 1e-12)
    if p in (2.0, 4.0) and q == 2.0:  # both grid norms are the exact ones: the bound is attained
        assert ratio == pytest.approx(bound, rel=1e-12)
    projected = riesz_project(psi)
    if projected.coeffs:  # never looser than ||P+ psi||_4 / ||psi||_2
        l4_bound = lp_norm(sample(projected, resolving_grid(projected, 2)), 4.0) / psi.l2_norm()
        assert bound <= l4_bound * (1.0 + 1e-12)


def test_ratio_bound_at_p_up_to_2_samples_no_grid(monkeypatch):
    def no_sample(*args):
        raise AssertionError("sampled a grid")

    monkeypatch.setattr(search, "sample", no_sample)
    psi = TrigPoly(3, {(1, 0, 2): 1.0, (0, 0, 0): -0.5j, (-1, 2, 0): 2.0, (2, 1, 1): 0.25})
    for p in (0.0, 1.2, 2.0):
        assert _ratio_bound(psi, p, 3.0) == pytest.approx(math.hypot(1.0, 0.5, 0.25) / psi.l2_norm(), rel=1e-15)


def test_ratio_bound_outside_its_range():
    psi = TrigPoly(2, {(1, 0): 1.0, (-1, 2): 0.5j})
    for p, q in [(4.5, 3.0), (math.inf, 3.0), (2.6, 1.99), (1.2, 4.0 / 3.0), (math.inf, 1.0)]:
        assert _ratio_bound(psi, p, q) == math.inf
    # P+ psi = 0: the bound is the ratio itself
    assert _ratio_bound(TrigPoly(2, {(-1, 0): 1.0, (1, -2): 0.5j}), 2.6, 3.0) == 0.0
    for p, q in [(2.6, 3.0), (4.5, 3.0)]:
        with pytest.raises(ValueError, match="psi vanishes identically"):
            _ratio_bound(TrigPoly(2, {}), p, q)


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 11])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pruned_scan_matches_the_exhaustive_one(monkeypatch, dim, seed, runs):
    # at d = 2 and 3 the winner has the largest bound; at d = 1 it ranks 5th to 10th.
    # A second run in the same process repeats the first: the scan keeps no state.
    calls = []
    real = search.projection_ratio
    monkeypatch.setattr(search, "projection_ratio", lambda *args: calls.append(args) or real(*args))
    pruned = [violation_search(dim, 3.0, 2.6, budget=60, seed=seed) for _ in range(runs)]
    pruned_calls = len(calls)
    monkeypatch.setattr(search, "_ratio_bound", lambda psi, p, q: math.inf)
    assert pruned == [violation_search(dim, 3.0, 2.6, budget=60, seed=seed)] * runs
    assert pruned_calls < runs * (len(calls) - pruned_calls)  # the bound did skip candidates


@pytest.mark.parametrize("seed", [0, 1, 11])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scan_scores_the_bound_order_up_to_the_first_losing_bound(monkeypatch, dim, seed):
    # the scored candidates are a prefix of the descending-bound order (ties by
    # index), ending before the first bound that, widened, is below the best ratio
    bounded, scored = [], []
    real_bound, real_ratio = search._ratio_bound, search.projection_ratio

    def bound(psi, p, q):
        bounded.append((psi, real_bound(psi, p, q)))
        return bounded[-1][1]

    monkeypatch.setattr(search, "_ratio_bound", bound)
    monkeypatch.setattr(search, "projection_ratio", lambda *args: scored.append(args) or real_ratio(*args))
    violation_search(dim, 3.0, 2.6, budget=60, seed=seed)

    floor = DEFAULT_GRID[dim]
    prefix, best = [], 0.0
    for i in sorted(range(len(bounded)), key=lambda i: (-bounded[i][1], i)):
        psi, b = bounded[i]
        if b * (1.0 + BOUND_MARGIN) < best:
            break
        prefix.append(i)
        best = max(best, real_ratio(psi, 2.6, 3.0, resolving_grid(psi, floor), 0.5))
    # the ascent re-scores a new polynomial and the re-check a doubled grid, so
    # a call on a candidate at its scan grid comes from the scan
    index = {id(psi): i for i, (psi, _) in enumerate(bounded)}
    scan = [index[id(args[0])] for args in scored if id(args[0]) in index and args[3] == resolving_grid(args[0], floor)]
    assert scan == prefix


def reference_ascend(psi, p, q, n_per_axis, offset, steps, undos=None):
    """The ascent scored from scratch: every trial re-samples psi and P+ psi.

    ``undos``, if given, gets one entry per trial that undoes the move
    just accepted: whether that trial was accepted too.
    """
    best = psi
    best_ratio = projection_ratio(psi, p, q, n_per_axis, offset)
    evals = 1
    step = 0.1
    keys = sorted(best.coeffs.keys())
    while evals < steps and step > 1e-4:
        improved = False
        for alpha in keys:
            base = best.coeffs.get(alpha, 0.0 + 0.0j)
            scale = max(abs(base), 0.1)
            undo = None
            for delta in (step * scale, -step * scale, 1j * step * scale, -1j * step * scale):
                if evals >= steps:
                    break
                trial_coeffs = dict(best.coeffs)
                trial_coeffs[alpha] = base + delta
                trial = TrigPoly(best.dim, trial_coeffs)
                if not trial.coeffs:
                    continue
                ratio = projection_ratio(trial, p, q, n_per_axis, offset)
                evals += 1
                accepted = ratio > best_ratio * (1.0 + 1e-12)
                if undos is not None and delta == undo:
                    undos.append(accepted)
                if accepted:
                    best, best_ratio = trial, ratio
                    base = trial.coeffs.get(alpha, 0.0 + 0.0j)
                    undo = -delta
                    improved = True
        if not improved:
            step *= 0.5
    return best, best_ratio, evals


@pytest.mark.parametrize(
    "dim,q,p,n,offset,steps",
    [
        (1, 4.0 / 3.0, 1.2, 32, 0.5, 120),
        (1, math.inf, 4.0, 32, 0.0, 80),
        (1, 3.0, 0.0, 32, 0.5, 80),
        (2, 3.0, 2.6, 16, 0.5, 80),
        (2, 4.0 / 3.0, math.inf, 16, 0.25, 60),
        (3, 3.0, 2.6, 10, 0.5, 60),
    ],
)
def test_incremental_ascent_matches_reference(dim, q, p, n, offset, steps):
    rng = np.random.default_rng(dim + steps)
    for _ in range(2):
        psi = _random_poly(rng, dim, int(rng.integers(1, 8 // dim + 1)))
        got = _ascend(psi, p, q, n, offset, steps)
        want = reference_ascend(psi, p, q, n, offset, steps)
        assert got[0].coeffs == want[0].coeffs
        assert got[0].coeffs != psi.coeffs  # the ascent moved
        assert abs(got[1] - want[1]) <= 1e-12
        assert got[2] == want[2]


@pytest.mark.parametrize(
    "dim,q,p,n,steps",
    [
        (3, 3.0, 2.6, 64, 60),  # the search-grid shape
        (1, 3.0, 0.0, 32, 80),
        (2, 3.0, 0.0, 16, 80),
    ],
)
def test_ascent_skips_exactly_the_undo_trials(monkeypatch, dim, q, p, n, steps):
    psi = _random_poly(np.random.default_rng(dim), dim, 1 if dim == 3 else 2)
    undos = []
    want = reference_ascend(psi, p, q, n, 0.5, steps, undos)
    assert undos and not any(undos)  # undo trials occur, and scored from scratch each one loses
    denominators = []
    real = search.lp_norm

    def counting_lp_norm(g, e):
        if e == q:
            denominators.append(g)
        return real(g, e)

    monkeypatch.setattr(search, "lp_norm", counting_lp_norm)
    got = _ascend(psi, p, q, n, 0.5, steps)
    assert got[0].coeffs == want[0].coeffs != psi.coeffs
    assert got[2] == want[2]  # every trial counts, scored or skipped
    # the start and every trial but the undo ones; the caller recomputes from scratch
    assert len(denominators) == 1 + (want[2] - 1 - len(undos))


def spy_ascent_grids(monkeypatch):
    """Record (psi, grid) for every call of ``_ascend`` the search makes."""
    grids = []
    real = search._ascend
    monkeypatch.setattr(search, "_ascend", lambda psi, p, q, n, *rest: grids.append((psi, n)) or real(psi, p, q, n, *rest))
    return grids


@pytest.mark.parametrize("dim,q,p", [(3, 3.0, 0.0), (3, 3.0, 0.5), (2, 3.0, math.inf), (3, math.inf, 2.6)])
def test_ascent_scores_on_the_floor_where_the_norms_are_not_smooth(monkeypatch, dim, q, p):
    # |psi|^p is singular at psi's zeros when p < 1, and a sup norm is a grid maximum
    grids = spy_ascent_grids(monkeypatch)
    violation_search(dim, q, p, budget=60, seed=0)
    [(psi, n)] = grids
    assert n == resolving_grid(psi, DEFAULT_GRID[dim]) > search.ASCENT_OVERSAMPLE * 2 * (psi.bandwidth() + 1)


@pytest.mark.parametrize("dim,q,p", [(3, 3.0, 2.6), (3, 1.5, 1.0), (3, 4.0, 3.0), (2, 4.0 / 3.0, 1.2)])
def test_ascent_scores_on_the_oversampled_resolving_grid(monkeypatch, dim, q, p):
    grids = spy_ascent_grids(monkeypatch)
    violation_search(dim, q, p, budget=60, seed=0)
    [(psi, n)] = grids
    assert n == search.ASCENT_OVERSAMPLE * 2 * (psi.bandwidth() + 1) < DEFAULT_GRID[dim]


def test_ascent_grid_never_exceeds_the_floor(monkeypatch):
    grids = spy_ascent_grids(monkeypatch)
    violation_search(3, 3.0, 2.6, budget=60, seed=0, n_per_axis=8)
    [(psi, n)] = grids
    assert n == resolving_grid(psi, 8) == 8


@pytest.mark.parametrize("q,p", [(3.0, 2.6), (1.5, 1.05), (4.0, 3.0)])
def test_oversampled_ascent_matches_the_floor_ascent_at_d3(monkeypatch, q, p):
    coarse = [violation_search(3, q, p, budget=120, seed=seed) for seed in range(5)]
    monkeypatch.setattr(search, "ASCENT_OVERSAMPLE", 10**6)  # min() now picks the floor grid
    assert coarse == [violation_search(3, q, p, budget=120, seed=seed) for seed in range(5)]


def test_incremental_ascent_without_analytic_part():
    # P+ psi = 0 and no trial can change that: the ratio stays exactly 0
    psi = TrigPoly(2, {(-1, 0): 1.0, (1, -2): 0.5j})
    got, ratio, evals = _ascend(psi, 2.0, 2.0, 8, 0.5, 30)
    assert ratio == 0.0 and evals == 30
    assert got.coeffs == psi.coeffs


def test_search_finds_violation_d1():
    # q = 4/3, p = 1.2 > 4 - q* = 0: the kernel family violates comfortably
    result = violation_search(1, 4.0 / 3.0, 1.2, budget=60, seed=0)
    assert result.certificate is not None
    cert = result.certificate
    assert cert.ratio > 1.0 + RATIO_MARGIN
    # certificate survives independent re-verification at twice the grid
    assert cert.recompute_ratio(2) > 1.0 + RATIO_MARGIN


def test_search_no_violation_at_sharp_pair():
    # q = inf, p = 4 is exactly the boundary: nothing should clear 1
    result = violation_search(1, math.inf, 4.0, budget=60, seed=0)
    assert result.certificate is None
    assert result.best_ratio <= 1.0 + RATIO_MARGIN
    # the kernel family pushes the ratio up toward 1 from below
    assert result.best_ratio > 0.97


def test_search_finds_violation_d2():
    # d = 2, q = 4/3 (q* = 4), p = 0.5 > 4 - q* = 0
    result = violation_search(2, 4.0 / 3.0, 0.5, budget=60, seed=7)
    assert result.certificate is not None
    assert result.certificate.dim == 2
    assert result.certificate.recompute_ratio(2) > 1.0 + RATIO_MARGIN


def test_search_deterministic():
    a = violation_search(1, 4.0 / 3.0, 1.2, budget=40, seed=11)
    b = violation_search(1, 4.0 / 3.0, 1.2, budget=40, seed=11)
    assert _json_text(a) == _json_text(b)


def test_search_seed_changes_trajectory():
    a = violation_search(1, math.inf, 4.0, budget=30, seed=1)
    b = violation_search(1, math.inf, 4.0, budget=30, seed=2)
    # same conclusion, but the random-polynomial evaluations differ
    assert a.certificate is None and b.certificate is None


@pytest.mark.parametrize(
    "q,p",
    [
        (2.0, 2.0),  # Parseval-sharp pair
        (4.0 / 3.0, 1.0),  # endpoint pair
        (math.inf, 4.0),  # kernel-sharp pair
    ],
)
def test_never_emit_certificate_in_proved_regions(q, p):
    for seed in (0, 3):
        result = violation_search(1, q, p, budget=30, seed=seed)
        assert result.certificate is None
        assert result.best_ratio <= 1.0 + RATIO_MARGIN


def test_q2_p2_ratio_exactly_one_for_analytic():
    result = violation_search(1, 2.0, 2.0, budget=30, seed=0)
    # analytic candidates are fixed by the projection: ratio == 1 exactly
    assert result.best_ratio <= 1.0 + 1e-12


def test_certificate_json_round_trip():
    result = violation_search(1, 4.0 / 3.0, 1.2, budget=40, seed=0)
    cert = result.certificate
    assert cert is not None
    back = ViolationCertificate.from_json_dict(json.loads(_json_text(cert)))
    assert back == cert
    assert back.recompute_ratio() == pytest.approx(cert.recompute_ratio(), rel=1e-12)


def test_search_result_json_shape():
    result = violation_search(1, math.inf, 4.0, budget=20, seed=0)
    doc = json.loads(_json_text(result))
    assert doc["found"] is False
    assert doc["certificate"] is None
    assert 0 < doc["evaluations"] <= 40  # budget caps, never pads
    assert set(doc) >= {"found", "best_ratio", "best_family", "evaluations", "q", "p", "seed"}


def test_search_validation():
    with pytest.raises(ValueError):
        violation_search(4, 2.0, 2.0, budget=10)
    with pytest.raises(ValueError):
        violation_search(1, 0.5, 2.0, budget=10)
    with pytest.raises(ValueError):
        violation_search(1, 2.0, -1.0, budget=10)


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_must_be_positive(budget):
    with pytest.raises(ValueError, match="budget must be >= 1"):
        violation_search(1, 2.0, 2.0, budget=budget)


def test_search_grid_floor():
    base = violation_search(1, 4.0 / 3.0, 1.2, budget=40, seed=0)
    cert = violation_search(1, 4.0 / 3.0, 1.2, budget=40, seed=0, n_per_axis=512).certificate
    assert cert.n_per_axis >= 512 and base.certificate.n_per_axis < 512
