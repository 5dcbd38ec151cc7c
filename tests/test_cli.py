import argparse
import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rieszlab import cli
from rieszlab.extremal import CapAttempt
from rieszlab.fourier import GridFunction, TrigPoly, load_grid, sample, save_grid
from rieszlab.homog2 import PerturbedFamily, ScanRow, projection_geometric_mean_closed, threshold_scan
from rieszlab.kernels import coefficient_check
from rieszlab.search import SearchResult, ViolationCertificate

PSI_L1 = TrigPoly(1, {(-1,): 1.0, (1,): 2.0, (3,): 1.0})


def poly_json(poly: TrigPoly) -> str:
    return json.dumps(poly.to_json_dict())


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_no_subcommand_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_figures_csv_deterministic(capsys):
    code1, out1, _ = run(capsys, ["figures", "--d", "1"])
    code2, out2, _ = run(capsys, ["figures", "--d", "1"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("q,upper,lower,upper_source,lower_source\n")
    assert "\ninf,4,4," in out1


def test_figures_json_maps_inf(capsys):
    code, out, _ = run(capsys, ["figures", "--d", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    last = doc["rows"][-1]
    assert last["q"] == "inf"  # encoded as every command encodes a non-finite float
    assert last["upper"] == pytest.approx(3.0)


def test_norm_stdin_csv(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(poly_json(PSI_L1)))
    code, out, _ = run(capsys, ["norm", "--p", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,norm"
    p, norm = lines[1].split(",")
    assert float(norm) == pytest.approx(math.sqrt(6.0), rel=1e-12)


@pytest.mark.parametrize(
    "doc",
    [
        '{"dim":1,"terms":[{"alpha":[1],"re":NaN,"im":0}]}',
        '{"dim":1,"terms":[{"alpha":[1],"re":1,"im":Infinity}]}',
        "[1,2]",
        '{"dim":1,"terms":5}',
        '{"dim":1,"terms":[[1]]}',
        '{"dim":1,"terms":[{"alpha":5,"re":1,"im":0}]}',
        '{"dim":null,"terms":[{"alpha":[1],"re":1,"im":0}]}',
        '{"dim":1,"terms":[{"alpha":[1],"re":null,"im":0}]}',
        '{"dim":1,"terms":[{"alpha":[1.5],"re":1,"im":0}]}',
    ],
)
def test_bad_poly_json_exit_code(capsys, monkeypatch, doc):
    for argv in (["norm", "--p", "2"], ["project"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_norm_json_handles_inf_strictly(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(poly_json(TrigPoly(1, {(3,): 1.0}))))
    code, out, _ = run(capsys, ["norm", "--p", "inf", "--format", "json"])
    assert code == 0
    doc = json.loads(out)  # must be strict JSON, no bare Infinity
    assert doc["p"] == "inf"
    assert float(doc["norm"]) == pytest.approx(1.0, rel=1e-12)


def test_norm_huge_coefficient_is_finite(capsys, monkeypatch, recwarn):
    monkeypatch.setattr("sys.stdin", io.StringIO(poly_json(TrigPoly(1, {(1,): 1e300}))))
    code, out, err = run(capsys, ["norm", "--p", "4"])
    assert code == 0 and err == ""
    assert float(out.split("\n")[1].split(",")[1]) == pytest.approx(1e300, rel=1e-14)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_norm_overflowing_samples_refused(capsys, monkeypatch, recwarn):
    # |c_0| + |c_1| overflows float64, so the samples at theta = 0 would too
    doc = poly_json(TrigPoly(1, {(0,): 1.7e308, (1,): 1.7e308}))
    for p in ("inf", "0"):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, ["norm", "--p", p])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("alpha", [10**23, 2**40], ids=["beyond-int64", "2**40"])
@pytest.mark.parametrize(
    "argv", [["norm", "--p", "2"], ["dual-extremal", "--in", "-", "--q", "2"]], ids=["norm", "dual-extremal"]
)
def test_oversized_frequency_refused_before_sampling(capsys, monkeypatch, argv, alpha):
    # the resolving grid would need 2 * (alpha + 1) points or more
    doc = json.dumps({"dim": 1, "terms": [{"alpha": [alpha], "re": 1, "im": 0}]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: a grid of ") and err.count("\n") == 1
    assert peak < 2**20


def test_norm_non_finite_grid_file_refused(capsys, tmp_path):
    src = tmp_path / "nan.rlgf"
    save_grid(GridFunction(np.array([1.0, np.nan, 2.0, 3.0], dtype=np.complex128)), str(src))
    for p in ("inf", "0"):
        code, out, err = run(capsys, ["norm", "--p", p, "--in", str(src)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_norm_grid_flag_refused_on_grid_file(capsys, tmp_path):
    src = tmp_path / "g.rlgf"
    save_grid(sample(TrigPoly(1, {(1,): 1.0}), 16), str(src))
    argv = ["norm", "--p", "2", "--in", str(src), "--format", "json"]
    code, out, err = run(capsys, [*argv, "--grid", "64"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "grid file keeps its own n_per_axis" in err
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["n_per_axis"] == 16


def test_norm_respects_grid_flag(capsys, monkeypatch):
    for flags, n in (([], 256), (["--grid", "64"], 64)):
        monkeypatch.setattr("sys.stdin", io.StringIO(poly_json(TrigPoly(1, {(1,): 1.0}))))
        code, out, _ = run(capsys, ["norm", "--p", "2", "--format", "json", *flags])
        assert code == 0 and json.loads(out)["n_per_axis"] == n


def test_project_poly_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(poly_json(PSI_L1)))
    code, out, _ = run(capsys, ["project"])
    assert code == 0
    proj = TrigPoly.from_json_dict(json.loads(out))
    assert set(proj.coeffs) == {(1,), (3,)}


@pytest.mark.parametrize("dim,half_cells", [(0, 1), (1, 3)])
def test_norm_refuses_bad_grid_header(capsys, tmp_path, dim, half_cells):
    # a header save_grid never writes: dim 0, or an offset of 3 half-cells
    src = tmp_path / "bad.rlgf"
    n = 4
    src.write_bytes(struct.pack("<4sIII", b"RLGF", dim, n, half_cells) + np.ones(n**dim, "<c16").tobytes())
    code, out, err = run(capsys, ["norm", "--p", "2", "--in", str(src)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_project_minus(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(poly_json(PSI_L1)))
    code, out, _ = run(capsys, ["project", "--minus"])
    assert code == 0
    proj = TrigPoly.from_json_dict(json.loads(out))
    assert set(proj.coeffs) == {(-1,)}


def test_project_minus_with_axes_refused(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(poly_json(TrigPoly(2, {(-1, 2): 1.0, (1, 2): 1.0}))))
    code, out, err = run(capsys, ["project", "--minus", "--axes", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_project_axes_2d(capsys, monkeypatch):
    poly = TrigPoly(2, {(-1, 2): 1.0, (1, -2): 1.0, (1, 2): 1.0})
    monkeypatch.setattr("sys.stdin", io.StringIO(poly_json(poly)))
    code, out, _ = run(capsys, ["project", "--axes", "1"])
    assert code == 0
    proj = TrigPoly.from_json_dict(json.loads(out))
    assert set(proj.coeffs) == {(1, -2), (1, 2)}


@pytest.mark.parametrize(
    "axes,message",
    [(",", "empty list: ','"), ("", "empty list: ''"), ("1.5", "invalid literal for int() with base 10: '1.5'")],
    ids=["comma", "empty", "non-integer"],
)
def test_project_axes_must_be_a_list_of_integers(capsys, monkeypatch, axes, message):
    # an empty list used to print psi unchanged (",") or run the full P+ ("")
    monkeypatch.setattr("sys.stdin", io.StringIO(poly_json(TrigPoly(2, {(-1, 2): 1.0, (1, 2): 1.0}))))
    assert run(capsys, ["project", f"--axes={axes}"]) == (2, "", f"error: {message}\n")


def test_project_grid_route(capsys, tmp_path):
    grid = sample(PSI_L1, 32)
    src = tmp_path / "in.rlgf"
    dst = tmp_path / "out.rlgf"
    save_grid(grid, str(src))
    code, _, _ = run(capsys, ["project", "--in", str(src), "--out", str(dst)])
    assert code == 0
    result = load_grid(str(dst))
    expected = sample(TrigPoly(1, {(1,): 2.0, (3,): 1.0}), 32)
    assert np.allclose(result.samples, expected.samples, atol=1e-12)


def test_project_grid_requires_out(capsys, tmp_path):
    src = tmp_path / "in.rlgf"
    save_grid(sample(PSI_L1, 32), str(src))
    code, _, err = run(capsys, ["project", "--in", str(src)])
    assert code == 2
    assert "--out" in err


def test_project_grid_axes_compose(capsys, tmp_path):
    # P+ = P_{z1} P_{z2} on T^2, for a grid dump as for a polynomial
    src = tmp_path / "in.rlgf"
    save_grid(sample(TrigPoly(2, {(-1, 2): 1.0, (1, -2): 2.0, (1, 2): 3j, (0, -1): 4.0}), 8), str(src))
    out = {name: tmp_path / f"{name}.rlgf" for name in ("full", "both", "first", "then")}
    steps = [
        ([], src, "full"),
        (["--axes", "1,2"], src, "both"),
        (["--axes", "1"], src, "first"),
        (["--axes", "2"], out["first"], "then"),
    ]
    for flags, infile, name in steps:
        assert run(capsys, ["project", *flags, "--in", str(infile), "--out", str(out[name])])[0] == 0
    assert out["both"].read_bytes() == out["full"].read_bytes()
    composed, full = load_grid(str(out["then"])), load_grid(str(out["full"]))
    assert np.max(np.abs(composed.samples - full.samples)) <= 1e-12


def test_project_grid_minus_with_axes_refused(capsys, tmp_path):
    src = tmp_path / "in.rlgf"
    save_grid(sample(PSI_L1, 32), str(src))
    code, out, err = run(capsys, ["project", "--in", str(src), "--minus", "--axes", "1", "--out", str(tmp_path / "o")])
    assert (code, out) == (2, "")
    assert err == "error: --minus and --axes do not combine: a partial projection keeps P+ on its axes\n"
    assert not (tmp_path / "o").exists()


def test_project_grid_reports_aliasing_bound(capsys, tmp_path):
    # e^{i pi k} on 8 points is all Nyquist bin, which a grid projection cannot label
    src, dst = tmp_path / "in.rlgf", tmp_path / "out.rlgf"
    save_grid(GridFunction(np.exp(1j * np.pi * np.arange(8)), offset=0.0), str(src))
    code, out, err = run(capsys, ["project", "--in", str(src), "--out", str(dst)])
    assert (code, out, err) == (0, "", "aliasing_bound 1.0\n")
    assert np.allclose(load_grid(str(dst)).samples, 0.0, atol=1e-15)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["d2-scan", "--q", ","], "empty list: ','"),
        (["rpk-check", "--q", "4", "--r="], "empty list: ''"),
        (["dirichlet", "--d", "1", "--radii="], "empty list: ''"),
        (["rpk-check", "--q", "4", "--r=-0.1"], "r = -0.1 must lie in [0, 1)"),
        (
            ["dual-extremal", "--kernel", "0.5", "--q", "2", "--degree", "40", "--grid", "64"],
            "grid too small for phi plus the truncated phi0",
        ),
        (["dual-extremal", "--kernel", "0.5", "--q", "2", "--trunc-degree", "0"], "trunc_degree must be >= 1"),
        (["d2-scan", "--q", "3", "--eps", "0.02,0.02"], "eps values must be distinct"),
    ],
    ids=[
        "d2-scan-empty-q",
        "rpk-check-empty-r",
        "dirichlet-empty-radii",
        "rpk-check-r-negative",
        "dual-grid-small",
        "dual-trunc-0",
        "d2-scan-repeated-eps",
    ],
)
def test_refused_input_exits_2_with_one_line(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_rpk_check_passes_at_critical_p(capsys):
    code, out, err = run(capsys, ["rpk-check", "--q", "4"])
    assert code == 0
    assert "passed" in err
    lines = out.strip().split("\n")
    assert lines[0] == "n,margin,factor_margin"
    assert len(lines) == 51
    # every margin nonnegative
    assert all(float(line.split(",")[1]) >= -1e-12 for line in lines[1:])


def test_rpk_check_reports_violation(capsys):
    code, _, err = run(capsys, ["rpk-check", "--q", "1.3333333333333333", "--p", "1.2"])
    assert code == 0  # reporting a violation is a successful run
    assert "violation at n=1" in err


@pytest.mark.parametrize("flags", [["--p", "inf"], ["--p", "1e5", "--n-max", "50"], ["--p", "1e200"]])
def test_rpk_check_non_finite_margins_exit_2(capsys, flags):
    # each p leaves a margin that is not finite in float64: nan at p = inf,
    # -inf from n = 45 at p = 1e5, and an overflowing square at p = 1e200
    code, out, err = run(capsys, ["rpk-check", "--q", "4", *flags])
    assert code == 2 and out == ""
    assert err.startswith("error: p = ") and err.count("\n") == 1


def test_rpk_check_quadrature_cross_check(capsys):
    code, out, _ = run(
        capsys, ["rpk-check", "--q", "4", "--r", "0.25", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    check = doc["quadrature_checks"][0]
    assert check["diff"] < 1e-9


def test_rpk_check_csv_keeps_quadrature_checks(capsys, tmp_path):
    # the CSV table holds only the margins; the checks go to the sidecar,
    # which is stderr (before the status line) when the table is stdout
    code, out, err = run(capsys, ["rpk-check", "--q", "4", "--r", "0.25"])
    assert code == 0 and out.startswith("n,margin,factor_margin\n")
    doc, end = json.JSONDecoder().raw_decode(err)
    assert err[end:] == "\nrpk-check q=4.0 p=3.0: passed\n"
    assert set(doc) == {"quadrature_checks"} and doc["quadrature_checks"][0]["diff"] < 1e-9
    code, _, err = run(capsys, ["rpk-check", "--q", "4", "--r", "0.25", "--out", str(tmp_path / "m.csv")])
    assert code == 0 and err == "rpk-check q=4.0 p=3.0: passed\n"
    assert json.loads((tmp_path / "m.csv.meta.json").read_text()) == doc


def test_rpk_check_nonconvergence_exit_code(capsys):
    # r this close to the boundary cannot converge in series.MAX_TERMS = 200 terms
    code, _, err = run(capsys, ["rpk-check", "--q", "4", "--r", "0.9995"])
    assert code == 3
    [line] = err.splitlines()
    assert line.startswith("nonconvergence: ") and "after 200 terms" in line


def test_rpk_check_converges_at_r_0_9(capsys):
    # p = 3 needs the Euler transform of 2F1(3/2, 3/2; 1; r) to converge in 200 terms
    code, out, _ = run(capsys, ["rpk-check", "--q", "4", "--r", "0.9", "--format", "json"])
    assert code == 0
    check = json.loads(out)["quadrature_checks"][0]
    assert check["diff"] <= 1e-10 * check["series"]


def run_fresh(argv):
    """The CLI in a fresh interpreter, so that a hang fails the test instead of blocking it."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "rieszlab", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=20,
    )


@pytest.mark.parametrize(
    "flags,word",
    [
        (["--resolution", "0"], "resolution"),
        (["--resolution", "-1"], "resolution"),
        (["--resolution", "nan"], "resolution"),
        (["--p-hi", "inf"], "p_hi"),
        (["--p-lo", "nan"], "p_lo"),
        (["--p-lo", "3", "--p-hi", "1"], "p_lo"),
        (["--p-lo", "-1e-3"], "p_lo"),
        (["--p-lo=-1e-3"], "p_lo"),
    ],
)
def test_d2_scan_bad_window_exits_2(flags, word):
    proc = run_fresh(["d2-scan", "--q", "2", *flags])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert word in proc.stderr


def test_d2_scan_resolution_below_float_spacing_returns():
    proc = run_fresh(["d2-scan", "--q", "3", "--eps", "0.1", "--resolution", "1e-300"])
    assert proc.returncode == 0
    assert float(proc.stdout.splitlines()[1].split(",")[2]) == pytest.approx(2.5, abs=0.01)


@pytest.mark.parametrize("r", ["-0.1", "1", "nan", "1.5"])
def test_rpk_check_r_outside_unit_interval_exits_2(r):
    proc = run_fresh(["rpk-check", "--q", "4", "--r", r])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: r = ") and proc.stderr.count("\n") == 1


def test_d2_scan_near_q_1_converges(capsys):
    # q* = 1001 puts x = b eps / a outside 4x^2 < 1/2, where hyp2f1 sums in Pfaff's variable
    code, out, _ = run(capsys, ["d2-scan", "--q", "1.001", "--eps", "0.249,0.24", "--format", "json"])
    assert code == 0
    scan = json.loads(out)["scans"][0]
    for row in scan["rows"]:
        closed = projection_geometric_mean_closed(PerturbedFamily(row["eps"], scan["q_star"]))
        assert row["gm_gap"] + row["psi_norm"] == pytest.approx(closed, rel=1e-12)


def test_dual_extremal_kernel(capsys):
    code, out, _ = run(
        capsys,
        ["dual-extremal", "--kernel", "0.5", "--q", "1.3333333333333333", "--degree", "40"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.75 ** (-0.25), abs=1e-4)
    assert abs(float(doc["duality_gap"])) < 1e-6
    assert doc["closed_form"] == pytest.approx(0.75 ** (-0.25), rel=1e-15)
    assert "closed_form_diff" not in doc  # value minus closed_form has no bound to check it against


def test_dual_extremal_degree_shapes_only_the_kernel(capsys, tmp_path):
    argv = ["dual-extremal", "--kernel", "0.5", "--q", "1.3333333333333333"]
    assert run(capsys, argv) == run(capsys, [*argv, "--degree", "40"])  # the default degree
    src = tmp_path / "phi.json"
    src.write_text(poly_json(TrigPoly(1, {(0,): 1.0, (1,): 0.5})))
    argv = ["dual-extremal", "--in", str(src), "--q", "1.5"]
    message = "error: --degree sets the --kernel truncation and does not apply to --in\n"
    assert run(capsys, [*argv, "--degree", "7"]) == (2, "", message)
    assert run(capsys, argv)[0] == 0


def test_dual_extremal_reports_every_cap(capsys):
    code, out, _ = run(capsys, ["dual-extremal", "--kernel", "0.95", "--q", "1.1", "--degree", "20"])
    assert code == 0
    doc = json.loads(out)
    assert [a["trunc_degree"] for a in doc["attempts"]] == [80, 160, 320]
    assert [a["certified"] for a in doc["attempts"]] == [False, False, True]
    assert set(doc["attempts"][0]) == {
        "trunc_degree",
        "n_per_axis",
        "iterations",
        "nfev",
        "stop",
        "duality_gap",
        "truncation_gap",
        "certified",
        "gap_checks",
        "best_gap",
        "best_gap_nfev",
    }
    last = doc["attempts"][-1]
    assert [last[k] for k in ("trunc_degree", "iterations", "duality_gap")] == [
        doc[k] for k in ("trunc_degree", "iterations", "duality_gap")
    ]


def test_dual_extremal_grid_bounds_the_caps(capsys):
    # a 4096-point grid resolves caps K with 4096 >= 2 (200 + K + 1): 800 and
    # 1600 of the escalation, not 3200, so the solve stops after 1600
    argv = ["dual-extremal", "--kernel", "0.99", "--q", "1.05", "--degree", "200", "--grid", "4096"]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("nonconvergence: ") and err.count("\n") == 1
    assert "K=800 gap " in err and "K=1600 gap " in err and "K=3200" not in err
    assert err.endswith("; the grid resolves no larger cap\n")


def test_dual_extremal_large_phi_says_tol_is_absolute(capsys, tmp_path):
    # above unit coefficient scale --tol stays absolute: 1e6 + 5e5 z at q = 64
    # stops near gap 1.4e-5, about 1e-11 of its value, and the message says so
    src = tmp_path / "phi.json"
    src.write_text(poly_json(TrigPoly(1, {(0,): 1e6, (1,): 5e5})))
    argv = ["dual-extremal", "--in", str(src), "--q", "64"]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("nonconvergence: duality gap above tol=1.0e-06") and err.count("\n") == 1
    assert "--tol stays absolute above unit coefficient scale, and s = max|phi_k| = 1e+06:" in err
    assert err.endswith("e-11 of the value\n")
    code, out, err = run(capsys, [*argv, "--tol", "1e-4"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["attempts"][-1]["certified"] and doc["duality_gap"] <= 1e-4


def test_dual_extremal_large_q_prints_no_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["dual-extremal", "--kernel", "0.8", "--q", "64", "--degree", "20"])
    assert (code, err) == (0, "")
    assert float(json.loads(out)["duality_gap"]) <= 1e-6


def test_dual_extremal_in_file_reports_no_closed_form(capsys, tmp_path):
    src = tmp_path / "phi.json"
    src.write_text(poly_json(TrigPoly(1, {(0,): 1.0, (1,): 0.5})))
    code, out, _ = run(capsys, ["dual-extremal", "--q", "2", "--in", str(src)])
    assert code == 0
    assert not {"closed_form", "closed_form_diff"} & set(json.loads(out))


@pytest.mark.parametrize(
    "flags,word",
    [
        (["--tol", "nan"], "tol"),
        (["--tol", "inf"], "tol"),
        (["--tol=-1e-6"], "tol"),
        (["--tol", "0"], "tol"),
        (["--max-iter", "0"], "max_iter"),
        (["--max-iter", "-3"], "max_iter"),
        (["--tol", "-1e-6"], "tol"),
    ],
)
def test_dual_extremal_bad_tol_or_max_iter_exits_2(flags, word):
    # --max-iter 1 keeps a run that is not refused short
    argv = ["dual-extremal", "--kernel", "0.5", "--q", "1.3333333333333333", "--max-iter", "1", *flags]
    proc = run_fresh(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert word in proc.stderr


def test_dual_extremal_input_validation(capsys, tmp_path):
    code, _, err = run(capsys, ["dual-extremal", "--q", "2"])
    assert code == 2 and "exactly one" in err
    src = tmp_path / "phi.json"
    src.write_text(poly_json(TrigPoly(1, {(0,): 1.0})))
    code, _, err = run(
        capsys, ["dual-extremal", "--q", "2", "--kernel", "0.5", "--in", str(src)]
    )
    assert code == 2


def test_d2_scan_csv_and_sidecar(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys,
        ["d2-scan", "--q", "3", "--eps", "0.08,0.04", "--out", str(out_path)],
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "q,eps,threshold_p,a,b,psi_norm,gm_gap"
    assert len(lines) == 3
    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert meta["eps"] == [0.08, 0.04]
    scan_meta = meta["scans"][0]
    assert scan_meta["q"] == 3.0
    assert scan_meta["extrapolated"] == pytest.approx(2.5, abs=0.01)


def test_d2_scan_csv_keeps_every_row_field(capsys):
    argv = ["d2-scan", "--q", "3,inf", "--eps", "0.08,0.04"]
    code, out, _ = run(capsys, [*argv, "--format", "json"])
    assert code == 0
    rows = [{"q": scan["q"], **row} for scan in json.loads(out)["scans"] for row in scan["rows"]]
    code, out, _ = run(capsys, argv)
    assert code == 0
    header, *lines = out.splitlines()
    assert header.split(",") == ["q", *(f.name for f in dataclasses.fields(ScanRow))]
    assert [line.split(",") for line in lines] == [[cli._cell(row[k]) for k in header.split(",")] for row in rows]


def test_d2_scan_states_run_parameters_once(capsys, tmp_path):
    argv = ["d2-scan", "--q", "3,inf", "--eps", "0.08,0.04"]
    code, out, _ = run(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert run(capsys, [*argv, "--out", str(tmp_path / "scan.csv")])[0] == 0
    sidecar = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    for doc, scan_keys in [
        (json.loads(out), {"q", "q_star", "rows", "extrapolated"}),
        (sidecar, {"q", "q_star", "extrapolated"}),
    ]:
        assert set(doc) == {"eps", "p_window", "resolution", "series", "scans"}
        assert doc["eps"] == [0.08, 0.04] and doc["p_window"] == [0.05, 4.5]
        assert doc["resolution"] == 1e-4 and doc["series"] == {"max_terms": 200, "rel_tol": 1e-16}
        assert [set(scan) for scan in doc["scans"]] == [scan_keys, scan_keys]
        assert doc["scans"][1]["q"] == "inf"


@pytest.mark.parametrize("q", ["1", "0.5"])
def test_d2_scan_rejects_q_at_most_one(capsys, q):
    code, out, err = run(capsys, ["d2-scan", "--q", q])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "q must" in err


def test_dirichlet_csv(capsys):
    code, out, _ = run(capsys, ["dirichlet", "--d", "2", "--p", "1", "--radii", "5,10"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,p,R,norm,lattice_count"
    counts = [int(line.split(",")[4]) for line in lines[1:]]
    assert counts == [81, 317]


def test_dirichlet_fit_computes_each_norm_once(capsys, monkeypatch):
    from rieszlab import dirichlet

    calls = []
    real = dirichlet.dirichlet_norm

    def counted(spec, p, n_per_axis=None):
        calls.append((spec.radius, p))
        return real(spec, p, n_per_axis)

    monkeypatch.setattr("rieszlab.dirichlet.dirichlet_norm", counted)
    code, out, _ = run(capsys, ["dirichlet", "--d", "2", "--p", "0.5,1", "--fit"])
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 8
    assert sorted(calls) == sorted((r, p) for p in (0.5, 1.0) for r in (5.0, 10.0, 20.0, 40.0))


def test_dirichlet_fit_prints_growth_fit_records(capsys, tmp_path):
    from rieszlab.dirichlet import GrowthFit

    argv = ["dirichlet", "--d", "2", "--p", "1", "--radii", "5,10,20,40", "--fit"]
    code, out, _ = run(capsys, [*argv, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"rows", "fits", "method", "note"}
    assert set(doc["fits"][0]) == {f.name for f in dataclasses.fields(GrowthFit)}
    assert out.count('"method"') == out.count('"note"') == 1
    code, out, err = run(capsys, [*argv, "--out", str(tmp_path / "d.csv")])
    assert code == 0 and out == err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.meta.json"]
    sidecar = json.loads((tmp_path / "d.csv.meta.json").read_text())
    assert sidecar == {k: doc[k] for k in ("fits", "method", "note")}


def test_dirichlet_fit_needs_enough_radii(capsys):
    code, _, err = run(
        capsys, ["dirichlet", "--d", "2", "--p", "1", "--radii", "5,10,20", "--fit"]
    )
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("radii", ["5,10,20", "5,10,10,20", "5,10,20,50"])
def test_dirichlet_fit_checks_radii_before_measuring(capsys, monkeypatch, radii):
    calls = []
    monkeypatch.setattr("rieszlab.dirichlet.dirichlet_norm", lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, ["dirichlet", "--d", "2", "--radii", radii, "--fit"])
    assert code == 2 and out == "" and err.startswith("error: ")
    assert calls == []



@pytest.mark.parametrize("p", ["0", "inf", "1,inf"])
def test_dirichlet_fit_refuses_p_0_and_inf_before_measuring(capsys, monkeypatch, p):
    # c_hat = exp(p * intercept) would print inf, or 1 whatever the norms
    calls = []
    monkeypatch.setattr("rieszlab.dirichlet.dirichlet_norm", lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, ["dirichlet", "--d", "2", "--p", p, "--fit", "--format", "json"])
    assert code == 2 and out == "" and err == "error: no growth fit at p = 0 or p = inf\n"
    assert calls == []


@pytest.mark.parametrize("p", ["1000", "1500", "5000"])
def test_dirichlet_fit_overflowing_c_hat_exits_2(capsys, p):
    code, out, err = run(capsys, ["dirichlet", "--d", "1", "--p", p, "--fit"])
    assert (code, out) == (2, "")
    assert err.startswith("error: c_hat = exp(") and err.count("\n") == 1
    assert err.endswith(f"is not finite in float64 at p = {float(p)}\n")


def test_dirichlet_p_0_and_inf_without_fit(capsys):
    code, out, _ = run(capsys, ["dirichlet", "--d", "2", "--p", "0,inf", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["p"] for row in rows] == [0.0] * 4 + ["inf"] * 4
    assert [row["norm"] for row in rows[4:]] == [row["lattice_count"] for row in rows[4:]]

def test_search_json_deterministic(capsys):
    argv = [
        "search", "--d", "1", "--q", "1.3333333333333333", "--p", "1.2",
        "--budget", "40", "--seed", "0",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["found"] is True
    assert doc["certificate"]["ratio"] > 1.0 + 1e-8


def test_search_reports_no_violation(capsys):
    code, out, _ = run(
        capsys, ["search", "--d", "1", "--q", "inf", "--p", "4", "--budget", "30", "--seed", "0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False and doc["certificate"] is None


def test_search_refuses_homog2_family_that_overflows(capsys, recwarn):
    # q = 1.0000001 gives q* = 1e7, and |f|^(q* - 2) overflows float64
    code, out, err = run(capsys, ["search", "--d", "2", "--q", "1.0000001", "--p", "3"])
    assert code == 2 and out == ""
    assert err == "error: N_q* f overflows float64 at q* = 1e+07\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_search_grid_is_a_floor_at_d2(capsys):
    # the homog2 family samples on resolving_grid(f, N), so --grid 4 runs and --grid 128 is the default
    argv = ["search", "--d", "2", "--q", "3", "--p", "2.6"]
    code, out, err = run(capsys, [*argv, "--grid", "4"])
    assert code == 0 and err == ""
    assert json.loads(out)["evaluations"] == 200
    assert run(capsys, [*argv, "--grid", "128"]) == run(capsys, argv)


def test_selftest_green(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# each subcommand accepts only the shared flags its handler reads
# ---------------------------------------------------------------------------

SHARED_FLAGS = ("--config", "--grid", "--tol", "--seed", "--budget", "--threads", "--out", "--format")

ACCEPTED = {
    "project": {"--out"},
    "norm": {"--grid", "--out", "--format"},
    "rpk-check": {"--out", "--format"},
    "dual-extremal": {"--grid", "--tol", "--out"},
    "d2-scan": {"--out", "--format"},
    "dirichlet": {"--grid", "--out", "--format"},
    "search": {"--grid", "--seed", "--budget", "--out"},
    "figures": {"--out", "--format"},
    "selftest": set(),
}

#: The required arguments of each subcommand, so that only the flag under
#: test can make argparse fail.
REQUIRED = {
    "project": [],
    "norm": ["--p", "2"],
    "rpk-check": ["--q", "4"],
    "dual-extremal": ["--q", "1.5", "--kernel", "0.5"],
    "d2-scan": ["--q", "3"],
    "dirichlet": ["--d", "1"],
    "search": ["--d", "1", "--q", "2", "--p", "2"],
    "figures": ["--d", "1"],
    "selftest": [],
}

UNREAD = [(cmd, flag) for cmd, flags in ACCEPTED.items() for flag in SHARED_FLAGS if flag not in flags]


def test_each_subcommand_accepts_only_the_shared_flags_it_reads():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {opt for action in sp._actions for opt in action.option_strings if opt in SHARED_FLAGS}
        for name, sp in sub.choices.items()
    }
    assert accepted == ACCEPTED
    assert sum(map(len, accepted.values())) == 20 and len(UNREAD) == 72 - 20
    for cmd, argv in REQUIRED.items():
        parser.parse_args([cmd, *argv])


@pytest.mark.parametrize("cmd,flag", UNREAD)
def test_unread_shared_flag_exits_2(capsys, cmd, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, *REQUIRED[cmd], flag, "json" if flag == "--format" else "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["dirichlet", "--d", "2", "--p", "inf", "--grid", "7"],
        ["dirichlet", "--d", "2", "--grid", "0"],
        ["dual-extremal", "--q", "1.5", "--kernel", "0.5", "--grid", "255"],
        ["norm", "--p", "2", "--grid", "63"],
        ["search", "--d", "3", "--q", "3", "--p", "2.6", "--grid", "0"],
    ],
)
def test_exact_grid_must_be_even(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "grid must be even and >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(capsys, threads):
    # search runs on one thread and has no --threads: any count is refused by the parser
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--d", "3", "--q", "3", "--p", "2.6", "--threads", threads])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: --threads {threads}\n" in captured.err


# ---------------------------------------------------------------------------
# the settings of the removed config file: a subcommand that never read one
# has no home for it, neither as a config-file key nor as a flag of its name
# ---------------------------------------------------------------------------

GRIDS = {"grid_1d", "grid_2d", "grid_3d"}

#: The config-file keys each subcommand read before flags became the only home.
CONFIG_READS = {
    "project": {"out"},
    "norm": GRIDS | {"offset", "out", "fmt"},
    "rpk-check": {"max_terms", "rel_tol", "out", "fmt"},
    "dual-extremal": {"out"},
    "d2-scan": {"max_terms", "rel_tol", "out", "fmt"},
    "dirichlet": {"out", "fmt"},
    "search": GRIDS | {"offset", "seed", "budget", "max_degree", "out"},
    "figures": {"out", "fmt"},
    "selftest": set(),
}

#: A valid value for every former config-file key.
CONFIG_VALUES = {
    "grid_1d": "64",
    "grid_2d": "32",
    "grid_3d": "32",
    "offset": "0.25",
    "max_terms": "300",
    "rel_tol": "1e-15",
    "seed": "5",
    "budget": "10",
    "max_degree": "4",
    "threads": "4",
    "out": "unused.txt",
    "fmt": "json",
}

UNREAD_KEYS = [(cmd, key) for cmd, keys in CONFIG_READS.items() for key in CONFIG_VALUES if key not in keys]


@pytest.mark.parametrize("cmd,key", [(c, k) for c, k in UNREAD_KEYS if c != "selftest"])
def test_unread_config_key_exits_2(capsys, tmp_path, cmd, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {CONFIG_VALUES[key]}\n")
    flag = "--" + key.replace("_", "-")
    for extra in (["--config", str(cfgfile)], [flag, CONFIG_VALUES[key]]):
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, *REQUIRED[cmd], *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {extra[0]}" in captured.err


def test_dual_extremal_tol_defaults(monkeypatch, capsys):
    seen = {}

    def fake_solve(phi, **kwargs):
        seen.update(kwargs)
        raise ValueError("stop")

    monkeypatch.setattr("rieszlab.extremal.dual_extremal_solve", fake_solve)
    argv = ["dual-extremal", "--q", "1.5", "--kernel", "0.5"]
    assert run(capsys, argv)[0] == 2 and seen["tol"] == 1e-6
    assert run(capsys, [*argv, "--tol", "1e-9"])[0] == 2 and seen["tol"] == 1e-9


CERT = ViolationCertificate(1, 1.5, 1.2, TrigPoly.monomial((1,)), 1.01, 0, 256, 0.5, "kernel")


@pytest.mark.parametrize(
    "make,extra,values",
    [
        (lambda: coefficient_check(q=3.0, p=1.0, n_max=3), set(), {}),
        (lambda: threshold_scan(2.0, eps_list=(0.08,)), set(), {}),
        (lambda: threshold_scan(2.0, eps_list=(0.08,)).rows[0], set(), {}),
        (lambda: CERT, set(), {}),
        (lambda: CapAttempt(8, 256, 3, 4, "line_search", 1e-9, None, True, 0, 1e-9, 4), set(), {}),
        (lambda: SearchResult(CERT, 1.01, "kernel", 7, 1, 1.5, 1.2, 0), {"found", "method"}, {"found": True}),
        (lambda: threshold_scan(math.inf, eps_list=(0.08,)), set(), {"q": "inf"}),
    ],
    ids=["CoefficientReport", "ThresholdScan", "ScanRow", "ViolationCertificate", "CapAttempt",
         "SearchResult", "ThresholdScan-q-inf"],
)
def test_json_keys_are_the_record_fields(make, extra, values):
    # a record prints as its fields (plus what its to_json_dict adds), and a
    # non-finite float inside it as a string
    rec = make()
    names = set(rec._fields) if hasattr(rec, "_fields") else {f.name for f in dataclasses.fields(rec)}
    doc = json.loads(cli._json_text(rec))
    assert set(doc) == names | extra
    assert {k: doc[k] for k in values} == values
