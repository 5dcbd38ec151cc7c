"""Command-line front end.

Subcommands: project, norm, rpk-check, dual-extremal, d2-scan,
dirichlet, search, figures, selftest.

Exit codes: 0 success, 2 validation/usage error, 3 a series or solver
failed to converge.  Flags are the only home for a setting, and each
subcommand accepts only the shared flags its handler reads.  ``--grid``
is a floor rounded up by ``resolving_grid`` for norm and search, the
exact size for dirichlet and dual-extremal.

Polynomials travel as JSON ({"dim": d, "terms": [{"alpha": [...],
"re": x, "im": y}, ...]}); grid samples as the RLGF binary dump.
Tabular results are CSV by default, ``--format json`` switches to a
single JSON document.  Fixed seed means byte-identical output.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import re
import sys

from . import __version__
from .exponents import conjugate


def _lazy(name: str):
    """The submodule ``rieszlab.<name>``, registered in ``sys.modules`` and
    bound on the package as an import binds it, but executed only on its
    first attribute use (``importlib.util.LazyLoader``), so a command runs
    only the layers it calls."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


dirichlet, extremal, figures, fourier, homog2, kernels, norms, search, selftest, series = map(
    _lazy, "dirichlet extremal figures fourier homog2 kernels norms search selftest series".split()
)


def _list(text: str, kind: type) -> list:
    """The comma-separated values of ``text`` as ``kind``; empty is refused."""
    vals = [kind(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError(f"empty list: {text!r}")
    return vals


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_data(doc):
    """The JSON data of a result: a dataclass or named tuple becomes the
    dict of its fields, unless it defines ``to_json_dict`` because its
    printed form is not its fields; a tuple becomes a list, and a
    non-finite float (invalid in strict JSON) its repr."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else repr(doc)  # 'inf', '-inf', 'nan'
    if isinstance(doc, dict):
        return {k: _json_data(v) for k, v in doc.items()}
    if isinstance(doc, list) or type(doc) is tuple:
        return [_json_data(v) for v in doc]
    if isinstance(doc, (int, str)) or doc is None:
        return doc
    if hasattr(doc, "to_json_dict"):
        return _json_data(doc.to_json_dict())
    return _json_data(doc._asdict() if hasattr(doc, "_asdict") else vars(doc))


def _json_text(doc) -> str:
    return json.dumps(_json_data(doc), indent=2, sort_keys=True) + "\n"


def _write_sidecar(doc, out: str | None) -> None:
    """Write what a CSV table cannot hold as JSON to ``OUT.meta.json``, or
    to stderr when the table goes to stdout."""
    if out:
        _write_text(_json_text(doc), out + ".meta.json")
    else:
        print(_json_text(doc), end="", file=sys.stderr)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


def _emit(fmt: str, out: str | None, doc, rows: list[dict], sidecar=None) -> None:
    """Write ``doc`` as JSON, or the CSV table of ``rows`` (at least one;
    the header is the first row's keys, then one line of cells per row),
    followed by ``sidecar`` when there is one."""
    if fmt == "json":
        _write_text(_json_text(doc), out)
        return
    lines = [",".join(_cell(v) for v in row.values()) for row in rows]
    _write_text("\n".join([",".join(rows[0]), *lines]) + "\n", out)
    if sidecar:
        _write_sidecar(sidecar, out)


def _is_grid_file(path: str) -> bool:
    if path == "-":
        return False
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == fourier.GRID_MAGIC
    except OSError:
        return False


def _load_poly(path: str) -> fourier.TrigPoly:
    return fourier.TrigPoly.from_json_dict(json.loads(_read_text(path)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_project(args) -> int:
    if args.axes is not None and args.minus:
        raise ValueError("--minus and --axes do not combine: a partial projection keeps P+ on its axes")
    x = fourier.load_grid(args.infile) if _is_grid_file(args.infile) else _load_poly(args.infile)
    if args.axes is not None:
        proj = fourier.partial_project(x, _list(args.axes, int))
    elif args.minus:
        proj = fourier.riesz_project_minus(x)
    else:
        proj = fourier.riesz_project(x)
    if isinstance(proj, fourier.TrigPoly):
        _write_text(_json_text(proj), args.out)
        return 0
    if not args.out:
        raise ValueError("grid input requires --out for the binary result")
    fourier.save_grid(proj, args.out)
    if proj.aliasing_bound:
        print(f"aliasing_bound {proj.aliasing_bound!r}", file=sys.stderr)
    return 0


def cmd_norm(args) -> int:
    p = float(args.p)
    if _is_grid_file(args.infile):
        if args.grid is not None:
            raise ValueError("a grid file keeps its own n_per_axis; --grid applies to polynomial input")
        grid = fourier.load_grid(args.infile)
    else:
        poly = _load_poly(args.infile)
        grid = fourier.sample(poly, fourier.resolving_grid(poly, args.grid))
    value = norms.lp_norm(grid, p)
    row = {"p": p, "norm": value}
    _emit(args.fmt, args.out, {**row, "n_per_axis": grid.n_per_axis}, [row])
    return 0


def cmd_rpk_check(args) -> int:
    q = float(args.q)
    p = float(args.p) if args.p is not None else 4.0 / conjugate(q)
    report = kernels.coefficient_check(q=q, p=p, n_max=args.n_max)
    checks = []
    for r in _list(args.r, float) if args.r is not None else []:
        if not 0.0 <= r < 1.0:
            raise ValueError(f"r = {r} must lie in [0, 1)")
        w = math.sqrt(r)
        value = kernels.szego_norm(w, p)
        grid = kernels.point_extremal_function(w, 2.0, n_per_axis=4096)  # the Szego kernel k_w
        quad = norms.lp_norm(grid, p)
        checks.append({"r": r, "series": value, "quadrature": quad, "diff": abs(value - quad)})
    doc = {"quadrature_checks": checks} if args.r else {}
    rows = [
        {"n": n + 1, "margin": m, "factor_margin": fm}
        for n, (m, fm) in enumerate(zip(report.margins, report.factor_margins))
    ]
    _emit(args.fmt, args.out, {**vars(report), **doc}, rows, doc)
    status = "passed" if report.passed else f"violation at n={report.first_violation}"
    print(f"rpk-check q={q} p={p}: {status}", file=sys.stderr)
    return 0


def cmd_dual_extremal(args) -> int:
    if (args.kernel is None) == (args.infile is None):
        raise ValueError("give exactly one of --kernel W or --in FILE")
    if args.kernel is not None:
        degree = 40 if args.degree is None else args.degree
        phi = kernels.truncated_szego_poly(complex(args.kernel), degree)
    elif args.degree is not None:
        raise ValueError("--degree sets the --kernel truncation and does not apply to --in")
    else:
        phi = _load_poly(args.infile)
    triple = extremal.dual_extremal_solve(
        phi,
        q=float(args.q),
        trunc_degree=args.trunc_degree,
        tol=args.tol,
        n_per_axis=args.n_per_axis,
        max_iter=args.max_iter,
    )
    doc = triple.to_json_dict()
    if args.kernel is not None:
        # reported, not checked: the norm for the untruncated kernel
        doc.update(closed_form=kernels.extremal_kernel_norm(complex(args.kernel), triple.q))
    _write_text(_json_text(doc), args.out)
    return 0


def cmd_d2_scan(args) -> int:
    qs = _list(args.q, float)
    eps_list = tuple(_list(args.eps, float))
    run = {
        "eps": list(eps_list),
        "p_window": [args.p_lo, args.p_hi],
        "resolution": args.resolution,
        "series": {"max_terms": series.MAX_TERMS, "rel_tol": series.REL_TOL},
    }
    scans = [
        homog2.threshold_scan(
            q,
            eps_list=eps_list,
            p_lo=args.p_lo,
            p_hi=args.p_hi,
            resolution=args.resolution,
        )
        for q in qs
    ]
    rows = [{"q": scan.q, **vars(row)} for scan in scans for row in scan.rows]
    summaries = [{k: v for k, v in vars(s).items() if k != "rows"} for s in scans]
    _emit(args.fmt, args.out, {**run, "scans": scans}, rows, {**run, "scans": summaries})
    return 0


#: How ``dirichlet --fit`` reads a growth exponent, the same for every fit.
_FIT_METHOD = {"method": "log-log least squares, smallest radius dropped",
               "note": "empirical rate only; absolute constants are not certified"}


def cmd_dirichlet(args) -> int:
    dim = args.d
    ps = _list(args.p, float)
    radii = _list(args.radii, float) if args.radii is not None else _default_radii(dim)
    if args.fit:
        radii = dirichlet.fit_radii(radii, ps)
    specs = [dirichlet.DirichletSpec(radius=radius, dim=dim) for radius in radii]
    rows, fits = [], []
    for p in ps:
        values = [dirichlet.dirichlet_norm(spec, p, n_per_axis=args.n_per_axis) for spec in specs]
        rows += (
            {"d": dim, "p": p, "R": radius, "norm": norm, "lattice_count": dirichlet.lattice_count(radius, dim)}
            for radius, norm in zip(radii, values)
        )
        if args.fit:
            fits.append(dirichlet.growth_fit(dim, p, radii, values))
    fit_doc = {"fits": fits, **_FIT_METHOD} if fits else {}
    _emit(args.fmt, args.out, {"rows": rows, **fit_doc}, rows, fit_doc)
    return 0


def _default_radii(dim: int) -> list[float]:
    return [3.0, 6.0, 9.0, 12.0] if dim == 3 else [5.0, 10.0, 20.0, 40.0]


def cmd_search(args) -> int:
    result = search.violation_search(
        args.d,
        q=float(args.q),
        p=float(args.p),
        budget=args.budget,
        seed=args.seed,
        n_per_axis=args.grid,
    )
    _write_text(_json_text(result), args.out)
    return 0


def cmd_figures(args) -> int:
    table = figures.figure_tables(args.d)
    # the pinned figure CSVs print each float in 12 significant digits
    rows = [
        {k: format(v, ".12g") if isinstance(v, float) else v for k, v in vars(row).items()}
        for row in table.rows
    ]
    _emit(args.fmt, args.out, table, rows)
    return 0


def cmd_selftest(args) -> int:
    _, failed = selftest.run_selftest()
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _even_grid(text: str) -> int:
    n = int(text)
    if n < 2 or n % 2:
        raise argparse.ArgumentTypeError(f"grid must be even and >= 2, got {n}")
    return n


#: Flags shared by several subcommands; each takes only those its handler reads.
_SHARED_FLAGS = {
    "--grid": {"type": _even_grid, "metavar": "N", "help": "points per axis, rounded up to resolve the input"},
    "--seed": {"type": int, "default": 0, "help": "RNG seed"},
    "--budget": {"type": int, "default": 200, "help": "evaluation budget"},
    "--out": {"metavar": "FILE", "help": "write output here instead of stdout"},
    "--format": {"dest": "fmt", "choices": ("csv", "json"), "default": "csv", "help": "output format"},
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads -1e-3 as a negative number, as it reads -0.5;
    argparse's own pattern has no exponent form, so ``--p-lo -1e-3`` would be
    taken for a missing value.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rieszlab",
        description="Numerical laboratory for Riesz projections on the torus.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, summary: str, *shared: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        for flag in shared:
            sp.add_argument(flag, **_SHARED_FLAGS[flag])
        sp.set_defaults(fn=fn)
        return sp

    sp = add("project", cmd_project, "analytic projection of a polynomial or grid dump", "--out")
    sp.add_argument("--in", dest="infile", default="-", help="TrigPoly JSON or RLGF file ('-' = stdin)")
    sp.add_argument("--minus", action="store_true", help="strictly-negative part instead (d=1)")
    sp.add_argument("--axes", help="project these axes only, e.g. 1,2")

    sp = add("norm", cmd_norm, "L^p norm, 0 <= p <= inf", "--grid", "--out", "--format")
    sp.add_argument("--in", dest="infile", default="-", help="TrigPoly JSON or RLGF file ('-' = stdin)")
    sp.add_argument("--p", required=True, help="exponent (0, inf allowed)")

    sp = add("rpk-check", cmd_rpk_check, "coefficientwise kernel-norm comparison",
             "--out", "--format")
    sp.add_argument("--q", required=True, help="constraint exponent (q > 1 or inf)")
    sp.add_argument("--p", help="norm exponent (default 4/q*)")
    sp.add_argument("--n-max", type=int, default=50, help="compare coefficients up to this index")
    sp.add_argument("--r", help="also check the norm series against quadrature at these r=|w|^2")

    sp = add("dual-extremal", cmd_dual_extremal, "minimal-norm extension solver", "--out")
    sp.add_argument("--q", required=True, help="norm exponent (1 < q < inf)")
    sp.add_argument("--kernel", help="use a truncated point-evaluation kernel at this w")
    sp.add_argument("--degree", type=int, help="--kernel truncation degree (default 40)")
    sp.add_argument("--in", dest="infile", help="analytic TrigPoly JSON to extend")
    sp.add_argument("--trunc-degree", type=int, help="degree cap for the co-analytic part")
    sp.add_argument("--max-iter", type=int, default=4000)
    sp.add_argument("--grid", dest="n_per_axis", metavar="N", type=_even_grid, help="exact grid size")
    sp.add_argument("--tol", type=float, default=1e-6, help="duality-gap tolerance")

    sp = add("d2-scan", cmd_d2_scan, "threshold scan for the 2-d perturbed family",
             "--out", "--format")
    sp.add_argument("--q", required=True, help="comma list of q values (inf allowed)")
    sp.add_argument("--eps", default="0.08,0.04,0.02", help="comma list of perturbation sizes")
    sp.add_argument("--p-lo", type=float, default=0.05)
    sp.add_argument("--p-hi", type=float, default=4.5)
    sp.add_argument("--resolution", type=float, default=1e-4)

    sp = add("dirichlet", cmd_dirichlet, "spherical Dirichlet kernel norms", "--out", "--format")
    sp.add_argument("--d", type=int, required=True, choices=(1, 2, 3))
    sp.add_argument("--p", default="1", help="comma list of exponents")
    sp.add_argument("--radii", help="comma list of radii")
    sp.add_argument("--fit", action="store_true", help="also fit log-norm vs log-R growth")
    sp.add_argument("--grid", dest="n_per_axis", metavar="N", type=_even_grid, help="exact points per axis")

    sp = add("search", cmd_search, "search for norm-inflation certificates",
             "--grid", "--seed", "--budget", "--out")
    sp.add_argument("--d", type=int, required=True, choices=(1, 2, 3))
    sp.add_argument("--q", required=True)
    sp.add_argument("--p", required=True)

    sp = add("figures", cmd_figures, "bound tables over q", "--out", "--format")
    sp.add_argument("--d", type=int, required=True, choices=(1, 2))

    add("selftest", cmd_selftest, "run the invariant suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except series.NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
