"""Numerical laboratory for Riesz projections on the d-torus.

Core objects: sparse trigonometric polynomials and periodic sample
grids (`fourier`), L^p norms for the full range 0 <= p <= inf
(`norms`), the exponent formulas (`exponents`), point-evaluation
kernel series (`kernels`), minimal-norm analytic extensions
(`extremal`), the perturbed 2-homogeneous family in two variables
(`homog2`), spherical Dirichlet kernels (`dirichlet`), bound tables
(`figures`), and a seeded violation search (`search`).
`python -m rieszlab --help` lists the CLI.

``import rieszlab`` loads no submodule: the first use of an exported
name imports the module that defines it (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name, under the module that defines it.
_EXPORTS = {
    "dirichlet": ("DirichletSpec", "dirichlet_norm", "growth_fit", "lattice_count", "spherical_dirichlet"),
    "exponents": ("conjectured_exponent", "conjugate", "interpolation_lower_bound", "riesz_projection_norm"),
    "extremal": ("ExtremalTriple", "blaschke_product", "dual_extremal_solve", "geometric_mean_l1_check",
                 "l1_equality_certificate", "outer_from_modulus"),
    "figures": ("BoundRow", "BoundTable", "figure_tables"),
    "fourier": ("GridFunction", "TrigPoly", "coefficients", "grid_from_function", "load_grid",
                "partial_project", "riesz_project", "riesz_project_minus", "sample", "save_grid"),
    "homog2": ("PerturbedFamily", "build_family", "threshold_scan"),
    "kernels": ("CoefficientReport", "coefficient_check", "extremal_kernel_norm", "point_extremal_function",
                "szego_norm", "truncated_szego_poly"),
    "norms": ("lp_norm", "nonlinear_map"),
    "search": ("SearchResult", "ViolationCertificate", "projection_ratio", "violation_search"),
    "series": ("NonconvergenceError",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
