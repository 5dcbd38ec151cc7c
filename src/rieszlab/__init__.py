"""Numerical laboratory for Riesz projections on the d-torus.

Core objects: sparse trigonometric polynomials and periodic sample
grids (`fourier`), L^p norms for the full range 0 <= p <= inf
(`norms`), point-evaluation kernel series (`kernels`), minimal-norm
analytic extensions (`extremal`), the perturbed 2-homogeneous family
in two variables (`homog2`), spherical Dirichlet kernels
(`dirichlet`), bound tables (`figures`), and a seeded violation
search (`search`).  `python -m rieszlab --help` lists the CLI.
"""

__version__ = "0.1.0"

from .dirichlet import DirichletSpec, dirichlet_norm, growth_fit, lattice_count, spherical_dirichlet
from .extremal import (
    ExtremalTriple,
    blaschke_product,
    dual_extremal_solve,
    geometric_mean_l1_check,
    l1_equality_certificate,
    outer_from_modulus,
)
from .figures import BoundRow, BoundTable, figure_tables, table_csv
from .fourier import (
    GridFunction,
    TrigPoly,
    coefficients,
    grid_from_function,
    load_grid,
    partial_project,
    riesz_project,
    riesz_project_minus,
    sample,
    save_grid,
)
from .homog2 import PerturbedFamily, build_family, threshold_scan
from .kernels import (
    CoefficientReport,
    coefficient_check,
    extremal_kernel_norm,
    point_extremal_function,
    szego_norm,
    truncated_szego_poly,
)
from .norms import (
    conjectured_exponent,
    conjugate,
    interpolation_lower_bound,
    lp_norm,
    nonlinear_map,
    riesz_projection_norm,
)
from .search import SearchResult, ViolationCertificate, projection_ratio, violation_search
from .series import NonconvergenceError, SeriesControl

__all__ = [
    "BoundRow",
    "BoundTable",
    "CoefficientReport",
    "DirichletSpec",
    "ExtremalTriple",
    "GridFunction",
    "NonconvergenceError",
    "PerturbedFamily",
    "SearchResult",
    "SeriesControl",
    "TrigPoly",
    "ViolationCertificate",
    "blaschke_product",
    "build_family",
    "coefficient_check",
    "coefficients",
    "conjectured_exponent",
    "conjugate",
    "dirichlet_norm",
    "dual_extremal_solve",
    "extremal_kernel_norm",
    "figure_tables",
    "geometric_mean_l1_check",
    "grid_from_function",
    "growth_fit",
    "interpolation_lower_bound",
    "l1_equality_certificate",
    "lattice_count",
    "load_grid",
    "lp_norm",
    "nonlinear_map",
    "outer_from_modulus",
    "partial_project",
    "point_extremal_function",
    "projection_ratio",
    "riesz_project",
    "riesz_project_minus",
    "riesz_projection_norm",
    "sample",
    "save_grid",
    "spherical_dirichlet",
    "szego_norm",
    "table_csv",
    "threshold_scan",
    "truncated_szego_poly",
    "violation_search",
]
