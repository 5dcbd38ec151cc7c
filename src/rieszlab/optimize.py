"""The L-BFGS entry point of the dual solver, with scipy loaded on call.

``import rieszlab`` needs numpy alone; scipy.optimize (about 0.4 s to
import) is loaded the first time ``minimize`` runs, so only a dual solve
pays for it.  ``extremal`` binds ``minimize`` at module level, where a
profiler can rebind it.
"""


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize(fun, x0, **kwargs)``."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)
