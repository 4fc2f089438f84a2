"""Generalized theta series with noninteger dimension parameters.

Layers, bottom up: ``errors`` (the exception types), ``spec`` (theta
factors, specs, duals and the modular-relation residual, in pure Python),
``theta`` (spec coefficients on numpy, listed by ``coeff_table``),
``qseries`` (the container ``theta.build`` returns and the reference route,
not exported, loaded when ``build`` or ``theta_series`` runs), ``transform``
(the dimensionally continued radial Fourier transform), ``_grid`` (its
shared quadrature grid, loaded by Sampled profiles alone), ``summation``
(both sides of the summation identity and its verification), ``hermite``
(Hermite expansion coefficients, in closed form for Gaussians and by
quadrature for any profile), ``cli`` (command line front end).

Only ``errors`` loads with the package.  Every other public name is looked
up in its layer on first use (PEP 562), so ``import thetasum`` loads no
numpy, and ``thetasum.dual`` loads ``spec`` alone.
"""

import importlib

from . import errors
from .errors import *  # noqa: F403  (the exception types)

# public name -> the layer that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("gaussian_hermite_coeff", "hermite_coeff_quadrature", "hermite_h"),
                    "hermite"),
    **dict.fromkeys(("ThetaFactor", "ThetaSpec", "coeff_bound", "dual", "jacobi_residual",
                     "preset", "theta_eval_product"), "spec"),
    **dict.fromkeys(("ShellSum", "VerificationReport", "lhs_sum", "rhs_sum", "verify"),
                    "summation"),
    "coeff_table": "theta",
    **dict.fromkeys(("FTResult", "GaussPoly", "Sampled", "eigen_residual", "ft_closed",
                     "ft_gausspoly", "ft_quadrature", "hyp0f1", "laplacian_d"), "transform"),
    "ft_quadrature_many": "_grid",
}


def __getattr__(name: str):
    layer = _LAZY.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{layer}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

# every exception type of ``errors`` and every name of ``_LAZY``
__all__ = sorted([*(name for name, value in vars(errors).items()
                    if isinstance(value, type) and issubclass(value, Exception)), *_LAZY])
