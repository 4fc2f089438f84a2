"""Generalized theta series with noninteger dimension parameters.

Layers, bottom up: ``qseries`` (the series container ``build`` returns,
plus the reference route the tests compare against), ``theta`` (theta
factors, specs, duals), ``transform`` (the dimensionally continued radial
Fourier transform), ``summation`` (both sides of the summation identity and
its verification), ``hermite`` (Gaussian expansion diagnostics), ``cli``
(command line front end).
"""

from .errors import (
    CoefficientOverflow,
    DomainError,
    IllConditioned,
    InvalidSpec,
    NegativeExponent,
    OffsetMismatch,
    ThetasumError,
    ToleranceNotMet,
    ZeroLeadingCoefficient,
)
from .hermite import (
    FitResult,
    gaussian_hermite_coeff,
    gaussian_span_fit,
    hermite_coeff_quadrature,
    hermite_h,
)
from .qseries import QSeries, lincomb
from .summation import (
    ShellSum,
    VerificationReport,
    lhs_sum,
    rhs_sum,
    verify,
)
from .theta import (
    ThetaFactor,
    ThetaSpec,
    build,
    coeff_bound,
    dual,
    jacobi_residual,
    preset,
    theta_eval_product,
)
from .transform import (
    FTResult,
    GaussPoly,
    Sampled,
    TransformSettings,
    eigen_residual,
    ft_closed,
    ft_gausspoly,
    ft_quadrature,
    ft_quadrature_many,
    hyp0f1,
    laplacian_d,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientOverflow",
    "DomainError",
    "FTResult",
    "FitResult",
    "GaussPoly",
    "IllConditioned",
    "InvalidSpec",
    "NegativeExponent",
    "OffsetMismatch",
    "QSeries",
    "Sampled",
    "ShellSum",
    "ThetaFactor",
    "ThetaSpec",
    "ThetasumError",
    "ToleranceNotMet",
    "TransformSettings",
    "VerificationReport",
    "ZeroLeadingCoefficient",
    "build",
    "coeff_bound",
    "dual",
    "eigen_residual",
    "ft_closed",
    "ft_gausspoly",
    "ft_quadrature",
    "ft_quadrature_many",
    "gaussian_hermite_coeff",
    "gaussian_span_fit",
    "hermite_coeff_quadrature",
    "hermite_h",
    "hyp0f1",
    "jacobi_residual",
    "laplacian_d",
    "lhs_sum",
    "lincomb",
    "preset",
    "rhs_sum",
    "theta_eval_product",
    "verify",
]
