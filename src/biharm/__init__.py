"""High-order semi-analytic cubature of n-dimensional biharmonic potentials.

Grid-sampled densities are convolved with closed-form potentials of
tensor-product generating functions; a separated representation reduces the
n-dimensional sum to one-dimensional convolutions combined under a
double-exponential quadrature, which keeps dimensions up to 1e8 tractable.
"""

from .errors import (BiharmError, DimensionTooLarge, NonConvergence,
                     QuadratureDivergence, RankBudgetExceeded, SupportTruncated,
                     UnsupportedDimension)
from .kernels import GridSpec, PotentialSample, direct_cubature, phi2, phi2M
from .quad import DEFAULT_RULE, integral_phi2, qm_poly, rm_poly
from .engine import (IsotropicGaussianPolyDensity, SeparatedDensity, build_test_density,
                     evaluate, evaluate_symmetric, gaussian_potential_density,
                     saturation_epsilon0, separated_expansion, tensor_weight)
from .specfun import gen_laguerre

__version__ = "0.1.0"

__all__ = [
    "BiharmError", "DimensionTooLarge", "NonConvergence", "QuadratureDivergence",
    "RankBudgetExceeded", "SupportTruncated", "UnsupportedDimension",
    "GridSpec", "PotentialSample",
    "direct_cubature", "phi2", "phi2M",
    "DEFAULT_RULE", "integral_phi2", "qm_poly", "rm_poly",
    "IsotropicGaussianPolyDensity", "SeparatedDensity", "build_test_density",
    "gaussian_potential_density", "separated_expansion",
    "evaluate", "evaluate_symmetric", "saturation_epsilon0",
    "tensor_weight",
    "gen_laguerre",
    "__version__",
]
