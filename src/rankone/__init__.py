"""Rank-one perturbation algebra for linear operators.

Perturbed inverses (rank-one updates), Krein-type resolvent
differences with eigenvalue localization through the scalar
denominator, factor recovery by probing, and an analytic
Dirichlet/Neumann Laplacian testbed with a finite-difference oracle.
"""

from .core import (
    DenseOperator,
    DimensionMismatchError,
    Functional,
    Operator,
    RankOneForm,
    SingularMatrixError,
    Vector,
    invert,
    outer,
    pair,
)
from .perturbed_inverse import (
    RegularInverse,
    SingularInverse,
    SingularPerturbationError,
    denominator,
    null_space_certificate,
    perturbed_inverse,
    solve_perturbed,
)
from .probing import (
    Probe,
    bilinear_value,
    choose_probe,
    coordinate_probe,
    recover_factors,
    resolvent_difference_factor_free,
)
from .krein import (
    EigenPair,
    EigenvalueHitError,
    ResolventDifference,
    SpectralPoint,
    deflect,
    find_new_eigenvalues,
    resolvent_difference,
)
from .discretize import (
    DiscretePair,
    Grid,
    SpectrumHitError,
    Tridiagonal,
    build_pair,
    discrete_new_eigenvalues,
    inverse_difference,
    resolvent,
)

__version__ = "0.1.0"

__all__ = [
    "DenseOperator",
    "DimensionMismatchError",
    "DiscretePair",
    "EigenPair",
    "EigenvalueHitError",
    "Functional",
    "Grid",
    "Operator",
    "Probe",
    "RankOneForm",
    "RegularInverse",
    "ResolventDifference",
    "SingularInverse",
    "SingularMatrixError",
    "SingularPerturbationError",
    "SpectralPoint",
    "SpectrumHitError",
    "Tridiagonal",
    "Vector",
    "bilinear_value",
    "build_pair",
    "choose_probe",
    "coordinate_probe",
    "deflect",
    "denominator",
    "discrete_new_eigenvalues",
    "find_new_eigenvalues",
    "invert",
    "inverse_difference",
    "null_space_certificate",
    "outer",
    "pair",
    "perturbed_inverse",
    "recover_factors",
    "resolvent",
    "resolvent_difference",
    "resolvent_difference_factor_free",
    "solve_perturbed",
]
