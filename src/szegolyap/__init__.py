"""Lyapunov exponents of almost periodic Szego cocycles.

Cocycle construction over the torus-times-parity base, renormalized
transfer-matrix products, two independent exponent estimators, the
closed-form uniform positivity bound, and a numerical verifier of the
subharmonic mean-value inequality behind it.
"""

from .dynamics import (
    AdmissibilityError,
    ConstantGenerator,
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    PhasePoint,
    Rotation,
    lambda_max,
    step,
)
from .cocycle import (
    DegenerateCoefficientError,
    NumericalBlowupError,
    SpectralParameter,
    conjugated_step,
    conjugator,
    szego_matrix,
)
from .lyapunov import (
    LyapunovEstimate,
    SubharmonicReport,
    estimate_birkhoff,
    estimate_phase_average,
    phase_average_profile,
    subharmonic_check,
    subharmonic_grid_values,
    theorem1_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ConstantGenerator",
    "DegenerateCoefficientError",
    "ExpGenerator",
    "GOLDEN_MEAN",
    "LyapunovEstimate",
    "NumericalBlowupError",
    "PerturbedGenerator",
    "PhasePoint",
    "Rotation",
    "SpectralParameter",
    "SubharmonicReport",
    "conjugated_step",
    "conjugator",
    "estimate_birkhoff",
    "estimate_phase_average",
    "lambda_max",
    "phase_average_profile",
    "step",
    "subharmonic_check",
    "subharmonic_grid_values",
    "szego_matrix",
    "theorem1_bound",
]
