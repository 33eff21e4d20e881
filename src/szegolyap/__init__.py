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
    Rotation,
    lambda_max,
)
from .cocycle import NumericalBlowupError
from .lyapunov import (
    SubharmonicReport,
    birkhoff_scan,
    estimate_phase_average,
    phase_average_profile,
    subharmonic_check,
    theorem1_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ConstantGenerator",
    "ExpGenerator",
    "GOLDEN_MEAN",
    "NumericalBlowupError",
    "PerturbedGenerator",
    "Rotation",
    "SubharmonicReport",
    "birkhoff_scan",
    "estimate_phase_average",
    "lambda_max",
    "phase_average_profile",
    "subharmonic_check",
    "theorem1_bound",
]
