"""Base dynamics on T x Z_2 and the Verblunsky coefficient generators.

The base system is the product of an irrational rotation on the 1-torus
with the flip on Z_2.  Coefficient generators map a phase point to a value
in the open unit disk.  The cocycle engine is generic over anything with
an ``evaluate_grid(thetas, j)`` method, whose parity ``j`` is a scalar or
an integer array broadcasting with the angles ``thetas``; ``evaluate`` at a
single phase point serves scalar checks.
"""

import math
from dataclasses import dataclass

import numpy as np

# Golden-mean conjugate, the canonical badly approximable rotation number.
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

TWO_PI = 2.0 * math.pi


class AdmissibilityError(ValueError):
    """A coefficient generator produced (or would produce) a value outside D."""


@dataclass(frozen=True)
class PhasePoint:
    """A point (theta, j) of T x Z_2, theta reduced to [0, 1)."""

    theta: float
    j: int

    def __post_init__(self):
        if not (0.0 <= self.theta < 1.0):
            raise ValueError(f"theta must lie in [0, 1), got {self.theta}")
        if self.j not in (0, 1):
            raise ValueError(f"j must be 0 or 1, got {self.j}")


@dataclass(frozen=True)
class Rotation:
    """Rotation number alpha in (0, 1); irrational in exact arithmetic."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def step(p: PhasePoint, r: Rotation) -> PhasePoint:
    """One application of T(theta, j) = (theta + alpha, j + 1)."""
    return PhasePoint((p.theta + r.alpha) % 1.0, (p.j + 1) % 2)


@dataclass(frozen=True)
class ExpGenerator:
    """Simple-exponential coefficients (1 - eps^2)^(1/2) e^(+-2 pi i k theta).

    The phase sign is + for parity j = 0 and - for j = 1.
    """

    epsilon: float
    k: int

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.k == 0:
            raise ValueError("k must be a nonzero integer")

    @property
    def modulus(self) -> float:
        return math.sqrt(1.0 - self.epsilon**2)

    def evaluate(self, p: PhasePoint) -> complex:
        sign = 1.0 if p.j == 0 else -1.0
        return self.modulus * complex(
            math.cos(TWO_PI * self.k * p.theta * sign),
            math.sin(TWO_PI * self.k * p.theta * sign),
        )

    def evaluate_grid(self, thetas, j):
        """Vectorized evaluation at angles ``thetas`` and parities ``j``
        (a scalar or an integer array broadcasting with ``thetas``)."""
        sign = 1 - 2 * np.asarray(j)
        return self.modulus * np.exp(1j * TWO_PI * self.k * sign * np.asarray(thetas))


def lambda_max(epsilon: float, coeffs) -> float:
    """Sufficient admissibility radius for the perturbation coupling.

    |lambda| below this value forces the perturbed coefficients into D,
    by the triangle inequality:
    (1 - eps^2)^(1/2) (1 + |lambda| sum|a_l|) < 1.  Returns +inf for an
    empty (or all-zero) perturbation.  This is a sufficient bound, not the
    exact supremum; dense sampling gives the sharp check in tests.

    The radius (1/m - 1) / sum|a_l|, m = (1 - eps^2)^(1/2), is evaluated as
    eps^2 / (m (1 + m) sum|a_l|): the difference 1/m - 1 cancels to 0 in
    double precision once eps is below about 1e-8.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    total = float(sum(abs(complex(a)) for a in coeffs))
    if total == 0.0:
        return math.inf
    m = math.sqrt(1.0 - epsilon**2)
    return epsilon**2 / (m * (1.0 + m) * total)


@dataclass(frozen=True)
class PerturbedGenerator:
    """Perturbed exponential: e^(2 pi i k theta) + lambda * trig polynomial.

    ``coeffs`` holds the 2k perturbation coefficients a_l for
    l = -k, ..., k - 1; for parity j = 1 every phase is negated.
    Construction rejects couplings outside the sufficient admissibility
    radius, so evaluation stays inside the unit disk.
    """

    epsilon: float
    k: int
    lam: complex
    coeffs: tuple

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "coeffs", tuple(complex(a) for a in self.coeffs))
        object.__setattr__(self, "lam", complex(self.lam))
        if len(self.coeffs) != 2 * self.k:
            raise ValueError(
                f"need 2k = {2 * self.k} coefficients, got {len(self.coeffs)}"
            )
        if abs(self.lam) >= lambda_max(self.epsilon, self.coeffs):
            raise AdmissibilityError(
                f"|lambda| = {abs(self.lam)} exceeds the admissible radius "
                f"{lambda_max(self.epsilon, self.coeffs)} at epsilon = {self.epsilon}"
            )

    @property
    def modulus(self) -> float:
        return math.sqrt(1.0 - self.epsilon**2)

    def evaluate(self, p: PhasePoint) -> complex:
        return complex(self.evaluate_grid(np.array([p.theta]), p.j)[0])

    def evaluate_grid(self, thetas, j):
        thetas = np.asarray(thetas, dtype=float)
        sign = 1 - 2 * np.asarray(j)
        ls = np.arange(-self.k, self.k)
        # Phase table with the 2k frequencies on a trailing axis; k is small
        # so the outer product is cheap.
        phases = np.exp(1j * TWO_PI * sign[..., None] * thetas[..., None] * ls)
        # Summed term by term: a matrix product would round differently
        # for one angle than for several.
        pert = sum(a * phases[..., i] for i, a in enumerate(self.coeffs))
        base = np.exp(1j * TWO_PI * sign * self.k * thetas)
        vals = self.modulus * (base + self.lam * pert)
        worst = np.max(np.abs(vals))
        if worst >= 1.0:
            raise AdmissibilityError(
                f"coefficient value of modulus {worst} escaped the unit disk"
            )
        return vals


@dataclass(frozen=True)
class ConstantGenerator:
    """Constant coefficient in D; handy for exact-value tests."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if abs(self.value) >= 1.0:
            raise AdmissibilityError(f"|value| = {abs(self.value)} is not < 1")

    def evaluate(self, p: PhasePoint) -> complex:
        return self.value

    def evaluate_grid(self, thetas, j):
        shape = np.broadcast_shapes(np.shape(thetas), np.shape(j))
        return np.full(shape, self.value, dtype=complex)
