"""Base dynamics on T x Z_2 and the Verblunsky coefficient generators.

The base system T(theta, j) = (theta + alpha, j + 1) is the product of an
irrational rotation on the 1-torus with the flip on Z_2 (``Rotation.orbit``).
Coefficient generators map phase points to values in the open unit disk.
The cocycle engine is generic over anything with an ``evaluate_grid(thetas,
j)`` method, whose parity ``j`` is a scalar or an integer array broadcasting
with the angles ``thetas`` and whose values broadcast to their shape;
``by_row`` makes one of a sequence of one generator per row, with one call
per run of rows of one family and one k; a lone run is the generator the
engine sees.  A generator whose parity-1 values are the conjugates of its
parity-0 values, bit for bit, may say so with a true ``conjugate_parity``;
an object without the attribute is read as false.  A generator keeping
|f| <= 1 up to rounding may state its prefactor (1 - |f|^2)^(-1/2) in
closed form as ``prefactor``, a float or an array broadcasting with its
values; ``prefactor(g, vals)`` reads it, each row's own for a sequence.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

# Golden-mean conjugate, the canonical badly approximable rotation number.
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

TWO_PI = 2.0 * math.pi


class AdmissibilityError(ValueError):
    """A coefficient generator produced (or would produce) a value outside D."""


class DegenerateCoefficientError(ArithmeticError):
    """A coefficient sits too close to the unit circle for double precision."""


@dataclass(frozen=True)
class Rotation:
    """Rotation number alpha in (0, 1); irrational in exact arithmetic."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    def orbit(self, theta0s, j0, ms):
        """T^m (theta0, j0) for the steps m in ``ms``, broadcast: theta0 + m
        alpha less its floor (``% 1.0`` bit for bit), and (j0 + m) mod 2."""
        thetas = theta0s + ms * self.alpha
        thetas -= np.floor(thetas)
        return thetas, (j0 + ms) % 2


def _family_k(epsilon, k) -> int:
    """Check a family's epsilon in (0, 1) and read its k by ``operator.index``:
    ints and numpy integers pass, anything else is a ValueError."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None


def _phase(thetas, j, k):
    """e^(2 pi i k theta), one exponential per angle, broadcast against the
    parities j and conjugated where j = 1: bit for bit e^(-2 pi i k theta)."""
    w = np.exp(1j * TWO_PI * k * np.asarray(thetas, dtype=float))
    if np.ndim(j) == 0:  # one parity for every angle: no mask, no copy
        return w.conj() if j == 1 else w
    return np.where(np.asarray(j) == 1, w.conj(), w)


@dataclass(frozen=True)
class ExpGenerator:
    """Simple-exponential coefficients (1 - eps^2)^(1/2) e^(+-2 pi i k theta).

    The phase sign is + for parity j = 0 and - for j = 1.
    """

    epsilon: float
    k: int

    # f(theta, 1) = conj f(theta, 0) bit for bit (``_phase``); read by the
    # phase average, whose parity-1 orbits are then conjugates of parity-0 ones.
    conjugate_parity = True

    def __post_init__(self):
        if _family_k(self.epsilon, self.k) == 0:
            raise ValueError("k must be a nonzero integer")

    @property
    def modulus(self) -> float:
        return math.sqrt(1.0 - self.epsilon**2)

    @property
    def prefactor(self) -> float:
        """(1 - |f|^2)^(-1/2) = 1/eps in closed form: one rounding, where the
        rounded f may lie on the unit circle once eps is below about 1e-8."""
        return 1.0 / self.epsilon

    def evaluate_grid(self, thetas, j):
        """Vectorized evaluation at angles ``thetas`` and parities ``j`` (a
        scalar or an integer array broadcasting with ``thetas``), by ``_phase``."""
        return self.modulus * _phase(thetas, j, self.k)


def lambda_max(epsilon: float, coeffs) -> float:
    """Sufficient admissibility radius for the perturbation coupling.

    |lambda| below this value forces the perturbed coefficients into D,
    by the triangle inequality:
    (1 - eps^2)^(1/2) (1 + |lambda| sum|a_l|) < 1.  Returns +inf for an
    empty (or all-zero) perturbation, and raises ValueError for a
    non-finite a_l.  This is a sufficient bound, not the exact supremum;
    dense sampling gives the sharp check in tests.

    The radius (1/m - 1) / sum|a_l|, m = (1 - eps^2)^(1/2), is evaluated as
    eps^2 / (m (1 + m) sum|a_l|): the difference 1/m - 1 cancels to 0 in
    double precision once eps is below about 1e-8.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not np.isfinite(coeffs).all():
        raise ValueError(f"perturbation coefficients must be finite, got {list(coeffs)}")
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

    With w = e^(+-2 pi i theta) and m = (1 - eps^2)^(1/2), the value is

        f = m (w^k + lambda sum_l a_l w^l) = m w^-k P(w),
        P(w) = w^(2k) + lambda sum_l a_l w^(l + k),

    a polynomial of degree 2k with P(0) = lambda a_-k: the form Herman's
    subharmonicity argument uses.  ``evaluate_grid`` takes one complex
    exponential per angle (``_phase``) and evaluates the Laurent polynomial
    by Horner's rule, in w for the powers 0..k and in conj(w) = 1/w for the
    powers -1..-k; a value depends only on its own angle and parity.
    """

    epsilon: float
    k: int
    lam: complex
    coeffs: tuple

    def __post_init__(self):
        if _family_k(self.epsilon, self.k) < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "coeffs", tuple(complex(a) for a in self.coeffs))
        object.__setattr__(self, "lam", complex(self.lam))
        if len(self.coeffs) != 2 * self.k:
            raise ValueError(
                f"need 2k = {2 * self.k} coefficients, got {len(self.coeffs)}"
            )
        if not np.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")
        # lambda = 0 is the unperturbed family, admissible even where the
        # radius underflows to 0.
        radius = lambda_max(self.epsilon, self.coeffs)
        if self.lam != 0 and abs(self.lam) >= radius:
            raise AdmissibilityError(
                f"|lambda| = {abs(self.lam)} exceeds the admissible radius "
                f"{radius} at epsilon = {self.epsilon}"
            )

    modulus = ExpGenerator.modulus  # (1 - eps^2)^(1/2)

    @property
    def conjugate_parity(self) -> bool:
        """f(theta, 1) = conj f(theta, 0) bit for bit: Horner's +, x and
        conj(w) commute with conjugation when every lambda a_l is real."""
        return all((self.lam * a).imag == 0 for a in self.coeffs)

    def _constants(self):
        """The modulus m and the couplings lambda a_l, l = -k, ..., k - 1,
        read at each evaluation.  The products are formed in Python: numpy's
        complex multiply rounds differently."""
        return self.modulus, [self.lam * a for a in self.coeffs]

    def evaluate_grid(self, thetas, j):
        m, c = self._constants()
        w = _phase(thetas, j, 1)
        wbar = np.conjugate(w)
        # Each product has its own out= array, so a value never depends on its
        # batch: numpy rounds a complex product differently in place (one
        # element) or with swapped operands (reusing a temporary, >= 256 KiB).
        pos, neg, spare = np.empty_like(w), np.empty_like(w), np.empty_like(w)
        # w^k + sum_{l >= 0} c_l w^l by Horner in w ...
        np.add(w, c[-1], out=pos)
        for cl in reversed(c[self.k:-1]):
            np.multiply(pos, w, out=spare)
            np.add(spare, cl, out=pos)
        # ... and sum_{l < 0} c_l w^l by Horner in conj(w).
        np.multiply(wbar, c[0], out=neg)
        for cl in c[1:self.k]:
            np.add(neg, cl, out=spare)
            np.multiply(spare, wbar, out=neg)
        np.add(pos, neg, out=spare)
        vals = np.multiply(spare, m, out=pos)
        worst = np.max(np.abs(vals))
        if not worst < 1.0:  # NaN values fail too
            raise AdmissibilityError(
                f"coefficient value of modulus {worst} escaped the unit disk"
            )
        return vals


class _Run:
    """Consecutive rows of one family (ExpGenerator or PerturbedGenerator) and
    one k on angles shaped (..., rows, N), in one call of the family's
    ``evaluate_grid``, looked up at each call, on (rows, 1) columns of the rows'
    moduli and couplings, taken now: each row gets the bits of its own call.
    A family that states a ``prefactor`` gives the run a (rows, 1) column of them."""

    def __init__(self, gens):
        self.family, self.k = type(gens[0]), gens[0].k
        self.modulus = m = np.array([g.modulus for g in gens])[:, None]
        if hasattr(self.family, "prefactor"):
            self.prefactor = np.array([g.prefactor for g in gens])[:, None]
        if self.family is PerturbedGenerator:
            c = [np.array(cl)[:, None] for cl in zip(*(g._constants()[1] for g in gens))]
            self._constants = lambda: (m, c)

    def evaluate_grid(self, thetas, j):
        return self.family.evaluate_grid(self, thetas, j)


class _Rows:
    """One generator per row of orbits shaped (..., rows, N), evaluated with
    one call per maximal run of two or more consecutive rows of one family
    and one k (a ``_Run``) and one per other row."""

    def __init__(self, gens, rows: int):
        if len(gens) != rows:
            raise ValueError(f"{len(gens)} generators for {rows} rows of orbits: "
                             "pass one generator, or one per row")
        starts = [0] + [i for i in range(1, len(gens)) if not (
            type(gens[i - 1]) is type(gens[i]) in (ExpGenerator, PerturbedGenerator)
            and gens[i - 1].k == gens[i].k)]
        self.parts = [(slice(lo, hi), _Run(gens[lo:hi])) if hi - lo > 1 else (lo, gens[lo])
                      for lo, hi in zip(starts, starts[1:] + [len(gens)])]

    def evaluate_grid(self, thetas, j):
        thetas, j = np.broadcast_arrays(thetas, j)
        out = np.empty(thetas.shape, dtype=complex)
        for rows, g in self.parts:
            out[..., rows, :] = g.evaluate_grid(thetas[..., rows, :], j[..., rows, :])
        return out

def prefactor(g, vals):
    """The prefactors (1 - |f|^2)^(-1/2) of the values ``vals`` that
    ``g.evaluate_grid`` returned, broadcasting with them: ``g``'s closed form,
    or None if it states none.  A ``_Rows`` gives each row its part's, or
    ``extended_prefactor`` of the row's own values where the part states none."""
    if not isinstance(g, _Rows):
        return getattr(g, "prefactor", None)
    closed = [getattr(part, "prefactor", None) for _, part in g.parts]
    if all(c is None for c in closed):
        return None
    rho = np.empty(vals.shape)
    for (rows, _), c in zip(g.parts, closed):
        rho[..., rows, :] = extended_prefactor(vals[..., rows, :]) if c is None else c
    return rho


def extended_prefactor(f):
    """(1 - |f|^2)^(-1/2) from the values ``f``, with 1 - |f|^2 in extended
    precision: in doubles it cancels as |f| -> 1.  Summed in place and
    subtracted straight into doubles, so no extended-precision copy of f is
    held.  Raises DegenerateCoefficientError where |f| rounded to >= 1."""
    f = np.asarray(f, dtype=complex)
    rem = np.square(f.real, dtype=np.longdouble)
    rem += np.square(f.imag, dtype=np.longdouble)
    rem = np.subtract(1.0, rem, out=np.empty(f.shape))
    if (rem <= 0.0).any():
        raise DegenerateCoefficientError(
            "1 - |f|^2 underflowed to <= 0; coefficient too close to the unit circle"
        )
    return rem**-0.5


def by_row(g, rows: int):
    """``g`` for ``rows`` rows of orbits: one generator as it is, which takes
    each angle once for all rows, or a sequence of one generator per row as a
    ``_Rows``, whose runs read their constants now, or its part covering all rows."""
    if not isinstance(g, (list, tuple)):
        return g
    rowwise = _Rows(g, rows)
    return rowwise.parts[0][1] if len(rowwise.parts) == 1 else rowwise


@dataclass(frozen=True)
class ConstantGenerator:
    """Constant coefficient in D; handy for exact-value tests."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if abs(self.value) >= 1.0:
            raise AdmissibilityError(f"|value| = {abs(self.value)} is not < 1")

    def evaluate_grid(self, thetas, j):
        return np.full(np.broadcast(thetas, j).shape, self.value, dtype=complex)
