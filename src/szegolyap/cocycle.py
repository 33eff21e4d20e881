"""Szego cocycle matrices, conjugation, and renormalized orbit products.

The one-step matrix at spectral parameter z on the unit circle and
coefficient value f in D is

    A = (1 - |f|^2)^(-1/2) [[z, -conj(f)], [-f z, 1]],

an element of U(1,1) with det A = z.  Orbit products are accumulated with
per-step renormalization: the running matrix is kept at unit operator norm
and the stripped scale factors are summed in log form, so products of any
length never overflow.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhasePoint, Rotation, ExpGenerator
from .mat2 import IDENTITY, SWAP, mat2, op_norm

# One-step matrices built per block of steps in grid_log_norms.  2048 of
# them take 128 KB: enough steps per block to spread the per-block Python
# overhead, few enough that peak memory barely moves.
BUDGET = 2048


class DegenerateCoefficientError(ArithmeticError):
    """A coefficient sits too close to the unit circle for double precision."""


class NumericalBlowupError(ArithmeticError):
    """An orbit product produced non-finite entries."""


@dataclass(frozen=True)
class SpectralParameter:
    """A point z of the unit circle together with its square root.

    The square root uses the principal branch (argument in (-pi, pi]).
    Any fixed branch works, because z^(1/2) only ever enters through
    unitary conjugation; a single instance carries one branch consistently
    through a computation.
    """

    z: complex
    sqrt_z: complex

    def __post_init__(self):
        if abs(abs(self.z) - 1.0) > 1e-14:
            raise ValueError(f"|z| must be 1, got |z| = {abs(self.z)}")
        if abs(self.sqrt_z**2 - self.z) > 1e-14:
            raise ValueError("sqrt_z is not a square root of z")

    @classmethod
    def from_z(cls, z: complex) -> "SpectralParameter":
        return cls(complex(z), cmath.sqrt(complex(z)))

    @classmethod
    def from_turn(cls, t: float) -> "SpectralParameter":
        """z = e^(2 pi i t) for t in [0, 1)."""
        return cls.from_z(cmath.exp(2j * math.pi * t))


def szego_matrices(f, z):
    """Stack of one-step cocycle matrices; ``f`` and ``z`` broadcast."""
    f, z = np.broadcast_arrays(
        np.asarray(f, dtype=complex), np.asarray(z, dtype=complex)
    )
    # 1 - |f|^2 in extended precision: the plain double-precision form
    # cancels catastrophically as |f| -> 1 and would pollute the prefactor.
    re = f.real.astype(np.longdouble)
    im = f.imag.astype(np.longdouble)
    rem = (1.0 - (re * re + im * im)).astype(np.float64)
    if np.any(rem <= 0.0):
        raise DegenerateCoefficientError(
            "1 - |f|^2 underflowed to <= 0; coefficient too close to the unit circle"
        )
    c = rem**-0.5
    out = np.empty(f.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c * z
    out[..., 0, 1] = -c * np.conj(f)
    out[..., 1, 0] = -c * f * z
    out[..., 1, 1] = c
    return out


def szego_matrix(f_val: complex, s: SpectralParameter):
    """Single one-step matrix A^z for coefficient value ``f_val``."""
    if abs(f_val) >= 1.0:
        raise DegenerateCoefficientError(f"|f| = {abs(f_val)} is not < 1")
    return szego_matrices(f_val, s.z)


def conjugator(p: PhasePoint, s: SpectralParameter):
    """C^z(theta, j): the swap for j = 0, diag(z^(1/2), z^(-1/2)) for j = 1.

    Depends on p only through its parity; always unitary.
    """
    if p.j == 0:
        return SWAP.copy()
    return mat2(s.sqrt_z, 0.0, 0.0, 1.0 / s.sqrt_z)


def conjugated_step(p: PhasePoint, s: SpectralParameter, g: ExpGenerator):
    """Closed form of C^z(theta,j) A^z(theta,j) C^z(theta,j-1)^(-1).

    Valid for the simple-exponential family only; j - 1 is parity
    arithmetic (mod 2).
    """
    if not isinstance(g, ExpGenerator):
        raise TypeError("conjugated_step is defined for the exponential family only")
    mod = g.modulus
    phase = cmath.exp(2j * math.pi * g.k * p.theta)
    zj = s.z if p.j == 1 else 1.0
    zmj = 1.0 / s.z if p.j == 1 else 1.0
    return (s.sqrt_z / g.epsilon) * mat2(
        -mod * phase, zj, zmj, -mod * phase.conjugate()
    )


def _coefficients(theta0s, j0, r: Rotation, g, ms):
    """Coefficients of every orbit at the steps in column ``ms``, shaped
    (steps, orbits), from one ``evaluate_grid`` call per parity."""
    thetas = (theta0s + ms * r.alpha) % 1.0
    parity = np.broadcast_to((j0 + ms) % 2, thetas.shape)
    f = np.empty(thetas.shape, dtype=complex)
    for j in (0, 1):
        sel = parity == j
        if np.any(sel):
            f[sel] = g.evaluate_grid(thetas[sel], j)
    return f


def _check_finite(stack, m0):
    """Name the first step (row of ``stack``, counted from step m0 + 1)
    with a non-finite entry."""
    finite = np.all(np.isfinite(stack.reshape(len(stack), -1)), axis=1)
    if not np.all(finite):
        step = m0 + int(np.argmin(finite)) + 1
        raise NumericalBlowupError(f"non-finite entries at step {step}")


def grid_log_norms(theta0s, j0, r: Rotation, g, zs, n: int, checkpoints=None):
    """log ||A^z_n(theta, j)|| for a vector of starting points.

    The one renormalized product engine: every estimator runs through it.
    ``j0`` is the starting parity, a scalar or a vector paired with
    ``theta0s``; ``zs`` may likewise be a scalar (shared spectral parameter)
    or a vector.  Returns ``(log_norms, recorded)`` where ``recorded[m]`` is
    a copy of the log norms after m steps for each m in ``checkpoints``.
    Because the running product is renormalized to unit operator norm, the
    accumulated log IS the log norm of the product.

    The one-step matrices are built a block of steps at a time, at most
    BUDGET of them per block (one step per block for wider batches).  The
    product is folded step after step in the same arithmetic whatever the
    block length, so for generators that evaluate each angle on its own
    the results do not depend on BUDGET.
    """
    theta0s = np.atleast_1d(np.asarray(theta0s, dtype=float))
    zs = np.broadcast_to(np.asarray(zs, dtype=complex), theta0s.shape)
    cur = np.broadcast_to(IDENTITY, theta0s.shape + (2, 2)).copy()
    logn = np.zeros(theta0s.shape)
    wanted = set(checkpoints) if checkpoints is not None else set()
    recorded = {}
    block = max(1, BUDGET // max(theta0s.size, 1))
    for m0 in range(0, n, block):
        ms = np.arange(m0, min(m0 + block, n))[:, None]
        mats = szego_matrices(_coefficients(theta0s, j0, r, g, ms), zs)
        _check_finite(mats, m0)
        nrms = np.empty(mats.shape[:2])
        for i in range(len(mats)):
            cur = mats[i] @ cur
            nrm = op_norm(cur)
            cur /= nrm[:, None, None]
            logn += np.log(nrm)
            nrms[i] = nrm
            if m0 + i + 1 in wanted:
                recorded[m0 + i + 1] = logn.copy()
        del mats  # the next block's stack is built without this one held
        # A non-finite product has a non-finite norm.
        _check_finite(nrms, m0)
    return logn, recorded
