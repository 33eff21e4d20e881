"""The paper's conjugation algebra, as reference forms for the tests.

The engine multiplies the one-step matrices A^z(theta, j) of
``cocycle.szego_matrices`` as they are.  The positivity proof conjugates
them first: C^z(theta, j) A^z(theta, j) C^z(theta, j - 1)^(-1) has a
closed form whose entries are polynomials in e^(2 pi i k theta).  The
conjugators are unitary on |z| = 1 and telescope in a product, so the
conjugated products have the norms of the direct ones.  These forms check
that algebra against the engine's own matrices.
"""

import cmath
import math

import numpy as np

from szegolyap.cocycle import szego_matrices
from szegolyap.dynamics import AdmissibilityError, evaluate

# Indefinite form preserved by U(1,1).
J = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def one_step(g, theta, j, z):
    """A^z(theta, j) as one 2x2 matrix, as the engine builds it: from the
    generator's grid evaluation and its prefactor, by ``szego_matrices``."""
    f, rho = evaluate(g, np.array([theta]), j)
    return szego_matrices(f, z, rho)[0]


class Filled:
    """A generator ``g`` that gives values only, made to fill its prefactors
    (1 - |f|^2)^(-1/2) from them, in doubles as the two-argument
    ``szego_matrices`` forms them: ((1 - |f|)(1 + |f|))^(-1/2), NaN for a
    NaN value, an AdmissibilityError where |f| >= 1.  The values are
    returned as ``g`` gives them."""

    def __init__(self, g):
        self.g = g

    def evaluate_grid(self, thetas, j, rho):
        f = self.g.evaluate_grid(thetas, j)
        a = np.abs(np.broadcast_to(f, rho.shape))
        np.multiply(1.0 - a, 1.0 + a, out=rho)
        if (rho <= 0.0).any():
            raise AdmissibilityError("coefficient value with |f| >= 1 outside the unit disk")
        rho **= -0.5
        return f


def conjugator(j, z):
    """C^z(theta, j): the swap for j = 0, diag(z^(1/2), z^(-1/2)) for j = 1,
    with the principal square root; it depends on the phase point only
    through its parity."""
    if j == 0:
        return SWAP.copy()
    root = cmath.sqrt(z)
    return np.array([[root, 0.0], [0.0, 1.0 / root]], dtype=complex)


def conjugated_step(g, theta, j, z):
    """Closed form of C^z(theta, j) A^z(theta, j) C^z(theta, j - 1)^(-1)
    for the exponential family ``g``, j - 1 taken mod 2."""
    phase = cmath.exp(2j * math.pi * g.k * theta)
    zj, zmj = (z, 1.0 / z) if j == 1 else (1.0, 1.0)
    return (cmath.sqrt(z) / g.epsilon) * np.array(
        [[-g.modulus * phase, zj], [zmj, -g.modulus * phase.conjugate()]], dtype=complex)


def u11_residual(x):
    """Entrywise max |x* J x - J|: 0 exactly for x in U(1,1)."""
    x = np.asarray(x)
    return float(np.max(np.abs(x.conj().T @ J @ x - J)))
