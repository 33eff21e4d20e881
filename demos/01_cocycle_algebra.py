"""Walk through the basic algebra of the cocycle matrices.

Builds one-step matrices of the exponential coefficient family with the
grid API (``evaluate_grid`` for the coefficients, ``szego_matrices`` for
the matrices), checks they sit in U(1,1) with determinant z, and verifies
the closed-form conjugation against the raw triple product C A C^(-1).
"""

import cmath
import math

import numpy as np

from szegolyap import ExpGenerator, mat2
from szegolyap.cocycle import szego_matrices

# Indefinite form preserved by U(1,1).
J = np.diag([1.0, -1.0])


def one_step(g, theta, j, z):
    """A^z(theta, j) for the generator g, with its prefactor 1/eps as the
    engine takes it."""
    return szego_matrices(g.evaluate_grid(np.array([theta]), j), z, g.prefactor)[0]


def conjugator(j, root):
    """C^z(theta, j) with root = z^(1/2): the swap for j = 0,
    diag(z^(1/2), z^(-1/2)) for j = 1."""
    return np.array([[0.0, 1.0], [1.0, 0.0]]) if j == 0 else np.diag([root, 1.0 / root])


print("one-step matrix at eps = 0.6, k = 1, theta = 1/4, z = 1:")
a = one_step(ExpGenerator(0.6, 1), 0.25, 0, 1.0)
print(np.round(a, 6))
print("det A =", mat2.det(a), "(should equal z = 1)")
print("U(1,1) residual max |A* J A - J| =", np.max(np.abs(a.conj().T @ J @ a - J)))

print()
print("conjugation identity, 5 random parameter tuples:")
rng = np.random.default_rng(0)
for _ in range(5):
    theta, j = float(rng.random()), int(rng.integers(0, 2))
    z = cmath.exp(2j * math.pi * float(rng.random()))
    g = ExpGenerator(float(rng.uniform(0.1, 0.9)), int(rng.choice([-2, -1, 1, 2])))
    root = cmath.sqrt(z)
    lhs = conjugator(j, root) @ one_step(g, theta, j, z) @ np.linalg.inv(conjugator(1 - j, root))
    # Closed form: (z^(1/2) / eps) [[-m e^(2 pi i k theta), z^j], [z^(-j), -m e^(-2 pi i k theta)]].
    phase = g.modulus * cmath.exp(2j * math.pi * g.k * theta)
    closed = (root / g.epsilon) * np.array([[-phase, z**j], [z**-j, -phase.conjugate()]])
    dev = np.max(np.abs(lhs - closed))
    print(f"  eps={g.epsilon:.3f} k={g.k:+d} j={j}: entrywise deviation {dev:.2e}")
