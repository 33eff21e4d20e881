"""Walk through the basic algebra of the cocycle matrices.

Builds a few one-step matrices from the exponential coefficient family,
checks they sit in U(1,1) with determinant z, and verifies the closed-form
conjugation against the raw triple product C A C^(-1).
"""

import numpy as np

from szegolyap import (
    ExpGenerator,
    PhasePoint,
    SpectralParameter,
    conjugated_step,
    conjugator,
    mat2,
    szego_matrix,
)

rng = np.random.default_rng(0)

print("one-step matrix at eps = 0.6, k = 1, theta = 1/4, z = 1:")
g = ExpGenerator(0.6, 1)
s = SpectralParameter.from_turn(0.0)
p = PhasePoint(0.25, 0)
a = szego_matrix(g.evaluate(p), s)
print(np.round(a, 6))
print("det A =", mat2.det(a), "(should equal z = 1)")
print("U(1,1) within 1e-12:", mat2.is_u11(a, 1e-12))

print()
print("conjugation identity, 5 random parameter tuples:")
for _ in range(5):
    p = PhasePoint(float(rng.random()), int(rng.integers(0, 2)))
    s = SpectralParameter.from_turn(float(rng.random()))
    g = ExpGenerator(float(rng.uniform(0.1, 0.9)), int(rng.choice([-2, -1, 1, 2])))
    pm = PhasePoint(p.theta, (p.j - 1) % 2)
    lhs = (
        conjugator(p, s)
        @ szego_matrix(g.evaluate(p), s)
        @ np.linalg.inv(conjugator(pm, s))
    )
    dev = np.max(np.abs(lhs - conjugated_step(p, s, g)))
    print(f"  eps={g.epsilon:.3f} k={g.k:+d} j={p.j}: entrywise deviation {dev:.2e}")
