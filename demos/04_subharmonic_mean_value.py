"""The mean-value inequality behind the positivity proof, numerically.

The conjugated product extends to an analytic family in w on the disk;
log of its norm is subharmonic, so the circle average dominates the value
at the center.  The slack printed here is that difference.  The circle
average comes from the product's exact polynomial coefficients, and the
quad_delta column is the change of its Gauss-Legendre rule when the node
count is halved.
"""

import cmath
import math

import numpy as np

from szegolyap import ExpGenerator, GOLDEN_MEAN, Rotation, subharmonic_check

r = Rotation(GOLDEN_MEAN)
rng = np.random.default_rng(7)

print("eps    k  n  slack        quad_delta")
for _ in range(6):
    g = ExpGenerator(float(rng.uniform(0.15, 0.8)), int(rng.integers(1, 4)))
    z = cmath.exp(2j * math.pi * float(rng.random()))
    j0 = int(rng.integers(0, 2))
    n = int(rng.integers(1, 9))
    rep = subharmonic_check(r, g, z, j0, n)
    print(f"{g.epsilon:.3f}  {g.k}  {n}  {rep.slack:+.6f}   {rep.quad_delta:.2e}")
print()
print("slack >= 0 is the subharmonicity statement; it also equals")
print("n * (phase-averaged log norm / n - bound) up to the parity split.")
