"""Compare the two exponent estimators on the same parameters.

The Birkhoff estimator follows one orbit, here a batch of one; the
phase-average estimator integrates over the angle grid.  They agree in
the ergodic limit, and the gap at finite n gives a feel for the
convergence rate.  Both take a plain complex z, on the unit circle or off
it, where gamma(z) = gamma(1 / conj(z)) + log|z|.
"""

import math

from szegolyap import (
    ExpGenerator,
    GOLDEN_MEAN,
    Rotation,
    birkhoff_scan,
    estimate_phase_average,
    theorem1_bound,
)

r = Rotation(GOLDEN_MEAN)
g = ExpGenerator(0.3, 1)
z = 1j


def birkhoff(n):
    """(1/n) log ||A^z_n|| along the orbit of (0.123456, 0)."""
    return float(birkhoff_scan([0.123456], 0, r, g, z, n)[0])


print("eps = 0.3, k = 1, z = i, golden rotation")
print("n        birkhoff      phaseAvg      |diff|")
for n in (100, 1000, 10000):
    b = birkhoff(n)
    q = estimate_phase_average(r, g, z, n, 64)
    print(f"{n:<8d} {b:.8f}  {q:.8f}  {abs(b - q):.2e}")

print()
print(f"margin over the uniform bound at n = 10^4: {birkhoff(10000) - theorem1_bound(0.3):+.6f}")
print("(the bound is nearly sharp at this z; finite-n estimates hover")
print("right at it, on either side within the orbit fluctuation)")

print()
print("off the unit circle, phase averages at n = 256:")
outer, inner = (estimate_phase_average(r, g, w, 256, 256) for w in (2.0, 0.5))
print(f"  gamma(2) - gamma(1/2) = {outer - inner:.12f}, log 2 = {math.log(2.0):.12f}")
