"""The uniform lower bound log((1 - eps^2)^(1/2) / eps) as a function of eps.

Positive below the critical coupling 1/sqrt(2), zero there, negative above.
The finite-n phase average sits above the bound for every n, which is the
content of the deterministic inequality; a small slice is shown here.
"""

import math

import numpy as np

from szegolyap import (
    ExpGenerator,
    GOLDEN_MEAN,
    Rotation,
    phase_average_profile,
    theorem1_bound,
)

print("eps      bound        positive")
for eps in (0.1, 0.3, 0.5, 1.0 / math.sqrt(2.0), 0.8):
    b = theorem1_bound(eps)
    print(f"{eps:.4f}  {b:+.8f}  {b > 0}")

print()
print("finite-n phase averages vs the bound, eps = 0.5, k = 1, z = 1:")
r = Rotation(GOLDEN_MEAN)
g = ExpGenerator(0.5, 1)
prof = phase_average_profile(r, g, 1.0, 8, 1024)
bound = theorem1_bound(0.5)
for n, v in enumerate(prof, start=1):
    print(f"  n={n}: {v:.6f}  margin {v - bound:+.6f}")
print(f"  bound: {bound:.6f}; every margin should be >= 0 up to quadrature")
