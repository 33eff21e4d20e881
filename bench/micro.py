"""Layer microbenchmarks: single layer functions at fixed batch sizes.

    python3 bench/micro.py SEED

prints one JSON object mapping ``micro.<module>.<fn>.ns_per_elem.b<batch>``
(and ``micro.cocycle.grid_log_norms.us_per_step.b<batch>``) to the median
time per call over repeated calls, divided by the work of one call.
"""

import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from szegolyap import cocycle, mat2  # noqa: E402
from szegolyap.dynamics import (  # noqa: E402
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    Rotation,
    lambda_max,
)

BATCHES = (16, 2048, 65536)
# Repeat each call for at least this long and at least MIN_CALLS times.
BUDGET_S = 0.12
MIN_CALLS = 5
COEFFS = [1.0, 1.0, 1.0, 1.0]


def per_call(fn):
    """Median seconds per call of ``fn()``, after one untimed call."""
    fn()
    times = []
    end = time.perf_counter() + BUDGET_S
    while len(times) < MIN_CALLS or time.perf_counter() < end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(seed):
    rng = np.random.default_rng(seed)
    exp_gen = ExpGenerator(0.5, 2)
    pert_gen = PerturbedGenerator(0.5, 2, 0.1 * lambda_max(0.5, COEFFS), COEFFS)
    rotation = Rotation(GOLDEN_MEAN)
    metrics = {}
    for b in BATCHES:
        thetas = rng.random(b)
        zs = np.exp(2j * math.pi * rng.random(b))
        f = exp_gen.evaluate_grid(thetas, 0)
        mats = cocycle.szego_matrices(f, zs)
        other = cocycle.szego_matrices(f[::-1], zs)
        # Enough steps that the per-call time is well above timer noise.
        n = max(4, 16384 // b)
        ns_per_elem = {
            "dynamics.exp.evaluate_grid": lambda: exp_gen.evaluate_grid(thetas, 0),
            "dynamics.perturbed.evaluate_grid": lambda: pert_gen.evaluate_grid(thetas, 0),
            "cocycle.szego_matrices": lambda: cocycle.szego_matrices(f, zs),
            "mat2.mul": lambda: mat2.mul(mats, other),
            "mat2.op_norm": lambda: mat2.op_norm(mats),
        }
        for name, fn in ns_per_elem.items():
            metrics[f"micro.{name}.ns_per_elem.b{b}"] = per_call(fn) / b * 1e9
        engine = per_call(
            lambda: cocycle.grid_log_norms(thetas, 0, rotation, exp_gen, zs, n)
        )
        metrics[f"micro.cocycle.grid_log_norms.us_per_step.b{b}"] = engine / n * 1e6
    print(json.dumps(metrics))


if __name__ == "__main__":
    main(int(sys.argv[1]))
