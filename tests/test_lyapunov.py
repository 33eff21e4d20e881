"""Tests for the estimators, the positivity bound, and the subharmonic checker."""

import math
import warnings

import numpy as np
import pytest

from szegolyap import mat2 as m2
from szegolyap.cocycle import SpectralParameter, grid_log_norms, szego_matrix
from szegolyap.dynamics import (
    ConstantGenerator,
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    PhasePoint,
    Rotation,
    lambda_max,
)
from szegolyap.lyapunov import (
    birkhoff_scan,
    estimate_birkhoff,
    estimate_phase_average,
    perturbed_reference,
    phase_average_profile,
    reference_bound,
    subharmonic_check,
    subharmonic_grid_values,
    theorem1_bound,
)

GOLDEN = Rotation(GOLDEN_MEAN)

# Long-run oracle: Birkhoff value at eps = 0.3, k = 1, z = i, golden
# rotation, start (0.123456, 0), n = 10^6.  Frozen from an independent run.
GAMMA_EPS03_Z_I = 1.1568166


def test_bound_at_critical_coupling():
    assert theorem1_bound(1.0 / math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-15)


def test_bound_at_half():
    assert theorem1_bound(0.5) == pytest.approx(math.log(math.sqrt(3.0)), abs=1e-14)


def test_bound_negative_region():
    assert theorem1_bound(0.9) == pytest.approx(
        math.log(math.sqrt(0.19) / 0.9), abs=1e-14
    )
    assert theorem1_bound(0.9) < 0.0


def test_bound_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        theorem1_bound(1.0)


def test_birkhoff_zero_coefficients():
    # f = 0 gives A^z = [[z, 0], [0, 1]], whose products have norm 1.
    est = estimate_birkhoff(
        PhasePoint(0.2, 0),
        GOLDEN,
        ConstantGenerator(0.0),
        SpectralParameter.from_turn(0.3),
        500,
    )
    assert est.gamma_hat == pytest.approx(0.0, abs=1e-12)
    assert est.method == "birkhoff"


def test_birkhoff_against_frozen_long_run_oracle():
    est = estimate_birkhoff(
        PhasePoint(0.777, 1),
        GOLDEN,
        ExpGenerator(0.3, 1),
        SpectralParameter.from_turn(0.25),
        100000,
    )
    assert est.gamma_hat == pytest.approx(GAMMA_EPS03_Z_I, abs=0.01)
    assert est.margin == est.gamma_hat - est.bound


def test_birkhoff_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(10):
        eps = float(rng.uniform(0.1, 0.9))
        est = estimate_birkhoff(
            PhasePoint(float(rng.random()), int(rng.integers(0, 2))),
            GOLDEN,
            ExpGenerator(eps, int(rng.choice([-2, -1, 1, 2]))),
            SpectralParameter.from_turn(float(rng.random())),
            int(rng.integers(1, 500)),
        )
        assert est.gamma_hat >= -1e-9


def test_phase_average_single_constant_step():
    c = 0.3 - 0.2j
    s = SpectralParameter.from_turn(0.15)
    est = estimate_phase_average(GOLDEN, ConstantGenerator(c), s, 1, 32)
    expected = math.log(float(m2.op_norm(szego_matrix(c, s))))
    assert est.gamma_hat == pytest.approx(expected, abs=1e-12)
    assert est.samples == 64


def test_phase_average_finite_n_inequality_slice():
    # Small slice of the deterministic inequality; the acceptance suite
    # runs the full parameter matrix.
    bound = theorem1_bound(0.3)
    g = ExpGenerator(0.3, 1)
    for t in (0.0, 0.3, 0.77):
        prof = phase_average_profile(GOLDEN, g, SpectralParameter.from_turn(t), 4, 512)
        assert np.all(prof >= bound - 1e-3)


def test_profile_matches_single_estimates():
    g = ExpGenerator(0.5, 2)
    s = SpectralParameter.from_turn(0.4)
    prof = phase_average_profile(GOLDEN, g, s, 5, 64)
    for n in (1, 3, 5):
        est = estimate_phase_average(GOLDEN, g, s, n, 64)
        assert prof[n - 1] == pytest.approx(est.gamma_hat, abs=1e-12)


def test_cross_estimator_consistency():
    g = ExpGenerator(0.3, 1)
    s = SpectralParameter.from_turn(0.0)
    quad = estimate_phase_average(GOLDEN, g, s, 4000, 64)
    path = estimate_birkhoff(PhasePoint(0.4321, 0), GOLDEN, g, s, 4000)
    assert abs(quad.gamma_hat - path.gamma_hat) <= 0.02


def test_birkhoff_scan_matches_single_estimates():
    g = ExpGenerator(0.45, 1)
    turns = np.array([0.1, 0.35, 0.8])
    zs = np.exp(2j * np.pi * turns)
    theta0s = np.array([0.2, 0.5, 0.9])
    j0s = np.array([0, 1, 0])
    gammas = birkhoff_scan(theta0s, j0s, GOLDEN, g, zs, 300)
    for i in range(3):
        est = estimate_birkhoff(
            PhasePoint(float(theta0s[i]), int(j0s[i])),
            GOLDEN,
            g,
            SpectralParameter.from_turn(float(turns[i])),
            300,
        )
        assert gammas[i] == pytest.approx(est.gamma_hat, abs=1e-10)


@pytest.mark.parametrize("n, grid_size", [(0, 4), (-1, 4), (3, 0)])
def test_estimate_phase_average_rejects_bad_sizes(n, grid_size):
    s = SpectralParameter.from_turn(0.2)
    with pytest.raises(ValueError, match="must be >= 1"):
        estimate_phase_average(GOLDEN, ExpGenerator(0.5, 1), s, n, grid_size)


@pytest.mark.parametrize("n_max", [0, -1])
def test_phase_average_profile_rejects_bad_n_max(n_max):
    # n_max = 0 used to return an empty profile, and -1 to fail inside numpy.
    s = SpectralParameter.from_turn(0.2)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        phase_average_profile(GOLDEN, ExpGenerator(0.5, 1), s, n_max, 16)


@pytest.mark.parametrize("n", [0, -2])
def test_birkhoff_scan_rejects_bad_n(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        birkhoff_scan([0.2, 0.5], [0, 1], GOLDEN, ExpGenerator(0.5, 1), 1.0, n)


def test_reference_bound_dispatch():
    assert reference_bound(ExpGenerator(0.5, 1)) == theorem1_bound(0.5)
    g = PerturbedGenerator(0.5, 1, 0.1 * lambda_max(0.5, [1, 1]), [1, 1])
    assert reference_bound(g) == perturbed_reference(g)
    assert reference_bound(g) < theorem1_bound(0.5)
    assert math.isnan(reference_bound(ConstantGenerator(0.1)))


def test_subharmonic_center_value_single_step():
    g = ExpGenerator(0.6, 1)
    rep = subharmonic_check(GOLDEN, g, SpectralParameter.from_turn(0.3), 0, 1, 256)
    assert rep.center_value == pytest.approx(math.log(0.8), abs=1e-12)


def test_subharmonic_slack_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(6):
        g = ExpGenerator(float(rng.uniform(0.15, 0.85)), int(rng.integers(1, 4)))
        s = SpectralParameter.from_turn(float(rng.random()))
        rep = subharmonic_check(GOLDEN, g, s, int(rng.integers(0, 2)),
                                int(rng.integers(1, 9)), 1024)
        assert rep.slack >= -1e-3


def test_subharmonic_grid_refinement():
    g = ExpGenerator(0.3, 1)
    s = SpectralParameter.from_turn(0.5)
    coarse = subharmonic_check(GOLDEN, g, s, 0, 6, 2048)
    fine = subharmonic_check(GOLDEN, g, s, 0, 6, 4096)
    assert abs(coarse.circle_average - fine.circle_average) < 1e-6


def test_subharmonic_circle_average_pinned():
    # A 4.2e6-point midpoint rule on the direct products gives
    # -0.33943553289; scipy's adaptive quad was off here by 1.07e-5
    # (-0.3394248592) without any warning.
    g = ExpGenerator(0.456, 2)
    s = SpectralParameter.from_turn(0.521)
    rep = subharmonic_check(GOLDEN, g, s, 1, 11, 2048)
    assert rep.circle_average == pytest.approx(-0.3394355329, abs=1e-9)


def test_subharmonic_quad_delta():
    g = ExpGenerator(0.3, 1)
    s = SpectralParameter.from_turn(0.0)
    for j0 in (0, 1):
        rep = subharmonic_check(GOLDEN, g, s, j0, 4, 2048)
        assert math.isfinite(rep.quad_delta)
        assert 0.0 <= rep.quad_delta < 1e-9


def test_subharmonic_route_equality():
    # Analytic-family samples + n log(1/eps) reproduce the direct cocycle
    # log norms on a matched grid, point by point.
    g = ExpGenerator(0.4, 2)
    s = SpectralParameter.from_turn(0.21)
    n, grid = 5, 512
    for j0 in (0, 1):
        vals = subharmonic_grid_values(GOLDEN, g, s, j0, n, grid)
        thetas = np.arange(grid) / grid
        logn, _ = grid_log_norms(thetas, j0, GOLDEN, g, s.z, n)
        assert np.max(np.abs(vals + n * math.log(1.0 / g.epsilon) - logn)) < 1e-8


def test_subharmonic_rejects_bad_input():
    s = SpectralParameter.from_turn(0.1)
    with pytest.raises(TypeError):
        subharmonic_check(GOLDEN, ConstantGenerator(0.1), s, 0, 2, 64)
    with pytest.raises(ValueError):
        subharmonic_check(GOLDEN, ExpGenerator(0.5, -1), s, 0, 2, 64)


def test_convergence_spread_diagnostic():
    # Doubling n should roughly halve the start-point spread.  Statistical,
    # so log a warning instead of failing hard.
    g = ExpGenerator(0.5, 1)
    z = np.exp(0.6j)
    rng = np.random.default_rng(2)
    theta0s = rng.random(32)
    spreads = {}
    for n in (10000, 20000):
        logn, _ = grid_log_norms(theta0s, 0, GOLDEN, g, z, n)
        spreads[n] = float(np.ptp(logn / n))
    if not spreads[20000] <= 0.8 * spreads[10000]:
        warnings.warn(
            f"spread did not contract: {spreads[10000]:.3e} -> {spreads[20000]:.3e}"
        )
