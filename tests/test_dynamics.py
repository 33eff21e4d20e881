"""Tests for the base dynamics and the coefficient generators."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from szegolyap.dynamics import (
    AdmissibilityError,
    ConstantGenerator,
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    PhasePoint,
    Rotation,
    lambda_max,
    step,
)

GOLDEN = Rotation(GOLDEN_MEAN)


def test_step_direct():
    assert step(PhasePoint(0.0, 0), Rotation(0.25)) == PhasePoint(0.25, 1)


def test_step_wraparound():
    p = step(PhasePoint(0.9, 1), Rotation(0.25))
    assert p.j == 0
    assert p.theta == pytest.approx(0.15, abs=1e-15)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint(1.0, 0)
    with pytest.raises(ValueError):
        PhasePoint(0.5, 2)
    with pytest.raises(ValueError):
        Rotation(0.0)


def test_iterated_step_matches_closed_form():
    # Oracle: exact rational arithmetic on the float values of theta0, alpha.
    alpha = GOLDEN_MEAN
    p = PhasePoint(0.123, 1)
    exact = Fraction(0.123)
    frac_alpha = Fraction(alpha)
    r = Rotation(alpha)
    checkpoints = {10, 1000, 100000, 1000000}
    q = p
    for n in range(1, 1000001):
        q = step(q, r)
        if n in checkpoints:
            target = float((exact + n * frac_alpha) % 1)
            assert abs(q.theta - target) < 1e-9, n
            assert q.j == (1 + n) % 2


def test_eval_exp_phase_zero():
    g = ExpGenerator(0.6, 2)
    assert g.evaluate(PhasePoint(0.0, 0)) == pytest.approx(0.8, abs=1e-15)


def test_eval_exp_quarter_turn():
    g = ExpGenerator(0.6, 1)
    assert g.evaluate(PhasePoint(0.25, 0)) == pytest.approx(0.8j, abs=1e-15)


def test_eval_exp_modulus():
    rng = np.random.default_rng(0)
    g = ExpGenerator(0.37, -2)
    for _ in range(1000):
        p = PhasePoint(float(rng.random()), int(rng.integers(0, 2)))
        assert abs(g.evaluate(p)) == pytest.approx(math.sqrt(1 - 0.37**2), abs=1e-14)


def test_eval_exp_parity_conjugation():
    g = ExpGenerator(0.5, 3)
    for theta in np.linspace(0.0, 0.999, 57):
        v0 = g.evaluate(PhasePoint(float(theta), 0))
        v1 = g.evaluate(PhasePoint(float(theta), 1))
        assert abs(v1 - v0.conjugate()) < 1e-14


def test_eval_exp_grid_matches_scalar():
    g = ExpGenerator(0.41, 2)
    thetas = np.linspace(0.0, 0.99, 31)
    for j in (0, 1):
        grid = g.evaluate_grid(thetas, j)
        for i, th in enumerate(thetas):
            assert abs(grid[i] - g.evaluate(PhasePoint(float(th), j))) < 1e-14


@pytest.mark.parametrize(
    "g",
    [
        ExpGenerator(0.41, 2),
        ExpGenerator(0.3, -3),
        PerturbedGenerator(0.5, 2, 0.3 * lambda_max(0.5, [1, 0.5j, -1, 2]),
                           [1, 0.5j, -1, 2]),
        ConstantGenerator(0.25 - 0.5j),
    ],
    ids=["exp", "exp-negative-k", "perturbed", "constant"],
)
@pytest.mark.parametrize("shape", [(37,), (5, 8)], ids=["1d", "2d"])
def test_evaluate_grid_parity_array_matches_scalar_parities(g, shape):
    # One call with a parity per angle equals the two shared-parity calls
    # element for element, bit for bit.
    rng = np.random.default_rng(11)
    thetas = rng.random(shape)
    parity = rng.integers(0, 2, shape)
    got = g.evaluate_grid(thetas, parity)
    assert got.shape == shape
    for j in (0, 1):
        sel = parity == j
        assert np.array_equal(got[sel], g.evaluate_grid(thetas[sel], j))
        assert np.array_equal(got[sel], g.evaluate_grid(thetas, j)[sel])


def test_generator_validation():
    with pytest.raises(ValueError):
        ExpGenerator(0.5, 0)
    with pytest.raises(ValueError):
        ExpGenerator(1.0, 1)


def test_perturbed_zero_lambda_matches_exp():
    ge = ExpGenerator(0.4, 2)
    gp = PerturbedGenerator(0.4, 2, 0.0, [1, 1, 1, 1])
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = PhasePoint(float(rng.random()), int(rng.integers(0, 2)))
        assert abs(gp.evaluate(p) - ge.evaluate(p)) < 1e-14


def test_perturbed_at_theta_zero():
    lam = 0.05 + 0.02j
    g = PerturbedGenerator(0.6, 1, lam, [0, 1])
    expected = 0.8 * (1 + lam)
    assert abs(g.evaluate(PhasePoint(0.0, 0)) - expected) < 1e-14


def test_perturbed_stays_in_disk_at_half_radius():
    g = PerturbedGenerator(0.5, 1, 0.5 * lambda_max(0.5, [1, 1]), [1, 1])
    thetas = np.arange(4096) / 4096
    for j in (0, 1):
        assert np.max(np.abs(g.evaluate_grid(thetas, j))) < 1.0


def test_perturbed_rejects_large_lambda():
    lmax = lambda_max(0.5, [1, 1])
    with pytest.raises(AdmissibilityError):
        PerturbedGenerator(0.5, 1, 1.001 * lmax, [1, 1])


def test_perturbed_coefficient_count():
    with pytest.raises(ValueError):
        PerturbedGenerator(0.5, 2, 0.0, [1, 1])


def test_perturbed_continuity_in_lambda():
    # Pointwise |f_lam - f_0| <= (1-eps^2)^(1/2) |lam| sum|a_l|.
    eps, coeffs = 0.45, [0.3, -0.5j, 1.0, 0.2 + 0.1j]
    lam = 0.3 * lambda_max(eps, coeffs)
    g0 = PerturbedGenerator(eps, 2, 0.0, coeffs)
    g1 = PerturbedGenerator(eps, 2, lam, coeffs)
    cap = math.sqrt(1 - eps**2) * abs(lam) * sum(abs(a) for a in coeffs)
    thetas = np.arange(512) / 512
    for j in (0, 1):
        diff = np.abs(g1.evaluate_grid(thetas, j) - g0.evaluate_grid(thetas, j))
        assert np.max(diff) <= cap + 1e-12


def test_lambda_max_empty():
    assert lambda_max(0.5, []) == math.inf


def test_lambda_max_arithmetic():
    assert lambda_max(0.6, [1.0]) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("eps", [0.5, 1e-7, 1e-9])
def test_lambda_max_matches_high_precision(eps):
    # (1/m - 1) / sum|a_l| with m = (1 - eps^2)^(1/2), in 50 digits: the
    # naive double-precision difference is 0 at eps = 1e-9.
    with mpmath.workdps(50):
        e = mpmath.mpf(eps)
        exact = (1 / mpmath.sqrt(1 - e**2) - 1) / 4
        expected = pytest.approx(float(exact), rel=1e-15, abs=0.0)
        assert lambda_max(eps, [1, 1, 1, 1]) == expected


def test_lambda_max_dense_grid_oracle():
    # Just below the radius the range must still sit inside the disk.
    rng = np.random.default_rng(2)
    thetas = np.arange(8192) / 8192
    for _ in range(100):
        eps = float(rng.uniform(0.1, 0.9))
        k = int(rng.integers(1, 4))
        coeffs = rng.standard_normal(2 * k) + 1j * rng.standard_normal(2 * k)
        lam = 0.999 * lambda_max(eps, coeffs)
        g = PerturbedGenerator(eps, k, lam, coeffs)
        for j in (0, 1):
            assert np.max(np.abs(g.evaluate_grid(thetas, j))) < 1.0


def test_weyl_equidistribution():
    # Orbit averages of e^(2 pi i theta) vanish in the limit; at N = 1e5
    # the golden rotation is far inside the 1e-2 tolerance.
    n = 100000
    thetas = (0.3 + np.arange(n) * GOLDEN_MEAN) % 1.0
    avg = np.mean(np.exp(2j * np.pi * thetas))
    assert abs(avg) < 1e-2


def test_constant_generator():
    g = ConstantGenerator(0.25j)
    assert g.evaluate(PhasePoint(0.7, 1)) == 0.25j
    with pytest.raises(AdmissibilityError):
        ConstantGenerator(1.0)
