"""Tests for the base dynamics and the coefficient generators."""

import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import szegolyap
from szegolyap.dynamics import (
    AdmissibilityError,
    ConstantGenerator,
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    Rotation,
    TWO_PI,
    evaluate,
    lambda_max,
)

GOLDEN = Rotation(GOLDEN_MEAN)


def visited(theta0, j0, r, steps):
    """(theta, j) of T^m (theta0, j0) for m in ``steps``, as the engine
    forms them."""
    thetas, parity = r.orbit(theta0, j0, np.asarray(steps))
    return [(float(t), int(j)) for t, j in zip(thetas, parity)]


def value(g, theta, j):
    """The generator's value at one phase point."""
    return complex(g.evaluate_grid(np.array([theta]), j)[0])


def test_step_direct():
    assert visited(0.0, 0, Rotation(0.25), [1]) == [(0.25, 1)]


def test_step_wraparound():
    [(theta, j)] = visited(0.9, 1, Rotation(0.25), [1])
    assert j == 0
    assert theta == pytest.approx(0.15, abs=1e-15)


def test_rotation_validation():
    with pytest.raises(ValueError):
        Rotation(0.0)


def test_iterated_step_matches_closed_form():
    # Oracle: exact rational arithmetic on the float values of theta0, alpha.
    alpha = GOLDEN_MEAN
    exact = Fraction(0.123)
    frac_alpha = Fraction(alpha)
    checkpoints = [10, 1000, 100000, 1000000]
    for n, (theta, j) in zip(checkpoints, visited(0.123, 1, Rotation(alpha), checkpoints)):
        target = float((exact + n * frac_alpha) % 1)
        assert abs(theta - target) < 1e-9, n
        assert j == (1 + n) % 2


def test_eval_exp_phase_zero():
    assert value(ExpGenerator(0.6, 2), 0.0, 0) == pytest.approx(0.8, abs=1e-15)


def test_eval_exp_quarter_turn():
    assert value(ExpGenerator(0.6, 1), 0.25, 0) == pytest.approx(0.8j, abs=1e-15)


def test_eval_exp_modulus():
    rng = np.random.default_rng(0)
    g = ExpGenerator(0.37, -2)
    for _ in range(1000):
        theta, j = float(rng.random()), int(rng.integers(0, 2))
        assert abs(value(g, theta, j)) == pytest.approx(math.sqrt(1 - 0.37**2), abs=1e-14)


def test_eval_exp_parity_conjugation():
    g = ExpGenerator(0.5, 3)
    for theta in np.linspace(0.0, 0.999, 57):
        v0, v1 = value(g, theta, 0), value(g, theta, 1)
        assert abs(v1 - v0.conjugate()) < 1e-14


def test_eval_exp_grid_matches_scalar():
    # Against m (cos, sin) of +-2 pi k theta, one angle at a time.
    g = ExpGenerator(0.41, 2)
    thetas = np.linspace(0.0, 0.99, 31)
    for j in (0, 1):
        grid = g.evaluate_grid(thetas, j)
        for i, th in enumerate(thetas):
            phase = (1 - 2 * j) * TWO_PI * g.k * float(th)
            assert abs(grid[i] - g.modulus * complex(math.cos(phase), math.sin(phase))) < 1e-14


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_perturbed_grid_matches_rows_and_single_angles(k):
    # 16 x 1024 angles make 256 KiB of complex values, the size from which
    # numpy reuses a temporary and may swap a product's operands; on one
    # element a product in place takes another loop.  Either would make a
    # grid value differ from the same angle's value in a row or alone.
    rng = np.random.default_rng(30 + k)
    coeffs = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
    lam = 0.9 * lambda_max(0.4, coeffs) * np.exp(2j * np.pi * rng.random())
    g = PerturbedGenerator(0.4, k, lam, coeffs)
    thetas = rng.random((16, 1024))
    parity = rng.integers(0, 2, thetas.shape)
    grid = g.evaluate_grid(thetas, parity)
    for i in range(thetas.shape[0]):
        assert np.array_equal(grid[i], g.evaluate_grid(thetas[i], parity[i]))
    alone = [g.evaluate_grid(thetas.flat[i:i + 1], parity.flat[i])[0]
             for i in range(thetas.size)]
    assert np.array_equal(grid.ravel(), alone)


def _sign_formula(g, thetas, j):
    """Values from one exponential per (angle, parity) pair, the phase's
    sign 1 - 2j in the exponent, and the same Horner products and powers
    w^k as ``PerturbedGenerator.evaluate_grid``."""
    if isinstance(g, ExpGenerator):
        sign = 1 - 2 * np.asarray(j)
        return g.modulus * np.exp(1j * TWO_PI * g.k * sign * np.asarray(thetas))
    return _sign_horner(g, thetas, j)[2]


def _sign_prefactor(g, thetas, j):
    """A perturbed ``g``'s prefactors (1 - |f|^2)^(-1/2) restated in plain
    numpy from the closed form 1 - |f|^2 = eps^2 - (1 - eps^2) Re((2 b + L)
    conj(L)), with 2 b + L summed as (b + L) + b, on the b and L of
    ``_sign_horner``."""
    b, lam_p, _ = _sign_horner(g, thetas, j)
    h = (b + lam_p) + b
    eps2 = g.epsilon**2
    return 1.0 / np.sqrt(eps2 - (h.real * lam_p.real + h.imag * lam_p.imag) * (1.0 - eps2))


def _sign_horner(g, thetas, j):
    """A perturbed ``g``'s b = w^k, L = lambda sum_l a_l w^l and values
    m (b + L), as ``_sign_formula`` takes them."""
    sign = 1 - 2 * np.asarray(j)
    w = np.exp(1j * TWO_PI * sign * np.asarray(thetas))
    wbar = np.conjugate(w)
    c = [g.lam * a for a in g.coeffs]
    pos, neg, spare = np.empty_like(w), np.empty_like(w), np.empty_like(w)
    lam_p = c[-1]
    for cl in reversed(c[g.k:-1]):
        np.multiply(w, lam_p, out=spare)
        lam_p = np.add(spare, cl, out=pos)
    np.multiply(wbar, c[0], out=neg)
    for cl in c[1:g.k]:
        np.add(neg, cl, out=spare)
        np.multiply(spare, wbar, out=neg)
    lam_p = np.add(neg, lam_p, out=spare)
    b = w
    for i in range(1, g.k):
        b = np.multiply(b, w, out=(pos, neg)[(g.k - 1 - i) % 2])
    return b, lam_p, np.multiply(np.add(b, lam_p, out=wbar), g.modulus, out=neg)


@pytest.mark.parametrize(
    "g",
    [
        ExpGenerator(0.41, 2),
        ExpGenerator(0.3, -3),
        ExpGenerator(0.7, 1),
        PerturbedGenerator(0.5, 2, 0.3 * lambda_max(0.5, [1, 0.5j, -1, 2]) * (0.6 + 0.8j),
                           [1, 0.5j, -1, 2]),
        PerturbedGenerator(0.2, 1, 0.9 * lambda_max(0.2, [0.3 - 1j, 2j]) * 1j,
                           [0.3 - 1j, 2j]),
    ],
    ids=["exp", "exp-negative-k", "exp-k1", "perturbed-k2", "perturbed-k1"],
)
def test_evaluate_grid_shares_each_angle_across_a_parity_axis(g):
    # Angles shaped (L, 1, b) and parities (L, 2, 1): one exponential per
    # angle serves both rows, and each row has the bytes of a call with
    # that row's parities, and of the exponential taken per (angle,
    # parity) with the sign 1 - 2j, signed zeros included (angle 0).  This
    # rests on numpy's complex exp giving e^(-iy) = conj(e^(iy)) exactly.
    rng = np.random.default_rng(13)
    steps = 6
    thetas = rng.random((steps, 700))
    thetas[0, :5] = [0.0, 0.25, 0.5, 0.75, 2.0**-60]
    parity = (np.array([[0], [1]]) + np.arange(steps)[:, None, None]) % 2
    got = g.evaluate_grid(thetas[:, None, :], parity)
    assert got.shape == (steps, 2, 700)
    for row in (0, 1):
        assert got[:, row].tobytes() == g.evaluate_grid(thetas, parity[:, row]).tobytes()
    full = np.broadcast_to(parity, got.shape)
    angles = np.broadcast_to(thetas[:, None, :], got.shape)
    assert got.tobytes() == _sign_formula(g, angles, full).tobytes()
    if isinstance(g, PerturbedGenerator):
        # The filled prefactors too, so that a change of one ulp fails.
        rho = np.empty(got.shape)
        assert g.evaluate_grid(thetas[:, None, :], parity, rho=rho).tobytes() == got.tobytes()
        assert rho.tobytes() == _sign_prefactor(g, angles, full).tobytes()


def test_evaluate_gives_c_ordered_values_at_any_angle_layout():
    # The perturbed family's values take the layout of its angles; evaluate
    # gives them C-contiguous, with the prefactors it fills, as at C-ordered
    # angles.
    g = PerturbedGenerator(0.4, 2, 0.5 * lambda_max(0.4, [1, 1j, -1, 2]), [1, 1j, -1, 2])
    thetas = np.random.default_rng(5).random((6, 9))
    want = evaluate(g, thetas, 1)
    got = evaluate(g, np.asfortranarray(thetas), 1)
    assert got[0].flags.c_contiguous and got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _perturbed_exact(g, theta, j):
    """m (e^(+-2 pi i k theta) + lambda sum_l a_l e^(+-2 pi i l theta)) at
    the double theta in the working precision, every exponential taken on
    its own."""
    m = mpmath.sqrt(1 - mpmath.mpf(g.epsilon) ** 2)
    phase = (1 if j == 0 else -1) * 2 * mpmath.pi * mpmath.mpf(theta)
    pert = sum(mpmath.mpc(a) * mpmath.expj(l * phase)
               for a, l in zip(g.coeffs, range(-g.k, g.k)))
    return m * (mpmath.expj(g.k * phase) + mpmath.mpc(g.lam) * pert)


def _perturbed_oracle(g, theta, j):
    """The perturbed value in 50 digits, rounded once."""
    with mpmath.workdps(50):
        return complex(_perturbed_exact(g, theta, j))


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("frac", [0.0, 0.5, 0.99])
def test_perturbed_values_match_mpmath_oracle(k, frac):
    # Within 8k units of 2^-53 of the largest possible modulus
    # m (1 + |lambda| sum|a_l|).
    rng = np.random.default_rng(40 + 10 * k + int(100 * frac))
    eps = float(rng.uniform(0.1, 0.9))
    coeffs = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
    lam = frac * lambda_max(eps, coeffs) * np.exp(2j * np.pi * rng.random())
    g = PerturbedGenerator(eps, k, lam, coeffs)
    thetas = np.concatenate([[0.0, 0.25, 0.5, 1.0 - 2.0**-53], rng.random(28)])
    cap = 8 * k * 2.0**-53 * g.modulus * (1 + abs(lam) * sum(abs(a) for a in g.coeffs))
    for j in (0, 1):
        got = g.evaluate_grid(thetas, j)
        for theta, value in zip(thetas, got):
            assert abs(value - _perturbed_oracle(g, theta, j)) <= cap, (theta, j)


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
        theta, j = float(rng.random()), int(rng.integers(0, 2))
        assert abs(value(gp, theta, j) - value(ge, theta, j)) < 1e-14


def test_perturbed_at_theta_zero():
    lam = 0.05 + 0.02j
    g = PerturbedGenerator(0.6, 1, lam, [0, 1])
    expected = 0.8 * (1 + lam)
    assert abs(value(g, 0.0, 0) - expected) < 1e-14


def test_perturbed_stays_in_disk_at_half_radius():
    g = PerturbedGenerator(0.5, 1, 0.5 * lambda_max(0.5, [1, 1]), [1, 1])
    thetas = np.arange(4096) / 4096
    for j in (0, 1):
        assert np.max(np.abs(g.evaluate_grid(thetas, j))) < 1.0


def test_perturbed_rejects_large_lambda():
    lmax = lambda_max(0.5, [1, 1])
    with pytest.raises(AdmissibilityError):
        PerturbedGenerator(0.5, 1, 1.001 * lmax, [1, 1])


@pytest.mark.parametrize("factor", [1.0, 1.001])
@pytest.mark.parametrize("eps", [0.5, 1e-8, 1e-12])
def test_perturbed_rejects_coupling_at_or_above_the_radius(eps, factor):
    coeffs = [1, 0.5j, -1, 2]
    with pytest.raises(AdmissibilityError, match="admissible radius"):
        PerturbedGenerator(eps, 2, factor * lambda_max(eps, coeffs) * 1j, coeffs)


def _random_perturbed(eps, k, frac, seed):
    """A perturbed generator with normal complex a_l at a coupling of modulus
    frac * lambda_max in a random direction."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
    return PerturbedGenerator(eps, k, frac * lambda_max(eps, coeffs)
                              * np.exp(2j * np.pi * rng.random()), coeffs)


@settings(max_examples=40, deadline=None)
@given(log_eps=st.floats(-12.0, math.log10(0.95)), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(log_eps=-12.0, k=1, seed=0)
def test_perturbed_admissible_near_the_radius_at_small_eps(log_eps, k, seed):
    # At 0.999 lambda_max the exact values keep 1 - |f|^2 >= eps^2 / 2000,
    # though m rounds to 1 and rounded values may leave the disk below
    # eps ~ 1e-8: the closed form admits every value of a dense grid, and
    # its prefactors lie in [1, 50 / eps] up to rounding.
    eps = 10.0**log_eps
    g = _random_perturbed(eps, k, 0.999, seed)
    thetas = np.arange(4096) / 4096
    for j in (0, 1):
        rho = np.empty(thetas.shape)
        g.evaluate_grid(thetas, j, rho=rho)
        assert np.all((1.0 - 2.0**-50 <= rho) & (rho <= 50.0 / eps))


@settings(max_examples=40, deadline=None)
@given(log_eps=st.floats(-12.0, math.log10(0.95)), k=st.integers(1, 3),
       frac=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_perturbed_prefactor_matches_50_digit_oracle(log_eps, k, frac, seed):
    # The closed form against (1 - |f|^2)^(-1/2) of the exact f at the same
    # double angle, in 50 digits: within 8 units of 2^-53, relative, up to
    # half the radius, where 1 - |f|^2 >= eps^2 / 2 (4 seen for k <= 3).
    g = _random_perturbed(10.0**log_eps, k, frac, seed)
    rng = np.random.default_rng(seed)
    thetas = np.concatenate([[0.0, 0.25, 0.5, 1.0 - 2.0**-53], rng.random(12)])
    parity = rng.integers(0, 2, thetas.shape)
    rho = np.empty(thetas.shape)
    g.evaluate_grid(thetas, parity, rho=rho)
    with mpmath.workdps(50):
        for theta, j, got in zip(thetas, parity, rho):
            exact = 1 / mpmath.sqrt(1 - abs(_perturbed_exact(g, theta, j)) ** 2)
            assert abs(mpmath.mpf(got) / exact - 1) <= 8 * 2.0**-53, (theta, j)


def test_perturbed_coefficient_count():
    with pytest.raises(ValueError):
        PerturbedGenerator(0.5, 2, 0.0, [1, 1])


@pytest.mark.parametrize(
    "lam, coeffs",
    [(0.1, [math.nan, 1]), (0.0, [math.inf, 1]), (0.0, [1, complex(0.0, math.nan)]),
     (math.nan, [1, 1]), (complex(0.0, math.inf), [1, 1])],
    ids=["nan-a", "zero-lambda-inf-a", "zero-lambda-nan-a", "nan-lambda", "inf-lambda"],
)
def test_non_finite_perturbation_is_a_value_error(lam, coeffs):
    # A NaN radius or |lambda| fails no ">= radius" test: such a generator
    # used to build, and the engine then reported a numerical blowup.
    with pytest.raises(ValueError, match="must be finite"):
        PerturbedGenerator(0.5, 1, lam, coeffs)
    if not np.isfinite(coeffs).all():
        with pytest.raises(ValueError, match="must be finite"):
            lambda_max(0.5, coeffs)


def test_nan_values_fail_the_unit_disk_check():
    # A NaN value, here from a NaN angle past the constructor's checks,
    # fails the 1 - |f|^2 > 0 test, which a NaN never passes.
    g = PerturbedGenerator(0.5, 1, 0.0, [1, 1])
    with pytest.raises(AdmissibilityError, match="escaped the unit disk"):
        g.evaluate_grid(np.array([0.0, 0.25, math.nan, 0.75]), 0)


@pytest.mark.parametrize("k", [1.5, 2.0, "2", None])
def test_k_must_be_an_integer(k):
    # k = 1.5 gave coefficients that are not 1-periodic in theta, and the
    # perturbed family's 2k = 3 coefficients failed later in a slice.
    with pytest.raises(ValueError, match="k must be an integer"):
        ExpGenerator(0.5, k)
    with pytest.raises(ValueError, match="k must be an integer"):
        PerturbedGenerator(0.5, k, 0.0, [1, 1, 1])


@pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)])
def test_numpy_integer_k_gives_the_bits_of_int_k(k):
    thetas = np.arange(64) / 64
    for family, args in [(ExpGenerator, ()), (PerturbedGenerator, (0.01, [1, 2, 3, 4]))]:
        g, ref = family(0.5, k, *args), family(0.5, 2, *args)
        for j in (0, 1):
            assert g.evaluate_grid(thetas, j).tobytes() == ref.evaluate_grid(thetas, j).tobytes()


def test_column_generators_check_every_row():
    # eps, and lambda for the perturbed family, are each a number or a
    # sequence of one per row, kept as a tuple; a number serves every row.
    # Each row is checked as its scalar generator is, and an empty column or
    # two columns of different lengths are a ValueError.
    lmax = lambda_max(0.5, [1, 1])
    assert ExpGenerator(0.5, 1).rows is None
    assert ExpGenerator(np.array([0.5, 0.3]), 1) == ExpGenerator([0.5, 0.3], 1)
    assert ExpGenerator((0.5, 0.3), 1).epsilon == (0.5, 0.3)
    g = PerturbedGenerator(0.5, 1, [0.5 * lmax, 0.0, -0.5j * lmax], [1, 1])
    assert (g.rows, g.lam) == (3, (0.5 * lmax, 0j, -0.5j * lmax))
    assert PerturbedGenerator([0.5, 0.4], 1, 0.01, [1, 1]).rows == 2
    assert len({ExpGenerator([0.5, 0.3], 1), ExpGenerator((0.5, 0.3), 1)}) == 1
    with pytest.raises(ValueError, match="epsilon must lie in"):
        ExpGenerator([0.5, 1.0], 1)
    with pytest.raises(ValueError, match="empty sequence"):
        ExpGenerator([], 1)
    with pytest.raises(ValueError, match="empty sequence"):
        PerturbedGenerator(0.5, 1, [], [1, 1])
    with pytest.raises(ValueError, match="2 epsilons for 3 couplings"):
        PerturbedGenerator([0.5, 0.4], 1, [0.0, 0.0, 0.0], [1, 1])
    with pytest.raises(ValueError, match="must be finite"):
        PerturbedGenerator(0.5, 1, [0.0, math.nan], [1, 1])
    # 0.9 lambda_max(0.5) is past the radius at eps = 0.3, though not at 0.5.
    with pytest.raises(AdmissibilityError, match="at epsilon = 0.3"):
        PerturbedGenerator([0.5, 0.3], 1, 0.9 * lmax, [1, 1])
    with pytest.raises(AdmissibilityError, match="admissible radius"):
        PerturbedGenerator(0.5, 1, [0.5 * lmax, 1.001 * lmax], [1, 1])


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
    assert value(g, 0.7, 1) == 0.25j
    with pytest.raises(AdmissibilityError):
        ConstantGenerator(1.0)


@pytest.mark.parametrize("v", [0.25j, 0.6 - 0.3j, (1.0 - 1e-14) * np.exp(0.6j),
                               complex(1.0 - 2.0**-53, 0.0), complex(2.0**-30, 1.0 - 2.0**-52)])
def test_constant_prefactor_in_closed_form(v):
    # 1 - |v|^2 exact in rationals and rounded once, then ^(-1/2): within two
    # units of 2^-53 of the 50-digit value, where 1 - |v|^2 in doubles keeps
    # only a few digits near the circle.
    g = ConstantGenerator(v)
    with mpmath.workdps(50):
        exact = 1 / mpmath.sqrt(1 - mpmath.mpf(v.real) ** 2 - mpmath.mpf(v.imag) ** 2)
        assert abs(mpmath.mpf(g.prefactor) / exact - 1) <= 2 * 2.0**-53


@pytest.mark.parametrize("v", [complex(math.nan), complex(math.inf), complex(0.6, 0.8),
                               complex(1.0 - 2.0**-53, 2.0**-26)])
def test_constant_on_or_past_the_circle_is_rejected(v):
    # A value whose modulus rounds to 1, and a NaN or an infinite one, which
    # has no prefactor: a NaN used to be accepted.
    with pytest.raises(AdmissibilityError):
        ConstantGenerator(v)


def test_package_uses_no_extended_precision():
    # Every prefactor comes from a closed form in doubles, not from a float
    # type whose width depends on the platform.
    package = Path(szegolyap.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert "longdouble" not in text and "float128" not in text, path.name
