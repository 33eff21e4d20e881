"""Tests for the estimators, the positivity bound, and the subharmonic checker."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegolyap import cocycle, lyapunov
from szegolyap import mat2 as m2
from szegolyap.cocycle import NumericalBlowupError, grid_log_norms, szego_matrices
from szegolyap.dynamics import (
    ConstantGenerator,
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    Rotation,
    lambda_max,
)
from szegolyap.lyapunov import (
    _analytic_family_coeffs,
    _fro2_coeffs,
    birkhoff_scan,
    estimate_phase_average,
    perturbed_reference,
    phase_average_profile,
    reference_bound,
    subharmonic_check,
    theorem1_bound,
)

GOLDEN = Rotation(GOLDEN_MEAN)

# Long-run oracle: Birkhoff value at eps = 0.3, k = 1, z = i, golden
# rotation, start (0.123456, 0), n = 10^6.  Frozen from an independent run.
GAMMA_EPS03_Z_I = 1.1568166


def turn(t):
    """The point e^(2 pi i t) of the unit circle."""
    return cmath.exp(2j * math.pi * t)


def birkhoff_one(theta0, j0, g, z, n):
    """The Birkhoff estimate (1/n) log ||A^z_n(theta0, j0)|| of one orbit."""
    return float(birkhoff_scan([theta0], j0, GOLDEN, g, z, n)[0])


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
    gamma = birkhoff_one(0.2, 0, ConstantGenerator(0.0), turn(0.3), 500)
    assert gamma == pytest.approx(0.0, abs=1e-12)


def test_birkhoff_against_frozen_long_run_oracle():
    gamma = birkhoff_one(0.777, 1, ExpGenerator(0.3, 1), turn(0.25), 100000)
    assert gamma == pytest.approx(GAMMA_EPS03_Z_I, abs=0.01)


def test_birkhoff_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(10):
        eps = float(rng.uniform(0.1, 0.9))
        theta0, j0 = float(rng.random()), int(rng.integers(0, 2))
        g = ExpGenerator(eps, int(rng.choice([-2, -1, 1, 2])))
        z, n = turn(float(rng.random())), int(rng.integers(1, 500))
        assert birkhoff_one(theta0, j0, g, z, n) >= -1e-9


def test_phase_average_single_constant_step():
    c, z = 0.3 - 0.2j, turn(0.15)
    gamma = estimate_phase_average(GOLDEN, ConstantGenerator(c), z, 1, 32)
    expected = math.log(float(m2.op_norm(szego_matrices(c, z))))
    assert type(gamma) is float
    assert gamma == pytest.approx(expected, abs=1e-12)


def test_phase_average_finite_n_inequality_slice():
    # Small slice of the deterministic inequality; the acceptance suite
    # runs the full parameter matrix.
    bound = theorem1_bound(0.3)
    g = ExpGenerator(0.3, 1)
    for t in (0.0, 0.3, 0.77):
        prof = phase_average_profile(GOLDEN, g, turn(t), 4, 512)
        assert np.all(prof >= bound - 1e-3)


def test_profile_matches_single_estimates():
    g, z = ExpGenerator(0.5, 2), turn(0.4)
    prof = phase_average_profile(GOLDEN, g, z, 5, 64)
    for n in range(1, 6):
        assert prof[n - 1] == estimate_phase_average(GOLDEN, g, z, n, 64)


_PERTURBED = PerturbedGenerator(0.4, 1, 0.03j, [0.5 - 1j, 1j])


@pytest.mark.parametrize(
    "g, tile",
    # The exponential family at the default tile is the test above.
    [(ExpGenerator(0.5, 2), 1), (ExpGenerator(0.5, 2), 3)]
    + [(g, tile) for g in (_PERTURBED, ConstantGenerator(0.3 - 0.2j))
       for tile in (1, 3, cocycle.TILE)],
    ids=["exp-1", "exp-3", "perturbed-1", "perturbed-3", "perturbed-default",
         "constant-1", "constant-3", "constant-default"],
)
def test_profile_matches_single_estimates_across_tiles(monkeypatch, g, tile):
    monkeypatch.setattr(cocycle, "TILE", tile)
    z = turn(0.4)
    prof = phase_average_profile(GOLDEN, g, z, 5, 64)
    for n in range(1, 6):
        assert prof[n - 1] == estimate_phase_average(GOLDEN, g, z, n, 64)


def test_phase_average_runs_one_engine_call(monkeypatch):
    # Both starting parities run as the two rows of one engine call: the
    # 1-D angle grid against the parity column, each angle's exponential
    # taken once for both rows.  At a real z the column holds parity 0 only.
    calls = []

    def counting(*args, **kwargs):
        calls.append((np.shape(args[0]), np.shape(args[1])))
        return grid_log_norms(*args, **kwargs)

    monkeypatch.setattr(lyapunov, "grid_log_norms", counting)
    g, z = ExpGenerator(0.5, 1), turn(0.2)
    estimate_phase_average(GOLDEN, g, z, 3, 16)
    assert calls == [((16,), (2, 1))]
    phase_average_profile(GOLDEN, g, z, 4, 16)
    assert calls == [((16,), (2, 1))] * 2
    calls.clear()
    estimate_phase_average(GOLDEN, g, 1.0, 3, 16)
    assert calls == [((16,), (1, 1))]


def _family(rng, kind):
    """A random generator: exponential, or perturbed with real or complex
    products lambda a_l (real ones from a real or an imaginary lambda)."""
    eps = float(rng.uniform(0.05, 0.95))
    k = int(rng.integers(1, 4))
    if kind == "exp":
        return ExpGenerator(eps, k * int(rng.choice([-1, 1])))
    coeffs = rng.normal(size=2 * k) + 0j
    turn = rng.choice([0.0, 0.25, 0.5])
    if kind == "complex":
        coeffs += 1j * rng.normal(size=2 * k)
        turn = rng.random()
    elif turn == 0.25:  # imaginary lambda against imaginary a_l
        coeffs *= 1j
    lam = rng.uniform(0.1, 0.9) * lambda_max(eps, coeffs) * np.exp(2j * np.pi * turn)
    if kind == "real":
        lam = complex(round(lam.real, 12), 0.0) if turn != 0.25 else 1j * round(lam.imag, 12)
    return PerturbedGenerator(eps, k, lam, coeffs)


def _conjugated(g):
    """The generator with conj(lambda) and conj(a_l): its parity-0 values
    are the parity-1 values of ``g`` conjugated."""
    if isinstance(g, ExpGenerator):
        return g
    return PerturbedGenerator(g.epsilon, g.k, g.lam.conjugate(),
                              [a.conjugate() for a in g.coeffs])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["exp", "real", "complex"]),
    width=st.integers(1, 300),
    n=st.integers(1, 60),
    data=st.data(),
    real_z=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_parity_one_row_is_conjugate_parity_zero_row(kind, width, n, data, real_z, seed):
    # The parity flip negates every phase, so A^z(theta, 1) is the conjugate
    # of A^conj(z)(theta, 0) for the conjugated generator, and the engine's
    # log norms of the two agree byte for byte at every read.
    marks = data.draw(st.sets(st.integers(1, n)), label="marks")
    rng = np.random.default_rng(seed)
    g = _family(rng, kind)
    thetas = rng.random(width)
    thetas[rng.random(width) < 0.2] = 0.0
    z = complex(rng.choice([1.0, -1.0])) if real_z else complex(np.exp(2j * np.pi * rng.random()))
    rows, rec = grid_log_norms(thetas, [[0], [1]], GOLDEN, g, z, n, checkpoints=marks)
    mirror, rec_mirror = grid_log_norms(thetas, 0, GOLDEN, _conjugated(g), z.conjugate(), n,
                                        checkpoints=marks)
    assert rows[1].tobytes() == mirror.tobytes()
    assert all(rec[m][1].tobytes() == rec_mirror[m].tobytes() for m in marks)


@pytest.mark.parametrize("kind", ["exp", "real", "complex"])
def test_conjugate_parity_declared_exactly_where_it_holds(kind):
    thetas = np.linspace(0.0, 1.0, 1001, endpoint=False)
    for seed in range(6):
        g = _family(np.random.default_rng(seed), kind)
        holds = np.array_equal(g.evaluate_grid(thetas, 1), np.conj(g.evaluate_grid(thetas, 0)))
        assert g.conjugate_parity == holds == (kind != "complex"), (kind, seed)
    # The unperturbed member of the family is symmetric whatever its a_l,
    # and a column generator is where every row is.
    assert PerturbedGenerator(0.5, 1, 0.0, [1j, 2 + 1j]).conjugate_parity
    assert PerturbedGenerator(0.5, 1, [0.01, -0.02, 0.0], [1, 2]).conjugate_parity
    assert not PerturbedGenerator(0.5, 1, [0.01, 0.01j], [1, 2]).conjugate_parity
    assert not PerturbedGenerator([0.5, 0.4], 1, 0.01j, [1, 2]).conjugate_parity


class Undeclared:
    """A generator without ``conjugate_parity``: read as not symmetric.  It
    states the prefactor of the generator it wraps."""

    def __init__(self, g):
        self.g, self.prefactor = g, g.prefactor

    def evaluate_grid(self, thetas, j):
        return self.g.evaluate_grid(thetas, j)


def test_phase_average_runs_one_row_only_where_symmetric(monkeypatch):
    # The shape of the parity column of each engine call.
    calls = []

    def spy(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return grid_log_norms(*args, **kwargs)

    monkeypatch.setattr(lyapunov, "grid_log_norms", spy)
    real = PerturbedGenerator(0.5, 2, 0.01, [1, -2, 0.5, 1])
    complex_ = PerturbedGenerator(0.5, 2, 0.01, [1, -2j, 0.5, 1])
    cases = [
        (ExpGenerator(0.5, 1), 0.0, (1, 1)),
        (ExpGenerator(0.5, 1), 0.5, (2, 1)),  # turn(0.5) is not real
        (ExpGenerator(0.5, 1), 0.3, (2, 1)),
        (real, 0.0, (1, 1)),
        (real, 0.3, (2, 1)),
        (complex_, 0.0, (2, 1)),
        (complex_, 0.3, (2, 1)),
        (Undeclared(ExpGenerator(0.5, 1)), 0.0, (2, 1)),
        (ConstantGenerator(0.4), 0.0, (2, 1)),  # declares nothing
    ]
    for g, t, rows in cases:
        calls.clear()
        estimate_phase_average(GOLDEN, g, turn(t), 3, 16)
        phase_average_profile(GOLDEN, g, turn(t), 3, 16)
        assert calls == [rows, rows], (g, t)
    calls.clear()
    estimate_phase_average(GOLDEN, ExpGenerator(0.5, 1), -1.0, 3, 16)
    assert calls == [(1, 1)]


@pytest.mark.parametrize("z", [1.0, -1.0, 0.5, -2.0])
@pytest.mark.parametrize(
    "g", [ExpGenerator(0.3, 2), ExpGenerator(0.7, -1),
          PerturbedGenerator(0.5, 2, 0.01, [1, -2, 0.5, 1])],
    ids=["exp", "exp-negative-k", "perturbed-real"],
)
def test_one_row_means_equal_two_row_means(g, z):
    # At a real z, on the unit circle or off it, the one parity row counted
    # twice has the bits of the two rows' means added.
    last, rec = grid_log_norms(np.arange(300) / 300, [[0], [1]], GOLDEN, g, z, 7,
                               checkpoints=range(1, 7))
    rec[7] = last
    two_rows = [(np.mean(rec[m][0]) + np.mean(rec[m][1])) / (2.0 * m) for m in range(1, 8)]
    assert estimate_phase_average(GOLDEN, g, z, 7, 300) == two_rows[-1]
    assert phase_average_profile(GOLDEN, g, z, 7, 300).tolist() == two_rows


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["exp", "real", "complex", "constant"]),
    log_mod=st.floats(-3.0, 3.0),
    z_turn=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_average_mirrors_through_the_unit_circle(kind, log_mod, z_turn, n, seed):
    # Each orbit's log ||A^z_n|| is log ||A^(1/conj z)_n|| + n log|z| (see
    # tests/test_cocycle.py), so gamma_hat(z) = gamma_hat(1/conj z) + log|z|
    # at every n, within the engine's rounding (2^-40 per step and unit of
    # 1 + |log|z||, as there); at a real z both sides run one parity row.
    rng = np.random.default_rng(seed)
    g = (ConstantGenerator(rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.random()))
         if kind == "constant" else _family(rng, kind))
    z = 10.0**log_mod * turn(z_turn)
    gamma = phase_average_profile(GOLDEN, g, z, n, 32)
    mirror = phase_average_profile(GOLDEN, g, 1.0 / z.conjugate(), n, 32)
    tol = 2.0**-40 * (1.0 + abs(math.log(abs(z))))
    assert np.max(np.abs(gamma - mirror - math.log(abs(z)))) <= tol
    assert estimate_phase_average(GOLDEN, g, z, n, 32) == gamma[-1]


def _traced_peak(run):
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phase_average_peak_memory():
    # Traced peaks in bytes with one engine call per parity, which held the
    # first call's results through the second and copied the log norms of
    # the last mark: 4886272 for a profile to n = 64 over 4096 angles,
    # 1644824 for the verify_t1_wide benchmark's estimate (n = 2, 32768
    # angles).  One call for both parities, without the copy, peaked at
    # 4845936 and 1382520, and at 4780544 and 1317256 once 1 - |f|^2 kept
    # no extended-precision copies of f.  At z = 1 the parity-0 row runs
    # alone: 2683320 and 1055088.  With the squares in the product buffer
    # and a block array of scales made per tile: 4756200 and 1292528
    # (2659008 and 1030360 at z = 1).  A multiply forming both halves of
    # a @ cur in one call buffered both of its broadcast operands, 2 x 128
    # KiB at 1024-orbit tiles, and peaked at 4871184 and 1407416.  With the
    # product rescaled by powers of two and no block array of scales:
    # 4743536 and 1275808 (2646360 and 1013640 at z = 1).
    g = ExpGenerator(0.5, 1)
    for t, profile, estimate in [(0.0, 2646360, 1013640), (0.3, 4743536, 1275808)]:
        z = turn(t)
        assert _traced_peak(lambda: phase_average_profile(GOLDEN, g, z, 64, 4096)) <= profile
        assert _traced_peak(lambda: estimate_phase_average(GOLDEN, g, z, 2, 32768)) <= estimate


def test_birkhoff_batch_peak_memory():
    # scan's shape: 64 orbits, two rows of 32 of one generator with a
    # column of two epsilons, over n = 320 steps: ten blocks of BUDGET // 64
    # steps.  The traced peak was 331792 bytes with a log per step and a
    # buffer of squares, logs and scales made once per call; 330552 with
    # the squares in the product buffer and a block array of scales, whose
    # logs are summed once per block; 313928 with the product rescaled by
    # powers of two; 248152 with the closed-form prefactors and the column.
    rng = np.random.default_rng(5)
    thetas, j0s = rng.random((2, 32)), rng.integers(0, 2, (2, 32))
    zs = np.exp(2j * np.pi * np.arange(32) / 32)
    g = ExpGenerator([0.3, 0.5], 1)
    assert _traced_peak(lambda: birkhoff_scan(thetas, j0s, GOLDEN, g, zs, 320)) <= 313928


def test_ladder_batch_peak_memory():
    # verify-t2's shape: the unperturbed row and five ladder rungs, one
    # generator with a column of couplings, 16 orbits each, over n = 100
    # steps, five blocks of BUDGET // 96 steps.  The traced peak was 315968
    # bytes with one generator call per row, 318536 with the rungs
    # evaluated as one run, 284272 with the closed-form prefactors and the
    # column of couplings.
    rng = np.random.default_rng(6)
    thetas, j0s = rng.random((6, 16)), rng.integers(0, 2, (6, 16))
    zs = np.exp(2j * np.pi * np.arange(16) / 16)
    lmax = lambda_max(0.5, [1, 1, 1, 1])
    gens = [ExpGenerator(0.5, 2), PerturbedGenerator(
        0.5, 2, [f * lmax for f in (0.8, 0.4, 0.2, 0.1, 0.05)], [1, 1, 1, 1])]
    assert _traced_peak(lambda: birkhoff_scan(thetas, j0s, GOLDEN, gens, zs, 100)) <= 318536


def test_cross_estimator_consistency():
    g, z = ExpGenerator(0.3, 1), turn(0.0)
    quad = estimate_phase_average(GOLDEN, g, z, 4000, 64)
    path = birkhoff_one(0.4321, 0, g, z, 4000)
    assert abs(quad - path) <= 0.02


def test_birkhoff_scan_matches_single_estimates():
    g = ExpGenerator(0.45, 1)
    turns = np.array([0.1, 0.35, 0.8])
    zs = np.exp(2j * np.pi * turns)
    theta0s = np.array([0.2, 0.5, 0.9])
    j0s = np.array([0, 1, 0])
    gammas = birkhoff_scan(theta0s, j0s, GOLDEN, g, zs, 300)
    for i in range(3):
        alone = birkhoff_one(float(theta0s[i]), int(j0s[i]), g, turn(float(turns[i])), 300)
        assert gammas[i] == pytest.approx(alone, abs=1e-10)


@pytest.mark.parametrize("n, grid_size", [(0, 4), (-1, 4), (3, 0)])
def test_estimate_phase_average_rejects_bad_sizes(n, grid_size):
    with pytest.raises(ValueError, match="must be >= 1"):
        estimate_phase_average(GOLDEN, ExpGenerator(0.5, 1), turn(0.2), n, grid_size)


@pytest.mark.parametrize("n_max", [0, -1])
def test_phase_average_profile_rejects_bad_n_max(n_max):
    # n_max = 0 used to return an empty profile, and -1 to fail inside numpy.
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        phase_average_profile(GOLDEN, ExpGenerator(0.5, 1), turn(0.2), n_max, 16)


@pytest.mark.parametrize("z", [turn(0.2), 1.0], ids=["complex-z", "real-z"])
@pytest.mark.parametrize("g", [
    ExpGenerator([0.3, 0.5], 1),
    ExpGenerator([0.3], 1),
    PerturbedGenerator(0.5, 1, [0.01, 0.02], [1, 1]),
    PerturbedGenerator([0.3, 0.5], 1, 0.0, [1, 1]),
    [ExpGenerator(0.3, 1), ExpGenerator(0.5, 1)],
], ids=["exp-column", "one-row-column", "lambda-column", "eps-column", "sequence"])
def test_phase_average_takes_one_row_generator(monkeypatch, g, z):
    # A phase average's rows are the parities: a two-row column or
    # sequence would pair its first row with parity 0 and its second with
    # parity 1, silently.  Each is refused before the engine runs, as a
    # column generator is by the subharmonic check.
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(lyapunov, "grid_log_norms", engine)
    with pytest.raises(ValueError, match="one row's generator"):
        estimate_phase_average(GOLDEN, g, z, 4, 16)
    with pytest.raises(ValueError, match="one row's generator"):
        phase_average_profile(GOLDEN, g, z, 4, 16)
    if isinstance(g, ExpGenerator):
        with pytest.raises(ValueError, match="one row's generator"):
            subharmonic_check(GOLDEN, g, z, 0, 2)


@pytest.mark.parametrize("n", [0, -2])
def test_birkhoff_scan_rejects_bad_n(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        birkhoff_scan([0.2, 0.5], [0, 1], GOLDEN, ExpGenerator(0.5, 1), 1.0, n)


def test_reference_bound_dispatch():
    assert reference_bound(ExpGenerator(0.5, 1)) == theorem1_bound(0.5)
    g = PerturbedGenerator(0.5, 1, 0.1 * lambda_max(0.5, [1, 1]), [1, 1])
    assert reference_bound(g) == perturbed_reference(g)
    assert reference_bound(g) < theorem1_bound(0.5)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_subharmonic_center_value_single_step(n):
    # P(0) is diagonal with modulus (1 - eps^2)^(n/2) = 0.8^n.
    g = ExpGenerator(0.6, 1)
    rep = subharmonic_check(GOLDEN, g, turn(0.3), 0, n)
    assert rep.center_value == pytest.approx(n * math.log(0.8), abs=1e-12)


def test_subharmonic_slack_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(6):
        g = ExpGenerator(float(rng.uniform(0.15, 0.85)), int(rng.integers(1, 4)))
        z = turn(float(rng.random()))
        rep = subharmonic_check(GOLDEN, g, z, int(rng.integers(0, 2)),
                                int(rng.integers(1, 9)))
        assert rep.slack >= -1e-3


@pytest.mark.parametrize("eps, k, n, j0", [(0.3, 1, 6, 0), (0.456, 2, 5, 1), (0.6, 3, 3, 0)])
def test_subharmonic_coefficients_match_sampled_fft(eps, k, n, j0):
    # Independent route: F = ||P||_F^2 = eps^(2n) (e^(2L) + e^(-2L)) from the
    # direct cocycle log norms L, sampled at more than 2 deg points.
    g, z = ExpGenerator(eps, k), turn(0.37)
    deg = 2 * k * n
    coeffs = _fro2_coeffs(_analytic_family_coeffs(GOLDEN, g, z, j0, n))
    samples = 2 * deg + 7
    logn, _ = grid_log_norms(np.arange(samples) / samples, j0, GOLDEN, g, z, n)
    fro2 = eps ** (2 * n) * (np.exp(2.0 * logn) + np.exp(-2.0 * logn))
    sampled = np.fft.fft(fro2)[: deg + 1] / samples
    assert coeffs.shape == (deg + 1,)
    assert np.max(np.abs(coeffs - sampled)) <= 1e-12 * np.max(np.abs(coeffs))


def test_subharmonic_circle_average_pinned():
    # A 4.2e6-point midpoint rule on the direct products gives
    # -0.33943553289; scipy's adaptive quad was off here by 1.07e-5
    # (-0.3394248592) without any warning.
    rep = subharmonic_check(GOLDEN, ExpGenerator(0.456, 2), turn(0.521), 1, 11)
    assert rep.circle_average == pytest.approx(-0.3394355329, abs=1e-9)


def test_subharmonic_quad_delta():
    g = ExpGenerator(0.3, 1)
    for j0 in (0, 1):
        rep = subharmonic_check(GOLDEN, g, turn(0.0), j0, 4)
        assert math.isfinite(rep.quad_delta)
        assert 0.0 <= rep.quad_delta < 1e-9


def test_subharmonic_route_equality():
    # The analytic family's coefficient polynomial P, evaluated on a matched
    # grid, plus n log(1/eps) reproduces the direct cocycle log norms point
    # by point: ||P(e^(2 pi i theta))|| = eps^n ||A^z_n(theta, j0)||.
    g, z = ExpGenerator(0.4, 2), turn(0.21)
    n, grid = 5, 512
    thetas = np.arange(grid) / grid
    w = np.exp(2j * np.pi * thetas)
    for j0 in (0, 1):
        coeffs = np.moveaxis(_analytic_family_coeffs(GOLDEN, g, z, j0, n), -1, 0)
        prod = np.polynomial.polynomial.polyval(w[:, None, None], coeffs, tensor=False)
        vals = np.log(m2.op_norm(prod))
        logn, _ = grid_log_norms(thetas, j0, GOLDEN, g, z, n)
        assert np.max(np.abs(vals + n * math.log(1.0 / g.epsilon) - logn)) < 1e-8


def test_subharmonic_rejects_bad_input(monkeypatch):
    z = turn(0.1)
    with pytest.raises(TypeError):
        subharmonic_check(GOLDEN, ConstantGenerator(0.1), z, 0, 2)
    with pytest.raises(ValueError):
        subharmonic_check(GOLDEN, ExpGenerator(0.5, -1), z, 0, 2)

    # P(w) has entries in 1/z at parity-1 steps: z = 0 is refused before
    # any coefficient is formed, even where no such step occurs (j0 = 0, n = 1).
    def unreachable(*args):
        raise AssertionError("coefficients formed at z = 0")

    monkeypatch.setattr(lyapunov, "_analytic_family_coeffs", unreachable)
    for z, j0, n in [(0.0, 1, 3), (0j, 0, 2), (0, 0, 1)]:
        with pytest.raises(ValueError, match="z != 0"):
            subharmonic_check(GOLDEN, ExpGenerator(0.5, 1), z, j0, n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subharmonic_extreme_z_raises_blowup():
    # At extreme finite |z| the powers of z and 1/z in P(w)'s coefficients
    # leave the double range: a NumericalBlowupError, with no warning, not
    # numpy's LinAlgError from np.roots.  With no parity-1 step (j0 = 0,
    # n = 1) z never enters P(w).
    g = ExpGenerator(0.5, 1)
    for z in (1e-320, 1e-200, 1e300):
        with pytest.raises(NumericalBlowupError, match="not finite"):
            subharmonic_check(GOLDEN, g, z, 1, 3)
        assert subharmonic_check(GOLDEN, g, z, 0, 1) == subharmonic_check(GOLDEN, g, 1.0, 0, 1)


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
