"""Tests for cocycle construction, conjugation, and renormalized products."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegolyap import cocycle
from szegolyap import mat2 as m2
from szegolyap.cocycle import (
    DegenerateCoefficientError,
    NumericalBlowupError,
    SpectralParameter,
    conjugated_step,
    conjugator,
    grid_log_norms,
    szego_matrix,
)
from szegolyap.dynamics import (
    ConstantGenerator,
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    PhasePoint,
    Rotation,
    lambda_max,
)
from szegolyap.lyapunov import estimate_birkhoff

GOLDEN = Rotation(GOLDEN_MEAN)


def random_admissible(rng):
    """Random (p, s, g) tuple in the exponential family."""
    p = PhasePoint(float(rng.random()), int(rng.integers(0, 2)))
    s = SpectralParameter.from_turn(float(rng.random()))
    eps = float(rng.uniform(0.05, 0.95))
    k = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return p, s, ExpGenerator(eps, k)


def test_spectral_parameter_validation():
    with pytest.raises(ValueError):
        SpectralParameter(2.0 + 0.0j, math.sqrt(2.0) + 0.0j)
    with pytest.raises(ValueError):
        SpectralParameter(1.0 + 0.0j, -0.5 + 0.0j)
    s = SpectralParameter.from_turn(0.8)
    assert abs(s.sqrt_z**2 - s.z) < 1e-15


def test_szego_free_case():
    s = SpectralParameter.from_turn(0.0)
    assert m2.max_abs_diff(szego_matrix(0.0, s), np.eye(2)) == 0.0


def test_szego_hand_value():
    # f = 0.8i from the exponential generator at theta = 1/4, z = 1.
    s = SpectralParameter.from_turn(0.0)
    f = ExpGenerator(0.6, 1).evaluate(PhasePoint(0.25, 0))
    expected = (1.0 / 0.6) * m2.mat2(1.0, 0.8j, -0.8j, 1.0)
    assert m2.max_abs_diff(szego_matrix(f, s), expected) < 1e-14


def test_szego_det_is_z():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p, s, g = random_admissible(rng)
        assert abs(m2.det(szego_matrix(g.evaluate(p), s)) - s.z) < 1e-12


def test_szego_is_u11():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p, s, g = random_admissible(rng)
        assert m2.is_u11(szego_matrix(g.evaluate(p), s), 1e-12)


def test_szego_degenerate_coefficient():
    s = SpectralParameter.from_turn(0.3)
    with pytest.raises(DegenerateCoefficientError):
        szego_matrix(1.0 - 1e-17, s)


def test_conjugator_parity_zero_is_swap():
    s = SpectralParameter.from_turn(0.31)
    assert m2.max_abs_diff(conjugator(PhasePoint(0.9, 0), s), m2.SWAP) == 0.0


def test_conjugator_parity_one_at_z_one():
    s = SpectralParameter.from_turn(0.0)
    assert m2.max_abs_diff(conjugator(PhasePoint(0.2, 1), s), np.eye(2)) < 1e-15


def test_conjugator_unitary():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = SpectralParameter.from_turn(float(rng.random()))
        for j in (0, 1):
            c = conjugator(PhasePoint(0.5, j), s)
            assert m2.max_abs_diff(m2.herm(c) @ c, np.eye(2)) < 1e-14


def test_conjugation_identity():
    # Closed form vs. the matrix-by-matrix product C A C^(-1).
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p, s, g = random_admissible(rng)
        pm = PhasePoint(p.theta, (p.j - 1) % 2)
        lhs = (
            conjugator(p, s)
            @ szego_matrix(g.evaluate(p), s)
            @ m2.inv(conjugator(pm, s))
        )
        assert m2.max_abs_diff(lhs, conjugated_step(p, s, g)) < 1e-12


def test_conjugated_step_hand_value():
    g = ExpGenerator(0.3, 5)
    s = SpectralParameter.from_turn(0.0)
    mod = math.sqrt(1 - 0.09)
    expected = (1.0 / 0.3) * m2.mat2(-mod, 1.0, 1.0, -mod)
    assert m2.max_abs_diff(conjugated_step(PhasePoint(0.0, 0), s, g), expected) < 1e-14


def test_conjugated_step_norm_matches_direct():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p, s, g = random_admissible(rng)
        direct = m2.op_norm(szego_matrix(g.evaluate(p), s))
        conj = m2.op_norm(conjugated_step(p, s, g))
        assert abs(direct - conj) < 1e-10 * direct


def test_conjugated_step_rejects_other_families():
    s = SpectralParameter.from_turn(0.1)
    with pytest.raises(TypeError):
        conjugated_step(PhasePoint(0.0, 0), s, ConstantGenerator(0.1))


def direct_product(p0, r, g, s, n, step=None):
    """Unrenormalized product A(T^(n-1) p0) ... A(p0) from single steps.

    ``step(p)`` gives the one-step matrix at p; the default is the direct
    cocycle.  Float64 holds these products for n <= 100 at eps >= 0.05.
    """
    prod = np.eye(2, dtype=complex)
    for m in range(n):
        p = PhasePoint((p0.theta + m * r.alpha) % 1.0, (p0.j + m) % 2)
        one = szego_matrix(g.evaluate(p), s) if step is None else step(p)
        prod = one @ prod
    return prod


def engine_log_norm(p0, r, g, s, n):
    """log ||A^z_n(p0)|| from the renormalized engine, batch of one."""
    logn, _ = grid_log_norms([p0.theta], p0.j, r, g, s.z, n)
    return float(logn[0])


class RealCosineGenerator:
    """Real coefficients 0.5 + 0.45 cos(2 pi theta) in D.

    At z = 1 every one-step matrix is (1-f^2)^(-1/2) [[1, -f], [-f, 1]]:
    symmetric, with the shared eigenvectors (1, +-1) and eigenvalues
    exp(-+atanh f).  The products therefore commute and
    log ||A_n|| = |sum over the orbit of atanh f|.
    """

    @staticmethod
    def evaluate_grid(thetas, j):
        return (0.5 + 0.45 * np.cos(2.0 * np.pi * np.asarray(thetas))).astype(complex)


class NaNGenerator:
    """Coefficients that are not numbers, as a broken generator might emit."""

    @staticmethod
    def evaluate_grid(thetas, j):
        return np.full(np.shape(thetas), np.nan, dtype=complex)


def test_accumulate_identity():
    # f = 0 at z = 1: every step is the identity, exactly.
    logn, rec = grid_log_norms(
        [0.0, 0.3, 0.9], 1, GOLDEN, ConstantGenerator(0.0), 1.0 + 0.0j, 10,
        checkpoints=[1, 10],
    )
    assert np.all(logn == 0.0)
    assert np.all(rec[1] == 0.0)


def test_accumulate_vs_direct_product_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p0, s, g = random_admissible(rng)
        n = int(rng.integers(1, 101))
        expected = math.log(float(m2.op_norm(direct_product(p0, GOLDEN, g, s, n))))
        assert engine_log_norm(p0, GOLDEN, g, s, n) == pytest.approx(
            expected, abs=1e-9 * (1 + abs(expected))
        )


def test_accumulate_scalar_matrices():
    # 5000 steps with log norm near 2500: the direct product would
    # overflow, the stripped log scales must add up to the closed form.
    n = 5000
    theta0s = np.array([0.0, 0.41])
    logn, _ = grid_log_norms(theta0s, 0, GOLDEN, RealCosineGenerator(), 1.0 + 0.0j, n)
    for theta0, got in zip(theta0s, logn):
        thetas = (theta0 + np.arange(n) * GOLDEN.alpha) % 1.0
        f = 0.5 + 0.45 * np.cos(2.0 * np.pi * thetas)
        expected = abs(math.fsum(np.arctanh(f)))
        assert got == pytest.approx(expected, rel=1e-12)


class LateNaNGenerator:
    """NaN coefficients above angle 0.25 only: the orbit of 0 under the
    rotation by 0.1 first reaches them at its fourth step."""

    @staticmethod
    def evaluate_grid(thetas, j):
        thetas = np.asarray(thetas)
        return np.where(thetas > 0.25, np.nan, 0.5 * np.exp(2j * np.pi * thetas))


@pytest.mark.filterwarnings("error")
def test_accumulate_blowup_detection():
    with pytest.raises(NumericalBlowupError, match=r"at step 1$"):
        grid_log_norms([0.1, 0.2], 0, GOLDEN, NaNGenerator(), 1.0 + 0.0j, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget", [1, cocycle.BUDGET], ids=["one-step", "default"])
def test_blowup_names_first_non_finite_step(monkeypatch, budget):
    monkeypatch.setattr(cocycle, "BUDGET", budget)
    with pytest.raises(NumericalBlowupError, match=r"at step 4$"):
        grid_log_norms([0.0], 1, Rotation(0.1), LateNaNGenerator(), 1.0 + 0.0j, 10)


def test_orbit_product_single_step():
    g = ExpGenerator(0.5, 1)
    s = SpectralParameter.from_turn(0.2)
    p0 = PhasePoint(0.3, 0)
    assert engine_log_norm(p0, GOLDEN, g, s, 1) == pytest.approx(
        math.log(float(m2.op_norm(szego_matrix(g.evaluate(p0), s)))), abs=1e-12
    )


def test_orbit_product_log_norm_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p, s, g = random_admissible(rng)
        n = int(rng.integers(1, 40))
        assert engine_log_norm(p, GOLDEN, g, s, n) >= 0.0


def test_cocycle_property_split_product():
    # A_(n+m)(p) = A_m(T^n p) A_n(p) on direct products, and the engine's
    # log norm of A_(n+m)(p) matches the split product.
    rng = np.random.default_rng(7)
    g = ExpGenerator(0.4, 2)
    s = SpectralParameter.from_turn(0.37)
    for _ in range(10):
        n, m = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        p0 = PhasePoint(float(rng.random()), int(rng.integers(0, 2)))
        pn = PhasePoint((p0.theta + n * GOLDEN.alpha) % 1.0, (p0.j + n) % 2)
        whole = direct_product(p0, GOLDEN, g, s, n + m)
        split = direct_product(pn, GOLDEN, g, s, m) @ direct_product(p0, GOLDEN, g, s, n)
        scale = float(m2.op_norm(whole))
        assert m2.max_abs_diff(whole / scale, split / scale) < 1e-8
        expected = math.log(float(m2.op_norm(split)))
        assert engine_log_norm(p0, GOLDEN, g, s, n + m) == pytest.approx(
            expected, abs=1e-8 * (1 + abs(expected))
        )


def test_conjugated_route_matches_direct():
    # Product of conjugated one-step matrices has the same norm as the
    # direct product: the conjugators telescope and are unitary.
    rng = np.random.default_rng(8)
    for _ in range(5):
        p0, s, g = random_admissible(rng)
        n = 100
        conj = direct_product(p0, GOLDEN, g, s, n, lambda p: conjugated_step(p, s, g))
        expected = math.log(float(m2.op_norm(conj)))
        assert engine_log_norm(p0, GOLDEN, g, s, n) == pytest.approx(
            expected, abs=1e-8 * (1 + abs(expected))
        )


def test_batched_log_norms_match_scalar_path():
    # One batch of three spectral parameters sharing an orbit against
    # estimate_birkhoff, which runs each as a batch of one.
    g = ExpGenerator(0.35, 1)
    p0 = PhasePoint(0.11, 1)
    turns = [0.0, 0.125, 0.4]
    zs = np.exp(2j * np.pi * np.array(turns))
    batched, _ = grid_log_norms(np.full(3, p0.theta), p0.j, GOLDEN, g, zs, 60)
    for i, t in enumerate(turns):
        est = estimate_birkhoff(p0, GOLDEN, g, SpectralParameter.from_turn(t), 60)
        assert batched[i] / 60 == pytest.approx(est.gamma_hat, abs=1e-14)


def test_grid_log_norms_checkpoints():
    g = ExpGenerator(0.5, 1)
    thetas = np.array([0.1, 0.6])
    logn, rec = grid_log_norms(
        thetas, 0, GOLDEN, g, 1.0 + 0.0j, 5, checkpoints=[2, 5]
    )
    assert set(rec) == {2, 5}
    assert np.allclose(rec[5], logn)
    short, _ = grid_log_norms(thetas, 0, GOLDEN, g, 1.0 + 0.0j, 2)
    assert np.allclose(rec[2], short)


def test_block_budget_does_not_change_results(monkeypatch):
    # BUDGET / 4 orbits make default blocks of 4 steps; the checkpoints fall
    # inside blocks and at their ends, including the last, short block.
    b = cocycle.BUDGET // 4
    rng = np.random.default_rng(11)
    args = (rng.random(b), rng.integers(0, 2, b), GOLDEN, ExpGenerator(0.3, 2),
            np.exp(2j * np.pi * rng.random(b)), 10)
    marks = [1, 2, 4, 5, 8, 9, 10]
    logn, rec = grid_log_norms(*args, checkpoints=marks)
    monkeypatch.setattr(cocycle, "BUDGET", 1)
    logn_1, rec_1 = grid_log_norms(*args, checkpoints=marks)
    assert np.array_equal(logn, logn_1)
    assert sorted(rec) == sorted(rec_1) == marks
    for m in marks:
        assert np.array_equal(rec[m], rec_1[m])
    assert np.array_equal(rec[10], logn)


def test_block_budget_does_not_change_perturbed_results(monkeypatch):
    # The perturbed coefficients are summed term by term, so a parity call
    # with a single angle (one orbit per start parity, BUDGET = 1) rounds
    # as the same angle does among many.
    rng = np.random.default_rng(13)
    g = PerturbedGenerator(0.5, 2, 0.02, [1, 1, 1, 1])
    default = cocycle.BUDGET
    for j0s in (np.array([0, 0, 1, 1, 0, 1, 1]), np.array([1, 0])):
        b = len(j0s)
        args = (rng.random(b), j0s, GOLDEN, g, np.exp(2j * np.pi * rng.random(b)), 50)
        monkeypatch.setattr(cocycle, "BUDGET", default)
        logn, _ = grid_log_norms(*args)
        for budget in (1, 7, 64):
            monkeypatch.setattr(cocycle, "BUDGET", budget)
            assert np.array_equal(grid_log_norms(*args)[0], logn)


def test_mixed_start_parities_match_single_parity_calls():
    rng = np.random.default_rng(12)
    g = ExpGenerator(0.45, -1)
    thetas = rng.random(40)
    j0s = rng.integers(0, 2, 40)
    zs = np.exp(2j * np.pi * rng.random(40))
    mixed, _ = grid_log_norms(thetas, j0s, GOLDEN, g, zs, 300)
    for parity in (0, 1):
        sel = j0s == parity
        single, _ = grid_log_norms(thetas[sel], parity, GOLDEN, g, zs[sel], 300)
        assert np.array_equal(mixed[sel], single)


def _segment_generator(rng, kind):
    eps = float(rng.uniform(0.2, 0.9))
    k = int(rng.integers(1, 4))
    if kind == "exp":
        return ExpGenerator(eps, k * int(rng.choice([-1, 1])))
    coeffs = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
    lam = rng.uniform(0.1, 0.9) * lambda_max(eps, coeffs) * np.exp(2j * np.pi * rng.random())
    return PerturbedGenerator(eps, k, lam, coeffs)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["exp", "perturbed"]), min_size=1, max_size=5),
    width=st.integers(1, 8),
    n=st.integers(1, 40),
    budget=st.sampled_from([1, 7, cocycle.BUDGET]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_segments_match_per_segment_calls(kinds, width, n, budget, seed):
    # One call over consecutive segments, each with its own generator, gives
    # every orbit the bits of a call over its segment alone, whatever the
    # block budget.
    rng = np.random.default_rng(seed)
    gens = [_segment_generator(rng, kind) for kind in kinds]
    b = len(gens) * width
    thetas, j0s = rng.random(b), rng.integers(0, 2, b)
    zs = np.exp(2j * np.pi * rng.random(b))
    marks = [1, n // 2 + 1, n]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "BUDGET", budget)
        fused, rec = grid_log_norms(thetas, j0s, GOLDEN, gens, zs, n, checkpoints=marks)
    for s, g in enumerate(gens):
        seg = slice(s * width, (s + 1) * width)
        alone, rec_alone = grid_log_norms(
            thetas[seg], j0s[seg], GOLDEN, g, zs[seg], n, checkpoints=marks
        )
        assert np.array_equal(fused[seg], alone)
        for m in marks:
            assert np.array_equal(rec[m][seg], rec_alone[m])


def test_segments_must_split_the_orbits_evenly():
    gens = [ExpGenerator(0.5, 1), ExpGenerator(0.3, 1)]
    with pytest.raises(ValueError, match="equal segments"):
        grid_log_norms(np.zeros(3), 0, GOLDEN, gens, 1.0, 5)
    with pytest.raises(ValueError, match="equal segments"):
        grid_log_norms(np.zeros(2), 0, GOLDEN, [], 1.0, 5)


@pytest.mark.parametrize("width", [37, 3000])
@pytest.mark.parametrize(
    "g", [ExpGenerator(0.35, 2), PerturbedGenerator(0.5, 2, 0.02, [1, 1, 1, 1])],
    ids=["exp", "perturbed"],
)
def test_orbit_alone_matches_orbit_in_batch(g, width):
    # An orbit's log norm depends neither on the block length nor on the
    # rest of the batch.  A lone orbit runs in blocks of BUDGET steps, 37
    # orbits in blocks of BUDGET // 37 steps (so 60 steps span two blocks)
    # and 3000 orbits, more than BUDGET, in blocks of one step.
    rng = np.random.default_rng(width)
    thetas, j0s = rng.random(width), rng.integers(0, 2, width)
    zs = np.exp(2j * np.pi * rng.random(width))
    n = 60
    batch, _ = grid_log_norms(thetas, j0s, GOLDEN, g, zs, n)
    for i in rng.choice(width, 12, replace=False):
        alone, _ = grid_log_norms(thetas[i:i + 1], j0s[i], GOLDEN, g, zs[i], n)
        assert alone[0] == batch[i]


def test_wide_batch_peak_memory():
    # 32768 orbits, two steps: the one-step stack and the running product
    # take 1 MiB each.  Holding a block's stack (or a view of it) into the
    # next block shows as a traced peak above 10 MiB.
    b = 32768
    thetas = np.arange(b) / b
    tracemalloc.start()
    try:
        grid_log_norms(thetas, 0, GOLDEN, ExpGenerator(0.5, 1), 1.0 + 0.0j, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def _oracle_log_norm(fs, z):
    """log sigma_max of the product of the one-step matrices at the
    coefficients ``fs`` (step order) and z, in 50-digit arithmetic from
    the same doubles; sigma_max in closed form."""
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        prod = mpmath.eye(2)
        for f in fs:
            f = mpmath.mpc(f)
            c = 1 / mpmath.sqrt(1 - abs(f) ** 2)
            prod = c * mpmath.matrix([[z, -mpmath.conj(f)], [-f * z, 1]]) * prod
        fro2 = sum(abs(prod[i, j]) ** 2 for i in range(2) for j in range(2))
        det2 = abs(mpmath.det(prod)) ** 2
        return float(mpmath.log((fro2 + mpmath.sqrt(fro2**2 - 4 * det2)) / 2) / 2)


@pytest.mark.parametrize("family", ["exp", "perturbed"])
def test_short_products_match_mpmath_oracle(family):
    rng = np.random.default_rng(20 if family == "exp" else 21)
    for _ in range(8):
        eps = float(10 ** rng.uniform(-3, math.log10(0.95)))
        k = int(rng.choice([-1, 1, 2]))
        if family == "exp":
            g = ExpGenerator(eps, k)
        else:
            k = abs(k)
            coeffs = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
            lam = 0.5 * lambda_max(eps, coeffs) * np.exp(2j * np.pi * rng.random())
            g = PerturbedGenerator(eps, k, lam, coeffs)
        b, n = 4, int(rng.integers(1, 41))
        thetas, j0s = rng.random(b), rng.integers(0, 2, b)
        zs = np.exp(2j * np.pi * rng.random(b))
        logn, _ = grid_log_norms(thetas, j0s, GOLDEN, g, zs, n)
        # The coefficients the engine multiplies, from the same angle
        # arithmetic.
        ms = np.arange(n)[:, None]
        fs = g.evaluate_grid((thetas + ms * GOLDEN.alpha) % 1.0, (j0s + ms) % 2)
        for i in range(b):
            expected = _oracle_log_norm(fs[:, i], zs[i])
            assert abs(logn[i] - expected) <= 1e-13 * (1 + abs(expected))


@pytest.mark.parametrize("budget", [1, cocycle.BUDGET], ids=["one-step", "default"])
def test_operator_norm_only_at_read_steps(monkeypatch, budget):
    # Only the checkpoints and step n take the operator norm; every other
    # step renormalizes by the entries' root mean square.
    calls = []

    def counting(x):
        calls.append(x.shape)
        return m2.op_norm(x)

    monkeypatch.setattr(cocycle, "op_norm", counting)
    monkeypatch.setattr(cocycle, "BUDGET", budget)
    rng = np.random.default_rng(14)
    args = (rng.random(6), rng.integers(0, 2, 6), GOLDEN, ExpGenerator(0.3, 2),
            np.exp(2j * np.pi * rng.random(6)), 10)
    logn, rec = grid_log_norms(*args, checkpoints=[3, 7])
    assert len(calls) == 3
    calls.clear()
    plain, _ = grid_log_norms(*args)
    assert len(calls) == 1
    assert np.allclose(logn, plain, rtol=0.0, atol=1e-13)
    for m in (3, 7):
        assert np.allclose(rec[m], grid_log_norms(*args[:5], m)[0], rtol=0.0, atol=1e-13)
    last, rec = grid_log_norms(*args, checkpoints=[3, 10])
    assert np.array_equal(rec[10], last)
