"""Tests for cocycle construction, conjugation, and renormalized products."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from szegolyap import cocycle, dynamics
from szegolyap import mat2 as m2
from szegolyap.cocycle import NumericalBlowupError, grid_log_norms
from szegolyap.dynamics import (
    AdmissibilityError,
    ConstantGenerator,
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    Rotation,
    lambda_max,
)
from szegolyap.lyapunov import birkhoff_scan
from szego_algebra import SWAP, Filled, conjugated_step, conjugator, one_step, u11_residual

GOLDEN = Rotation(GOLDEN_MEAN)


def max_abs_diff(x, y):
    """Entrywise max-modulus distance between two matrices."""
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


def turn(t):
    """The point e^(2 pi i t) of the unit circle."""
    return cmath.exp(2j * math.pi * t)


def random_admissible(rng):
    """Random (theta, j, z, g): a phase point, a z on the unit circle and a
    generator of the exponential family."""
    theta, j = float(rng.random()), int(rng.integers(0, 2))
    z = turn(float(rng.random()))
    eps = float(rng.uniform(0.05, 0.95))
    k = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return theta, j, z, ExpGenerator(eps, k)


def test_szego_free_case():
    assert max_abs_diff(cocycle.szego_matrices(0.0, turn(0.0)), np.eye(2)) == 0.0


def test_szego_hand_value():
    # f = 0.8i from the exponential generator at theta = 1/4, z = 1.
    f = ExpGenerator(0.6, 1).evaluate_grid(np.array([0.25]), 0)[0]
    expected = (1.0 / 0.6) * np.array([[1.0, 0.8j], [-0.8j, 1.0]])
    assert max_abs_diff(cocycle.szego_matrices(f, turn(0.0)), expected) < 1e-14


def test_szego_det_is_z():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        theta, j, z, g = random_admissible(rng)
        assert abs(m2.det(one_step(g, theta, j, z)) - z) < 1e-12


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
def test_szego_det_error_grows_as_inverse_eps_squared(eps):
    # det A = rho^2 (1 - |f|^2) z, and the engine's rho = 1/eps is one
    # rounding while f = (1 - eps^2)^(1/2) e^(2 pi i k theta) is rounded:
    # 1 - |f|^2 = eps^2 - 2 delta with delta a few units of 2^-53, so the
    # determinant is off by a few 2^-53 / eps^2.  The perturbed family's rho
    # is the closed form's for the exact f, whose 1 - |f|^2 is at least
    # about eps^2 / 2 at half the radius, while the rounded |f| is off by
    # about k + 2 units of 2^-53 (from |w|, the k - 1 products of w^k, the
    # sum and m): the determinant is off by about 4 (k + 2) 2^-53 / eps^2
    # at most (14.3 2^-53 / eps^2 seen at k = 3).
    rng = np.random.default_rng(int(-math.log10(eps)))
    thetas, j = rng.random(1000), rng.integers(0, 2, 1000)
    z = np.exp(2j * np.pi * rng.random(1000))
    for k in (-2, -1, 1, 3):
        g = ExpGenerator(eps, k)
        mats = cocycle.szego_matrices(g.evaluate_grid(thetas, j), z, g.prefactor)
        assert np.max(np.abs(m2.det(mats) - z)) <= 8 * 2.0**-53 / eps**2
    for k in (1, 2, 3):
        coeffs = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
        lam = 0.5 * lambda_max(eps, coeffs) * np.exp(2j * np.pi * rng.random())
        f, rho = dynamics.evaluate(PerturbedGenerator(eps, k, lam, coeffs), thetas, j)
        mats = cocycle.szego_matrices(f, z, rho)
        assert np.max(np.abs(m2.det(mats) - z)) <= 8 * (k + 2) * 2.0**-53 / eps**2


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["exp", "perturbed"]),
    log_eps=st.floats(-3.0, math.log10(0.95)),
    k=st.integers(1, 3),
    n=st.integers(1, 32),
    z_turn=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_det_of_products_is_z_to_the_n(kind, log_eps, k, n, z_turn, seed):
    # det A_n = z^n.  The engine's double one-step matrices over an orbit,
    # at eps on the last row of a column generator (a column of epsilons,
    # or of couplings up to half the radius), are folded exactly: in 50
    # digits beyond the 2 n log10(4 / eps) that the product's determinant
    # cancels.  Each step's determinant is off by a few 2^-53 / eps^2
    # (``test_szego_det_error_grows_as_inverse_eps_squared``), so the
    # product's is off by at most n times that bound, doubled.
    rng = np.random.default_rng(seed)
    eps = 10.0**log_eps
    if kind == "exp":
        g = ExpGenerator([float(rng.uniform(0.05, 0.95)), eps], k * int(rng.choice([-1, 1])))
    else:
        coeffs = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
        lams = 0.5 * rng.random(2) * lambda_max(eps, coeffs) * np.exp(2j * np.pi * rng.random(2))
        g = PerturbedGenerator(eps, k, list(lams), coeffs)
    thetas, parity = GOLDEN.orbit(rng.random((2, 1)), rng.integers(0, 2, (2, 1)),
                                  np.arange(n)[:, None, None])
    f, rho = dynamics.evaluate(g, thetas, parity)
    z = turn(z_turn)
    mats = cocycle.szego_matrices(f[:, 1, 0], z, np.broadcast_to(rho, f.shape)[:, 1, 0])
    with mpmath.workdps(50 + math.ceil(2 * n * math.log10(4.0 / eps))):
        prod = mpmath.eye(2)
        for a in mats:
            prod = mpmath.matrix(a.tolist()) * prod
        det = prod[0, 0] * prod[1, 1] - prod[0, 1] * prod[1, 0]
        assert abs(det / mpmath.mpc(z) ** n - 1) <= 2 * n * 8 * 2.0**-53 / eps**2


def test_szego_matrices_without_prefactor_keep_their_bytes():
    # Without a prefactor, szego_matrices takes 1 - |f|^2 from f in doubles
    # as (1 - |f|)(1 + |f|), whose 1 - |f| is exact for |f| >= 1/2: the
    # bytes of that formula written plainly.  It rejects |f| >= 1 and lets
    # a NaN through to its own matrix, leaving the others finite.
    rng = np.random.default_rng(33)
    f = np.sqrt(rng.random((6, 50))) * np.exp(2j * np.pi * rng.random((6, 50)))
    f[0, :3] = [0.0, 1.0 - 2.0**-40, 0.5]
    z = np.exp(2j * np.pi * rng.random(50))
    a = np.abs(f)
    c = ((1.0 - a) * (1.0 + a)) ** -0.5
    t = -c * f
    want = np.stack([np.stack([c * z, np.conj(t)], -1), np.stack([t * z, c + 0j], -1)], -2)
    assert _bits(cocycle.szego_matrices(f, z)).tobytes() == _bits(want).tobytes()
    for bad in (1.0, -1j, 0.6 + 0.8j, 1.5):
        f[1, 7] = bad
        with pytest.raises(AdmissibilityError):
            cocycle.szego_matrices(f, z)
    f[1, 7] = complex(np.nan, 0.0)
    mats = cocycle.szego_matrices(f, z)
    assert np.isnan(mats[1, 7]).all()
    assert np.isfinite(np.delete(mats.reshape(-1, 2, 2), 57, axis=0)).all()


class Unstated:
    """A generator's values with no prefactor stated or filled, as a
    duck-typed generator might give them."""

    def __init__(self, g):
        self.g = g

    def evaluate_grid(self, thetas, j):
        return self.g.evaluate_grid(thetas, j)


def test_generator_without_a_prefactor_is_a_type_error():
    # The generator is the engine's one source of prefactors: one that
    # neither states nor fills them is a TypeError, alone or as a row of a
    # batch with generators that do.
    args = [0.1, 0.2], [[0], [1]], GOLDEN
    with pytest.raises(TypeError, match="rho"):
        grid_log_norms(*args, Unstated(ExpGenerator(0.5, 1)), 1.0, 3)
    gens = [ExpGenerator(0.5, 1), Unstated(ConstantGenerator(0.5j))]
    with pytest.raises(TypeError, match="rho"):
        grid_log_norms(*args, gens, 1.0, 3)
    gens[1] = Filled(Unstated(ConstantGenerator(0.5j)))
    assert np.isfinite(grid_log_norms(*args, gens, 1.0, 3)[0]).all()


@pytest.mark.parametrize("eps", [0.5, 1e-12])
def test_engine_gives_every_step_its_prefactor(monkeypatch, eps):
    # Every built-in family gives its prefactor in closed form, so the
    # engine passes one with every stack of one-step matrices it builds:
    # for one generator, for a sequence of them, and where f rounds onto
    # the unit circle.
    build, calls = cocycle.szego_matrices, []

    def spy(f, z, rho=None):
        assert rho is not None
        calls.append(f.shape)
        return build(f, z, rho)

    monkeypatch.setattr(cocycle, "szego_matrices", spy)
    gens = ([ExpGenerator(eps, 2)] + _ladder(eps, 2, [1, 1j, -1, 0.5], (0.999, 0.5))
            + [ConstantGenerator(0.3 - 0.6j), PerturbedGenerator(eps, 1, 0.0, [1, 1]),
               ExpGenerator(0.3, -1)])
    rng = np.random.default_rng(35)
    thetas, j0s = rng.random((len(gens), 7)), rng.integers(0, 2, (len(gens), 7))
    zs = np.exp(2j * np.pi * rng.random(7))
    assert np.isfinite(grid_log_norms(thetas, j0s, GOLDEN, gens, zs, 30)[0]).all()
    for g in gens:
        assert np.isfinite(grid_log_norms(thetas[0], j0s, GOLDEN, g, zs, 30)[0]).all()
    assert len(calls) == 1 + len(gens)


def test_szego_is_u11():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        theta, j, z, g = random_admissible(rng)
        assert u11_residual(one_step(g, theta, j, z)) <= 1e-12


def test_szego_degenerate_coefficient():
    with pytest.raises(AdmissibilityError):
        cocycle.szego_matrices(1.0 - 1e-17, turn(0.3))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("vector_z", [False, True], ids=["scalar-z", "vector-z"])
@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize(
    "g",
    [ExpGenerator(0.4, 2), PerturbedGenerator(0.5, 2, 0.02, [1, 1, 1, 1]),
     ConstantGenerator(0.3 - 0.6j), ConstantGenerator(0.5)],
    ids=["exp", "perturbed", "constant", "real-constant"],
)
def test_szego_entries_the_fold_relies_on(g, j, vector_z):
    # The fold multiplies a11 row1 where the row-by-row fold took row1 a11;
    # the two round alike because a11 = c has imaginary part exactly +0.
    # Both off-diagonals come from t = -c f: a01 = conj(t) must equal
    # -c conj(f) and a10 = t z must equal -c f z.  array_equal on the real
    # views compares every real and imaginary part as a number, so -0.0 and
    # +0.0 count as equal: where f is real (theta = 0 here, or a real
    # constant) conj(t) flips the sign of a01's zero imaginary part, and
    # only there do the bits differ.  A signed zero changes no nonzero sum
    # or product, so no norm sees it.
    rng = np.random.default_rng(31 + j + 2 * vector_z)
    thetas = rng.random((5, 40))
    thetas[0, :3] = [0.0, 0.25, 0.5]
    z = np.exp(2j * np.pi * rng.random(40)) if vector_z else complex(np.exp(0.7j))
    f = g.evaluate_grid(thetas, j)
    mats = cocycle.szego_matrices(f, z)
    a11 = mats[..., 1, 1]
    assert np.all(a11.imag == 0.0) and not np.any(np.signbit(a11.imag))
    f, z = np.broadcast_arrays(f, z)
    c = a11.real
    a01, old = mats[..., 0, 1], -c * np.conj(f)
    assert np.array_equal(a01.view(float), old.view(float))
    assert np.array_equal(_bits(a01[f.imag != 0]), _bits(old[f.imag != 0]))
    assert np.array_equal(mats[..., 1, 0].view(np.uint64), (-c * f * z).view(np.uint64))


def test_szego_matrices_batch_invariant():
    # One orbit's matrices do not depend on the rest of the batch: numpy
    # picks its complex-multiply loop by operand shape, and the broadcast in
    # szego_matrices keeps that choice the same for a column as for the
    # whole stack.  Bits compared, signed zeros included.
    rng = np.random.default_rng(32)
    for steps, width in [(1, 1), (1, 2), (3, 1), (2, 5), (7, 16), (32, 64),
                         (2, 1024), (9, 3000)]:
        f = 0.9 * np.sqrt(rng.random((steps, width))) * np.exp(
            2j * np.pi * rng.random((steps, width)))
        zs = np.exp(2j * np.pi * rng.random(width))
        for z in (zs, zs[0]):
            wide = _bits(cocycle.szego_matrices(f, z))
            for col in rng.choice(width, min(width, 6), replace=False):
                alone = cocycle.szego_matrices(f[:, col:col + 1],
                                               z[col:col + 1] if np.ndim(z) else z)
                assert np.array_equal(_bits(alone), wide[:, col:col + 1]), (
                    steps, width, col, np.ndim(z))


def test_conjugator_parity_zero_is_swap():
    assert max_abs_diff(conjugator(0, turn(0.31)), SWAP) == 0.0


def test_conjugator_parity_one_at_z_one():
    assert max_abs_diff(conjugator(1, turn(0.0)), np.eye(2)) < 1e-15


def test_conjugator_unitary():
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = turn(float(rng.random()))
        for j in (0, 1):
            c = conjugator(j, z)
            assert max_abs_diff(c.conj().T @ c, np.eye(2)) < 1e-14


def test_conjugation_identity():
    # Closed form vs. the matrix-by-matrix product C A C^(-1).
    rng = np.random.default_rng(3)
    for _ in range(1000):
        theta, j, z, g = random_admissible(rng)
        lhs = (
            conjugator(j, z)
            @ one_step(g, theta, j, z)
            @ np.linalg.inv(conjugator((j - 1) % 2, z))
        )
        assert max_abs_diff(lhs, conjugated_step(g, theta, j, z)) < 1e-12


def test_conjugated_step_hand_value():
    g = ExpGenerator(0.3, 5)
    mod = math.sqrt(1 - 0.09)
    expected = (1.0 / 0.3) * np.array([[-mod, 1.0], [1.0, -mod]])
    assert max_abs_diff(conjugated_step(g, 0.0, 0, turn(0.0)), expected) < 1e-14


def test_conjugated_step_norm_matches_direct():
    rng = np.random.default_rng(4)
    for _ in range(200):
        theta, j, z, g = random_admissible(rng)
        direct = m2.op_norm(one_step(g, theta, j, z))
        conj = m2.op_norm(conjugated_step(g, theta, j, z))
        assert abs(direct - conj) < 1e-10 * direct


def direct_product(theta0, j0, r, g, z, n, step=one_step):
    """Unrenormalized product A(T^(n-1) p0) ... A(p0), p0 = (theta0, j0),
    from single steps.

    ``step(g, theta, j, z)`` gives the one-step matrix at (theta, j); the
    default is the direct cocycle.  Float64 holds these products for
    n <= 100 at eps >= 0.05.
    """
    prod = np.eye(2, dtype=complex)
    for m in range(n):
        prod = step(g, (theta0 + m * r.alpha) % 1.0, (j0 + m) % 2, z) @ prod
    return prod


def engine_log_norm(theta0, j0, r, g, z, n):
    """log ||A^z_n(theta0, j0)|| from the renormalized engine, batch of one."""
    logn, _ = grid_log_norms([theta0], j0, r, g, z, n)
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
        theta0, j0, z, g = random_admissible(rng)
        n = int(rng.integers(1, 101))
        expected = math.log(float(m2.op_norm(direct_product(theta0, j0, GOLDEN, g, z, n))))
        assert engine_log_norm(theta0, j0, GOLDEN, g, z, n) == pytest.approx(
            expected, abs=1e-9 * (1 + abs(expected))
        )


def test_accumulate_scalar_matrices():
    # 5000 steps with log norm near 2500: the direct product would
    # overflow, the stripped powers of two must add up to the closed form.
    n = 5000
    theta0s = np.array([0.0, 0.41])
    logn, _ = grid_log_norms(theta0s, 0, GOLDEN, Filled(RealCosineGenerator()), 1.0 + 0.0j, n)
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
        grid_log_norms([0.1, 0.2], 0, GOLDEN, Filled(NaNGenerator()), 1.0 + 0.0j, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget", [1, cocycle.BUDGET], ids=["one-step", "default"])
def test_blowup_names_first_non_finite_step(monkeypatch, budget):
    monkeypatch.setattr(cocycle, "BUDGET", budget)
    with pytest.raises(NumericalBlowupError, match=r"at step 4$"):
        grid_log_norms([0.0], 1, Rotation(0.1), Filled(LateNaNGenerator()), 1.0 + 0.0j, 10)


@pytest.mark.filterwarnings("error")
def test_blowup_names_first_non_finite_step_over_tiles(monkeypatch):
    # Tiles of one orbit: the first tile's orbit (from 0) first meets a NaN
    # coefficient at step 4, the second tile's (from 0.1) at step 3.
    monkeypatch.setattr(cocycle, "TILE", 1)
    with pytest.raises(NumericalBlowupError, match=r"at step 3$"):
        grid_log_norms([0.0, 0.1], 1, Rotation(0.1), Filled(LateNaNGenerator()), 1.0 + 0.0j, 10)


class RowOneFaultGenerator:
    """``value`` (NaN, or 1.0 for a degenerate step) where the angle is
    near 0.3 and the parity is 1, else 0.5 e^(2 pi i theta).  From the
    angles 0.5 and 0.1 the rotation by 0.1 reaches 0.3 at step 9 and step
    3, with parity 1 on the orbits that start from parity 1 only."""

    def __init__(self, value):
        self.value = value

    def evaluate_grid(self, thetas, j):
        thetas = np.asarray(thetas)
        fault = (np.abs(thetas - 0.3) < 0.05) & (np.asarray(j) == 1)
        return np.where(fault, self.value, 0.5 * np.exp(2j * np.pi * thetas))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget", [1, cocycle.BUDGET], ids=["one-step", "default"])
@pytest.mark.parametrize("tile", [1, 2, cocycle.TILE])
def test_faults_on_one_parity_row(monkeypatch, budget, tile):
    # Both parities in one call, in tiles of one angle (TILE 1 or 2) or
    # one tile: the blowup named is the earliest of all tiles and rows,
    # though only row 1 meets a fault; the other faults propagate as they
    # are raised.
    monkeypatch.setattr(cocycle, "BUDGET", budget)
    monkeypatch.setattr(cocycle, "TILE", tile)
    args = [0.5, 0.1], [[0], [1]], Rotation(0.1)
    with pytest.raises(NumericalBlowupError, match=r"at step 3$") as info:
        grid_log_norms(*args, Filled(RowOneFaultGenerator(np.nan)), 1.0, 12)
    assert info.value.step == 3
    with pytest.raises(AdmissibilityError):
        grid_log_norms(*args, Filled(RowOneFaultGenerator(1.0)), 1.0, 12)
    # Rows of parity 0 alone meet no fault.
    grid_log_norms(args[0], 0, args[2], Filled(RowOneFaultGenerator(np.nan)), 1.0, 12)
    g = PerturbedGenerator(0.5, 1, 0.0, [1, 1])
    # Couplings lambda a_l of lambda = 0.9, past the radius the constructor
    # enforces, in place of those it took.
    object.__setattr__(g, "_couplings", [0.9 + 0j, 0.9 + 0j])
    with pytest.raises(AdmissibilityError):
        grid_log_norms(*args, g, 1.0, 12)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                 st.floats(1e-16, 1e-8).map(lambda d: 1.0 - d)),
                       st.floats(0.0, 1.0)), min_size=1, max_size=6),
    st.one_of(st.just(0.0), st.floats(-1000.0, 500.0).map(lambda e: 2.0**e)),
    st.floats(0.0, 1.0),
)
def test_one_step_entries_are_bounded_by_the_largest_prefactor(fs, z_mod, z_turn):
    # The premise of the engine's finiteness proof: for admissible f (|f| <
    # 1, down to 1 - |f| of about 1e-16) and finite z, |z| <= 2^500, the
    # (1, 1) entry of a one-step matrix is its prefactor c = (1 -
    # |f|^2)^(-1/2), here exact to 60 digits and rounded once, so the
    # stack's largest (1, 1) real part is the largest c, and every entry is
    # at most 2 c max(1, |z|) in modulus.
    f = np.array([r * np.exp(2j * np.pi * t) for r, t in fs])
    z = z_mod * np.exp(2j * np.pi * z_turn)
    with mpmath.workdps(60):
        rems = [1 - mpmath.mpf(x.real) ** 2 - mpmath.mpf(x.imag) ** 2 for x in f]
        assume(min(rems) > 0)  # |f| rounded to 1 or past it
        rho = np.array([float(rem**-0.5) for rem in rems])
    mats = cocycle.szego_matrices(f, z, rho)
    a11 = mats[..., 1, 1]
    assert np.all(a11.imag == 0.0)
    c = a11.real
    with mpmath.workdps(60):
        for cx, rem in zip(c, rems):
            assert float(cx**2 * rem) == pytest.approx(1.0, rel=1e-15)
    assert np.all((1.0 <= c) & (c <= 2.0**537))
    assert np.all(np.abs(mats) <= 2.0 * c[:, None, None] * max(1.0, abs(z)))
    assert np.isfinite(mats).all()


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-300, 0.99),
    st.sampled_from([-3, -1, 1, 2]),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)), min_size=1, max_size=6),
    st.one_of(st.just(0.0), st.floats(-1000.0, 500.0).map(lambda e: 2.0**e)),
    st.floats(0.0, 1.0),
)
def test_one_step_entries_are_bounded_by_the_stated_prefactor(eps, k, points, z_mod, z_turn):
    # The same premise where the generator states its prefactor c = 1/eps
    # and |f| may round past 1 (eps below about 1e-8): the (1, 1) entry is
    # c, every entry is at most 2 c max(1, |z|), and a finite 4 c w, w =
    # max(|z|, 1/|z|), proves the stack finite.
    g = ExpGenerator(eps, k)
    thetas, j = (np.array(v) for v in zip(*points))
    z = z_mod * turn(z_turn)
    with np.errstate(over="ignore", invalid="ignore"):
        mats = cocycle.szego_matrices(g.evaluate_grid(thetas, j), z, g.prefactor)
    c, w = g.prefactor, max(abs(z), 1.0 / abs(z)) if z else math.inf
    assert np.all(mats[..., 1, 1] == c) and not np.any(np.signbit(mats[..., 1, 1].imag))
    assert np.all(np.abs(mats) <= 2.0 * c * max(1.0, abs(z)))
    if 4.0 * c * w < math.inf:
        assert np.isfinite(mats).all()


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(0.0, math.inf)],
                         ids=["inf", "nan", "imaginary-inf"])
def test_non_finite_spectral_parameters_are_rejected(bad):
    with pytest.raises(ValueError, match="must be finite"):
        grid_log_norms([0.1, 0.2, 0.3], [[0], [1]], GOLDEN, ExpGenerator(0.5, 1),
                       [1.0, bad, 1j], 3)


@pytest.mark.filterwarnings("error")
def test_unproven_blocks_are_scanned(finite_checks):
    # A NaN coefficient makes the largest prefactor NaN, and z = 0 makes
    # max(|z|, 1/|z|) infinite: either way a block's stack is scanned entry
    # by entry, and a NaN still names its step.
    def nan():
        with pytest.raises(NumericalBlowupError, match=r"at step 1$"):
            grid_log_norms([0.1, 0.2], 0, GOLDEN, Filled(NaNGenerator()), 1.0, 3)

    assert finite_checks(nan) == [(3, 2, 2, 2)]
    args = [0.1, 0.2, 0.3], [[0], [1]], GOLDEN, ExpGenerator(0.5, 1), [1.0, 0.0, 1j], 5
    assert finite_checks(lambda: grid_log_norms(*args)) == [(5, 6, 2, 2), (1, 6)]
    assert finite_checks(lambda: grid_log_norms(*args[:4], 1.0, 5)) == [(1, 6)]


def test_orbit_product_single_step():
    g, z = ExpGenerator(0.5, 1), turn(0.2)
    assert engine_log_norm(0.3, 0, GOLDEN, g, z, 1) == pytest.approx(
        math.log(float(m2.op_norm(one_step(g, 0.3, 0, z)))), abs=1e-12
    )


def test_orbit_product_log_norm_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        theta, j, z, g = random_admissible(rng)
        n = int(rng.integers(1, 40))
        assert engine_log_norm(theta, j, GOLDEN, g, z, n) >= 0.0


def test_cocycle_property_split_product():
    # A_(n+m)(p) = A_m(T^n p) A_n(p) on direct products, and the engine's
    # log norm of A_(n+m)(p) matches the split product.
    rng = np.random.default_rng(7)
    g, z = ExpGenerator(0.4, 2), turn(0.37)
    for _ in range(10):
        n, m = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        p0 = float(rng.random()), int(rng.integers(0, 2))
        pn = (p0[0] + n * GOLDEN.alpha) % 1.0, (p0[1] + n) % 2
        whole = direct_product(*p0, GOLDEN, g, z, n + m)
        split = direct_product(*pn, GOLDEN, g, z, m) @ direct_product(*p0, GOLDEN, g, z, n)
        scale = float(m2.op_norm(whole))
        assert max_abs_diff(whole / scale, split / scale) < 1e-8
        expected = math.log(float(m2.op_norm(split)))
        assert engine_log_norm(*p0, GOLDEN, g, z, n + m) == pytest.approx(
            expected, abs=1e-8 * (1 + abs(expected))
        )


def test_conjugated_route_matches_direct():
    # Product of conjugated one-step matrices has the same norm as the
    # direct product: the conjugators telescope and are unitary.
    rng = np.random.default_rng(8)
    for _ in range(5):
        theta0, j0, z, g = random_admissible(rng)
        n = 100
        conj = direct_product(theta0, j0, GOLDEN, g, z, n, conjugated_step)
        expected = math.log(float(m2.op_norm(conj)))
        assert engine_log_norm(theta0, j0, GOLDEN, g, z, n) == pytest.approx(
            expected, abs=1e-8 * (1 + abs(expected))
        )


def test_batched_log_norms_match_scalar_path():
    # One batch of three spectral parameters sharing an orbit against
    # Birkhoff scans of one orbit each.
    g = ExpGenerator(0.35, 1)
    turns = [0.0, 0.125, 0.4]
    zs = np.exp(2j * np.pi * np.array(turns))
    batched, _ = grid_log_norms(np.full(3, 0.11), 1, GOLDEN, g, zs, 60)
    for i, t in enumerate(turns):
        alone = birkhoff_scan([0.11], 1, GOLDEN, g, turn(t), 60)[0]
        assert batched[i] / 60 == pytest.approx(alone, abs=1e-14)


def test_grid_log_norms_checkpoints():
    g = ExpGenerator(0.5, 1)
    thetas = np.array([0.1, 0.6])
    logn, rec = grid_log_norms(
        thetas, 0, GOLDEN, g, 1.0 + 0.0j, 5, checkpoints=[2, 5]
    )
    assert set(rec) == {2, 5}
    assert np.array_equal(rec[5], logn) and rec[5] is not logn
    short, _ = grid_log_norms(thetas, 0, GOLDEN, g, 1.0 + 0.0j, 2)
    assert np.array_equal(rec[2], short)


@pytest.mark.parametrize("n, marks", [(0, None), (-3, None), (5, [0]), (5, [6]),
                                      (5, [2, 5, 9])])
def test_grid_log_norms_rejects_bad_steps(n, marks):
    with pytest.raises(ValueError, match="must"):
        grid_log_norms([0.1], 0, GOLDEN, ExpGenerator(0.5, 1), 1.0, n, checkpoints=marks)


def test_block_budget_does_not_change_results(monkeypatch):
    # BUDGET / 4 orbits make default blocks of 4 steps; the checkpoints fall
    # inside blocks and at their ends, including the last, short block.
    # Tiles of 1 and 7 orbits split the batch into blocks of BUDGET // tile.
    b = cocycle.BUDGET // 4
    rng = np.random.default_rng(11)
    args = (rng.random(b), rng.integers(0, 2, b), GOLDEN, ExpGenerator(0.3, 2),
            np.exp(2j * np.pi * rng.random(b)), 10)
    marks = [1, 2, 4, 5, 8, 9, 10]
    logn, rec = grid_log_norms(*args, checkpoints=marks)
    assert np.array_equal(rec[10], logn)
    for tile, budget in [(cocycle.TILE, 1), (1, 1), (7, 1), (7, cocycle.BUDGET)]:
        monkeypatch.setattr(cocycle, "TILE", tile)
        monkeypatch.setattr(cocycle, "BUDGET", budget)
        logn_1, rec_1 = grid_log_norms(*args, checkpoints=marks)
        assert np.array_equal(logn, logn_1)
        assert sorted(rec) == sorted(rec_1) == marks
        for m in marks:
            assert np.array_equal(rec[m], rec_1[m])


def test_reads_at_block_edges_match_lone_and_short_runs(monkeypatch):
    # BUDGET = 36 makes blocks of 36 steps for a lone orbit and of 12 for
    # three, so the reads below fall at a block's first (13), middle (18)
    # and last (24) step of the three-row call and in the lone orbit's
    # first block of 36: each equals the lone orbit's read and a run of
    # that many steps, bit for bit.
    monkeypatch.setattr(cocycle, "BUDGET", 36)
    rng = np.random.default_rng(19)
    gens = [ExpGenerator(0.3, 2), PerturbedGenerator(0.5, 2, 0.02, [1, 1j, -1, 0.5]),
            ExpGenerator(0.6, -1)]
    thetas, j0s = rng.random((3, 1)), np.array([[0], [1], [1]])
    z = np.exp(2j * np.pi * rng.random(1))
    n, marks = 40, [1, 13, 18, 24]
    batch, rec = grid_log_norms(thetas, j0s, GOLDEN, gens, z, n, checkpoints=marks)
    alone, rec_alone = grid_log_norms(thetas[1], 1, GOLDEN, gens[1], z, n,
                                      checkpoints=marks)
    plain, _ = grid_log_norms(thetas[1], 1, GOLDEN, gens[1], z, n)
    assert _bits(batch[1]).tolist() == _bits(alone).tolist() == _bits(plain).tolist()
    for m in marks:
        assert _bits(rec[m][1]).tolist() == _bits(rec_alone[m]).tolist()
        short, _ = grid_log_norms(thetas[1], 1, GOLDEN, gens[1], z, m)
        assert _bits(short).tolist() == _bits(rec_alone[m]).tolist()


def test_block_budget_does_not_change_perturbed_results(monkeypatch):
    # The perturbed coefficients are summed term by term, so a parity call
    # with a single angle (one orbit per start parity, BUDGET = 1) rounds
    # as the same angle does among many.
    rng = np.random.default_rng(13)
    g = PerturbedGenerator(0.5, 2, 0.02, [1, 1, 1, 1])
    default, default_tile = cocycle.BUDGET, cocycle.TILE
    for j0s in (np.array([0, 0, 1, 1, 0, 1, 1]), np.array([1, 0])):
        b = len(j0s)
        args = (rng.random(b), j0s, GOLDEN, g, np.exp(2j * np.pi * rng.random(b)), 50)
        monkeypatch.setattr(cocycle, "BUDGET", default)
        monkeypatch.setattr(cocycle, "TILE", default_tile)
        logn, _ = grid_log_norms(*args)
        for tile in (1, 3, default_tile):
            monkeypatch.setattr(cocycle, "TILE", tile)
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


def _random_generator(rng, kind, k=None):
    eps = float(rng.uniform(0.2, 0.9))
    k = int(rng.integers(1, 4)) if k is None else k
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
    tile=st.sampled_from([1, 7, cocycle.TILE]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_rows_match_per_row_calls(kinds, width, n, budget, tile, seed):
    # One call over the rows of an orbit grid, each row with its own
    # generator, gives every orbit the bits of a call over its row alone,
    # whatever the block budget and however the tiles cut the rows.
    rng = np.random.default_rng(seed)
    gens = [_random_generator(rng, kind) for kind in kinds]
    shape = (len(gens), width)
    thetas, j0s = rng.random(shape), rng.integers(0, 2, shape)
    zs = np.exp(2j * np.pi * rng.random(width))
    marks = [1, n // 2 + 1, n]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "BUDGET", budget)
        mp.setattr(cocycle, "TILE", tile)
        fused, rec = grid_log_norms(thetas, j0s, GOLDEN, gens, zs, n, checkpoints=marks)
    assert fused.shape == shape
    for row, g in enumerate(gens):
        alone, rec_alone = grid_log_norms(
            thetas[row], j0s[row], GOLDEN, g, zs, n, checkpoints=marks
        )
        assert np.array_equal(fused[row], alone)
        for m in marks:
            assert np.array_equal(rec[m][row], rec_alone[m])


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["exp", "perturbed", "constant"]), min_size=1,
                   max_size=2),
    width=st.integers(1, 60),
    n=st.integers(1, 40),
    data=st.data(),
    budget=st.sampled_from([1, 7, cocycle.BUDGET]),
    tile=st.sampled_from([1, 2, 3, cocycle.TILE]),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_paired_parities_match_per_parity_calls(kinds, width, n, data, budget, tile,
                                                shared, seed):
    # Both starting parities as the rows of one call on one row of angles,
    # in tiles of TILE // 2 columns (at least one) with an angle's
    # coefficients taken once for both rows by one generator, or row by row
    # by one generator per row, give row j the bytes of a call from parity j
    # alone.  The perturbed family has complex lambda and a_l, so its
    # parity-1 value is not the conjugate of its parity-0 value.
    marks = data.draw(st.sets(st.integers(1, n)), label="marks")
    rng = np.random.default_rng(seed)
    gens = [ConstantGenerator(complex(*rng.uniform(-0.6, 0.6, 2))) if kind == "constant"
            else _random_generator(rng, kind) for kind in kinds]
    g = gens if len(gens) == 2 else gens[0]
    thetas = rng.random(width)
    thetas[rng.random(width) < 0.2] = 0.0
    zs = np.exp(2j * np.pi * rng.random(1 if shared else width))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "BUDGET", budget)
        mp.setattr(cocycle, "TILE", tile)
        paired, rec = grid_log_norms(thetas, [[0], [1]], GOLDEN, g, zs, n,
                                     checkpoints=marks)
        assert paired.shape == (2, width) and sorted(rec) == sorted(marks)
        # The same angles written out in both rows are the same call.
        rows, rec_rows = grid_log_norms(np.stack([thetas, thetas]), [[0], [1]], GOLDEN,
                                        g, zs, n, checkpoints=marks)
        assert rows.tobytes() == paired.tobytes()
        assert all(rec_rows[m].tobytes() == rec[m].tobytes() for m in marks)
        for j in (0, 1):
            alone, rec_alone = grid_log_norms(thetas, j, GOLDEN, gens[j % len(gens)], zs,
                                              n, checkpoints=marks)
            assert paired[j].tobytes() == alone.tobytes()
            for m in marks:
                assert rec[m].shape == (2, width)
                assert rec[m][j].tobytes() == rec_alone[m].tobytes()


class RecordingGenerator:
    """An exponential generator that records the shape of every angle array,
    and states the prefactor of the generator it wraps."""

    def __init__(self, g):
        self.g, self.shapes, self.prefactor = g, [], g.prefactor

    def evaluate_grid(self, thetas, j):
        self.shapes.append(np.shape(thetas))
        return self.g.evaluate_grid(thetas, j)


@pytest.mark.parametrize("tile", [1, 3, cocycle.TILE])
def test_angle_grid_rows(monkeypatch, tile):
    # An (R, N) grid of angles against a column of parities gives each row
    # the bytes of a call with that row's angles and parity; one row of
    # angles against the column passes each angle to the generator once,
    # R rows of angles pass all of them.
    monkeypatch.setattr(cocycle, "TILE", tile)
    rng = np.random.default_rng(5)
    thetas, j0 = rng.random((3, 40)), np.array([[1], [0], [1]])
    rec_g = RecordingGenerator(ExpGenerator(0.45, 2))
    out, rec = grid_log_norms(thetas, j0, GOLDEN, rec_g, 1j, 7, checkpoints=[3])
    assert out.shape == rec[3].shape == (3, 40)
    assert all(shape[1] == 3 for shape in rec_g.shapes)
    for row in range(3):
        alone, rec_alone = grid_log_norms(thetas[row], j0[row, 0], GOLDEN, rec_g.g, 1j, 7,
                                          checkpoints=[3])
        assert out[row].tobytes() == alone.tobytes()
        assert rec[3][row].tobytes() == rec_alone[3].tobytes()
    rec_g.shapes.clear()
    shared = grid_log_norms(thetas[0], j0, GOLDEN, rec_g, 1j, 7)[0]
    assert shared.shape == (3, 40)
    assert all(shape[1] == 1 for shape in rec_g.shapes)
    for row in range(3):
        alone = grid_log_norms(thetas[0], j0[row, 0], GOLDEN, rec_g.g, 1j, 7)[0]
        assert shared[row].tobytes() == alone.tobytes()


def test_generators_must_match_the_rows():
    # A sequence of generators holds exactly one per row of the orbit grid.
    gens = [ExpGenerator(0.5, 1), ExpGenerator(0.3, 1), ExpGenerator(0.4, 2)]
    with pytest.raises(ValueError, match="for 1 rows"):
        grid_log_norms(np.zeros(2), 0, GOLDEN, [], 1.0, 5)
    with pytest.raises(ValueError, match="for 3 rows"):
        grid_log_norms(np.zeros(4), [[0], [1], [0]], GOLDEN, gens[:2], 1.0, 5)
    with pytest.raises(ValueError, match="for 1 rows"):
        grid_log_norms(np.zeros(3), 0, GOLDEN, gens, 1.0, 5)
    # A column generator takes as many rows as its column, alone (its
    # columns then fail to broadcast) or in a sequence.
    column = ExpGenerator([0.5, 0.3], 1)
    with pytest.raises(ValueError):
        grid_log_norms(np.zeros(4), [[0], [1], [0]], GOLDEN, column, 1.0, 5)
    with pytest.raises(ValueError):
        grid_log_norms(np.zeros(4), 0, GOLDEN, column, 1.0, 5)
    with pytest.raises(ValueError):
        grid_log_norms(np.zeros(4), 0, GOLDEN, PerturbedGenerator(0.5, 1, [0.0, 0.01], [1, 1]),
                       1.0, 5)
    with pytest.raises(ValueError, match="4 rows for 3 rows"):
        grid_log_norms(np.zeros(4), [[0], [1], [0]], GOLDEN, [column] * 2, 1.0, 5)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["exp", "perturbed"]),
    width=st.integers(1, 40),
    n=st.integers(1, 60),
    data=st.data(),
    budget=st.sampled_from([1, 7, cocycle.BUDGET]),
    tile=st.sampled_from([1, 7, cocycle.TILE]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reads_do_not_change_results(kind, width, n, data, budget, tile, seed):
    # A checkpoint only observes the product: the final log norms equal
    # those of a call without checkpoints, and recorded[m] those of a call
    # of m steps, bit for bit.
    marks = data.draw(st.sets(st.integers(1, n)), label="marks")
    rng = np.random.default_rng(seed)
    args = (rng.random(width), rng.integers(0, 2, width), GOLDEN,
            _random_generator(rng, kind), np.exp(2j * np.pi * rng.random(width)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "BUDGET", budget)
        mp.setattr(cocycle, "TILE", tile)
        logn, rec = grid_log_norms(*args, n, checkpoints=marks)
        assert np.array_equal(logn, grid_log_norms(*args, n)[0])
        assert sorted(rec) == sorted(marks)
        for m in marks:
            assert np.array_equal(rec[m], grid_log_norms(*args, m)[0])


def _ladder(eps, k, coeffs, factors):
    """Perturbed rows of one epsilon, k and a_l at couplings factor * lambda_max."""
    lmax = lambda_max(eps, coeffs)
    return [PerturbedGenerator(eps, k, f * lmax, coeffs) for f in factors]


def _ladder_column(eps, k, coeffs, factors):
    """The rows of ``_ladder`` as one generator with a column of couplings."""
    lmax = lambda_max(eps, coeffs)
    return PerturbedGenerator(eps, k, [f * lmax for f in factors], coeffs)


def _scalar_rows(g):
    """The scalar generator of each row of ``g``: one per entry of a column
    generator's columns, else ``g`` itself."""
    rows = getattr(g, "rows", None)
    if rows is None:
        return [g]
    if isinstance(g, ExpGenerator):
        return [ExpGenerator(eps, g.k) for eps in g.epsilon]
    eps, lams = (v if isinstance(v, tuple) else (v,) * rows for v in (g.epsilon, g.lam))
    return [PerturbedGenerator(e, g.k, lam, g.coeffs) for e, lam in zip(eps, lams)]


@pytest.mark.parametrize("width", [37, 3000, 20000])
@pytest.mark.parametrize(
    "g", [ExpGenerator(0.35, 2), PerturbedGenerator(0.5, 2, 0.02, [1, 1, 1, 1]),
          [ExpGenerator(0.5, 2), _ladder_column(0.5, 2, [1, 1, 1, 1], (0.8, 0.4, 0.2, 0.1, 0.05))]],
    ids=["exp", "perturbed", "ladder"],
)
def test_orbit_alone_matches_orbit_in_batch(g, width):
    # An orbit's log norm depends neither on the block length nor on the
    # rest of the batch.  A lone orbit runs in blocks of BUDGET steps, 37
    # orbits in blocks of BUDGET // 37 steps (so 60 steps span two blocks)
    # and 3000 and 20000 orbits in tiles of TILE, the last one short.  The
    # verify-t2 batch, the unperturbed row and a column of five ladder
    # rungs, gives each rung's orbit the bits of its own scalar generator.
    rng = np.random.default_rng(width)
    gens = [row for part in g for row in _scalar_rows(part)] if isinstance(g, list) else [g]
    thetas, j0s = rng.random((len(gens), width)), rng.integers(0, 2, (len(gens), width))
    zs = np.exp(2j * np.pi * rng.random(width))
    n = 60
    batch, _ = grid_log_norms(thetas, j0s, GOLDEN, g, zs, n)
    for i in rng.choice(width, 12, replace=False):
        for row, gen in enumerate(gens):
            alone, _ = grid_log_norms(thetas[row, i:i + 1], j0s[row, i], GOLDEN, gen, zs[i], n)
            assert alone[0] == batch[row, i]


def _traced_peak(b, marks, n=2):
    thetas = np.arange(b) / b
    tracemalloc.start()
    try:
        grid_log_norms(thetas, 0, GOLDEN, ExpGenerator(0.5, 1), 1.0 + 0.0j, n,
                       checkpoints=marks)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_batch_peak_memory():
    # Two steps.  The traced peak is 0.51 MiB at TILE = 1024 orbits, one
    # tile (0.52 with checkpoints), and 0.76 (1.01) at 32768 orbits, since
    # 1 - |f|^2 keeps no extended-precision copies of f (0.58, 0.58, 0.82
    # and 1.07 with them); folded as one batch, 32768 orbits peaked at 7.38
    # (7.63).  Beyond one tile a batch may add only its result vectors: the
    # log norms, one per checkpoint and the copy returned for a checkpoint at n.
    # With the product rescaled by powers of two: 0.48 (0.48) and 0.72 (0.97).
    for marks in (None, [1, 2]):
        one_tile = _traced_peak(cocycle.TILE, marks)
        for b in (4 * cocycle.TILE, 16 * cocycle.TILE):
            bound = one_tile + (len(marks or ()) + 2) * 8 * b
            assert _traced_peak(b, marks) <= bound, (marks, b)
        assert _traced_peak(32768, marks) <= 1.25 * 2**20, marks


def test_narrow_tile_peak_memory(step_forms):
    # A tile of at most TILE // 2 orbits forms both halves of a @ cur in
    # one multiply, and numpy buffers both of its broadcast operands, 2 x 8
    # entries per orbit; the three-call step's two multiplies buffer 2 x 4
    # per orbit.  So the widest narrow tile peaks no higher than a full
    # tile, which keeps the three-call step.  Traced peaks in KB at n = 2
    # (64), without and with checkpoints: 311 and 313 (393 and 402) at 512
    # orbits, 497 and 506 (501 and 518) at 1024; at 512 orbits the
    # three-call step peaked at 253 and 256 (393 and 402), the block build
    # setting the peak at n = 64.
    half = cocycle.TILE // 2
    assert step_forms(lambda: _traced_peak(half, None)) == {("two-call", half)}
    assert step_forms(lambda: _traced_peak(cocycle.TILE, None)) == {("three-call", cocycle.TILE)}
    for n in (2, 64):
        for marks in (None, [1, 2]):
            assert _traced_peak(half, marks, n) <= _traced_peak(cocycle.TILE, marks, n), (n, marks)


def test_fold_memory_does_not_grow_with_steps():
    # The fold's buffers are made once per call and a block's stack of
    # one-step matrices is dropped before the next is built, so 4096 steps
    # (128 blocks of BUDGET // 64 steps at 64 orbits) peak as high as 64
    # steps (two blocks), to within one block's stack.  The traced peak is
    # 0.284 MiB for both (0.301 with a block array of scales, 0.364 with
    # extended-precision copies of f).
    stack = 4 * 16 * (cocycle.BUDGET // 64) * 64
    for marks in (None, [1, 63, 64]):
        short = _traced_peak(64, marks, 64)
        assert abs(_traced_peak(64, marks, 4096) - short) <= stack, marks


def _mp_log_op_norm(prod):
    """log sigma_max of an mpmath 2x2 matrix, in closed form."""
    fro2 = sum(abs(prod[i, j]) ** 2 for i in range(2) for j in range(2))
    det2 = abs(mpmath.det(prod)) ** 2
    return mpmath.log((fro2 + mpmath.sqrt(fro2**2 - 4 * det2)) / 2) / 2


def _oracle_log_norm(fs, z, rhos):
    """log sigma_max of the product of the one-step matrices at the
    coefficients ``fs`` (step order) and z, in 50-digit arithmetic from
    the same doubles, with the prefactors ``rhos`` (one per step)."""
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        prod = mpmath.eye(2)
        for f, c in zip(fs, rhos):
            f = mpmath.mpc(f)
            prod = c * mpmath.matrix([[z, -mpmath.conj(f)], [-f * z, 1]]) * prod
        return float(_mp_log_op_norm(prod))


def _exact_prefactor(g, theta, j):
    """(1 - |f|^2)^(-1/2) in 50 digits of the generator's formula at the
    double angle theta and parity j: 1/eps for the exponential family, and
    for the perturbed one from f = m (w^k + lambda sum_l a_l w^l), every
    power of w taken on its own, with m, lambda a_l and 1 - |f|^2 exact to
    50 digits, not from the rounded f."""
    with mpmath.workdps(50):
        eps = mpmath.mpf(g.epsilon)
        if isinstance(g, ExpGenerator):
            return 1 / eps
        phase = (1 if j == 0 else -1) * 2 * mpmath.pi * mpmath.mpf(theta)
        pert = sum(mpmath.mpc(a) * mpmath.expj(l * phase)
                   for a, l in zip(g.coeffs, range(-g.k, g.k)))
        f = mpmath.sqrt(1 - eps**2) * (mpmath.expj(g.k * phase) + mpmath.mpc(g.lam) * pert)
        return 1 / mpmath.sqrt(1 - abs(f) ** 2)


@pytest.mark.parametrize("family", ["exp", "perturbed"])
def test_short_products_match_mpmath_oracle(family):
    # Both families down to eps = 1e-12, where f rounds onto the unit
    # circle and 1 - |f|^2 from the rounded f is 0 or garbage: the oracle
    # takes each step's prefactor from the generator's formula in 50
    # digits, and the engine from its closed form.
    rng = np.random.default_rng(20 if family == "exp" else 21)
    for eps in [1e-12, 1e-9] + list(10 ** rng.uniform(-12, math.log10(0.95), 10)):
        eps, k = float(eps), int(rng.choice([-1, 1, 2]))
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
        angles, parity = (thetas + ms * GOLDEN.alpha) % 1.0, (j0s + ms) % 2
        fs = g.evaluate_grid(angles, parity)
        for i in range(b):
            rhos = [_exact_prefactor(g, t, j) for t, j in zip(angles[:, i], parity[:, i])]
            expected = _oracle_log_norm(fs[:, i], zs[i], rhos)
            assert abs(logn[i] - expected) <= 1e-13 * (1 + abs(expected))


@pytest.mark.parametrize("budget", [1, cocycle.BUDGET], ids=["one-step", "default"])
def test_operator_norm_only_at_read_steps(monkeypatch, budget):
    # Only the checkpoints and step n take the operator norm, to read the
    # log norm; the renormalization takes none, and the reads change no
    # result.
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
    assert np.array_equal(logn, plain)
    for m in (3, 7):
        assert np.array_equal(rec[m], grid_log_norms(*args[:5], m)[0])
    last, rec = grid_log_norms(*args, checkpoints=[3, 10])
    assert np.array_equal(rec[10], last)


def _reference_log_norms(theta0s, j0s, r, gens, zs, n, marks):
    """The engine's arithmetic written plainly: the coefficients of all n
    steps from ``% 1.0`` angles, one generator call per row of the (R, N)
    start grid with its prefactors (``dynamics.evaluate``), one stack of all
    R N orbits, and the row-by-row fold with a
    temporary per product, renormalized by a power of two at every step
    (the engine rescales rarely), read as (E + e) log 2 + log m with m, e
    the frexp of the operator norm and E the exponents stripped so far."""
    rows, w = theta0s.shape
    b = rows * w
    ms = np.arange(n)[:, None]
    j0s = np.broadcast_to(j0s, theta0s.shape)
    fs, rhos = zip(*(dynamics.evaluate(g, (theta0s[i] + ms * r.alpha) % 1.0,
                                       np.broadcast_to((j0s[i] + ms) % 2, (n, w)))
                     for i, g in enumerate(gens)))
    rho = np.concatenate([np.broadcast_to(c, f.shape) for f, c in zip(fs, rhos)], axis=1)
    mats = cocycle.szego_matrices(np.concatenate(fs, axis=1),
                                  np.tile(np.broadcast_to(zs, (w,)), rows), rho)
    cur = np.zeros((2, 2, b), dtype=complex)
    cur[0, 0] = cur[1, 1] = 1.0
    exps, recorded = np.zeros(b, dtype=int), {}
    for i in range(n):
        a = mats[i]
        top = a[:, 0, 0] * cur[0]
        top += a[:, 0, 1] * cur[1]
        cur[1] *= a[:, 1, 1]
        cur[1] += a[:, 1, 0] * cur[0]
        cur[0] = top
        if i + 1 in marks or i + 1 == n:
            m, e = np.frexp(m2.op_norm(cur.transpose(2, 0, 1)))
            recorded[i + 1] = ((exps + e) * math.log(2.0) + np.log(m)).reshape(rows, w)
        e = np.frexp(np.maximum(np.abs(cur.real), np.abs(cur.imag)).max(axis=(0, 1)))[1]
        for part in (cur.real, cur.imag):
            np.ldexp(part, -e, out=part)
        exps = exps + e
    return recorded


def _assert_matches_reference(rng, kinds, width, n, marks, budget, tile, shared=False,
                              zs=None):
    gens = [_random_generator(rng, kind) for kind in kinds]
    shape = (len(gens), width)
    thetas, j0s = rng.random(shape), rng.integers(0, 2, shape)
    if zs is None:
        zs = np.exp(2j * np.pi * rng.random(width))
    if shared:
        j0s, zs = j0s[0, 0], np.broadcast_to(zs, width)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "BUDGET", budget)
        mp.setattr(cocycle, "TILE", tile)
        logn, rec = grid_log_norms(thetas, j0s, GOLDEN, gens, zs, n, checkpoints=marks)
    expected = _reference_log_norms(thetas, j0s, GOLDEN, gens, zs, n, marks)
    assert np.array_equal(logn, expected[n])
    assert sorted(rec) == sorted(marks)
    for m in marks:
        assert np.array_equal(rec[m], expected[m])


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["exp", "perturbed"]), min_size=1, max_size=4),
    width=st.integers(1, 40),
    n=st.integers(1, 80),
    data=st.data(),
    budget=st.sampled_from([1, 7, cocycle.BUDGET]),
    tile=st.sampled_from([1, 7, cocycle.TILE]),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_matches_reference_fold(kinds, width, n, data, budget, tile, shared,
                                       seed):
    # Bit for bit: the buffered fold on the stack's entry arrays, the
    # floor-reduced angles, the per-row writes and the tiles, which cut the
    # rows wherever they fall, change no operation and no order of the
    # plain reference above, with start parities per orbit and spectral
    # parameters per column, or both ``shared`` by all.
    marks = data.draw(st.sets(st.integers(1, n)), label="marks")
    _assert_matches_reference(np.random.default_rng(seed), kinds, width, n, marks,
                              budget, tile, shared)


def test_engine_matches_reference_fold_wide_batch():
    # 3000 orbits, both families fused as two rows of 1500, in tiles of 7,
    # 1000 (500 columns, which cut both rows) and TILE, with blocks of
    # BUDGET // tile steps.
    for tile in (7, 1000, cocycle.TILE):
        _assert_matches_reference(np.random.default_rng(15), ["exp", "perturbed"],
                                  1500, 12, {1, 5, 11}, cocycle.BUDGET, tile)


@pytest.mark.parametrize(
    "g",
    [ExpGenerator(1e-7, 2), ExpGenerator(0.4, -1),
     PerturbedGenerator(1e-7, 1, 0.5 * lambda_max(1e-7, [1, 1j]), [1, 1j]),
     PerturbedGenerator(0.5, 2, 0.02, [1, 1j, -1, 0.5]),
     ConstantGenerator((1.0 - 1e-14) * np.exp(0.6j))],
    ids=["exp-1e-7", "exp", "perturbed-1e-7", "perturbed", "constant-near-circle"],
)
def test_rescaling_steps_do_not_change_results(monkeypatch, g):
    # SPAN = 0 rescales the product before every step, the default every
    # SPAN // log2(8 c) steps or so (7 at eps = 1e-7 and near the circle);
    # powers of two scale exactly, so every read keeps its bits, in tiles
    # and blocks of any length.
    rng = np.random.default_rng(23)
    b, n, marks = 12, 300, [1, 7, 8, 150, 299]
    args = (rng.random(b), rng.integers(0, 2, b), GOLDEN, g,
            np.exp(2j * np.pi * rng.random(b)), n)
    logn, rec = grid_log_norms(*args, checkpoints=marks)
    monkeypatch.setattr(cocycle, "SPAN", 0)
    for tile, budget in [(cocycle.TILE, cocycle.BUDGET), (1, 7), (5, 1)]:
        monkeypatch.setattr(cocycle, "TILE", tile)
        monkeypatch.setattr(cocycle, "BUDGET", budget)
        every, rec_every = grid_log_norms(*args, checkpoints=marks)
        assert every.tobytes() == logn.tobytes()
        for m in marks:
            assert rec_every[m].tobytes() == rec[m].tobytes()


@pytest.mark.parametrize("span", [None, 0], ids=["span", "span-0"])
@pytest.mark.parametrize("on_circle", [True, False], ids=["circle", "off-circle"])
@pytest.mark.parametrize(
    "gens", [[ExpGenerator(0.3, 1), ExpGenerator(0.5, 1)],
             [ExpGenerator(0.5, 2), _ladder_column(0.5, 2, [1, 1, 1, 1], (0.8, 0.4, 0.2, 0.1, 0.05))]],
    ids=["exp", "ladder"],
)
def test_step_forms_agree_across_the_boundary(monkeypatch, step_forms, gens, on_circle, span):
    # One tile of b orbits takes the two-call step at TILE = 2 b (b = TILE
    # // 2) and the three-call step at TILE = 2 b - 2 (b = TILE // 2 + 1).
    # Both form every product and sum from the same operands in the same
    # order, so every log norm and checkpoint keeps its bits: over three
    # blocks of BUDGET // 48 steps, reads at block edges, z = 0 and |z| != 1
    # among the columns, and SPAN = 0 (a rescaling before every step).
    rng = np.random.default_rng(24)
    rows = sum(len(_scalar_rows(g)) for g in gens)
    cols = 48 // rows
    b, n, marks = rows * cols, 90, [1, 2, 42, 43, 84, 89]
    zs = (np.exp(2j * np.pi * rng.random(cols)) if on_circle
          else np.resize([0.0, 0.5j, -2.0, 1e-3, 1.0 + 3.0j], cols))
    args = rng.random((rows, cols)), rng.integers(0, 2, (rows, cols)), GOLDEN, gens, zs, n
    if span is not None:
        monkeypatch.setattr(cocycle, "SPAN", span)
    folds = []
    for tile, form in [(2 * b, "two-call"), (2 * b - 2, "three-call")]:
        monkeypatch.setattr(cocycle, "TILE", tile)
        assert step_forms(lambda: grid_log_norms(*args)) == {(form, b)}
        logn, rec = grid_log_norms(*args, checkpoints=marks)
        folds.append([logn.tobytes()] + [rec[m].tobytes() for m in marks])
    assert folds[0] == folds[1]


def test_products_of_large_prefactors_do_not_overflow():
    # A real constant f = 1 - 1e-12 at z = 1: A = c [[1, -f], [-f, 1]] is
    # symmetric with eigenvalues c (1 +- f), so log ||A_n|| = n artanh f,
    # about 72500 at n = 5000.  With c = 7.1e5 a step moves the product's
    # exponent by up to 21 bits: rescaling every 50 steps, as at c = 2,
    # would overflow.
    f, n = 1.0 - 1e-12, 5000
    logn, _ = grid_log_norms([0.0, 0.3], 0, GOLDEN, ConstantGenerator(f), 1.0, n)
    assert logn == pytest.approx(n * math.atanh(f), rel=1e-12)


@pytest.mark.parametrize(
    "g", [ExpGenerator(0.3, 1), ExpGenerator(0.5, 1),
          PerturbedGenerator(0.5, 2, 0.02, [1, 1j, -1, 0.5])],
    ids=["exp-0.3", "exp-0.5", "perturbed"],
)
def test_log_norms_match_60_digit_fold(g):
    # The engine's one-step matrices folded in 60 digits.  The fold and the
    # read are the engine's only roundings: the median relative error of
    # log ||A_300|| over 16 orbits was 3.7e-17 to 7.4e-17, against 2.4e-16
    # to 4.4e-16 for a sum of one log scale per step.  A single orbit can
    # lose up to 1e-14 where the product nearly cancels, to the fold's own
    # rounding, whatever the renormalization.
    rng = np.random.default_rng(99)
    b, n = 16, 300
    thetas, j0s = rng.random(b), rng.integers(0, 2, b)
    zs = np.exp(2j * np.pi * rng.random(b))
    logn, _ = grid_log_norms(thetas, j0s, GOLDEN, g, zs, n)
    ms = np.arange(n)[:, None]
    f, rho = dynamics.evaluate(g, (thetas + ms * GOLDEN.alpha) % 1.0, (j0s + ms) % 2)
    mats = cocycle.szego_matrices(f, zs, rho)
    errors = []
    with mpmath.workdps(60):
        for i in range(b):
            prod = mpmath.eye(2)
            for a in mats[:, i]:
                prod = mpmath.matrix(a.tolist()) * prod
            expected = _mp_log_op_norm(prod)
            errors.append(float(abs(logn[i] - expected) / expected))
    assert np.median(errors) <= 1e-16
    assert max(errors) <= 2e-15


@pytest.mark.parametrize("z", [0.0, 0.5j, -2.0, 1e-3])
def test_engine_matches_reference_fold_off_the_circle(z):
    # Off the unit circle a step moves the product's exponent by up to
    # log2(8 c max(|z|, 1/|z|)), and at z = 0 it may fall without bound, so
    # the engine rescales before every step; either way it keeps the bits
    # of the reference fold.
    _assert_matches_reference(np.random.default_rng(25), ["exp", "perturbed"], 5, 400,
                              {1, 57, 399}, cocycle.BUDGET, cocycle.TILE, shared=True,
                              zs=z)


# The mirror identity's rounding, per step and per unit of 1 + |log |z||:
# 2^-40 = 9.1e-13.  Over 60000 random batches of the three families (eps
# in [0.05, 0.95], constants of modulus up to 0.95, n <= 200, |z| from
# 1e-3 to 1e3, half of them within 12 % of the circle) most orbits stayed
# within 1e-15 and the worst read 5.2e-15; hypothesis found 9.3e-15, a
# perturbed orbit at |z| = 1, n = 57, whose log norm falls 47 below the sum
# of its steps' log norms.  Where a product cancels so, the fold amplifies
# the rounding of the two sides' one-step matrices.
MIRROR_TOL = 2.0**-40


def _mirror_error(logn, mirror, z, n):
    """max |log ||A^z_n|| - log ||A^(1/conj z)_n|| - n log|z||, in units of
    MIRROR_TOL n (1 + |log|z||)."""
    scale = MIRROR_TOL * n * (1.0 + abs(math.log(abs(z))))
    return float(np.max(np.abs(logn - mirror - n * math.log(abs(z))))) / scale


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["exp", "perturbed", "constant"]),
    log_mod=st.floats(-3.0, 3.0),
    z_turn=st.floats(0.0, 1.0),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_norms_mirror_through_the_unit_circle(kind, log_mod, z_turn, n, seed):
    # With S the swap, conj(z) A^(1/conj z)(f) = S conj(A^z(f)) S: the one-step
    # matrices at z and at its mirror 1/conj(z) have the same norms up to
    # |z|, so log ||A^z_n|| = log ||A^(1/conj z)_n|| + n log|z| on every orbit.
    rng = np.random.default_rng(seed)
    g = (ConstantGenerator(rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.random()))
         if kind == "constant" else _random_generator(rng, kind))
    z = 10.0**log_mod * turn(z_turn)
    mirror = 1.0 / z.conjugate()
    b = 6
    thetas, j0s = rng.random(b), rng.integers(0, 2, b)
    f = g.evaluate_grid(thetas, j0s)
    swapped = SWAP @ np.conj(cocycle.szego_matrices(f, z)) @ SWAP
    scaled = z.conjugate() * cocycle.szego_matrices(f, mirror)
    assert np.max(np.abs(swapped - scaled)) <= 1e-15 * np.max(np.abs(swapped))
    logn, _ = grid_log_norms(thetas, j0s, GOLDEN, g, z, n)
    logn_mirror, _ = grid_log_norms(thetas, j0s, GOLDEN, g, mirror, n)
    assert _mirror_error(logn, logn_mirror, z, n) <= 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_engine_z_domain_at_the_extremes():
    # |z| = 1e76 reads finite log norms, the mirror images of those at
    # 1e-76.  From about 2.9e76 / c a read's fourth powers would overflow,
    # though every one-step matrix is finite: the engine names that bound,
    # not a step.  A subnormal z, or one whose inverse overflows, reads as
    # z = 0, bit for bit.
    args = np.array([0.1, 0.4, 0.77]), [[0], [1]], GOLDEN, ExpGenerator(0.5, 1)
    n, marks = 50, [1, 7]
    big, rec_big = grid_log_norms(*args, 1e76, n, checkpoints=marks)
    small, rec_small = grid_log_norms(*args, 1e-76, n, checkpoints=marks)
    assert np.isfinite(big).all()
    assert _mirror_error(big, small, 1e76, n) <= 1.0
    assert all(_mirror_error(rec_big[m], rec_small[m], 1e76, m) <= 1.0 for m in marks)
    for z in (1e77, 1e300, -1e300j):
        with pytest.raises(NumericalBlowupError, match=r"reaches 2\^254") as info:
            grid_log_norms(*args, z, n)
        assert "step" not in str(info.value)
    at_zero = grid_log_norms(*args, 0.0, n)[0].tobytes()
    for z in (1e-310, 1e-310j, 1e-308, 5e-324):
        assert grid_log_norms(*args, z, n)[0].tobytes() == at_zero, z


def _boundaries():
    # Parts end at a k change, a family change and a constant row; the last
    # is a column of one row.
    return [ExpGenerator(0.4, 1), _ladder_column(0.3, 1, [1, 0.5j], (0.9, 0.1)),
            _ladder_column(0.6, 2, [1, -1, 1j, 2], (0.0, 0.5, 0.99)),
            ConstantGenerator(0.3 - 0.2j), _ladder_column(0.7, 2, [1, 1, 1, 1], (0.2, 0.4)),
            ExpGenerator((0.5, 0.45), 2), _ladder_column(0.5, 2, [1, 1, 1, 1], (0.3,))]


def _random_column(rng, k, rows, eps_column=True, lam_column=True):
    """A perturbed generator of ``rows`` rows with complex a_l: a column of
    epsilons, of complex couplings below every row's radius, or both."""
    coeffs = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
    eps = rng.uniform(0.2, 0.9, rows)
    lmax = min(lambda_max(float(e), coeffs) for e in eps)
    lams = rng.uniform(0.0, 0.99, rows) * lmax * np.exp(2j * np.pi * rng.random(rows))
    return PerturbedGenerator(list(eps) if eps_column else float(eps[0]), k,
                              list(lams) if lam_column else complex(lams[0]), coeffs)


@pytest.mark.parametrize("seed, make, parts", [
    (16 + rows, lambda rng, rows=rows: [_random_generator(rng, kind) for kind in
                                        ("exp", "perturbed", "perturbed", "exp")[:rows]],
     list(range(rows)))
    for rows in (1, 2, 3, 4)
] + [
    (21, lambda rng: _ladder_column(0.5, 2, [1, 1, 1, 1], np.linspace(0.0, 0.99, 6)), None),
    (22, lambda rng: _random_column(rng, 2, 4), None),  # each row its own eps and lambda
    (23, lambda rng: _boundaries(), [0, (1, 3), (3, 6), 6, (7, 9), (9, 11), (11, 12)]),
], ids=["1", "2", "3", "4", "ladder", "mixed-run", "boundaries"])
def test_coefficients_match_mod_one_angles(seed, make, parts):
    # Rotation.orbit's floor-reduced angles are the bits of (theta0 + m
    # alpha) % 1.0, for negative starts and m up to 1e5.  On them a column
    # generator, handed to the engine as it is, gives every row the bytes
    # of the row's own scalar generator, and so does a stack of generators,
    # a column taking its rows and any other generator one.  Each row's
    # prefactors have the bits of its scalar generator's own call: its
    # closed form, stated or filled in per value.  A scalar generator gives
    # every row its own bits too.
    rng = np.random.default_rng(seed)
    g = make(rng)
    rowwise = dynamics._Rows(g, sum(len(_scalar_rows(p)) for p in g)) if isinstance(g, list) else g
    if parts is not None:
        assert [r if isinstance(r, int) else (r.start, r.stop) for r, _ in rowwise.parts] == parts
    gens = [row for part in (g if isinstance(g, list) else [g]) for row in _scalar_rows(part)]
    rows = len(gens)
    theta0s = rng.uniform(-3.0, 3.0, (rows, 5))
    theta0s[0, :2] = [-0.0, -1.0]
    j0s = rng.integers(0, 2, (rows, 5))
    ms = np.concatenate([np.arange(4), rng.integers(4, 10**5, 20), [10**5]])[:, None, None]
    thetas, parity = GOLDEN.orbit(theta0s, j0s, ms)
    assert np.array_equal(thetas, (theta0s + ms * GOLDEN.alpha) % 1.0)
    assert np.array_equal(parity, (j0s + ms) % 2)
    got, rho = dynamics.evaluate(rowwise, thetas, parity)
    for row, g in enumerate(gens):
        assert got[:, row].tobytes() == g.evaluate_grid(thetas[:, row], parity[:, row]).tobytes()
        want = dynamics.evaluate(g, thetas[:, row], parity[:, row])[1]
        assert (np.broadcast_to(rho, got.shape)[:, row].tobytes()
                == np.broadcast_to(want, got[:, row].shape).tobytes())
        assert np.isfinite(want).all()
        if isinstance(g, PerturbedGenerator):
            filled = np.empty(got[:, row].shape)
            g.evaluate_grid(thetas[:, row], parity[:, row], rho=filled)
            assert want.tobytes() == filled.tobytes()
        else:
            assert want == g.prefactor
    got, rho = dynamics.evaluate(gens[-1], thetas, parity)
    assert np.array_equal(got, gens[-1].evaluate_grid(thetas, parity))
    for row in range(rows):
        alone = dynamics.evaluate(gens[-1], thetas[:, row], parity[:, row])[1]
        assert (np.broadcast_to(rho, got.shape)[:, row].tobytes()
                == np.broadcast_to(alone, got[:, row].shape).tobytes())


class ParityBlind:
    """A generator whose values ignore j, shaped like the angles alone."""

    @staticmethod
    def evaluate_grid(thetas, j):
        return 0.5 * np.cos(2 * np.pi * thetas) + 0.2j


def test_generator_ignoring_parity_fills_both_rows():
    # A generator whose values ignore j, shaped like the angles alone,
    # still gives both parity rows of a two-row engine call their orbits:
    # each row equals the same orbits run alone at that parity, and so the
    # other row.
    thetas, z = np.linspace(0.0, 0.9, 7), cmath.exp(0.3j)
    g = Filled(ParityBlind())
    both, rec = grid_log_norms(thetas, [[0], [1]], GOLDEN, g, z, 30, checkpoints=[9])
    for j in (0, 1):
        alone, rec_alone = grid_log_norms(thetas, j, GOLDEN, g, z, 30, checkpoints=[9])
        assert both[j].tobytes() == alone.tobytes()
        assert rec[9][j].tobytes() == rec_alone[9].tobytes()
    assert both[0].tobytes() == both[1].tobytes()
    assert np.ptp(both) > 0.01


@pytest.mark.parametrize("form", [np.ndarray.tolist, np.asfortranarray,
                                  lambda v: v.astype(np.complex64)],
                         ids=["list", "fortran", "complex64"])
def test_coefficients_of_the_orbit_shape_in_any_form(form):
    # Values of the orbits' full shape in any form that broadcasts (a nested
    # list, a strided or a single-precision array) give the log norms of the
    # same values as a C-contiguous complex array.
    def formed(form):
        class Formed:
            prefactor = 2.0  # 1/eps

            @staticmethod
            def evaluate_grid(thetas, j):
                return form(ExpGenerator(0.5, 1).evaluate_grid(thetas, j))
        return Formed()

    args = np.linspace(0.0, 0.9, 7) + np.zeros((3, 1)), [[0], [1], [0]], GOLDEN
    got = grid_log_norms(*args, formed(form), cmath.exp(0.3j), 30)[0]
    want = formed(lambda v: np.ascontiguousarray(form(v), dtype=complex))
    assert got.tobytes() == grid_log_norms(*args, want, cmath.exp(0.3j), 30)[0].tobytes()


def _row_generators(rng, blocks):
    """One generator per (kind, k, count) in ``blocks``: an exponential
    column of ``count`` epsilons, a perturbed ladder of one eps with a
    column of real or complex couplings, a column of epsilons at one
    complex coupling (``scan --lambda``), or ``count`` constants or
    parity-blind rows, which fill their prefactors."""
    gens = []
    for kind, k, count in blocks:
        if kind == "exp":
            gens.append(ExpGenerator(list(rng.uniform(0.05, 0.95, count)), k))
        elif kind in ("real", "complex"):
            coeffs = rng.normal(size=2 * abs(k)) + (kind == "complex") * 1j * rng.normal(
                size=2 * abs(k))
            gens.append(_ladder_column(float(rng.uniform(0.2, 0.9)), abs(k), coeffs,
                                       rng.uniform(0.0, 0.99, count)))
        elif kind == "scan":
            gens.append(_random_column(rng, abs(k), count, lam_column=False))
        elif kind == "constant":
            gens += [ConstantGenerator(complex(*rng.uniform(-0.6, 0.6, 2))) for _ in range(count)]
        else:
            gens += [Filled(ParityBlind())] * count
    return gens


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.tuples(st.sampled_from(["exp", "real", "complex", "scan", "constant",
                                               "blind"]),
                              st.sampled_from([1, -1, 2]), st.integers(1, 3)),
                    min_size=1, max_size=6),
    width=st.integers(1, 12),
    n=st.integers(1, 30),
    tile=st.sampled_from([1, 7, cocycle.TILE]),
    seed=st.integers(0, 2**32 - 1),
)
@example(blocks=[("exp", 1, 2), ("exp", -1, 2), ("exp", 2, 1), ("real", 1, 2), ("complex", 1, 2),
                 ("scan", 2, 3), ("real", 2, 2), ("constant", 1, 1), ("blind", 1, 2),
                 ("exp", 2, 3)],
         width=5, n=9, tile=7, seed=3)
@example(blocks=[("complex", 1, 1)], width=5, n=1, tile=1, seed=0)  # one-row column, one element
def test_runs_match_one_call_per_row(blocks, width, n, tile, seed):
    # Column generators (exponential rows of their own eps, perturbed rows
    # of their own lambda or their own eps), between constants and
    # parity-blind rows, give every row the bytes of its own scalar
    # generator's call, in the stack's values and prefactors and in the
    # engine's log norms and checkpoints.
    rng = np.random.default_rng(seed)
    gens = _row_generators(rng, blocks)
    twins = [row for g in gens for row in _scalar_rows(g)]
    rows = len(twins)
    theta0s, j0s = rng.uniform(-1.0, 2.0, (rows, width)), rng.integers(0, 2, (rows, width))
    thetas, parity = GOLDEN.orbit(theta0s, j0s, np.arange(n)[:, None, None])
    rho = np.empty(thetas.shape)
    got = dynamics._Rows(gens, rows).evaluate_grid(thetas, parity, rho)
    zs = rng.uniform(0.5, 2.0, width) * np.exp(2j * np.pi * rng.random(width))
    marks = [1, n // 2 + 1, n]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "TILE", tile)
        logn, rec = grid_log_norms(theta0s, j0s, GOLDEN, gens, zs, n, checkpoints=marks)
    for row, g in enumerate(twins):
        one, one_rho = dynamics.evaluate(g, thetas[:, row], parity[:, row])
        assert got[:, row].tobytes() == one.tobytes()
        assert rho[:, row].tobytes() == np.broadcast_to(one_rho, (n, width)).tobytes()
        alone, rec_alone = grid_log_norms(theta0s[row], j0s[row], GOLDEN, g, zs, n,
                                          checkpoints=marks)
        assert logn[row].tobytes() == alone.tobytes()
        assert all(rec[m][row].tobytes() == rec_alone[m].tobytes() for m in marks)


def test_scan_batch_one_call_per_block(monkeypatch):
    # scan's batch, two exponential rows of 32 orbits over 300 steps in 10
    # blocks, makes one evaluate_grid call per block, on its one generator
    # with a column of both epsilons and through the class attribute that
    # the benchmark's tracer wraps, and one szego_matrices call per block on
    # the very array that call returned, with the column of prefactors 1/eps.
    evaluate, build, calls = ExpGenerator.evaluate_grid, cocycle.szego_matrices, []

    def spy_evaluate(self, thetas, j):
        calls.append(("evaluate", self.rows, np.shape(thetas), evaluate(self, thetas, j)))
        return calls[-1][-1]

    def spy_build(f, z, rho=None):
        calls.append(("build", f is calls[-1][-1], np.asarray(rho).tolist()))
        return build(f, z, rho)

    monkeypatch.setattr(ExpGenerator, "evaluate_grid", spy_evaluate)
    monkeypatch.setattr(cocycle, "szego_matrices", spy_build)
    rng = np.random.default_rng(7)
    g = ExpGenerator([0.3, 0.5], 1)
    zs = np.exp(2j * np.pi * np.arange(32) / 32)
    grid_log_norms(rng.random((2, 32)), rng.integers(0, 2, (2, 32)), GOLDEN, g, zs, 300)
    blocks = [32] * 9 + [12]  # BUDGET // 64 steps each
    assert [c[:3] for c in calls[::2]] == [("evaluate", 2, (b, 2, 32)) for b in blocks]
    assert calls[1::2] == [("build", True, [[1.0 / 0.3], [1.0 / 0.5]])] * len(blocks)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["exp", "perturbed"]),
    k=st.integers(1, 200),
    m=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_norm_is_subadditive(kind, k, m, seed):
    # log ||A_(k+m)(p)|| <= log ||A_k(p)|| + log ||A_m(T^k p)||, since the
    # cocycle splits as A_(k+m)(p) = A_m(T^k p) A_k(p) and the operator
    # norm is submultiplicative.
    rng = np.random.default_rng(seed)
    g = _random_generator(rng, kind)
    b = 4
    thetas, j0s = rng.random(b), rng.integers(0, 2, b)
    zs = np.exp(2j * np.pi * rng.random(b))
    whole, rec = grid_log_norms(thetas, j0s, GOLDEN, g, zs, k + m, checkpoints=[k])
    later, _ = grid_log_norms((thetas + k * GOLDEN.alpha) % 1.0, (j0s + k) % 2,
                              GOLDEN, g, zs, m)
    split = rec[k] + later
    assert np.all(whole <= split + 1e-9 * (1 + np.abs(split)))
