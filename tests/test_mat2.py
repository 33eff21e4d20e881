"""Tests for the closed-form 2x2 kernel, against independent oracles."""

import mpmath
import numpy as np
import pytest

from szegolyap import mat2 as m2
from szego_algebra import SWAP, u11_residual


def mat(a, b, c, d):
    """[[a, b], [c, d]] as a complex array."""
    return np.array([[a, b], [c, d]], dtype=complex)


def max_abs_diff(x, y):
    """Entrywise max-modulus distance between two matrices."""
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


def random_mat(rng, scale=1.0):
    return scale * (
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )


def random_unitary(rng):
    q, r = np.linalg.qr(random_mat(rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def mul_expansion_oracle(x, y):
    """Direct 8-term entrywise expansion of the 2x2 product."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for l in range(2):
                out[i, j] += x[i, l] * y[l, j]
    return out


def power_iteration_norm(x, tol=1e-12, max_iter=10000):
    """sigma_max via power iteration on x* x, to a 1e-12 residual."""
    h = np.conj(x.T) @ x
    v = np.array([1.0, 0.7071], dtype=complex)
    lam = 0.0
    for _ in range(max_iter):
        w = h @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        w /= lam
        if np.linalg.norm(h @ w - lam * w) <= tol * max(lam, 1.0):
            v = w
            break
        v = w
    return float(np.sqrt(lam))


def test_mul_identity():
    rng = np.random.default_rng(0)
    m = random_mat(rng)
    assert max_abs_diff(m2.mul(np.eye(2), m), m) == 0.0


def test_mul_row_swap():
    m = mat(1 + 2j, 3, 4j, 5 - 1j)
    swapped = m2.mul(SWAP, m)
    assert max_abs_diff(swapped, mat(4j, 5 - 1j, 1 + 2j, 3)) == 0.0


def test_mul_matches_expansion_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = random_mat(rng), random_mat(rng)
        assert max_abs_diff(m2.mul(x, y), mul_expansion_oracle(x, y)) < 1e-13


def test_det_identity_and_diagonal():
    assert m2.det(np.eye(2)) == 1.0
    z = 0.3 + 0.4j
    assert m2.det(mat(z, 0, 0, 1)) == z


def test_det_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x, y = random_mat(rng), random_mat(rng)
        lhs = m2.det(m2.mul(x, y))
        rhs = m2.det(x) * m2.det(y)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(m2.det(x)) * abs(m2.det(y)))


def test_op_norm_identity_and_diagonal():
    assert m2.op_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-15)
    assert m2.op_norm(mat(2, 0, 0, 1)) == pytest.approx(2.0, abs=1e-15)


def test_op_norm_vs_power_iteration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = random_mat(rng, scale=float(rng.uniform(0.1, 10.0)))
        assert m2.op_norm(x) == pytest.approx(
            power_iteration_norm(x), rel=1e-10
        )


def test_op_norm_dominates_sqrt_det():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x = random_mat(rng)
        assert m2.op_norm(x) >= np.sqrt(abs(m2.det(x))) - 1e-12


def test_op_norm_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = random_mat(rng)
        u = random_unitary(rng)
        assert abs(m2.op_norm(m2.mul(u, x)) - m2.op_norm(x)) <= 1e-10 * m2.op_norm(x)


def mp_op_norm(x):
    """sigma_max of the 2x2 matrix of doubles ``x``, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        m = mpmath.matrix(x.tolist())
        fro2 = sum(abs(m[i, j]) ** 2 for i in range(2) for j in range(2))
        det2 = abs(mpmath.det(m)) ** 2
        return mpmath.sqrt((fro2 + mpmath.sqrt(max(fro2**2 - 4 * det2, 0))) / 2)


def test_op_norm_with_near_equal_singular_values_matches_mpmath():
    # On diag(e^(i phi), e^(-i phi)) and on unitaries both singular values
    # are 1 up to the rounding of the entries, where a discriminant formed
    # as F^2 - 4 |det|^2 cancels (to 1.5e-8 relative error in sigma_max).
    rng = np.random.default_rng(7)
    mats = [np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
            for phi in np.linspace(0.0, 2.0 * np.pi, 50)]
    mats += [random_unitary(rng) for _ in range(50)]
    for x in mats:
        want = mp_op_norm(x)
        assert abs(m2.op_norm(x) - want) <= 4 * 2.0**-53 * want, x


def test_op_norm_batched_matches_scalar():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((7, 2, 2)) + 1j * rng.standard_normal((7, 2, 2))
    batched = m2.op_norm(stack)
    for i in range(7):
        assert batched[i] == pytest.approx(float(m2.op_norm(stack[i])), rel=1e-14)


def test_is_u11_identity_and_counterexample():
    # The U(1,1) reference of the algebra tests.
    assert u11_residual(np.eye(2)) <= 1e-12
    assert u11_residual(mat(2, 0, 0, 1)) > 1e-12
