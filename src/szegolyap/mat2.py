"""Closed-form linear algebra for complex 2x2 matrices.

Everything here works on stacks: an argument of shape ``(..., 2, 2)`` is
treated as a batch of 2x2 matrices and the operation broadcasts over the
leading axes.  The operator norm uses the exact singular-value formula for
the 2x2 case, so no iterative SVD is ever needed.
"""

import numpy as np

# Indefinite form preserved by U(1,1).
J = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def mat2(a, b, c, d):
    """Build [[a, b], [c, d]] as a complex array."""
    return np.array([[a, b], [c, d]], dtype=complex)


def mul(x, y):
    """Matrix product, batched."""
    return np.asarray(x) @ np.asarray(y)


def det(x):
    """Determinant a*d - b*c, batched."""
    x = np.asarray(x)
    return x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]


def inv(x):
    """Inverse via the adjugate formula."""
    x = np.asarray(x)
    d = det(x)
    out = np.empty_like(x, dtype=complex)
    out[..., 0, 0] = x[..., 1, 1]
    out[..., 0, 1] = -x[..., 0, 1]
    out[..., 1, 0] = -x[..., 1, 0]
    out[..., 1, 1] = x[..., 0, 0]
    return out / d[..., None, None]


def herm(x):
    """Conjugate transpose, batched."""
    return np.conj(np.swapaxes(np.asarray(x), -1, -2))


def op_norm(x):
    """Largest singular value sigma_max, in closed form.

    With F the squared Frobenius norm and D = |det|^2, the singular values
    satisfy sigma^2 = (F +- sqrt(F^2 - 4 D)) / 2.  The discriminant is
    clamped at zero to absorb rounding when the two singular values
    coincide.
    """
    x = np.asarray(x)
    fro2 = np.sum(np.abs(x) ** 2, axis=(-1, -2))
    d2 = np.abs(det(x)) ** 2
    disc = np.maximum(fro2 * fro2 - 4.0 * d2, 0.0)
    return np.sqrt(0.5 * (fro2 + np.sqrt(disc)))


def is_u11(x, tol):
    """True iff x* J x = J entrywise within tol, i.e. x is in U(1,1)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    resid = herm(x) @ J @ np.asarray(x) - J
    return bool(np.all(np.abs(resid) <= tol))


def max_abs_diff(x, y):
    """Entrywise max-modulus distance; the matrix metric used in tests."""
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))
