"""Closed-form linear algebra for complex 2x2 matrices.

Everything here works on stacks: an argument of shape ``(..., 2, 2)`` is
treated as a batch of 2x2 matrices and the operation broadcasts over the
leading axes.  The operator norm uses the exact singular-value formula for
the 2x2 case, so no iterative SVD is ever needed.
"""

import numpy as np


def mul(x, y):
    """Matrix product, batched."""
    return np.asarray(x) @ np.asarray(y)


def det(x):
    """Determinant a*d - b*c, batched."""
    x = np.asarray(x)
    return x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]


def op_norm(x):
    """Largest singular value sigma_max, in closed form.

    With p and q the squared norms of the two rows and r = a conj(c) +
    b conj(d) their inner product, x x* = [[p, r], [conj(r), q]] and

        sigma_max^2 = (p + q + sqrt((p - q)^2 + 4 |r|^2)) / 2,

    a sum of nonnegative terms: no cancellation, even where the two
    singular values nearly coincide.  (p - q)^2 + 4 |r|^2 = F^2 - 4 |det|^2
    <= F^2, with F = p + q the squared Frobenius norm.
    """
    x = np.asarray(x)
    sq = x.real**2 + x.imag**2
    p, q = sq[..., 0, 0] + sq[..., 0, 1], sq[..., 1, 0] + sq[..., 1, 1]
    r = x[..., 0, 0] * np.conj(x[..., 1, 0]) + x[..., 0, 1] * np.conj(x[..., 1, 1])
    disc = (p - q) ** 2 + 4.0 * (r.real**2 + r.imag**2)
    return np.sqrt(0.5 * (p + q + np.sqrt(disc)))
