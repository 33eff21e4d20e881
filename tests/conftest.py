"""Shared fixtures."""

import numpy as np
import pytest

import szegolyap.cocycle as cocycle


@pytest.fixture
def corrupted_kernel(monkeypatch):
    """Flip the sign of |f|^2 in the normalizing prefactor of every cocycle
    matrix: (1 + |f|^2)^(-1/2) in place of (1 - |f|^2)^(-1/2).

    The engine looks ``szego_matrices`` up in ``szegolyap.cocycle`` at call
    time, so the patch reaches every estimator and CLI command.
    """
    real = cocycle.szego_matrices

    def corrupted(f, z):
        m2 = np.abs(np.asarray(f, dtype=complex)) ** 2
        return real(f, z) * np.sqrt((1.0 - m2) / (1.0 + m2))[..., None, None]

    monkeypatch.setattr(cocycle, "szego_matrices", corrupted)
