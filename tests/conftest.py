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

    def corrupted(f, z, rho=None):
        m2 = np.abs(np.asarray(f, dtype=complex)) ** 2
        return real(f, z, rho) * np.sqrt((1.0 - m2) / (1.0 + m2))[..., None, None]

    monkeypatch.setattr(cocycle, "szego_matrices", corrupted)


@pytest.fixture
def step_forms(monkeypatch):
    """A function that calls ``run()`` and returns the set of step forms the
    product engine's fold took in it, told apart by the shapes of its
    multiplies: ("two-call", orbits) for one multiply forming both halves
    of a @ cur on a tile of that many orbits, ("three-call", orbits) for
    one multiply per half."""

    def forms(run):
        seen = set()

        class Spying:
            """numpy, as the engine module sees it, with a spy on multiply."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def multiply(x, y, *args, **kwargs):
                b, out = np.shape(y)[-1], kwargs.get("out")
                shapes = np.shape(x), np.shape(out)
                if shapes == ((2, 2, 1, b), (2, 2, 2, b)):
                    seen.add(("two-call", b))
                if shapes == ((2, 1, b), (2, 2, b)):
                    seen.add(("three-call", b))
                return np.multiply(x, y, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(cocycle, "np", Spying())
            run()
        return seen

    return forms


@pytest.fixture
def finite_checks(monkeypatch):
    """A function that calls ``run()`` and returns the shapes of the arrays
    that the product engine scanned entry by entry for non-finite values,
    in order: a block's (steps, orbits, 2, 2) stack of one-step matrices,
    or (1, orbits) for the log norms of an engine call's last step."""

    def checks(run):
        seen, check = [], cocycle._check_finite

        def spy(stack, m0):
            seen.append(np.shape(stack))
            check(stack, m0)

        with monkeypatch.context() as patch:
            patch.setattr(cocycle, "_check_finite", spy)
            run()
        return seen

    return checks
