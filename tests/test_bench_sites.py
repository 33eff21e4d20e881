"""The benchmark's tracing sites still resolve on the package.

``bench/tracing.py`` wraps functions by the names in its ``SITES`` table
and counts engine work from the engine's positional ``n``.  A refactor
that renames or moves one of them would break traced benchmark runs
without failing any other test; this reads the table as it stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


SITES = _sites()


@pytest.mark.parametrize("module, attr", [site[:2] for site in SITES],
                         ids=[f"{m}.{a}" for m, a, _, _ in SITES])
def test_site_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_szego_matrices_returns_stack():
    from szegolyap.cocycle import szego_matrices

    f = np.full((3, 5), 0.5 + 0.1j)
    assert szego_matrices(f, np.exp(0.3j)).shape == (3, 5, 2, 2)


def test_engine_n_is_sixth_positional_parameter():
    from szegolyap.cocycle import grid_log_norms

    assert list(inspect.signature(grid_log_norms).parameters)[5] == "n"
