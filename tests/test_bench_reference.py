"""Every benchmark workload variant still reproduces ``bench/reference.json``.

The benchmark checks each command's outputs against the recorded
reference (exit code, stdout and written files, numbers within 1e-12 or
their printed precision) and counts a miss as a failed operation.  This
replays all variants through ``cli.main`` so that output drift, such as a
last-bit change in gamma moving a full-precision ``scan.svg`` coordinate,
fails here and not only in a benchmark run.  ``bench/workloads.py`` and
``bench/reference.py`` are loaded by path, as ``test_bench_sites.py``
loads ``tracing.py``.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from szegolyap import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
REFERENCE = _load("reference")
CASES = [(name, v) for name, wl in WORKLOADS.items() for v in range(len(wl.variants))]


def _read(path):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


@pytest.mark.parametrize("name, variant", CASES, ids=[f"{n}-{v}" for n, v in CASES])
def test_variant_matches_reference(name, variant, tmp_path, monkeypatch):
    wl = WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(wl.argv(variant))
    actual = {
        "exit": code,
        "stdout": out.getvalue(),
        "files": {f: _read(tmp_path / f) for f in wl.files},
    }
    expected = REFERENCE.load()[name][variant]
    assert REFERENCE.outputs_mismatch(expected, actual) is None
