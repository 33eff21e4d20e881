"""Tests of the benchmark itself.

    python3 -m pytest bench/

Tracing must leave every output byte-identical, every wrapped call site
must be reached by the workloads that should reach it (so that a missed
patch shows as zero calls rather than as zero time), and the output check
must accept rounding-level differences and reject real ones.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import reference
import tracing
from run import unit
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

_ENGINE_SITES = {
    "szegolyap.lyapunov.grid_log_norms",
    "szegolyap.cocycle.op_norm",
    "szegolyap.cocycle.szego_matrices",
    "szegolyap.dynamics.ExpGenerator.evaluate_grid",
}
REACHED = {
    "scan_narrow_long": _ENGINE_SITES
    | {"szegolyap.cli.birkhoff_scan", "szegolyap.svgchart.write_scan_svg"},
    "verify_t1_wide": _ENGINE_SITES | {"szegolyap.cli.estimate_phase_average"},
    "verify_t2_perturbed": _ENGINE_SITES
    | {"szegolyap.cli.birkhoff_scan", "szegolyap.dynamics.PerturbedGenerator.evaluate_grid"},
    "subharmonic_quad": {"szegolyap.cli.subharmonic_check", "szegolyap.lyapunov.op_norm"},
}


def traced_command(wl):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, outputs, _ = child.run_command(wl.argv(0), wl.files, tracer)
    return tracer, outputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_are_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = WORKLOADS[name]
    _, plain, _ = child.run_command(wl.argv(0), wl.files)
    _, traced = traced_command(wl)
    assert traced == plain
    assert reference.outputs_mismatch(reference.load()[name][0], plain) is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_site_is_reached_where_expected(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = WORKLOADS[name]
    tracer, _ = traced_command(wl)
    assert {s for s, n in tracer.site_calls.items() if n > 0} == REACHED[name]
    engine = [i for i in range(len(tracer.start))
              if tracer.names[tracer.name[i]] == "cocycle.engine"]
    if name == "subharmonic_quad":
        assert not engine
    else:
        # The workload's declared work is what the engine actually did.
        assert sum(tracer.work[i] for i in engine) == wl.matrix_steps


def test_every_site_belongs_to_some_workload():
    sites = {f"{m}.{a}" for m, a, _, _ in tracing.SITES}
    assert set().union(*REACHED.values()) == sites


def test_installed_restores_the_originals():
    from szegolyap import cli, cocycle, dynamics, lyapunov

    before = (cli.birkhoff_scan, cocycle.szego_matrices,
              dynamics.ExpGenerator.evaluate_grid, lyapunov.op_norm)
    with tracing.installed(tracing.Tracer()):
        assert cli.birkhoff_scan is not before[0]
    after = (cli.birkhoff_scan, cocycle.szego_matrices,
             dynamics.ExpGenerator.evaluate_grid, lyapunov.op_norm)
    assert after == before


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    outer = tracer.open(tracing.MAIN)
    inner = tracer.open("mat2.op_norm")
    tracer.close(inner)
    tracer.close(outer)
    metrics, shares = tracing.layer_metrics(tracer, skip_runs=())
    total = tracer.end[outer] - tracer.start[outer]
    inner_s = tracer.end[inner] - tracer.start[inner]
    assert metrics["cli.self_s"] == pytest.approx(total - inner_s)
    assert metrics["mat2.op_norm.calls"] == 1
    assert sum(shares.values()) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "expected, actual, ok",
    [
        ("0,scan,0.54926912345678901\n", "0,scan,0.54926912345678901\n", True),
        ("gamma 0.54926912345678901", "gamma 0.54926912345688901", True),  # 1e-13
        ("gamma 0.54926912345678901", "gamma 0.54926912445678901", False),  # 1e-9
        ("min gamma_hat = 0.549269", "min gamma_hat = 0.549270", True),  # last digit
        ("min gamma_hat = 0.549269", "min gamma_hat = 0.549272", False),
        ("slack 7.918e-01", "slack 7.919e-01", True),
        ("slack 7.918e-01", "slack 7.928e-01", False),
        ("wrote 64 rows", "wrote 65 rows", False),
        ("PASS", "FAIL", False),
        ("a 1.5 b", "a 1.5 b 2", False),
    ],
)
def test_text_mismatch(expected, actual, ok):
    assert (reference.text_mismatch(expected, actual) is None) == ok


def test_outputs_mismatch_checks_exit_code_and_files():
    expected = {"exit": 0, "stdout": "PASS\n", "files": {"scan.csv": "1.0\n"}}
    assert reference.outputs_mismatch(expected, expected) is None
    assert "exit code" in reference.outputs_mismatch({**expected, "exit": 1}, expected)
    missing = {**expected, "files": {"scan.csv": None}}
    assert "not written" in reference.outputs_mismatch(expected, missing)


def test_references_cover_every_variant():
    refs = reference.load()
    for name, wl in WORKLOADS.items():
        assert len(refs[name]) == len(wl.variants)
        assert all(out["exit"] == 0 for out in refs[name])


def _bench_run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench_run(ROOT, "subharmonic_quad", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(unit(name) == u for name, u in declared.items())
    for name in declared:
        assert f"{name} = " in proc.stdout
    if trace:
        assert result["metrics"]["cocycle.engine.calls"]["value"] == 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench_run(tmp_path, "scan_narrow_long", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_describes_these_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert max(len(n) for n in names) <= 64
    assert max(len(w["why"]) for w in spec["workloads"]) <= 200
