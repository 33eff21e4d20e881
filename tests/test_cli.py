"""End-to-end tests of the command-line harness."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from szegolyap import lyapunov
from szegolyap.cli import CSV_HEADER, LADDER_FACTORS, main
from szegolyap.dynamics import (
    GOLDEN_MEAN,
    ExpGenerator,
    PerturbedGenerator,
    Rotation,
    lambda_max,
)
from szegolyap.lyapunov import birkhoff_scan, theorem1_bound

ROOT = Path(__file__).resolve().parent.parent


def _subprocess_env():
    """The environment with src/ on PYTHONPATH: pytest's ``pythonpath``
    setting reaches this interpreter's sys.path, not a child's."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_bound_table(capsys):
    rc, out, _ = run(capsys, "bound", "--eps", "0.5,0.8")
    assert rc == 0
    lines = out.strip().splitlines()
    assert "0.54930614433405478" in lines[1]
    assert "true" in lines[1]
    assert "false" in lines[2]


def test_bound_boundary_value(capsys):
    rc, out, _ = run(capsys, "bound", "--eps", str(1.0 / math.sqrt(2.0)))
    assert rc == 0
    value = float(out.strip().splitlines()[1].split()[1])
    assert abs(value) < 1e-15


def test_bound_rejects_out_of_range(capsys):
    rc, _, err = run(capsys, "bound", "--eps", "1.5")
    assert rc == 2
    assert "epsilon" in err


def test_scan_csv(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    rc, _, _ = run(
        capsys,
        "scan",
        "--eps", "0.5",
        "--z-grid", "8",
        "--n", "2000",
        "--out", str(out_path),
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 9
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[4] == "birkhoff"
        gamma, bound, margin = float(fields[5]), float(fields[6]), float(fields[7])
        assert margin == gamma - bound
        assert margin > -0.01
        assert gamma >= -1e-9


def test_scan_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        rc, _, _ = run(
            capsys,
            "scan",
            "--eps", "0.3,0.5",
            "--z-grid", "4",
            "--n", "500",
            "--seed", "7",
            "--method", "both",
            "--grid", "16",
            "--out", str(p),
        )
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scan_matches_per_eps_birkhoff_scans(capsys):
    # Every epsilon runs in one engine batch; the CSV is that of one
    # birkhoff_scan per epsilon, fed the same random stream in order.
    rc, out, _ = run(capsys, "scan", "--eps", "0.3,0.5", "--z-grid", "4",
                     "--n", "50", "--seed", "1")
    assert rc == 0
    rng = np.random.default_rng(1)
    ts = np.arange(4) / 4
    zs = np.exp(2j * np.pi * ts)
    lines = [CSV_HEADER]
    for eps in (0.3, 0.5):
        gammas = birkhoff_scan(rng.random(4), rng.integers(0, 2, 4),
                               Rotation(GOLDEN_MEAN), ExpGenerator(eps, 1), zs, 50)
        bound = theorem1_bound(eps)
        for t, gamma in zip(ts, gammas):
            g17 = [format(float(x), ".17g") for x in (t, eps, gamma, bound, gamma - bound)]
            lines.append(",".join(g17[:2] + ["0", "50", "birkhoff"] + g17[2:]))
    assert out == "\n".join(lines) + "\n"


def test_verify_t2_matches_per_row_birkhoff_scans(capsys):
    # Every epsilon's unperturbed row and ladder rungs run in one engine
    # batch; each "min gamma_hat" line is that of one birkhoff_scan per
    # row, fed the same random stream in row order: per epsilon, the
    # unperturbed row and then the rungs from 0.8 lambda_max down.
    rc, out, _ = run(capsys, "verify-t2", "--eps", "0.3,0.5", "--k", "1", "--z-grid", "4",
                     "--n", "30", "--seed", "2")
    assert rc == 0
    rng = np.random.default_rng(2)
    zs = np.exp(2j * np.pi * np.arange(4) / 4)
    want = []
    for eps in (0.3, 0.5):
        lmax = lambda_max(eps, [1, 1])
        rows = [("lambda = 0 (unperturbed)", ExpGenerator(eps, 1))] + [
            (f"|lambda| = {factor * lmax:.6g} ({factor:g} * lambda_max)",
             PerturbedGenerator(eps, 1, factor * lmax, [1, 1])) for factor in LADDER_FACTORS]
        for label, g in rows:
            gammas = birkhoff_scan(rng.random(4), rng.integers(0, 2, 4),
                                   Rotation(GOLDEN_MEAN), g, zs, 30)
            want.append(f"  {label}: min gamma_hat = {gammas.min():.6f}")
    got = [line.split(" [")[0] for line in out.splitlines() if "min gamma_hat" in line]
    assert got == want


@pytest.mark.parametrize("argv, grid", [
    (["scan", "--eps", "0.3,0.5", "--z-grid", "8", "--n", "20"], (2, 8)),
    (["verify-t2", "--eps", "0.5", "--z-grid", "4", "--n", "20"], (6, 4)),
])
def test_birkhoff_workloads_run_one_engine_call(capsys, monkeypatch, argv, grid):
    # Every family (one per epsilon, or the unperturbed family and the five
    # ladder rungs) is one row of start points of one engine call, over the
    # z points.  The benchmark's tracer counts the engine's work as
    # np.size(theta0s) times n, which here is every orbit.
    calls, engine = [], lyapunov.grid_log_norms

    def spy(*args, **kwargs):
        calls.append((np.shape(args[0]), np.size(args[0]), np.broadcast(*args[:2]).size))
        return engine(*args, **kwargs)

    monkeypatch.setattr(lyapunov, "grid_log_norms", spy)
    assert run(capsys, *argv)[0] == 0
    assert calls == [(grid, grid[0] * grid[1], grid[0] * grid[1])]


@pytest.mark.parametrize("argv, exp_calls, run_calls", [
    (["scan", "--eps", "0.3,0.5", "--z-grid", "32", "--n", "300"], 10, 0),
    (["verify-t2", "--eps", "0.5", "--k", "2", "--coeffs", "1;1;1;1", "--z-grid", "16",
      "--n", "100"], 5, 5),
    (["verify-t1", "--eps", "0.5", "--z-grid", "1", "--n", "2", "--grid", "32768"], 32, 0),
])
def test_generator_calls_per_block(capsys, monkeypatch, argv, exp_calls, run_calls):
    # The one engine call runs blocks of BUDGET // orbits steps: 10 of 32
    # steps for scan's two rows of 32 orbits, one call per block on its one
    # exponential generator, a column of both epsilons; 5 of 21 steps for
    # verify-t2's six rows of 16, its unperturbed row one call per block and
    # its five ladder rungs, one perturbed generator with a column of
    # couplings, another.  verify-t1's one real z runs one parity row in 32
    # tiles of 1024 angles, each one block of both steps: one exponential
    # call per tile, each angle once.
    calls = {ExpGenerator: [], PerturbedGenerator: []}
    for cls, seen in calls.items():
        def spy(self, thetas, j, seen=seen, evaluate=cls.evaluate_grid, **rho):
            seen.append((type(self), self.rows, np.shape(thetas)[1:]))
            return evaluate(self, thetas, j, **rho)
        monkeypatch.setattr(cls, "evaluate_grid", spy)
    assert run(capsys, *argv)[0] == 0
    exp = {"scan": (2, (2, 32)), "verify-t2": (None, (16,)),
           "verify-t1": (None, (1, 1024))}[argv[0]]
    assert calls[ExpGenerator] == [(ExpGenerator, *exp)] * exp_calls
    assert calls[PerturbedGenerator] == [(PerturbedGenerator, 5, (5, 16))] * run_calls


@pytest.mark.parametrize("argv, forms", [
    (["scan", "--eps", "0.3,0.5", "--z-grid", "32", "--n", "300"], {("two-call", 64)}),
    (["verify-t2", "--eps", "0.5", "--k", "2", "--coeffs", "1;1;1;1", "--n", "100"],
     {("two-call", 96)}),
    (["verify-t1", "--eps", "0.5", "--z-grid", "1", "--n", "2", "--grid", "32768"],
     {("three-call", 1024)}),
], ids=["scan", "verify-t2", "verify-t1"])
def test_step_form_of_each_benchmark_batch(capsys, step_forms, argv, forms):
    # The benchmark's Birkhoff batches, two rows of 32 orbits and six of 16,
    # fold in the two-call step; its phase average's 1024-orbit tiles keep
    # the three-call step.
    assert step_forms(lambda: run(capsys, *argv)) == forms


@pytest.mark.parametrize("argv, checks", [
    (["scan", "--eps", "0.3,0.5", "--z-grid", "32", "--n", "300"], [(1, 64)]),
    (["verify-t2", "--eps", "0.5", "--k", "2", "--coeffs", "1;1;1;1", "--n", "100"],
     [(1, 96)]),
    (["verify-t1", "--eps", "0.5", "--z-grid", "1", "--n", "2", "--grid", "32768"],
     [(1, 32768)]),
], ids=["scan", "verify-t2", "verify-t1"])
def test_benchmark_batches_scan_no_stack(capsys, finite_checks, argv, checks):
    # The largest prefactor and |z| prove every block of the benchmark's
    # batches finite, so the engine scans only the log norms of each
    # call's last step: scan's and verify-t2's one batch, and the phase
    # average's 32 tiles of 1024 orbits.
    assert finite_checks(lambda: run(capsys, *argv)) == checks


def test_scan_empty_eps(capsys):
    rc, _, err = run(capsys, "scan", "--eps", ",", "--n", "10")
    assert rc == 2
    assert "empty" in err


def test_scan_lambda_above_radius(capsys):
    rc, _, err = run(
        capsys,
        "scan",
        "--eps", "0.5",
        "--k", "1",
        "--lambda", "0.5,0",
        "--coeffs", "1,0;1,0",
        "--n", "10",
    )
    assert rc == 2
    assert "admissible" in err


def test_scan_svg(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    svg_path = tmp_path / "scan.svg"
    rc, _, _ = run(
        capsys,
        "scan",
        "--eps", "0.4,0.6",
        "--z-grid", "6",
        "--n", "300",
        "--out", str(out_path),
        "--svg", str(svg_path),
    )
    assert rc == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "eps = 0.4" in text
    # One dashed horizontal bound line per epsilon, for the exponential
    # family and for the perturbed one.
    for family in ([], ["--lambda", "0.001,0"]):
        rc, _, _ = run(capsys, "scan", "--eps", "0.3,0.5,0.8", "--z-grid", "4",
                       "--n", "50", *family, "--out", str(out_path), "--svg", str(svg_path))
        assert rc == 0
        bound_lines = re.findall(r'<line [^>]*stroke-dasharray="2,4"/>', svg_path.read_text())
        assert len(bound_lines) == 3, family
        for line in bound_lines:
            assert re.search(r'y1="([^"]+)"', line)[1] == re.search(r'y2="([^"]+)"', line)[1]


def test_scan_stdout_when_no_out(capsys):
    rc, out, _ = run(capsys, "scan", "--eps", "0.5", "--z-grid", "2", "--n", "50")
    assert rc == 0
    assert out.splitlines()[0] == CSV_HEADER


def test_verify_t1_passes(capsys):
    rc, out, _ = run(
        capsys,
        "verify-t1",
        "--eps", "0.5",
        "--z-grid", "8",
        "--n", "4",
        "--grid", "256",
    )
    assert rc == 0
    assert "PASS" in out


def test_verify_t1_negative_bound_still_passes(capsys):
    rc, out, _ = run(
        capsys,
        "verify-t1",
        "--eps", "0.95",
        "--z-grid", "4",
        "--n", "3",
        "--grid", "256",
    )
    assert rc == 0
    assert "PASS" in out


def test_verify_t1_detects_corrupted_kernel(capsys, corrupted_kernel):
    rc, out, _ = run(
        capsys,
        "verify-t1",
        "--eps", "0.5",
        "--z-grid", "4",
        "--n", "4",
        "--grid", "128",
    )
    assert rc == 1
    assert "FAIL" in out


def test_verify_t1_rejects_perturbed(capsys):
    rc, _, err = run(
        capsys, "verify-t1", "--eps", "0.5", "--lambda", "0.01,0", "--n", "2"
    )
    assert rc == 2
    assert "--lambda" in err


def test_verify_t2_report(capsys):
    rc, out, _ = run(
        capsys,
        "verify-t2",
        "--eps", "0.5",
        "--k", "2",
        "--z-grid", "4",
        "--n", "3000",
    )
    assert rc == 0
    assert "NON-RIGOROUS" in out
    assert "lambda_max" in out


def test_verify_t2_coeff_count_mismatch(capsys):
    rc, out, err = run(capsys, "verify-t2", "--k", "2", "--coeffs", "1;1", "--n", "2")
    assert rc == 2
    assert "need 2k = 4 coefficients, got 2" in err
    assert out == ""


def test_verify_t2_lambda_sets_direction_only(capsys):
    outs = []
    for lam in ("0,1", "0,2"):
        rc, out, _ = run(
            capsys, "verify-t2", "--eps", "0.5", "--k", "1", "--lambda", lam,
            "--z-grid", "2", "--n", "50",
        )
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_t2_all_zero_coeffs_is_config_error(capsys):
    rc, _, err = run(capsys, "verify-t2", "--coeffs", "0;0", "--n", "2")
    assert rc == 2
    assert "--coeffs" in err
    assert "numerical failure" not in err


@pytest.mark.parametrize("coeffs, lmax", [("1e-320,0;0,0", "inf"), ("1e308,0;1e308,0", "0.0")],
                         ids=["overflow", "underflow"])
def test_verify_t2_radius_outside_the_double_range_is_numerical_failure(capsys, coeffs, lmax):
    # A subnormal sum|a_l| makes lambda_max overflow, and a sum that
    # overflows makes it 0: either would scale the whole ladder to inf or
    # to 0, so the command stops before it, naming lambda_max and epsilon.
    rc, out, err = run(capsys, "verify-t2", "--eps", "0.5", "--k", "1", "--coeffs", coeffs,
                       "--z-grid", "2", "--n", "5")
    assert rc == 3
    assert f"numerical failure: lambda_max = {lmax} at epsilon = 0.5" in err
    assert out == "" and "Traceback" not in err


def test_subharmonic_report(capsys):
    rc, out, _ = run(
        capsys,
        "subharmonic",
        "--eps", "0.3",
        "--z-grid", "4",
        "--n", "4",
    )
    assert rc == 0
    assert "PASS" in out


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.5\nz-grid = 3\nn = 100\n# comment\nseed = 5\n")
    out_a = tmp_path / "a.csv"
    rc, _, _ = run(
        capsys, "scan", "--config", str(cfg), "--out", str(out_a)
    )
    assert rc == 0
    lines = out_a.read_text().splitlines()
    assert len(lines) == 4  # header + 3 z points from the config file
    # a flag on the command line beats the file value
    out_b = tmp_path / "b.csv"
    rc, _, _ = run(
        capsys, "scan", "--config", str(cfg), "--z-grid", "2", "--out", str(out_b)
    )
    assert rc == 0
    assert len(out_b.read_text().splitlines()) == 3


@pytest.mark.parametrize("flag", [["--eps=0.6"], ["--ep", "0.6"]])
def test_config_file_loses_to_any_flag_spelling(tmp_path, capsys, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.3\nz-grid = 2\nn = 3\ngrid = 64\n")
    rc, out, _ = run(capsys, "verify-t1", "--config", str(cfg), *flag)
    assert rc == 0
    assert out.startswith("eps = 0.6:")


def test_verify_t1_min_margin_matches_scan_phase_column(capsys):
    # Both commands take their phase averages from the same z-grid loop.
    shared = ["--eps", "0.3,0.5", "--z-grid", "4", "--n", "3", "--grid", "32"]
    rc, out, _ = run(capsys, "verify-t1", *shared)
    assert rc == 0
    printed = [line.rsplit("= ", 1)[1] for line in out.splitlines()
               if line.startswith("eps = ")]
    rc, out, _ = run(capsys, "scan", "--method", "phase", *shared)
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert printed == [
        f"{min(float(row[7]) for row in rows if float(row[1]) == eps):.3e}"
        for eps in (0.3, 0.5)
    ]


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_unwritable_output_is_config_error(tmp_path, capsys, monkeypatch, flag):
    # A bad path is refused before the engine runs, and the other output,
    # at a good path, is not created: all outputs or none.
    def engine(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("szegolyap.cli.birkhoff_scan", engine)
    path = tmp_path / "missing" / "scan.out"
    good = tmp_path / "good.out"
    other = {"--out": "--svg", "--svg": "--out"}[flag]
    rc, out, err = run(capsys, "scan", "--eps", "0.5", "--z-grid", "1", "--n", "2",
                       flag, str(path), other, str(good))
    assert rc == 2
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err
    assert out == "" and not good.exists()


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_one_file_for_both_outputs_is_config_error(tmp_path, capsys, monkeypatch, spelling):
    # --out and --svg resolving to one file would leave only the chart
    # there; the pair is refused before the engine runs and nothing is
    # written.
    def engine(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("szegolyap.cli.birkhoff_scan", engine)
    (tmp_path / "sub").mkdir()
    path = tmp_path / "P"
    other = path if spelling == "same" else tmp_path / "sub" / ".." / "P"
    rc, out, err = run(capsys, "scan", "--eps", "0.5", "--z-grid", "2", "--n", "10",
                       "--out", str(path), "--svg", str(other))
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_verify_t1_numerical_failure_exit_code(capsys):
    # The prefactor 1/eps = 1e100 times reach = 2^(1/2) is past 2^254, where
    # a read's fourth powers would overflow.
    rc, out, err = run(
        capsys, "verify-t1", "--eps", "1e-100", "--z-grid", "4", "--n", "6",
        "--grid", "256",
    )
    assert rc == 3
    assert err.startswith("numerical failure: ")
    assert "Traceback" not in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize("eps", ["1e-8", "1e-9", "1e-12"])
def test_verify_t1_passes_at_small_eps(capsys, eps):
    # The exponential family's prefactor is 1/eps in closed form, so the
    # theorem is verified where sqrt(1 - eps^2) rounds to 1 and f onto the
    # unit circle, and 1 - |f|^2 from the rounded f would be 0 or garbage.
    rc, out, err = run(capsys, "verify-t1", "--eps", eps, "--z-grid", "4", "--n", "6",
                       "--grid", "256")
    assert rc == 0 and err == ""
    assert out.endswith("PASS\n")
    assert f"worst margin 1.146e-01 at eps = {float(eps):g}," in out


@pytest.mark.parametrize("eps", ["1e-8", "1e-9", "1e-12"])
def test_verify_t2_passes_at_small_eps(capsys, eps):
    # sqrt(1 - eps^2) rounds to 1 here and the perturbed rungs' rounded
    # values may leave the disk by rounding, but the exact ones lie inside:
    # the perturbed family tests and takes its prefactor from its closed
    # form for 1 - |f|^2, and every rung runs.
    rc, out, err = run(capsys, "verify-t2", "--eps", eps, "--z-grid", "2", "--n", "10")
    assert rc == 0 and err == ""
    assert "escaped" not in out
    assert out.count("[ok]") == 5


def test_config_file_bad_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc, _, err = run(capsys, "scan", "--config", str(cfg))
    assert rc == 2
    assert "unknown key" in err


def test_config_file_method_is_checked(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = nonsense\n")
    rc, _, err = run(capsys, "scan", "--config", str(cfg), "--z-grid", "1", "--n", "2")
    assert rc == 2
    assert "Traceback" not in err
    assert "--method" in err


def test_config_file_leaves_later_runs_alone(tmp_path, capsys):
    # The parser is built once per process; a config file must not become
    # the default of a later run.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z-grid = 3\n")
    rc, out, _ = run(capsys, "scan", "--config", str(cfg), "--n", "2")
    assert rc == 0 and len(out.splitlines()) == 4
    rc, out, _ = run(capsys, "scan", "--n", "2")
    assert rc == 0 and len(out.splitlines()) == 17  # scan's default z grid: 16


def test_config_file_value_may_start_with_minus(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = -0.002,0\n")
    rc, out, _ = run(capsys, "scan", "--config", str(cfg), "--z-grid", "1", "--n", "2")
    assert rc == 0
    assert float(out.splitlines()[1].split(",")[2]) == 0.002


def test_config_file_value_is_checked_under_a_flag(tmp_path, capsys):
    # Every file value passes its option's check, even one a flag overrides.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 2\n")
    rc, _, err = run(capsys, "verify-t1", "--config", str(cfg), "--eps", "0.5",
                     "--z-grid", "1", "--n", "1", "--grid", "4")
    assert rc == 2
    assert "--eps" in err and "Traceback" not in err


def test_scan_coeffs_need_lambda(capsys):
    rc, out, err = run(capsys, "scan", "--coeffs", "1;1", "--z-grid", "1", "--n", "2")
    assert rc == 2
    assert "--coeffs needs --lambda" in err
    assert out == ""


def test_usage_error_exit_code():
    assert main(["scan", "--method", "nonsense"]) == 2


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["scan", "--alpha", "1.5"], "--alpha"),
        (["scan", "--seed", "-1"], "--seed"),
        (["verify-t1", "--out", "x.csv"], "--out"),
        (["subharmonic", "--k", "-1"], "--k"),
        (["verify-t2", "--k", "-1"], "--k"),
        (["verify-t2", "--coeffs", "nan;1"], "--coeffs"),
        (["verify-t2", "--lambda", "nan,0"], "--lambda"),
        (["verify-t1", "--tol", "nan", "--grid", "16"], "--tol"),
        (["verify-t1", "--tol=-1e-3", "--grid", "16"], "--tol"),
        (["subharmonic", "--tol", "inf"], "--tol"),
        (["verify-t2", "--threshold", "nan"], "--threshold"),
        (["verify-t2", "--threshold=-inf"], "--threshold"),
        # Rules the generator constructors own; the CLI reports their reason.
        (["scan", "--k", "-1", "--lambda", "0.01"], "k must be a positive integer"),
        (["scan", "--k", "2", "--lambda", "0.01", "--coeffs", "1;1"],
         "need 2k = 4 coefficients, got 2"),
        (["scan", "--eps", "0.5,0.1", "--lambda", "0.01"], "at epsilon = 0.1"),
        # subharmonic takes no grid: its coefficients are exact.
        (["subharmonic", "--grid", "64"], "--grid"),
        # An empty list is no list of coefficients, not an all-zero one.
        (["verify-t2", "--coeffs", ""], "empty coefficient list"),
    ],
)
def test_rejected_by_parser(capsys, argv, reason):
    rc, _, err = run(capsys, *argv, "--z-grid", "1", "--n", "2")
    assert rc == 2
    assert "Traceback" not in err
    assert reason in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-t1", "--tol=-1e-3"], "argument --tol: must be finite and >= 0, got -0.001"),
        (["verify-t2", "--threshold=-inf"], "argument --threshold: must be finite, got -inf"),
    ],
    ids=["tol", "threshold"],
)
def test_negative_values_reach_their_check(capsys, argv, message):
    # Written with "=", a value with a leading minus is the option's value
    # and fails its own check, not argparse's "expected one argument".
    rc, _, err = run(capsys, *argv, "--z-grid", "1", "--n", "2")
    assert rc == 2
    assert message in err


def test_negative_values_on_the_command_line_match_a_config_file(tmp_path, capsys):
    # "--lambda=-0.002,0" and "--coeffs=-1;1" give the run of the same
    # values read from a config file.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = -0.002,0\ncoeffs = -1;1\n")
    common = ("scan", "--z-grid", "2", "--n", "20")
    rc, out, err = run(capsys, *common, "--lambda=-0.002,0", "--coeffs=-1;1")
    assert rc == 0, err
    assert float(out.splitlines()[1].split(",")[2]) == 0.002
    assert run(capsys, *common, "--config", str(cfg)) == (0, out, "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", ["78", "90"])
def test_subharmonic_breakdown_is_numerical_failure(capsys, n):
    # 2 eps^(2n) leaves the double range: the circle average is inf (n = 78)
    # or nan (n = 90), which is no verdict either way, and no numpy warning
    # leaks out before the error.
    rc, out, err = run(
        capsys, "subharmonic", "--eps", "0.01", "--z-grid", "1", "--n", n
    )
    assert rc == 3
    assert "numerical failure" in err
    assert "Traceback" not in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--eps", "1e-170", "--lambda", "0"],
        ["verify-t2", "--eps", "1e-170"],
    ],
    ids=["scan", "verify-t2"],
)
def test_underflowed_radius_admits_zero_lambda(capsys, argv):
    # lambda_max underflows to 0.0 here, yet lambda = 0 is the unperturbed
    # family: the run gets past configuration and breaks down numerically.
    rc, _, err = run(capsys, *argv, "--z-grid", "1", "--n", "2")
    assert rc == 3
    assert "numerical failure" in err
    assert "admissible radius" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["scan", "--method", "nonsense"], 2),
        (["verify-t1", "--eps", "1e-100", "--z-grid", "4", "--n", "6", "--grid", "256"], 3),
    ],
)
def test_process_exit_code(argv, code):
    # -W as in pyproject's filterwarnings, which a subprocess does not inherit.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "szegolyap.cli", *argv],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


def test_commands_run_without_scipy():
    # A None entry in sys.modules makes every import of scipy fail.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from szegolyap.cli import main\n"
        "for argv in (\n"
        "    ['subharmonic', '--eps', '0.3', '--z-grid', '1', '--n', '4'],\n"
        "    ['verify-t1', '--z-grid', '1', '--n', '2', '--grid', '64'],\n"
        "    ['scan', '--eps', '0.5', '--z-grid', '2', '--n', '20'],\n"
        "):\n"
        "    rc = main(argv)\n"
        "    print(argv[0], rc, file=sys.stderr)\n"
        "    assert rc == 0, argv\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["subharmonic", "0", "verify-t1", "0", "scan", "0"]
