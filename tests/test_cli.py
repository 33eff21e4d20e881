"""End-to-end tests of the command-line harness."""

import math
import subprocess
import sys

import numpy as np
import pytest

from szegolyap.cli import CSV_HEADER, main
from szegolyap.dynamics import GOLDEN_MEAN, ExpGenerator, Rotation
from szegolyap.lyapunov import birkhoff_scan, theorem1_bound


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


def test_subharmonic_report(capsys):
    rc, out, _ = run(
        capsys,
        "subharmonic",
        "--eps", "0.3",
        "--z-grid", "4",
        "--n", "4",
        "--grid", "256",
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


def test_verify_t1_numerical_failure_exit_code(capsys):
    rc, out, err = run(
        capsys, "verify-t1", "--eps", "1e-9", "--z-grid", "4", "--n", "6",
        "--grid", "256",
    )
    assert rc == 3
    assert err.startswith("numerical failure: ")
    assert "Traceback" not in err
    assert "PASS" not in out and "FAIL" not in out


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
        (["verify-t1", "--tol", "-1e-3", "--grid", "16"], "--tol"),
        (["subharmonic", "--tol", "inf"], "--tol"),
        (["verify-t2", "--threshold", "nan"], "--threshold"),
        (["verify-t2", "--threshold", "-inf"], "--threshold"),
        # Rules the generator constructors own; the CLI reports their reason.
        (["scan", "--k", "-1", "--lambda", "0.01"], "k must be a positive integer"),
        (["scan", "--k", "2", "--lambda", "0.01", "--coeffs", "1;1"],
         "need 2k = 4 coefficients, got 2"),
        (["scan", "--eps", "0.5,0.1", "--lambda", "0.01"], "at epsilon = 0.1"),
    ],
)
def test_rejected_by_parser(capsys, argv, reason):
    rc, _, err = run(capsys, *argv, "--z-grid", "1", "--n", "2")
    assert rc == 2
    assert "Traceback" not in err
    assert reason in err


@pytest.mark.parametrize("n", ["78", "90"])
def test_subharmonic_breakdown_is_numerical_failure(capsys, n):
    # 2 eps^(2n) leaves the double range: the circle average is inf (n = 78)
    # or nan (n = 90), which is no verdict either way.
    rc, out, err = run(
        capsys, "subharmonic", "--eps", "0.01", "--z-grid", "1", "--n", n
    )
    assert rc == 3
    assert "numerical failure" in err
    assert "Traceback" not in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize(
    "argv, code",
    [
        (["scan", "--method", "nonsense"], 2),
        (["verify-t1", "--eps", "1e-9", "--z-grid", "4", "--n", "6", "--grid", "256"], 3),
    ],
)
def test_process_exit_code(argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "szegolyap.cli", *argv], capture_output=True, text=True
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
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["subharmonic", "0", "verify-t1", "0", "scan", "0"]
