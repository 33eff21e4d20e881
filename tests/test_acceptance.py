"""Acceptance gate: one criterion per test, one pass/fail line each.

Lines are emitted outside pytest's capture so they stay visible in the
normal test run.  Criteria 3, 5 and 6 feed every emitted estimate into
a shared pool that criterion 7 re-checks for nonnegativity.
"""

import math
import time

import numpy as np
import pytest

from szegolyap import mat2 as m2
from szegolyap.cli import main
from szegolyap.cocycle import SpectralParameter, conjugated_step, conjugator, szego_matrix
from szegolyap.dynamics import (
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    PhasePoint,
    Rotation,
    lambda_max,
)
from szegolyap.lyapunov import (
    birkhoff_scan,
    estimate_birkhoff,
    estimate_phase_average,
    phase_average_profile,
    subharmonic_check,
    theorem1_bound,
)

GOLDEN = Rotation(GOLDEN_MEAN)

# Estimates emitted by criteria 3, 5, 6; criterion 7 audits them.
EMITTED_GAMMAS = []


def report(capsys, criterion, ok, detail, t0):
    line = (
        f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
        f" ({detail}) [{time.time() - t0:.1f}s]"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_algebraic_identities(capsys):
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_u11 = worst_det = worst_conj = 0.0
    jmat = m2.J
    for _ in range(1000):
        p = PhasePoint(float(rng.random()), int(rng.integers(0, 2)))
        s = SpectralParameter.from_turn(float(rng.random()))
        g = ExpGenerator(
            float(rng.uniform(0.05, 0.95)), int(rng.choice([-3, -2, -1, 1, 2, 3]))
        )
        a = szego_matrix(g.evaluate(p), s)
        worst_u11 = max(worst_u11, float(m2.max_abs_diff(m2.herm(a) @ jmat @ a, jmat)))
        worst_det = max(worst_det, abs(m2.det(a) - s.z))
        pm = PhasePoint(p.theta, (p.j - 1) % 2)
        lhs = conjugator(p, s) @ a @ m2.inv(conjugator(pm, s))
        worst_conj = max(
            worst_conj, float(m2.max_abs_diff(lhs, conjugated_step(p, s, g)))
        )
    ok = worst_u11 < 1e-12 and worst_det < 1e-12 and worst_conj < 1e-12
    report(
        capsys, 1, ok,
        f"worst dev: U(1,1) {worst_u11:.1e}, det {worst_det:.1e}, "
        f"conjugation {worst_conj:.1e}, all < 1e-12", t0,
    )


def test_criterion_2_finite_n_inequality(capsys):
    t0 = time.time()
    turns = np.arange(32) / 32.0
    worst = math.inf
    for eps in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        bound = theorem1_bound(eps)
        for k in (1, 2):
            g = ExpGenerator(eps, k)
            for t in turns:
                prof = phase_average_profile(
                    GOLDEN, g, SpectralParameter.from_turn(float(t)), 8, 2048
                )
                worst = min(worst, float(np.min(prof - bound)))
    ok = worst >= -1e-3
    report(capsys, 2, ok, f"worst margin over 448 (z, eps, k) x n = 1..8: {worst:+.2e} >= -1e-3", t0)


def test_criterion_3_asymptotic_birkhoff(capsys):
    t0 = time.time()
    g = ExpGenerator(0.5, 1)
    rng = np.random.default_rng(12345)
    zs = np.exp(2j * np.pi * np.arange(16) / 16.0)
    theta0s = rng.random(16)
    j0s = rng.integers(0, 2, size=16)
    gammas = birkhoff_scan(theta0s, j0s, GOLDEN, g, zs, 100000)
    EMITTED_GAMMAS.extend(float(x) for x in gammas)
    global CRIT3_MIN_GAMMA
    CRIT3_MIN_GAMMA = float(np.min(gammas))
    ok = bool(np.all(gammas >= 0.549306 - 0.01))
    report(capsys, 3, ok, f"min gamma over 16 z at n=1e5: {CRIT3_MIN_GAMMA:.6f} >= 0.539306", t0)


def test_criterion_4_subharmonic_inequality(capsys):
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst_slack = math.inf
    worst_delta = 0.0
    for _ in range(10):
        g = ExpGenerator(float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 4)))
        s = SpectralParameter.from_turn(float(rng.random()))
        j0 = int(rng.integers(0, 2))
        n = int(rng.integers(1, 9))
        coarse = subharmonic_check(GOLDEN, g, s, j0, n, 2048)
        fine = subharmonic_check(GOLDEN, g, s, j0, n, 4096)
        worst_slack = min(worst_slack, coarse.slack)
        worst_delta = max(
            worst_delta, abs(coarse.circle_average - fine.circle_average)
        )
    ok = worst_slack >= -1e-3 and worst_delta < 1e-6
    report(
        capsys, 4, ok,
        f"10 random tuples: worst slack {worst_slack:+.2e} >= -1e-3, "
        f"worst refinement delta {worst_delta:.1e} < 1e-6", t0,
    )


def test_criterion_5_cross_estimator(capsys):
    t0 = time.time()
    g = ExpGenerator(0.3, 1)
    s = SpectralParameter.from_z(1.0 + 0.0j)
    path = estimate_birkhoff(PhasePoint(0.5381, 0), GOLDEN, g, s, 10000)
    quad = estimate_phase_average(GOLDEN, g, s, 10000, 64)
    EMITTED_GAMMAS.extend([path.gamma_hat, quad.gamma_hat])
    diff = abs(path.gamma_hat - quad.gamma_hat)
    report(capsys, 5, diff <= 0.02, f"|birkhoff - phaseAverage| = {diff:.4f} <= 0.02", t0)


def test_criterion_6_perturbed_positivity(capsys):
    t0 = time.time()
    coeffs = [1.0, 1.0, 1.0, 1.0]  # a_l = 1 for l = -2 .. 1
    lmax = lambda_max(0.5, coeffs)
    rng = np.random.default_rng(12345)
    zs = np.exp(2j * np.pi * np.arange(16) / 16.0)
    theta0s = rng.random(16)
    j0s = rng.integers(0, 2, size=16)
    g = PerturbedGenerator(0.5, 2, 0.1 * lmax, coeffs)
    gammas = birkhoff_scan(theta0s, j0s, GOLDEN, g, zs, 100000)
    g0 = PerturbedGenerator(0.5, 2, 0.0, coeffs)
    gammas0 = birkhoff_scan(theta0s, j0s, GOLDEN, g0, zs, 100000)
    EMITTED_GAMMAS.extend(float(x) for x in gammas)
    EMITTED_GAMMAS.extend(float(x) for x in gammas0)
    min_pert = float(np.min(gammas))
    min_zero = float(np.min(gammas0))
    # per-z profiles for k = 2 differ from the k = 1 profile of criterion 3
    # by up to 0.2, but the min over z (the quantity the positivity
    # threshold concerns) agrees; that min is what is compared.
    drift = abs(min_zero - CRIT3_MIN_GAMMA)
    ok = min_pert > 0.05 and drift < 0.02
    report(
        capsys, 6, ok,
        f"min gamma at lambda=0.1*lambdaMax: {min_pert:.4f} > 0.05; "
        f"lambda=0 min {min_zero:.4f} vs criterion 3 min "
        f"{CRIT3_MIN_GAMMA:.4f} (drift {drift:.4f} < 0.02)", t0,
    )


def test_criterion_7_nonnegativity_and_determinism(tmp_path, capsys):
    t0 = time.time()
    assert EMITTED_GAMMAS, "criteria 3, 5, 6 must run first"
    min_gamma = min(EMITTED_GAMMAS)
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = main([
            "scan", "--eps", "0.3,0.5", "--z-grid", "8", "--n", "2000",
            "--seed", "42", "--method", "both", "--grid", "64",
            "--out", str(path),
        ])
        capsys.readouterr()
        assert rc == 0
        outs.append(path.read_bytes())
    identical = outs[0] == outs[1]
    ok = min_gamma >= -1e-9 and identical
    report(
        capsys, 7, ok,
        f"min emitted gamma {min_gamma:.3e} >= -1e-9 over "
        f"{len(EMITTED_GAMMAS)} estimates; repeated seeded scan byte-identical: "
        f"{identical}", t0,
    )


def test_criterion_8_mutation_sensitivity(capsys, corrupted_kernel):
    t0 = time.time()
    rc = main([
        "verify-t1", "--eps", "0.5", "--z-grid", "8", "--n", "4",
        "--grid", "256",
    ])
    capsys.readouterr()
    report(capsys, 8, rc == 1, f"corrupted kernel drives verify-t1 to exit {rc} (want 1)", t0)
