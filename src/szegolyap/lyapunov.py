"""Lyapunov exponent estimators, the positivity bound, and the
subharmonic mean-value checker.

Two independent estimators take any finite spectral parameter z: a
batched Birkhoff estimator, one orbit per (start point, z) job (cheap,
stochastic in the start point), and a phase-average quadrature estimator
over a uniform theta grid (deterministic; the finite-n quantity that the
subharmonicity argument bounds below for every n, not just in the limit).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cocycle import NumericalBlowupError, grid_log_norms
from .dynamics import TWO_PI, ExpGenerator, PerturbedGenerator, Rotation
from .mat2 import op_norm

# Gauss-Legendre nodes per breakpoint interval of the circle average; the
# rule at half as many nodes gives the reported node-doubling delta.
GL_NODES = 128


def theorem1_bound(epsilon: float) -> float:
    """Uniform lower bound log((1 - eps^2)^(1/2) / eps) for gamma(z).

    Strictly positive iff eps < 1/sqrt(2); negative values are still valid
    lower bounds.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return 0.5 * math.log(1.0 - epsilon**2) - math.log(epsilon)


def perturbed_reference(g: PerturbedGenerator) -> float:
    """Heuristic reference level for the perturbed family.

    The unperturbed bound minus an empirical continuity margin
    proportional to the pointwise coefficient shift
    (1 - eps^2)^(1/2) |lambda| sum|a_l|.  Not a proved bound: the
    perturbed positivity threshold is non-constructive, so this is a
    labeled surrogate for comparison columns only.
    """
    shift = g.modulus * abs(g.lam) * sum(abs(a) for a in g.coeffs)
    return theorem1_bound(g.epsilon) - shift / g.epsilon**2


def reference_bound(g) -> float:
    """Comparison level for an estimate: the continuity-adjusted surrogate
    for the perturbed family, the uniform positivity bound for the
    exponential family."""
    if isinstance(g, PerturbedGenerator):
        return perturbed_reference(g)
    return theorem1_bound(g.epsilon)


@dataclass(frozen=True)
class SubharmonicReport:
    """Circle average vs. center value of log ||product(w)||."""

    circle_average: float
    center_value: float
    slack: float
    quad_delta: float  # node-doubling delta of circle_average; reported only


def birkhoff_scan(theta0s, j0s, r: Rotation, g, zs, n: int):
    """Birkhoff estimates for a grid of (start point, spectral parameter) jobs.

    ``theta0s`` and ``j0s`` broadcast to the (R, N) grid of orbits and
    ``zs`` is a scalar or one per column; orbit (i, c) starts at
    (theta0s[i, c], j0s[i, c]) with parameter zs[c].  ``g`` is one
    generator for every row, a column generator with one entry per row
    (an eps sweep, a lambda ladder), or a sequence of them stacked along
    the rows.  All orbits, of either starting parity and every row, run as
    one batched product.
    """
    return grid_log_norms(theta0s, j0s, r, g, zs, n)[0] / n


def _phase_means(r: Rotation, g, z, grid_size: int, marks):
    """(1/m) * mean over the uniform theta grid and both parities of
    log ||A^z_m(theta, j)|| for each m in the ascending ``marks``: the mean
    of the parity-0 row plus that of the parity-1 row, from one engine call
    on the angle grid against the parity column.

    The parity flip negates every phase.  Where the generator declares
    ``conjugate_parity`` (f(theta, 1) = conj f(theta, 0) bit for bit),
    A^z(theta, 1) = conj A^conj(z)(theta, 0), and conjugation commutes
    exactly with every operation of the engine (+, x, |.|, sqrt, a real
    prefactor, stated or filled in closed form by the generator), so
    log ||A^z_m(theta, 1)|| = log ||A^conj(z)_m(theta, 0)||
    byte for byte.  At any real z the parity-1 row is then the parity-0 row:
    only that row runs and its mean counts twice (mu[0] + mu[-1], and
    x + x == 2 x exactly), the bits of two equal rows.  As the rows are the
    parities, a column generator or a sequence is a ValueError.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    if isinstance(g, (list, tuple)) or getattr(g, "rows", None) is not None:
        raise ValueError("a phase average takes one row's generator: its rows are the parities")
    symmetric = complex(z).imag == 0 and getattr(g, "conjugate_parity", False)
    parities = [[0]] if symmetric else [[0], [1]]
    last, rec = grid_log_norms(np.arange(grid_size) / grid_size, parities, r, g, z,
                               marks[-1], checkpoints=marks[:-1])
    rec[marks[-1]] = last
    mus = [[np.mean(row) for row in rec[m]] for m in marks]
    return np.array([mu[0] + mu[-1] for mu in mus]) / (2.0 * np.asarray(marks))


def phase_average_profile(r: Rotation, g, z, n_max: int, grid_size: int):
    """Phase-averaged estimates for every n = 1 .. n_max in one pass.

    Entry n-1 is (1/n) * mean over the uniform theta grid and both
    parities of log ||A^z_n(theta, j)||, exactly ``estimate_phase_average``
    at that n.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return _phase_means(r, g, z, grid_size, range(1, n_max + 1))


def estimate_phase_average(r: Rotation, g, z, n: int, grid_size: int) -> float:
    """Quadrature estimator: theta-grid and parity average of (1/n) log ||A^z_n||."""
    return float(_phase_means(r, g, z, grid_size, [n])[0])


def _analytic_family_coeffs(r: Rotation, g: ExpGenerator, z, j0: int, n: int):
    """Coefficients of P(w), the product over m = n-1 .. 0 of the
    analytic-in-w one-step matrices

        [[-(1-eps^2)^(1/2) e^(2 pi i k m alpha) w^(2k),  z^((j0+m) mod 2) w^k],
         [z^(-((j0+m) mod 2)) w^k,  -(1-eps^2)^(1/2) e^(-2 pi i k m alpha)]]

    as a (2, 2, 2kn + 1) array whose entry [i, j, d] is the coefficient of
    w^d in P[i, j].  At w = e^(2 pi i theta), ||P(w)|| = eps^n
    ||A^z_n(theta, j0)||.  Each step shifts row 0 by w^k, mixes the two
    rows, and shifts the new row 0 by w^k; np.roll shifts exactly because
    the top 2k coefficients are still zero.
    """
    z = complex(z)  # 1/z as a Python complex quotient, whatever z's type
    cur = np.zeros((2, 2, 2 * g.k * n + 1), dtype=complex)
    cur[0, 0, 0] = cur[1, 1, 0] = 1.0
    for m in range(n):
        zj, zmj = (z, 1.0 / z) if (j0 + m) % 2 else (1.0, 1.0)
        rot = g.modulus * np.exp(1j * TWO_PI * g.k * m * r.alpha)
        u = np.roll(cur[0], g.k, axis=-1)
        cur[0] = np.roll(zj * cur[1] - rot * u, g.k, axis=-1)
        cur[1] = zmj * u - np.conj(rot) * cur[1]
    return cur


def _fro2_coeffs(prod):
    """Fourier coefficients 0 .. deg of F = ||P(w)||_F^2 on |w| = 1, from
    P's (2, 2, deg + 1) coefficients: the summed autocorrelations of the
    four entries."""
    deg = prod.shape[-1] - 1
    return sum(np.correlate(p, p, "full")[deg:] for p in prod.reshape(4, -1))


@functools.cache
def _gauss_legendre(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1],
    read-only because every caller shares the cached arrays."""
    x, wts = np.polynomial.legendre.leggauss(m)
    rule = 0.5 * (x + 1.0), 0.5 * wts
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _breakpoint_rule(edges, m, coeffs, floor) -> float:
    """Integral over [0, 1] of arccosh(max(F(theta) / floor, 1)), by the
    m-node Gauss-Legendre rule on each interval [a, b] of ``edges`` under
    theta = a + (b - a)(1 - cos pi t)/2, with F read from its Fourier
    coefficients 0 .. deg.  All nodes of all intervals share one polyval
    call.
    """
    t, wts = _gauss_legendre(m)
    a = edges[:-1, None]
    h = np.diff(edges)[:, None]
    theta = a + h * (0.5 * (1.0 - np.cos(np.pi * t)))
    jac = h * (0.5 * np.pi) * np.sin(np.pi * t)
    e = np.exp(2j * np.pi * theta)
    fro2 = coeffs[0].real + 2.0 * np.real(np.polyval(coeffs[:0:-1], e) * e)
    # Once 2 eps^(2n) leaves the double range the ratio is inf or nan; the
    # caller reports the non-finite average as a numerical breakdown.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(np.sum(wts * jac * np.arccosh(np.maximum(fro2 / floor, 1.0))))


def subharmonic_check(r: Rotation, g: ExpGenerator, z, j0: int, n: int) -> SubharmonicReport:
    """Mean-value inequality for log ||P(w)|| on the unit circle.

    P(w) has polynomial entries of degree at most M = 2kn, whose exact
    coefficients come from one row-wise recursion over the steps.  So its
    squared Frobenius norm F on |w| = 1 is a trigonometric polynomial of
    degree M whose Fourier coefficients are the summed autocorrelations of
    the four entries' coefficients: no sampling, no FFT.  With
    |det P| = eps^(2n) constant on the circle,

        log ||P|| = n log(eps) + arccosh(F / (2 eps^(2n))) / 2,

    and the average of the arccosh term is integrated by a fixed
    composite Gauss-Legendre rule with GL_NODES nodes on each interval
    between the near-circle roots of F = 2 eps^(2n), where the two
    singular values nearly cross and the integrand has square-root
    behavior.  Each interval is cosine-mapped, which clusters the nodes
    at its ends and turns the square-root kinks into smooth integrands
    (Trefethen-Weideman 2014); a plain uniform-grid mean converges too
    slowly there to be stable under refinement.  The rule is run again
    at GL_NODES / 2 nodes and the difference, in circle-average units,
    is reported as ``quad_delta``.  The center value is the operator norm
    of P(0), the constant terms of the same recursion, so the check stays
    independent of the hand-derived closed form n log (1-eps^2)^(1/2).  A
    non-finite coefficient of F, circle average or center value, as at extreme
    |z| or once 2 eps^(2n) leaves the double range, raises NumericalBlowupError.
    z = 0 raises ValueError: the parity-1 steps of P(w) have entries in 1/z.
    """
    if not isinstance(g, ExpGenerator):
        raise TypeError("subharmonic_check is defined for the exponential family only")
    if g.rows is not None:
        raise ValueError("subharmonic_check takes one row's generator, not a column")
    if g.k < 1:
        raise ValueError("subharmonic_check requires k >= 1")
    if j0 not in (0, 1):
        raise ValueError("j0 must be 0 or 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if z == 0:
        raise ValueError("subharmonic_check needs z != 0")

    deg = 2 * g.k * n  # entry degree; Frobenius harmonics reach +-deg
    with np.errstate(over="ignore", invalid="ignore"):  # powers of z and 1/z may overflow
        coeffs = _fro2_coeffs(prod := _analytic_family_coeffs(r, g, z, j0, n))
    if not np.isfinite(coeffs).all():
        raise NumericalBlowupError(f"coefficients of ||P(w)||_F^2 not finite at z = {z}")

    floor = 2.0 * g.epsilon ** (2 * n)  # 2 sqrt(D), the sigma-crossing level

    # Near-circle roots of F(w) - 2 sqrt(D): breakpoints for the quadrature.
    poly = np.concatenate([np.conj(coeffs[:0:-1]), coeffs])
    poly[deg] -= floor
    roots = np.roots(poly[::-1])
    angles = np.angle(roots[np.abs(np.abs(roots) - 1.0) < 0.2]) / TWO_PI % 1.0
    breakpoints = sorted(set(np.round(angles, 12)))

    edges = np.array([0.0, *breakpoints, 1.0])
    avg_t, avg_half = (
        _breakpoint_rule(edges, m, coeffs, floor) for m in (GL_NODES, GL_NODES // 2)
    )
    circle = n * math.log(g.epsilon) + 0.5 * avg_t

    center = float(np.log(op_norm(prod[..., 0])))
    if not (math.isfinite(circle) and math.isfinite(center)):
        raise NumericalBlowupError(
            f"circle average {circle} or center value {center} is not finite "
            f"at n = {n} (crossing level 2 eps^(2n) = {floor})"
        )
    return SubharmonicReport(circle, center, circle - center, 0.5 * abs(avg_t - avg_half))
