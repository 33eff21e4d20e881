"""Lyapunov exponent estimators, the positivity bound, and the
subharmonic mean-value checker.

Two independent estimators are provided: a Birkhoff estimator along a
single orbit (cheap, stochastic in the start point) and a phase-average
quadrature estimator over a uniform theta grid (deterministic; the
finite-n quantity that the subharmonicity argument bounds below for every
n, not just in the limit).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cocycle import NumericalBlowupError, SpectralParameter, grid_log_norms
from .dynamics import ExpGenerator, PerturbedGenerator, PhasePoint, Rotation
from .mat2 import op_norm

TWO_PI = 2.0 * math.pi

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
    """Comparison level for an estimate: the uniform positivity bound
    for the exponential family, the continuity-adjusted surrogate for
    the perturbed family, NaN for anything else."""
    if isinstance(g, ExpGenerator):
        return theorem1_bound(g.epsilon)
    if isinstance(g, PerturbedGenerator):
        return perturbed_reference(g)
    return math.nan


@dataclass(frozen=True)
class LyapunovEstimate:
    """An exponent estimate together with the level it is compared against."""

    gamma_hat: float
    method: str  # "birkhoff" or "phaseAverage"
    n: int
    samples: int
    bound: float
    margin: float


@dataclass(frozen=True)
class SubharmonicReport:
    """Circle average vs. center value of log ||product(w)||."""

    n: int
    circle_average: float
    center_value: float
    slack: float
    quad_delta: float  # node-doubling delta of circle_average; reported only


def estimate_birkhoff(
    p0: PhasePoint, r: Rotation, g, s: SpectralParameter, n: int
) -> LyapunovEstimate:
    """(1/n) log ||A^z_n(p0)|| along a single orbit."""
    gamma = float(birkhoff_scan([p0.theta], p0.j, r, g, s.z, n)[0])
    bound = reference_bound(g)
    return LyapunovEstimate(gamma, "birkhoff", n, 1, bound, gamma - bound)


def birkhoff_scan(theta0s, j0s, r: Rotation, g, zs, n: int):
    """Birkhoff estimates for paired (start point, spectral parameter) jobs.

    ``theta0s``, ``j0s`` and ``zs`` are equal-length vectors; entry i uses
    start (theta0s[i], j0s[i]) and parameter zs[i].  ``g`` is one
    generator, or a sequence of them for equal consecutive segments of the
    jobs (see ``grid_log_norms``).  All orbits, of either starting parity
    and every segment, run as one batched product.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    logn, _ = grid_log_norms(theta0s, j0s, r, g, zs, n)
    return logn / n


def phase_average_profile(
    r: Rotation, g, s: SpectralParameter, n_max: int, grid_size: int
):
    """Phase-averaged estimates for every n = 1 .. n_max in one pass.

    Entry n-1 is (1/n) * mean over the uniform theta grid and both
    parities of log ||A^z_n(theta, j)||.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    thetas = np.arange(grid_size) / grid_size
    marks = range(1, n_max + 1)
    totals = np.zeros(n_max)
    for j0 in (0, 1):
        _, rec = grid_log_norms(thetas, j0, r, g, s.z, n_max, checkpoints=marks)
        for n in marks:
            totals[n - 1] += float(np.mean(rec[n]))
    return totals / (2.0 * np.arange(1, n_max + 1))


def estimate_phase_average(
    r: Rotation, g, s: SpectralParameter, n: int, grid_size: int
) -> LyapunovEstimate:
    """Quadrature estimator: theta-grid and parity average of (1/n) log ||A^z_n||."""
    if n < 1 or grid_size < 1:
        raise ValueError("n and grid_size must be >= 1")
    thetas = np.arange(grid_size) / grid_size
    total = 0.0
    for j0 in (0, 1):
        logn, _ = grid_log_norms(thetas, j0, r, g, s.z, n)
        total += float(np.mean(logn))
    gamma = total / (2.0 * n)
    bound = reference_bound(g)
    return LyapunovEstimate(
        gamma, "phaseAverage", n, 2 * grid_size, bound, gamma - bound
    )


def _analytic_family_products(r: Rotation, g: ExpGenerator, s: SpectralParameter,
                              j0: int, n: int, w):
    """Product over m = n-1 .. 0 of the analytic-in-w one-step matrices

        [[-(1-eps^2)^(1/2) e^(2 pi i k m alpha) w^(2k),  z^((j0+m) mod 2) w^k],
         [z^(-((j0+m) mod 2)) w^k,  -(1-eps^2)^(1/2) e^(-2 pi i k m alpha)]]

    evaluated at each point of ``w``.  At w = e^(2 pi i theta) the norm of
    this product reproduces eps^n ||A^z_n(theta, j0)||.  Entries stay
    polynomially bounded for n <= a few dozen, so no renormalization is
    needed here.
    """
    w = np.asarray(w, dtype=complex)
    wk = w**g.k
    w2k = w ** (2 * g.k)
    mod = g.modulus
    cur = np.broadcast_to(np.eye(2, dtype=complex), w.shape + (2, 2)).copy()
    for m in range(n):
        jm = (j0 + m) % 2
        zj = s.z if jm == 1 else 1.0
        zmj = 1.0 / s.z if jm == 1 else 1.0
        rot = np.exp(1j * TWO_PI * g.k * m * r.alpha)
        a = np.empty(w.shape + (2, 2), dtype=complex)
        a[..., 0, 0] = -mod * rot * w2k
        a[..., 0, 1] = zj * wk
        a[..., 1, 0] = zmj * wk
        a[..., 1, 1] = -mod * np.conj(rot)
        cur = a @ cur
    return cur


def _validate_subharmonic_args(g, j0, n, grid_size):
    if not isinstance(g, ExpGenerator):
        raise TypeError("subharmonic_check is defined for the exponential family only")
    if g.k < 1:
        raise ValueError("subharmonic_check requires k >= 1")
    if j0 not in (0, 1):
        raise ValueError("j0 must be 0 or 1")
    if n < 1 or grid_size < 1:
        raise ValueError("n and grid_size must be >= 1")


def subharmonic_grid_values(
    r: Rotation, g: ExpGenerator, s: SpectralParameter, j0: int, n: int,
    grid_size: int,
):
    """log ||product(w)|| at the uniform grid w = e^(2 pi i m / grid_size).

    The raw samples behind the circle average; useful for cross-route
    comparisons against the direct cocycle products on a matched grid.
    """
    _validate_subharmonic_args(g, j0, n, grid_size)
    w = np.exp(1j * TWO_PI * np.arange(grid_size) / grid_size)
    return np.log(op_norm(_analytic_family_products(r, g, s, j0, n, w)))


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
    return float(np.sum(wts * jac * np.arccosh(np.maximum(fro2 / floor, 1.0))))


def subharmonic_check(
    r: Rotation,
    g: ExpGenerator,
    s: SpectralParameter,
    j0: int,
    n: int,
    grid_size: int,
) -> SubharmonicReport:
    """Mean-value inequality for log ||product(w)|| on the unit circle.

    The circle average exploits the structure of the integrand rather
    than averaging raw samples.  The product P(w) has polynomial entries
    of degree at most 2kn, so its squared Frobenius norm F on |w| = 1 is
    a trigonometric polynomial of degree M = 2kn, recovered exactly by an
    FFT once the sample count exceeds 2M.  With |det P| = eps^(2n)
    constant on the circle,

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
    is reported as ``quad_delta``.  The center value at w = 0 still runs
    through the product code itself, so the check stays independent of
    the hand-derived closed form n log (1-eps^2)^(1/2).  A circle average
    or center value that is not finite, as once 2 eps^(2n) leaves the
    double range, raises NumericalBlowupError.
    """
    _validate_subharmonic_args(g, j0, n, grid_size)

    deg = 2 * g.k * n  # entry degree; Frobenius harmonics reach +-deg
    samples = max(grid_size, 2 * deg + 2)
    w = np.exp(1j * TWO_PI * np.arange(samples) / samples)
    prods = _analytic_family_products(r, g, s, j0, n, w)
    fro2 = np.sum(np.abs(prods) ** 2, axis=(-1, -2))

    # Exact Fourier coefficients of F (band-limited, real).
    coeffs = np.fft.rfft(fro2) / samples
    coeffs[deg + 1 :] = 0.0

    floor = 2.0 * g.epsilon ** (2 * n)  # 2 sqrt(D), the sigma-crossing level

    # Near-circle roots of F(w) - 2 sqrt(D): breakpoints for the quadrature.
    full = np.empty(2 * deg + 1, dtype=complex)
    full[deg:] = coeffs[: deg + 1]
    full[:deg] = np.conj(coeffs[deg:0:-1])
    poly = full.copy()
    poly[deg] -= floor
    roots = np.roots(poly[::-1]) if deg > 0 else np.array([])
    angles = np.angle(roots[np.abs(np.abs(roots) - 1.0) < 0.2]) / TWO_PI % 1.0
    breakpoints = sorted(set(np.round(angles, 12)))

    edges = np.array([0.0, *breakpoints, 1.0])
    avg_t, avg_half = (
        _breakpoint_rule(edges, m, coeffs[: deg + 1], floor)
        for m in (GL_NODES, GL_NODES // 2)
    )
    circle = n * math.log(g.epsilon) + 0.5 * avg_t

    center_prod = _analytic_family_products(r, g, s, j0, n, np.array([0.0j]))
    center = float(np.log(op_norm(center_prod[0])))
    if not (math.isfinite(circle) and math.isfinite(center)):
        raise NumericalBlowupError(
            f"circle average {circle} or center value {center} is not finite "
            f"at n = {n} (crossing level 2 eps^(2n) = {floor})"
        )
    return SubharmonicReport(
        n, circle, center, circle - center, 0.5 * abs(avg_t - avg_half)
    )
