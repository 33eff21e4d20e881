"""Command-line harness: parameter scans, positivity verification runs,
subharmonicity reports, CSV output and static SVG plots.

Subcommands: ``bound``, ``scan``, ``verify-t1``, ``verify-t2``,
``subharmonic``.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 numerical failure.
"""

import argparse
import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import svgchart
from .cocycle import (
    DegenerateCoefficientError,
    NumericalBlowupError,
    SpectralParameter,
)
from .dynamics import (
    AdmissibilityError,
    ExpGenerator,
    GOLDEN_MEAN,
    PerturbedGenerator,
    Rotation,
    lambda_max,
)
from .lyapunov import (
    birkhoff_scan,
    estimate_phase_average,
    reference_bound,
    subharmonic_check,
    theorem1_bound,
)

CSV_HEADER = "z_arg,epsilon,lambda_abs,n,method,gamma_hat,bound,margin"

# Geometric ladder of |lambda| / lambda_max rungs swept by verify-t2.
LADDER_FACTORS = (0.8, 0.4, 0.2, 0.1, 0.05)


def _fmt(x):
    """17 significant digits: round-trips double precision exactly."""
    return format(float(x), ".17g")


def parse_eps_list(text):
    try:
        eps = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad epsilon list: {text!r}")
    return eps


def parse_complex_pair(text):
    """'re,im' (or bare 're') -> complex."""
    toks = [t.strip() for t in text.split(",")]
    try:
        if len(toks) == 1:
            return complex(float(toks[0]), 0.0)
        if len(toks) == 2:
            return complex(float(toks[0]), float(toks[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad complex value: {text!r}")


def parse_coeff_list(text):
    """Semicolon-separated list of 're,im' pairs."""
    return [parse_complex_pair(tok) for tok in text.split(";") if tok.strip()]


def parse_alpha(text):
    if text.strip().lower() == "golden":
        return GOLDEN_MEAN
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha: {text!r}")


@dataclass
class ScanConfig:
    """Resolved parameters for one scan or verification run."""

    epsilons: list
    z_grid: int
    k: int
    alpha: float
    n: int
    method: str
    lam: complex | None
    coeffs: list | None
    seed: int
    out: str | None
    svg: str | None
    grid: int
    tol: float
    threshold: float = 0.05


def _eps_valid(eps) -> bool:
    """Print a diagnostic and return False for an empty or out-of-range list."""
    if not eps:
        print("error: empty epsilon list", file=sys.stderr)
        return False
    for e in eps:
        if not (0.0 < e < 1.0):
            print(f"error: epsilon {e} outside (0, 1)", file=sys.stderr)
            return False
    return True


def _build_config(args) -> ScanConfig | None:
    """Validate the parsed flags; print a diagnostic and return None on error."""
    eps = args.eps
    if not _eps_valid(eps):
        return None
    if args.k == 0:
        print("error: k must be nonzero", file=sys.stderr)
        return None
    if args.z_grid < 1 or args.n < 1 or args.grid < 1:
        print("error: --z-grid, --n and --grid must be >= 1", file=sys.stderr)
        return None
    coeffs = args.coeffs
    lam = args.lam
    if lam is not None:
        if args.k < 1:
            print("error: the perturbed family requires k >= 1", file=sys.stderr)
            return None
        if coeffs is None:
            coeffs = [1.0 + 0.0j] * (2 * args.k)
        if len(coeffs) != 2 * args.k:
            print(
                f"error: need 2k = {2 * args.k} coefficients, got {len(coeffs)}",
                file=sys.stderr,
            )
            return None
        for e in eps:
            if abs(lam) >= lambda_max(e, coeffs):
                print(
                    f"error: |lambda| = {abs(lam)} exceeds the admissible "
                    f"radius {lambda_max(e, coeffs)} at epsilon = {e}",
                    file=sys.stderr,
                )
                return None
    return ScanConfig(
        epsilons=eps,
        z_grid=args.z_grid,
        k=args.k,
        alpha=args.alpha,
        n=args.n,
        method=args.method,
        lam=lam,
        coeffs=coeffs,
        seed=args.seed,
        out=args.out,
        svg=args.svg,
        grid=args.grid,
        tol=args.tol,
        threshold=getattr(args, "threshold", 0.05),
    )


def _make_generator(cfg: ScanConfig, eps: float):
    if cfg.lam is not None:
        return PerturbedGenerator(eps, cfg.k, cfg.lam, cfg.coeffs)
    return ExpGenerator(eps, cfg.k)


def _z_points(z_grid):
    ts = np.arange(z_grid) / z_grid
    zs = np.exp(2j * math.pi * ts)
    return ts, zs


def cmd_bound(args) -> int:
    if not _eps_valid(args.eps):
        return 2
    print(f"{'epsilon':>10}  {'bound':>22}  positive")
    for e in args.eps:
        b = theorem1_bound(e)
        print(f"{e:>10g}  {_fmt(b):>22}  {str(e < 1.0 / math.sqrt(2.0)).lower()}")
    return 0


def cmd_scan(args) -> int:
    cfg = _build_config(args)
    if cfg is None:
        return 2
    methods = {
        "birkhoff": ["birkhoff"],
        "phase": ["phaseAverage"],
        "both": ["birkhoff", "phaseAverage"],
    }[cfg.method]
    r = Rotation(cfg.alpha)
    ts, zs = _z_points(cfg.z_grid)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for eps in cfg.epsilons:
        g = _make_generator(cfg, eps)
        lam_abs = abs(cfg.lam) if cfg.lam is not None else 0.0
        bound = reference_bound(g)
        results = {}
        if "birkhoff" in methods:
            theta0s = rng.random(cfg.z_grid)
            j0s = rng.integers(0, 2, cfg.z_grid)
            results["birkhoff"] = birkhoff_scan(theta0s, j0s, r, g, zs, cfg.n)
        if "phaseAverage" in methods:
            results["phaseAverage"] = np.array(
                [
                    estimate_phase_average(
                        r, g, SpectralParameter.from_turn(t), cfg.n, cfg.grid
                    ).gamma_hat
                    for t in ts
                ]
            )
        for i, t in enumerate(ts):
            for method in methods:
                gamma = float(results[method][i])
                rows.append(
                    {
                        "z_arg": float(t),
                        "epsilon": eps,
                        "lambda_abs": lam_abs,
                        "n": cfg.n,
                        "method": method,
                        "gamma_hat": gamma,
                        "bound": bound,
                        "margin": gamma - bound,
                    }
                )

    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _fmt(row["z_arg"]),
                    _fmt(row["epsilon"]),
                    _fmt(row["lambda_abs"]),
                    str(row["n"]),
                    row["method"],
                    _fmt(row["gamma_hat"]),
                    _fmt(row["bound"]),
                    _fmt(row["margin"]),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {cfg.out}")
    else:
        sys.stdout.write(text)
    if cfg.svg:
        svgchart.write_scan_svg(cfg.svg, rows)
        print(f"wrote chart to {cfg.svg}")
    return 0


def cmd_verify_t1(args) -> int:
    cfg = _build_config(args)
    if cfg is None:
        return 2
    if cfg.lam is not None:
        print("error: verify-t1 applies to the exponential family only", file=sys.stderr)
        return 2
    r = Rotation(cfg.alpha)
    ts, _ = _z_points(cfg.z_grid)
    worst = (math.inf, None, None)
    for eps in cfg.epsilons:
        g = ExpGenerator(eps, cfg.k)
        bound = theorem1_bound(eps)
        eps_worst = math.inf
        for t in ts:
            est = estimate_phase_average(
                r, g, SpectralParameter.from_turn(t), cfg.n, cfg.grid
            )
            margin = est.gamma_hat - bound
            eps_worst = min(eps_worst, margin)
            if margin < worst[0]:
                worst = (margin, eps, t)
        print(
            f"eps = {eps:g}: bound = {bound:.6f}, "
            f"min margin over z grid = {eps_worst:.3e}"
        )
    ok = worst[0] >= -cfg.tol
    print(
        f"worst margin {worst[0]:.3e} at eps = {worst[1]:g}, "
        f"z_arg = {worst[2]:g} (tolerance {cfg.tol:g})"
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_verify_t2(args) -> int:
    cfg = _build_config(args)
    if cfg is None:
        return 2
    coeffs = cfg.coeffs if cfg.coeffs is not None else [1.0 + 0.0j] * (2 * cfg.k)
    if cfg.k < 1:
        print("error: verify-t2 requires k >= 1", file=sys.stderr)
        return 2
    direction = 1.0 + 0.0j
    if cfg.lam is not None and abs(cfg.lam) > 0:
        direction = cfg.lam / abs(cfg.lam)
    r = Rotation(cfg.alpha)
    ts, zs = _z_points(cfg.z_grid)
    rng = np.random.default_rng(cfg.seed)
    status = 0
    for eps in cfg.epsilons:
        lmax = lambda_max(eps, coeffs)
        if lmax <= 0:
            print(f"error: nonpositive lambda_max at eps = {eps}", file=sys.stderr)
            return 2
        print(f"eps = {eps:g}: admissible radius lambda_max = {lmax:.6g}")

        theta0s = rng.random(cfg.z_grid)
        j0s = rng.integers(0, 2, cfg.z_grid)
        base = birkhoff_scan(theta0s, j0s, r, ExpGenerator(eps, cfg.k), zs, cfg.n)
        print(f"  lambda = 0 (unperturbed): min gamma_hat = {np.min(base):.6f}")

        empirical = None
        for factor in LADDER_FACTORS:
            lam = factor * lmax * direction
            g = PerturbedGenerator(eps, cfg.k, lam, coeffs)
            theta0s = rng.random(cfg.z_grid)
            j0s = rng.integers(0, 2, cfg.z_grid)
            gammas = birkhoff_scan(theta0s, j0s, r, g, zs, cfg.n)
            mn = float(np.min(gammas))
            mark = "ok" if mn > cfg.threshold else "below threshold"
            print(
                f"  |lambda| = {abs(lam):.6g} ({factor:g} * lambda_max): "
                f"min gamma_hat = {mn:.6f} [{mark}]"
            )
            if empirical is None and mn > cfg.threshold:
                empirical = abs(lam)
        if empirical is None:
            print(
                f"  no tested coupling kept min gamma_hat above {cfg.threshold:g}"
            )
            status = 1
        else:
            print(
                f"  empirical positivity radius (NON-RIGOROUS, grid/orbit "
                f"surrogate): |lambda| <= {empirical:.6g}"
            )
    return status


def cmd_subharmonic(args) -> int:
    cfg = _build_config(args)
    if cfg is None:
        return 2
    if cfg.lam is not None:
        print("error: subharmonic applies to the exponential family only", file=sys.stderr)
        return 2
    if cfg.k < 1:
        print("error: subharmonic requires k >= 1", file=sys.stderr)
        return 2
    r = Rotation(cfg.alpha)
    ts, _ = _z_points(cfg.z_grid)
    print(f"{'eps':>6} {'z_arg':>8} {'j0':>3} {'circle_avg':>13} {'center':>13} {'slack':>12}")
    ok = True
    for eps in cfg.epsilons:
        g = ExpGenerator(eps, cfg.k)
        for t in ts:
            s = SpectralParameter.from_turn(t)
            for j0 in (0, 1):
                rep = subharmonic_check(r, g, s, j0, cfg.n, cfg.grid)
                ok = ok and rep.slack >= -cfg.tol
                print(
                    f"{eps:>6g} {t:>8g} {j0:>3d} {rep.circle_average:>13.8f} "
                    f"{rep.center_value:>13.8f} {rep.slack:>12.3e}"
                )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# Option dests a config file may set.  A subcommand without the option
# (``threshold`` outside verify-t2) ignores the key.
_CONFIG_KEYS = frozenset((
    "eps", "k", "alpha", "z_grid", "n", "method", "lam", "coeffs", "seed",
    "out", "svg", "grid", "tol", "threshold",
))


def _load_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (tok.strip() for tok in line.split("=", 1))
            key = key.replace("-", "_")
            if key == "lambda":
                key = "lam"
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val
    return values


def _add_common(parser):
    parser.set_defaults(command_parser=parser)
    parser.add_argument("--config", help="plain key=value config file; flags override")
    parser.add_argument("--eps", type=parse_eps_list, default=[0.5],
                        help="comma-separated coupling list, each in (0,1)")
    parser.add_argument("--k", type=int, default=1, help="frequency (nonzero integer)")
    parser.add_argument("--alpha", type=parse_alpha, default=GOLDEN_MEAN,
                        help="rotation number in (0,1), or 'golden'")
    parser.add_argument("--z-grid", dest="z_grid", type=int,
                        help="points on the unit circle")
    parser.add_argument("--n", type=int, help="product length")
    parser.add_argument("--method", choices=["birkhoff", "phase", "both"],
                        default="birkhoff", help="estimator(s) for scan")
    parser.add_argument("--lambda", dest="lam", type=parse_complex_pair, default=None,
                        metavar="RE,IM", help="perturbation coupling (perturbed family)")
    parser.add_argument("--coeffs", type=parse_coeff_list, default=None,
                        metavar="RE,IM;RE,IM;...",
                        help="2k perturbation coefficients a_l, l = -k..k-1")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for Birkhoff start-point sampling")
    parser.add_argument("--out", default=None, help="CSV output path (scan)")
    parser.add_argument("--svg", default=None, help="SVG chart output path (scan)")
    parser.add_argument("--grid", type=int, help="theta quadrature grid size")
    parser.add_argument("--tol", type=float, help="verification tolerance")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="szegolyap",
        description="Lyapunov exponents of almost periodic Szego cocycles: "
        "scans, positivity verification, and subharmonicity reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="print the closed-form lower bound per epsilon")
    p.add_argument("--eps", type=parse_eps_list, default=[0.5])
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("scan", help="estimate gamma over a (z, eps) grid; CSV/SVG out")
    _add_common(p)
    p.set_defaults(func=cmd_scan, z_grid=16, n=100000, grid=64, tol=1e-3)

    p = sub.add_parser("verify-t1", help="finite-n uniform positivity inequality")
    _add_common(p)
    p.set_defaults(func=cmd_verify_t1, z_grid=32, n=6, grid=2048, tol=1e-3)

    p = sub.add_parser("verify-t2", help="perturbed-family positivity sweep over |lambda|")
    _add_common(p)
    p.add_argument("--threshold", type=float, default=0.05,
                   help="positivity threshold for the empirical radius")
    p.set_defaults(func=cmd_verify_t2, z_grid=16, n=100000, grid=64, tol=1e-3)

    p = sub.add_parser("subharmonic", help="circle-average vs. center-value reports")
    _add_common(p)
    p.set_defaults(func=cmd_subharmonic, z_grid=16, n=6, grid=2048, tol=1e-3)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            file_values = _load_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # File values become the subcommand's defaults and the arguments are
        # parsed again: argparse converts string defaults with each option's
        # type, and anything given on the command line, in any spelling, wins.
        args.command_parser.set_defaults(
            **{key: val for key, val in file_values.items() if hasattr(args, key)}
        )
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateCoefficientError, NumericalBlowupError, AdmissibilityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
