"""Command-line harness: parameter scans, positivity verification runs,
subharmonicity reports, CSV output and static SVG plots.

Subcommands: ``bound``, ``scan``, ``verify-t1``, ``verify-t2``,
``subharmonic``.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 numerical failure.
"""

import argparse
import math
import sys

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
    """Comma-separated couplings, at least one, each in (0, 1)."""
    try:
        eps = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad epsilon list: {text!r}")
    if not eps:
        raise argparse.ArgumentTypeError("empty epsilon list")
    for e in eps:
        if not (0.0 < e < 1.0):
            raise argparse.ArgumentTypeError(f"epsilon {e} outside (0, 1)")
    return eps


def parse_complex_pair(text):
    """'re,im' (or bare 're') -> complex, both parts finite."""
    toks = [t.strip() for t in text.split(",")]
    try:
        if len(toks) in (1, 2):
            parts = [float(t) for t in toks]
            if all(map(math.isfinite, parts)):
                return complex(*parts)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad complex value: {text!r}")


def parse_coeff_list(text):
    """Semicolon-separated list of 're,im' pairs."""
    return [parse_complex_pair(tok) for tok in text.split(";") if tok.strip()]


# --method value -> the estimators it runs, by their CSV method names.
_METHODS = {
    "birkhoff": ("birkhoff",),
    "phase": ("phaseAverage",),
    "both": ("birkhoff", "phaseAverage"),
}


def parse_method(text):
    """Estimator choice -> the CSV method names it runs."""
    if text not in _METHODS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(_METHODS)})"
        )
    return _METHODS[text]


def parse_alpha(text):
    """Rotation number in (0, 1), or 'golden'."""
    if text.strip().lower() == "golden":
        return GOLDEN_MEAN
    try:
        alpha = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha: {text!r}")
    if not (0.0 < alpha < 1.0):
        raise argparse.ArgumentTypeError(f"alpha {alpha} outside (0, 1)")
    return alpha


def _number_type(cast, accept, requirement):
    """An argparse ``type=`` for numbers, read by ``cast``, that satisfy
    ``accept``."""

    def parse(text):
        value = cast(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    # argparse reports text that ``cast`` rejects as "invalid int value" etc.
    parse.__name__ = cast.__name__
    return parse


positive_int = _number_type(int, lambda v: v >= 1, ">= 1")
nonnegative_int = _number_type(int, lambda v: v >= 0, ">= 0")
nonzero_int = _number_type(int, lambda v: v != 0, "nonzero")
finite_float = _number_type(float, math.isfinite, "finite")
nonnegative_float = _number_type(float, lambda v: 0.0 <= v < math.inf,
                                 "finite and >= 0")


def _z_points(z_grid):
    ts = np.arange(z_grid) / z_grid
    zs = np.exp(2j * math.pi * ts)
    return ts, zs


def _birkhoff_batch(rng, r, gens, zs, n):
    """Birkhoff estimates over the z points ``zs`` for each generator in
    ``gens``, shaped (generators, z points), from one engine batch.  The
    start points are drawn generator by generator, in the order separate
    scans would draw them."""
    starts = [(rng.random(len(zs)), rng.integers(0, 2, len(zs))) for _ in gens]
    theta0s, j0s = (np.concatenate(part) for part in zip(*starts))
    gammas = birkhoff_scan(theta0s, j0s, r, gens, np.tile(zs, len(gens)), n)
    return gammas.reshape(len(gens), len(zs))


def cmd_bound(args) -> int:
    print(f"{'epsilon':>10}  {'bound':>22}  positive")
    for e in args.eps:
        b = theorem1_bound(e)
        print(f"{e:>10g}  {_fmt(b):>22}  {str(e < 1.0 / math.sqrt(2.0)).lower()}")
    return 0


def cmd_scan(args) -> int:
    coeffs = args.coeffs
    if coeffs is not None and args.lam is None:
        print("error: --coeffs needs --lambda (the perturbation coupling)",
              file=sys.stderr)
        return 2
    try:
        if args.lam is None:
            gens = [ExpGenerator(eps, args.k) for eps in args.eps]
        else:
            coeffs = coeffs if coeffs is not None else [1.0 + 0.0j] * (2 * args.k)
            gens = [PerturbedGenerator(eps, args.k, args.lam, coeffs)
                    for eps in args.eps]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    r = Rotation(args.alpha)
    ts, zs = _z_points(args.z_grid)
    rng = np.random.default_rng(args.seed)
    lam_abs = abs(args.lam) if args.lam is not None else 0.0
    results = {}
    if "birkhoff" in args.method:
        results["birkhoff"] = _birkhoff_batch(rng, r, gens, zs, args.n)
    if "phaseAverage" in args.method:
        results["phaseAverage"] = [
            [
                estimate_phase_average(
                    r, g, SpectralParameter.from_turn(t), args.n, args.grid
                ).gamma_hat
                for t in ts
            ]
            for g in gens
        ]
    rows = []
    for e, (eps, g) in enumerate(zip(args.eps, gens)):
        bound = reference_bound(g)
        for i, t in enumerate(ts):
            for method in args.method:
                gamma = float(results[method][e][i])
                rows.append(
                    {
                        "z_arg": float(t),
                        "epsilon": eps,
                        "lambda_abs": lam_abs,
                        "n": args.n,
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
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    if args.svg:
        svgchart.write_scan_svg(args.svg, rows)
        print(f"wrote chart to {args.svg}")
    return 0


def cmd_verify_t1(args) -> int:
    r = Rotation(args.alpha)
    ts, _ = _z_points(args.z_grid)
    worst = (math.inf, None, None)
    for eps in args.eps:
        g = ExpGenerator(eps, args.k)
        bound = theorem1_bound(eps)
        eps_worst = math.inf
        for t in ts:
            est = estimate_phase_average(
                r, g, SpectralParameter.from_turn(t), args.n, args.grid
            )
            margin = est.gamma_hat - bound
            eps_worst = min(eps_worst, margin)
            if margin < worst[0]:
                worst = (margin, eps, t)
        print(
            f"eps = {eps:g}: bound = {bound:.6f}, "
            f"min margin over z grid = {eps_worst:.3e}"
        )
    ok = worst[0] >= -args.tol
    print(
        f"worst margin {worst[0]:.3e} at eps = {worst[1]:g}, "
        f"z_arg = {worst[2]:g} (tolerance {args.tol:g})"
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_verify_t2(args) -> int:
    coeffs = args.coeffs if args.coeffs is not None else [1.0 + 0.0j] * (2 * args.k)
    if not any(coeffs):
        print("error: all --coeffs are zero: nothing to perturb", file=sys.stderr)
        return 2
    # Only the direction of --lambda is used: the ladder sets the magnitudes.
    direction = 1.0 + 0.0j
    if args.lam is not None and abs(args.lam) > 0:
        direction = args.lam / abs(args.lam)
    r = Rotation(args.alpha)
    _, zs = _z_points(args.z_grid)
    rng = np.random.default_rng(args.seed)
    # Per epsilon, the unperturbed family and then one per ladder rung; all
    # of them run as one batch.
    lmaxes = [lambda_max(eps, coeffs) for eps in args.eps]
    try:
        families = [
            [ExpGenerator(eps, args.k)] + [
                PerturbedGenerator(eps, args.k, factor * lmax * direction, coeffs)
                for factor in LADDER_FACTORS
            ]
            for eps, lmax in zip(args.eps, lmaxes)
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gammas = _birkhoff_batch(rng, r, [g for gens in families for g in gens], zs, args.n)
    mins = gammas.min(axis=1).reshape(len(families), -1)
    status = 0
    for eps, lmax, gens, (base_min, *rung_mins) in zip(args.eps, lmaxes, families, mins):
        print(f"eps = {eps:g}: admissible radius lambda_max = {lmax:.6g}")
        print(f"  lambda = 0 (unperturbed): min gamma_hat = {base_min:.6f}")
        empirical = None
        for factor, g, mn in zip(LADDER_FACTORS, gens[1:], rung_mins):
            mark = "ok" if mn > args.threshold else "below threshold"
            print(
                f"  |lambda| = {abs(g.lam):.6g} ({factor:g} * lambda_max): "
                f"min gamma_hat = {mn:.6f} [{mark}]"
            )
            if empirical is None and mn > args.threshold:
                empirical = abs(g.lam)
        if empirical is None:
            print(
                f"  no tested coupling kept min gamma_hat above {args.threshold:g}"
            )
            status = 1
        else:
            print(
                f"  empirical positivity radius (NON-RIGOROUS, grid/orbit "
                f"surrogate): |lambda| <= {empirical:.6g}"
            )
    return status


def cmd_subharmonic(args) -> int:
    r = Rotation(args.alpha)
    ts, _ = _z_points(args.z_grid)
    print(f"{'eps':>6} {'z_arg':>8} {'j0':>3} {'circle_avg':>13} {'center':>13} {'slack':>12}")
    ok = True
    for eps in args.eps:
        g = ExpGenerator(eps, args.k)
        for t in ts:
            s = SpectralParameter.from_turn(t)
            for j0 in (0, 1):
                rep = subharmonic_check(r, g, s, j0, args.n, args.grid)
                ok = ok and rep.slack >= -args.tol
                print(
                    f"{eps:>6g} {t:>8g} {j0:>3d} {rep.circle_average:>13.8f} "
                    f"{rep.center_value:>13.8f} {rep.slack:>12.3e}"
                )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# Every option a subcommand can take: dest -> (flag, add_argument keywords).
# The dests are also the keys a config file may set; a subcommand ignores
# the keys of options it does not take.
_OPTIONS = {
    "eps": ("--eps", dict(type=parse_eps_list, default=[0.5],
                          help="comma-separated coupling list, each in (0,1)")),
    "k": ("--k", dict(type=nonzero_int, default=1, help="frequency (nonzero integer)")),
    "alpha": ("--alpha", dict(type=parse_alpha, default=GOLDEN_MEAN,
                              help="rotation number in (0,1), or 'golden'")),
    "z_grid": ("--z-grid", dict(type=positive_int, help="points on the unit circle")),
    "n": ("--n", dict(type=positive_int, help="product length")),
    "method": ("--method", dict(type=parse_method, default="birkhoff",
                                metavar="{birkhoff,phase,both}", help="estimator(s)")),
    "lam": ("--lambda", dict(type=parse_complex_pair, metavar="RE,IM",
                             help="perturbation coupling; verify-t2 takes only "
                             "its direction, the ladder sets |lambda|")),
    "coeffs": ("--coeffs", dict(type=parse_coeff_list, metavar="RE,IM;RE,IM;...",
                                help="2k perturbation coefficients a_l, l = -k..k-1")),
    "seed": ("--seed", dict(type=nonnegative_int, default=0,
                            help="seed for Birkhoff start-point sampling")),
    "out": ("--out", dict(help="CSV output path")),
    "svg": ("--svg", dict(help="SVG chart output path")),
    "grid": ("--grid", dict(type=positive_int, help="theta quadrature grid size")),
    "tol": ("--tol", dict(type=nonnegative_float, default=1e-3,
                          help="verification tolerance")),
    "threshold": ("--threshold", dict(
        type=finite_float, default=0.05,
        help="positivity threshold for the empirical radius")),
}

# Options every subcommand but ``bound`` takes.
_COMMON = ("eps", "k", "alpha", "z_grid", "n")
_POSITIVE_K = dict(type=positive_int, help="frequency (positive integer)")


def parse_config_file(path):
    """Read a plain ``key = value`` file into {dest: string value}."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise argparse.ArgumentTypeError(f"{path}:{lineno}: expected key=value")
        key, val = (tok.strip() for tok in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "lambda":
            key = "lam"
        if key not in _OPTIONS:
            raise argparse.ArgumentTypeError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


def _add_subcommand(sub, name, help, func, extra, overrides=None, **defaults):
    """Add subcommand ``name`` taking ``--config``, the ``_COMMON`` options and
    those in ``extra``; ``overrides`` replaces the table's keywords per dest."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", type=parse_config_file,
                   help="plain key=value config file; flags override")
    for dest in _COMMON + extra:
        flag, kwargs = _OPTIONS[dest]
        p.add_argument(flag, dest=dest, **{**kwargs, **(overrides or {}).get(dest, {})})
    p.set_defaults(func=func, command_parser=p, **defaults)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="szegolyap",
        description="Lyapunov exponents of almost periodic Szego cocycles: "
        "scans, positivity verification, and subharmonicity reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="print the closed-form lower bound per epsilon")
    p.add_argument("--eps", **_OPTIONS["eps"][1])
    p.set_defaults(func=cmd_bound)

    _add_subcommand(sub, "scan", "estimate gamma over a (z, eps) grid; CSV/SVG out",
                    cmd_scan, ("method", "lam", "coeffs", "seed", "out", "svg", "grid"),
                    z_grid=16, n=100000, grid=64)
    _add_subcommand(sub, "verify-t1", "finite-n uniform positivity inequality",
                    cmd_verify_t1, ("grid", "tol"), z_grid=32, n=6, grid=2048)
    _add_subcommand(sub, "verify-t2", "perturbed-family positivity sweep over |lambda|",
                    cmd_verify_t2, ("lam", "coeffs", "seed", "threshold"),
                    overrides={"k": _POSITIVE_K}, z_grid=16, n=100000)
    _add_subcommand(sub, "subharmonic", "circle-average vs. center-value reports",
                    cmd_subharmonic, ("grid", "tol"), overrides={"k": _POSITIVE_K},
                    z_grid=16, n=6, grid=2048)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # File values become the subcommand's defaults and the arguments
            # are parsed again: argparse converts string defaults with each
            # option's type, and anything given on the command line, in any
            # spelling, wins.
            args.command_parser.set_defaults(
                **{key: val for key, val in args.config.items() if hasattr(args, key)}
            )
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (DegenerateCoefficientError, NumericalBlowupError, AdmissibilityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
