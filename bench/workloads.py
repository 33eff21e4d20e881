"""The benchmark's workloads: one CLI command each, scaled down so that a
single command takes about a tenth of a second and a run of the benchmark
collects well over a hundred timed samples.

Each workload maps a benchmark seed onto one of its input variants,
whose expected outputs are recorded in ``reference.json``.  The variants
change only inputs that leave the amount of work unchanged (start points
for the Birkhoff commands, epsilon for ``verify-t1``), so that runs with
different seeds measure the same work.  This module is stdlib-only: the
benchmark's parent process imports it without numpy.
"""

from dataclasses import dataclass

_SEEDS = tuple(("--seed", str(v)) for v in range(8))

# verify-t1 work does not depend on epsilon: every step is the same
# array arithmetic at the same batch size.
_T1_EPS = tuple(
    ("--eps", e) for e in ("0.2", "0.25", "0.3", "0.35", "0.4", "0.45", "0.5", "0.55")
)

# verify-t2 sweeps the unperturbed family plus this many ladder rungs
# (cli.LADDER_FACTORS); each runs one Birkhoff scan.
_T2_SCANS = 1 + 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scales_down: str  # the README command this workload shrinks
    baseline_row: str  # the ROADMAP "Measured baseline" row it relates to
    args: tuple  # CLI arguments shared by every variant
    variants: tuple  # per-variant extra CLI arguments
    matrix_steps: int  # one-step matrices multiplied per command
    files: tuple = ()  # output files the command writes (relative paths)

    def variant(self, seed):
        """Index of the input variant that benchmark seed ``seed`` selects."""
        return seed % len(self.variants)

    def argv(self, variant):
        """CLI arguments of input variant ``variant``."""
        return list(self.args) + list(self.variants[variant])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan_narrow_long",
            why="Birkhoff scan at batch ~16 over many steps: per-step Python "
            "overhead of the product engine dominates; also runs the CSV and "
            "SVG writers.",
            scales_down="szegolyap scan --eps 0.3,0.5 --z-grid 32 --n 100000 "
            "--seed 1 --out scan.csv --svg scan.svg",
            baseline_row="scan --eps 0.3,0.5 --z-grid 32 --n 100000 (35.6 s); "
            "Engine, n=1e5, batch 16 (81 us/step)",
            args=("scan", "--eps", "0.3,0.5", "--z-grid", "32", "--n", "300",
                  "--out", "scan.csv", "--svg", "scan.svg"),
            variants=_SEEDS,
            # eps values x z points x steps; the parity split of the z points
            # changes the batch of each engine call, not the total.
            matrix_steps=2 * 32 * 300,
            files=("scan.csv", "scan.svg"),
        ),
        Workload(
            name="verify_t1_wide",
            why="Phase average at batch 32768 over few steps: cost per array "
            "element (stacked @, op_norm) dominates and memory shows in "
            "peak_rss_mb.",
            scales_down="szegolyap verify-t1 --eps 0.5 --z-grid 32 --n 6 "
            "--grid 2048",
            baseline_row="verify-t1 --eps 0.5 --z-grid 32 --n 6 --grid 2048 "
            "(0.64 s)",
            args=("verify-t1", "--z-grid", "1", "--n", "2", "--grid", "32768"),
            variants=_T1_EPS,
            # eps values x z points x parities x steps x theta grid.
            matrix_steps=1 * 1 * 2 * 2 * 32768,
        ),
        Workload(
            name="verify_t2_perturbed",
            why="Perturbed-family lambda ladder: the only workload where "
            "PerturbedGenerator.evaluate_grid (dynamics) takes a large share.",
            scales_down='szegolyap verify-t2 --eps 0.5 --k 2 --coeffs "1;1;1;1" '
            "--n 100000",
            baseline_row='verify-t2 --eps 0.5 --k 2 --coeffs "1;1;1;1" '
            "--n 100000 (122 s)",
            args=("verify-t2", "--eps", "0.5", "--k", "2", "--coeffs", "1;1;1;1",
                  "--n", "100"),
            variants=_SEEDS,
            # scans x z points (default z grid 16) x steps.
            matrix_steps=_T2_SCANS * 16 * 100,
        ),
        Workload(
            name="subharmonic_quad",
            why="FFT, np.roots and scipy quad in lyapunov; never enters the "
            "product engine, so engine changes must predict no change here.",
            scales_down="szegolyap subharmonic --eps 0.3 --z-grid 16 --n 6",
            baseline_row="subharmonic --eps 0.3 --z-grid 16 --n 6 (3.4 s)",
            # The command has no random input, and the adaptive quadrature's
            # cost moves with every parameter, so there is one variant only:
            # any other would make the seed a cost knob.
            args=("subharmonic", "--z-grid", "1", "--n", "4"),
            variants=(("--eps", "0.3"),),
            # eps values x z points x j0 x steps x (FFT samples + centre):
            # the analytic-family products of subharmonic_check.
            matrix_steps=1 * 1 * 2 * 4 * (2048 + 1),
        ),
    )
}
