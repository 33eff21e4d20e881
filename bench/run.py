"""The szegolyap benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see ``workloads.py``) is one CLI command, run through
``szegolyap.cli.main`` over and over in a fresh child process limited to
one thread.  Every command's outputs are checked (``reference.py``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
The machine's speed drifts by up to 1.5x over minutes, so each command is
followed by a fixed calibration kernel (``child.calibration``) and its time
is scaled by REF_CAL_S / (kernel time): seconds at a reference speed.
  wall_norm_s              median normalized seconds per command
  wall_norm_s_p90          90th percentile; the child collects at least 100
                           samples, so ten or more lie beyond it
  setup_s                  fresh interpreter to parser ready (imports and
                           ``build_parser``), median of several interpreters
  matrix_steps_per_norm_s  one-step matrices multiplied into products per
                           normalized second
  peak_rss_mb              the workload child's peak resident set size
The same figures before normalization (wall_s, wall_s_p90,
matrix_steps_per_s) and the kernel's median time are printed and recorded
too, but not gated.
``--trace 1`` reports the per-layer metrics: a child whose commands
alternate between traced (``tracing.py``) and untraced, and the layer
microbenchmarks (``micro.py``).  ``trace.overhead_s`` is the traced
median minus the untraced one.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A run record (machine, versions, revision, thread settings,
samples and metrics) goes to ``.bench_results/``.  The program needs no
build: the children import it from ``src/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"

# One process, one thread: the machine has two cores, and BLAS threads
# would make timings depend on whatever else runs.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 11
# Median time of child.calibration() on the machine the benchmark was
# written on (2 cores, Python 3.11, numpy 2.4); normalized times read as
# seconds at that machine's speed.
REF_CAL_S = 0.020
# Every child must have ended by then, so a run ends within 180 s.
DEADLINE_S = 170.0

SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from szegolyap import cli\n"
    "cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)

END_TO_END_UNITS = {
    "wall_norm_s": "s",
    "wall_norm_s_p90": "s",
    "setup_s": "s",
    "matrix_steps_per_norm_s": "1/s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "wall_s_p90": "s",
    "matrix_steps_per_s": "1/s",
    "calibration_s": "s",
}
# Per-layer units by name suffix, first match wins.
_UNITS = (
    (".calls", "count"),
    (".elements", "count"),
    (".steps", "count"),
    ("bytes", "bytes"),
    ("elements_per_call", "elem/call"),
    ("_s", "s"),
)


def unit(name):
    """Unit of a metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if ".ns_per_elem." in name:
        return "ns"
    if ".us_per_step." in name:
        return "us"
    return next(u for suffix, u in _UNITS if name.endswith(suffix))


class ChildFailed(RuntimeError):
    pass


class Runner:
    def __init__(self):
        self.start = time.monotonic()
        self.env = {**os.environ, **THREAD_ENV}

    def _run(self, argv):
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{argv[:2]} did not finish in time")
        if proc.returncode != 0:
            raise ChildFailed(f"{argv[:2]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return proc.stdout

    def child(self, script, *args):
        out = self._run([str(BENCH / script), *map(str, args)])
        return json.loads(out.strip().splitlines()[-1])

    def setup_s(self):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        ready = float(self._run(["-c", SETUP_PROBE, str(ROOT / "src")]).split()[-1])
        return ready - t0


def git_revision():
    """Commit of the checkout from ``.git`` if there is one, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    """Digest of the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def end_to_end(runner, wl, seed, seconds):
    plain = runner.child("child.py", wl.name, seed, seconds, "plain")
    # Read before any other child runs: the maximum over waited-for children.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = statistics.median(runner.setup_s() for _ in range(SETUP_SAMPLES))
    raw = plain["samples"]
    norm = [t * REF_CAL_S / c for t, c in zip(raw, plain["calibration_samples"])]
    wall = statistics.median(norm)
    metrics = {
        "wall_norm_s": wall,
        "wall_norm_s_p90": statistics.quantiles(norm, n=10, method="inclusive")[-1],
        "setup_s": setup,
        "matrix_steps_per_norm_s": wl.matrix_steps / wall,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    unnormalized = {
        "wall_s": statistics.median(raw),
        "wall_s_p90": statistics.quantiles(raw, n=10, method="inclusive")[-1],
        "matrix_steps_per_s": wl.matrix_steps / statistics.median(raw),
        "calibration_s": statistics.median(plain["calibration_samples"]),
    }
    return metrics, plain, {"unnormalized": unnormalized}


def per_layer(runner, wl, seed, seconds):
    traced = runner.child("child.py", wl.name, seed, seconds, "traced")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = (
        statistics.median(traced["traced_samples"]) - statistics.median(traced["samples"])
    )
    metrics.update(runner.child("micro.py", seed))
    extra = {
        "layer_shares": traced["shares"],
        "site_calls": traced["site_calls"],
        "spans_file": traced["spans_file"],
    }
    return metrics, traced, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "szegolyap" / "cli.py").is_file():
        print(f"error: no szegolyap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, child, extra = measure(Runner(), wl, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = child["attempted"], child["failed"]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "variant": child["variant"],
        "argv": child["argv"],
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "system": platform.system(),
            "release": platform.release(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "versions": child["versions"],
        "git_revision": git_revision(),
        "src_sha256": src_sha256(),
        "thread_env": THREAD_ENV,
        "samples": child["samples"],
        "traced_samples": child["traced_samples"],
        "calibration_samples": child["calibration_samples"],
        "attempted": attempted,
        "failed": failed,
        "problems": child["problems"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        **extra,
    }
    path = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {wl.name}, variant {record['variant']}: szegolyap "
          + " ".join(record["argv"]))
    print(f"machine {record['machine']}, versions {record['versions']}, "
          f"revision {record['git_revision']}, threads {THREAD_ENV}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"samples = {len(child['samples'])} commands with tracing off, "
          f"{len(child['traced_samples'])} with tracing on")
    print(f"failed_ratio = {failed / attempted!r} failed/attempted "
          f"({failed} of {attempted} commands)")
    for name, value in {**metrics, **extra.get("unnormalized", {})}.items():
        print(f"{name} = {value!r} {unit(name)}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
