"""Runs one workload inside this process: repeated ``szegolyap.cli.main``
calls on the same input, each timed and checked.

    python3 bench/child.py WORKLOAD SEED SECONDS plain|traced

The first command is a warm-up, so lazy imports and first-touch
allocations are not timed.  Its outputs are checked against the recorded
reference; every later command must reproduce them byte for byte.  In a
plain run every command is followed by the calibration kernel; in a
traced run, traced and untraced commands alternate.  The last line of
standard output is one JSON object with the timings, the failure count
and, for a traced run, the per-layer metrics.  A traced run also writes
its spans to ``.bench_results/spans-WORKLOAD.json``.
"""

import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from szegolyap import cli  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# With at least this many samples the 90th percentile has ten beyond it.
MIN_SAMPLES = 100
# Stop collecting samples after this long even below MIN_SAMPLES, so that
# a run on much slower code still ends inside the harness's time limit.
MAX_LOOP_S = 120.0
# A traced run keeps every span in memory; this bounds how many commands.
TRACED_SAMPLES = 50

# Fixed inputs and output buffers of the calibration kernel.  The kernel
# allocates no large arrays, so the allocator state the command leaves
# behind does not change its time.
_CAL_RNG = np.random.default_rng(20080101)
_CAL_SMALL = _CAL_RNG.random(16) + 1j * _CAL_RNG.random(16)
_CAL_BIG = _CAL_RNG.random(32768) + 1j * _CAL_RNG.random(32768)
_CAL_OUT = np.empty_like(_CAL_BIG)
_CAL_ABS = np.empty(_CAL_BIG.shape)


def calibration():
    """Seconds taken by a fixed kernel that runs none of the package's code.

    The machine this benchmark was written on changes speed by up to 1.5x
    over minutes (a plain Python loop shows it too), so an untraced run
    times this kernel right after every command.  It mixes the two kinds
    of work the workloads do: many numpy calls on 16 elements, which the
    interpreter dominates, and whole-array passes over 32768 elements.
    """
    start = time.perf_counter()
    for _ in range(900):
        np.abs(_CAL_SMALL * _CAL_SMALL[::-1]).sum()
    for _ in range(12):
        np.exp(_CAL_BIG, out=_CAL_OUT)
        np.multiply(_CAL_OUT, _CAL_BIG, out=_CAL_OUT)
        np.abs(_CAL_OUT, out=_CAL_ABS).sum()
    return time.perf_counter() - start


def _read(name):
    try:
        with open(name, encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def run_command(argv, files, tracer=None):
    """Run ``cli.main(argv)`` once in the current directory.

    Returns ``(seconds, outputs, stderr)``; ``outputs`` holds the exit code
    (None after an exception), the captured stdout and the text of each
    file in ``files``.  With a tracer, the call is one ``cli.main`` span.
    """
    for name in files:
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        span = tracer.open(tracing.MAIN) if tracer is not None else None
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        finally:
            if tracer is not None:
                tracer.close(span)
        seconds = time.perf_counter() - start
    outputs = {
        "exit": code,
        "stdout": out.getvalue(),
        "files": {name: _read(name) for name in files},
    }
    if tracer is not None:
        # The CLI's own output; the chart's bytes count for svgchart.
        written = [t for n, t in outputs["files"].items() if t and not n.endswith(".svg")]
        tracer.work[span] = sum(len(t.encode()) for t in [outputs["stdout"], *written])
    return seconds, outputs, err.getvalue()


def measure(name, seed, seconds, tracer=None):
    """Time repeated commands of one workload for ``seconds``.

    With a tracer, commands alternate between traced and untraced, so the
    two sets of samples see the same machine conditions and their
    difference is the tracing overhead.
    """
    wl = WORKLOADS[name]
    variant = wl.variant(seed)
    argv = wl.argv(variant)
    expected = reference.load()[name][variant]
    first = None  # (outputs of the warm-up command, its check result)
    problems = []
    samples = []
    traced_samples = []
    calibration_samples = []  # kernel time right after each untraced sample
    attempted = failed = 0

    def once(traced):
        nonlocal first, attempted, failed
        run_id = attempted
        if traced:
            tracer.run_id = run_id
            with tracing.installed(tracer):
                dt, outputs, stderr = run_command(argv, wl.files, tracer)
        else:
            dt, outputs, stderr = run_command(argv, wl.files)
        if first is None:
            first = (outputs, reference.outputs_mismatch(expected, outputs))
        problem = first[1] if outputs == first[0] else "outputs differ from the first run's"
        attempted += 1
        if problem:
            failed += 1
            if len(problems) < 5:
                problems.append(f"command {run_id}: {problem}; stderr: {stderr[-500:]}")
        return dt

    once(tracer is not None)  # warm-up, run id 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            if elapsed >= seconds or len(traced_samples) >= TRACED_SAMPLES:
                break
            traced_samples.append(once(True))
        elif (elapsed >= seconds and len(samples) >= MIN_SAMPLES) or elapsed >= MAX_LOOP_S:
            break
        samples.append(once(False))
        if tracer is None:
            calibration_samples.append(calibration())
    return {
        "argv": argv,
        "variant": variant,
        "samples": samples,
        "traced_samples": traced_samples,
        "calibration_samples": calibration_samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def versions():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
    }


def main(argv):
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir()
    os.chdir(work)
    try:
        if mode == "traced":
            tracer = tracing.Tracer()
            result = measure(name, seed, seconds, tracer)
            result["layers"], result["shares"] = tracing.layer_metrics(tracer)
            result["site_calls"] = tracer.site_calls
            spans = RESULTS / f"spans-{name}.json"
            tracer.dump(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        else:
            result = measure(name, seed, seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)
    result["versions"] = versions()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
