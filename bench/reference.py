"""Expected outputs of every workload variant, and the check of a
command's outputs against them.

Outputs are compared as text split around numbers: the text between
numbers must be equal, integers must be equal, and every other number
must agree within 1e-12 or within one unit of its last printed digit,
whichever is looser.  The scan CSV prints 17 significant digits, so its
gamma and margin columns are held to 1e-12; values printed with fewer
digits are held to their printed precision.

    python3 bench/reference.py

records ``reference.json`` from the current code.  It was recorded once,
at the commit that added the benchmark; later commits are checked
against it.
"""

import json
import re
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"

ABS_TOL = 1e-12

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def load():
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _printed_unit(token):
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def text_mismatch(expected, actual):
    """None when ``actual`` matches ``expected``, else a short reason."""
    exp_parts = _NUMBER.split(expected)
    act_parts = _NUMBER.split(actual)
    if len(exp_parts) != len(act_parts):
        return f"{len(act_parts) // 2} numbers where {len(exp_parts) // 2} were expected"
    for k, (e, a) in enumerate(zip(exp_parts, act_parts)):
        if e == a:
            continue
        if k % 2 == 0:
            return f"text {a!r} where {e!r} was expected"
        if not any(c in e for c in ".eE"):
            return f"integer {a} where {e} was expected"
        tol = max(ABS_TOL, _printed_unit(e))
        if abs(float(a) - float(e)) > tol * (1 + 1e-9):
            return f"{a} differs from the expected {e} by more than {tol:g}"
    return None


def outputs_mismatch(expected, actual):
    """Compare one command's outputs (exit code, stdout, written files)."""
    if actual["exit"] != expected["exit"]:
        return f"exit code {actual['exit']} where {expected['exit']} was expected"
    problem = text_mismatch(expected["stdout"], actual["stdout"])
    if problem:
        return f"stdout: {problem}"
    for name, text in expected["files"].items():
        if actual["files"].get(name) is None:
            return f"{name} was not written"
        problem = text_mismatch(text, actual["files"][name])
        if problem:
            return f"{name}: {problem}"
    return None


def record():
    """Run every variant of every workload once and store its outputs."""
    import os
    import tempfile

    import child
    from workloads import WORKLOADS

    refs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=PATH.parent) as tmp:
        os.chdir(tmp)
        try:
            for wl in WORKLOADS.values():
                refs[wl.name] = []
                for variant in range(len(wl.variants)):
                    _, outputs, _ = child.run_command(wl.argv(variant), wl.files)
                    if outputs["exit"] != 0:
                        raise SystemExit(f"{wl.name} variant {variant}: {outputs}")
                    refs[wl.name].append(outputs)
        finally:
            os.chdir(cwd)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record()
