"""The demo scripts import only names the package still has, and run, as
does README.md's python block.

Their ``szegolyap`` import statements alone name a demo broken by a removed
export in milliseconds; running each demo (well under a second apiece)
catches the rest.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _package_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "szegolyap" for name in names):
            yield node


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    imports = list(_package_imports(tree))
    assert imports, f"{demo.name} imports nothing from szegolyap"
    for node in imports:
        code = compile(ast.Module(body=[node], type_ignores=[]), str(demo), "exec")
        exec(code, {})


@pytest.mark.parametrize("demo", DEMOS + [ROOT / "README.md"], ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # In a scratch working directory, since demo 05 writes scan.csv and
    # scan.svg where it runs.  README.md stands for its one python block.
    if demo.suffix == ".md":
        (code,) = re.findall(r"^```python\n(.*?)^```", demo.read_text(encoding="utf-8"),
                             re.S | re.M)
        demo = tmp_path / "readme_snippet.py"
        demo.write_text(code, encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # -W as in pyproject's filterwarnings, which a subprocess does not inherit.
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
