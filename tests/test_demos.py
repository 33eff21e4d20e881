"""The demo scripts import only names the package still has.

Running the demos takes seconds each; running just their ``szegolyap``
import statements catches a demo broken by a removed export in
milliseconds.
"""

import ast
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
