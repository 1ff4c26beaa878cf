"""Imports: the package exports the union of its modules' lists, every export
resolves, the README quick start runs, scipy stays off the import path (each
scipy submodule loads in the function using it), and the CV tuner stands on
the classifier alone."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import robustnn

SRC = str(Path(robustnn.__file__).resolve().parent.parent)
README = Path(SRC).parent / "README.md"

SWEEP_EXPMA = """\
[scenario]
p = 200
dependence = exp_ma decay=0.5 alpha_range=0.5,2
[methods]
methods = robust, nn, extrema
robust_rule = dependent
[sweep]
beta_grid = 0.6
r_grid = 0.5
trials = 3
"""


def scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """Run ``code`` in a fresh interpreter and list the scipy modules it loaded."""
    probe = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", code + probe],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import robustnn, robustnn.cli", tmp_path) == []


def test_exp_ma_sweep_loads_no_scipy(tmp_path):
    # Serial, so the trials run in this process: forked workers run the same code.
    (tmp_path / "sweep.ini").write_text(SWEEP_EXPMA)
    code = (
        "from robustnn.cli import dispatch\n"
        "assert dispatch(['sweep', '--config', 'sweep.ini', '--out', 'out.csv',"
        " '--workers', '1']) == 0\n"
    )
    assert scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "out.csv").stat().st_size > 0


def test_student_t_scale_loads_only_scipy_special(tmp_path):
    code = (
        "from robustnn import StudentT, solve_scale\n"
        "solve_scale(StudentT(4.0), 2000, 0.5)\n"
    )
    loaded = scipy_modules_after(code, tmp_path)
    assert "scipy.special" in loaded
    for heavy in ("scipy.stats", "scipy.optimize", "scipy.signal"):
        assert not any(m == heavy or m.startswith(heavy + ".") for m in loaded), heavy


LIBRARY_MODULES = (
    "classifier", "config", "datagen", "dataset", "distributions",
    "errors", "experiments", "seeds", "tuning",
)


def test_every_export_resolves():
    modules = [robustnn] + [
        importlib.import_module(f"robustnn.{info.name}")
        for info in pkgutil.iter_modules(robustnn.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_package_exports_are_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"robustnn.{name}") for name in LIBRARY_MODULES]
    assert robustnn.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert len(set(robustnn.__all__)) == len(robustnn.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(robustnn, name) is getattr(module, name), name
    assert "dispatch" not in robustnn.__all__ and "main" not in robustnn.__all__


def test_readme_quick_start_runs(tmp_path):
    quick_start = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_tuning_imports_only_the_classifier_and_errors():
    tree = ast.parse((Path(robustnn.__file__).parent / "tuning.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import ..., from . import x
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names if alias.name.startswith("robustnn")}
    assert imported == {"classifier", "errors"}
