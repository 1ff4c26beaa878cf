"""Imports: every export resolves, and scipy stays off the import path (each
scipy submodule loads in the function using it)."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import robustnn

SRC = str(Path(robustnn.__file__).resolve().parent.parent)

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


def test_every_export_resolves():
    modules = [robustnn] + [
        importlib.import_module(f"robustnn.{info.name}")
        for info in pkgutil.iter_modules(robustnn.__path__)
    ]
    for module in modules:  # errors.py has no __all__
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
