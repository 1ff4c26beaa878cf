"""Golden digests of every CLI subcommand at a tiny config.

Each digest is the sha256 of the command's stdout followed by every file it
writes (outputs and manifest), in a fixed order.  Paths are relative to a
fresh working directory, so the manifests are location-independent.  A
refactor that keeps the numbers, the file layouts and the messages keeps
every digest; any intended change to them must update this table and say so.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from robustnn.cli import dispatch

DATA_INI = "[scenario]\np = 200\nm = 4\nn = 4\nbeta = 0.6\nr = 0.7\nseed = 3\n"

STUDY_INI = """\
[scenario]
p = 200
beta = 0.6
r = 0.7
seed = 5
[methods]
methods = robust, nn, extrema
[sweep]
beta_grid = 0.6, 0.8
r_grid = 0.1, 0.7
trials = 6
[curves]
t_grid = 0.2, 0.6, 1.0
c_grid = 0.3, 0.6
trials = 6
[threshold_dist]
trials = 8
c = 0.4
bins = 4
[apriori]
t_grid = 0.0:2.0:0.5
method = monte_carlo
trials = 6
[sample_size]
pairs = 1,1; 2,1
trials = 4
"""

EXPMA_INI = """\
[scenario]
p = 200
beta = 0.6
r = 0.6
dependence = exp_ma decay=0.5 alpha_range=0.5,2
seed = 7
[methods]
methods = robust, nn
robust_rule = dependent
robust_c = 0.16
[sweep]
beta_grid = 0.6, 0.8
r_grid = 0.6
trials = 4
"""

# name: (argv, files written).  The sweep's r = 0.1 column is degenerate at
# p = 200 (the calibrated shift is negative), so both its cells are skipped.
COMMANDS = {
    "gen": (
        ["gen", "--config", "data.ini", "--out", "data.csv"],
        ["data.csv", "data.manifest.json"],
    ),
    "classify": (
        ["classify", "--data", "data.csv", "--out", "classify.json"],
        ["classify.json", "classify.manifest.json"],
    ),
    "cv": (
        ["cv", "--data", "data.csv", "--out", "cv.json"],
        ["cv.json", "cv.manifest.json"],
    ),
    "loo": (
        ["loo", "--data", "data.csv", "--method", "robust", "--out", "loo.json"],
        ["loo.json", "loo.manifest.json"],
    ),
    "sweep": (
        ["sweep", "--config", "study.ini", "--out", "grid.csv"],
        ["grid.csv", "grid_dominance.csv", "grid.manifest.json"],
    ),
    "sweep_expma_w2": (
        ["sweep", "--config", "expma.ini", "--workers", "2", "--out", "em.csv"],
        ["em.csv", "em_dominance.csv", "em.manifest.json"],
    ),
    "threshold_dist": (
        ["threshold-dist", "--config", "study.ini", "--out", "hist.csv"],
        ["hist.csv", "hist.manifest.json"],
    ),
    "curves_c": (
        ["curves", "--config", "study.ini", "--kind", "c", "--out", "cc.csv"],
        ["cc.csv", "cc.json", "cc.manifest.json"],
    ),
    "curves_threshold": (
        ["curves", "--config", "study.ini", "--kind", "threshold", "--out", "ct.csv"],
        ["ct.csv", "ct.json", "ct.manifest.json"],
    ),
    "apriori_monte_carlo": (
        ["apriori", "--config", "study.ini", "--out", "apmc.csv"],
        ["apmc.csv", "apmc.manifest.json"],
    ),
    "apriori_normal_approx": (
        ["apriori", "--config", "approx.ini", "--out", "apna.csv"],
        ["apna.csv", "apna.manifest.json"],
    ),
    "sample_size": (
        ["sample-size", "--config", "study.ini", "--out", "ss.csv"],
        ["ss.csv", "ss.manifest.json"],
    ),
}

GOLDEN = {
    "gen": "84f16a7852dd682760429b3fc02f6f67eeb910bd274e19e3a125ecea69c6f5b4",
    "classify": "91ec23900d88290935bddc62f7f351606e0cc101aa0d18f70cf8eb2256fb90e7",
    "cv": "bab9244b9ea3ab03fa013db8eda48a558ee3acd9cd2eaa158b60c2a42d5c94e0",
    "loo": "004e38f97e35192297800a2e9ae6b84304691128318974aa2f9f0de2e49fa6fb",
    "sweep": "d7f477c51123d372930dd9ca39edfd43a0f04b8e0610f120e863f382bbe6fc24",
    "sweep_expma_w2": "78a9f0219b2ce115ab55bc78d2907da04755e078261152138cb051032289cc56",
    "threshold_dist": "bb731798f49f511ebd06bc6dedfa4fdfbb21c723620d33a33c28724f1db1e150",
    "curves_c": "8cec12934721d47d334cec15144551ba43c8f014760eba18b8aeb16b96c36dda",
    "curves_threshold": "90e4e95291385d1bb963f4addea3b389c404f313783f4fcebf07708f3848ce8f",
    "apriori_monte_carlo": "abc7cff718d283040ea1a45e92cbad2e253ba2332e0822a0a74298870772229b",
    "apriori_normal_approx": "358508b75efe26f77e5c64097a0ad7f0001e1a06bad10c1fd8ff1378871857ca",
    "sample_size": "7116e39cbbaa5101dedbd44c236730079d10c5174e768c638652032ed55529cf",
}


def _write_configs(work: Path) -> None:
    (work / "data.ini").write_text(DATA_INI)
    (work / "study.ini").write_text(STUDY_INI)
    (work / "expma.ini").write_text(EXPMA_INI)
    (work / "approx.ini").write_text(
        STUDY_INI.replace("method = monte_carlo", "method = normal_approx")
    )


def _digest(name: str) -> str:
    """Run one command in the current directory and hash what it prints and writes.

    The command must create exactly its listed files, the last of them its
    manifest, and the manifest must list every other one once.
    """
    argv, files = COMMANDS[name]
    before = set(os.listdir())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = dispatch(argv)
    assert code == 0, name
    assert sorted(set(os.listdir()) - before) == sorted(files), name
    *outputs, manifest = files
    assert json.loads(Path(manifest).read_text())["outputs"] == outputs, name
    h = hashlib.sha256(stdout.getvalue().encode())
    for file in files:
        h.update(Path(file).read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Run every command once, in order, in one fresh directory."""
    work = tmp_path_factory.mktemp("golden")
    _write_configs(work)
    old = os.getcwd()
    os.chdir(work)
    try:
        return {name: _digest(name) for name in COMMANDS}
    finally:
        os.chdir(old)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


@pytest.mark.parametrize("name", ["curves_c", "curves_threshold", "apriori_monte_carlo"])
def test_parallel_curves_match_golden_digest(tmp_path, monkeypatch, name):
    """With two workers the 6 trials of a curve or of the a priori Monte Carlo
    run on a process pool; the variable is not in argv, so even the manifest
    is the serial run's."""
    _write_configs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ROBUSTNN_THREADS", "2")
    assert _digest(name) == GOLDEN[name]
