"""The benchmark workloads.

Each workload runs in the current working directory, which the child process
makes a fresh scratch directory.  Its inputs come from the seed alone.  A
*pass* is the unit a user waits for: one ``cv`` plus one ``loo`` command, or
one ``sweep`` command.  Every pass of a run repeats the same inputs, so its
outputs must repeat bit for bit.

Calls into the package go through module attributes (``experiments.run_trial``,
``cli.dispatch``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import robustnn.classifier as classifier
import robustnn.cli as cli
import robustnn.config as config
import robustnn.datagen as datagen
import robustnn.dataset as dataset
import robustnn.experiments as experiments
import robustnn.tuning as tuning
from robustnn.datagen import Scenario
from robustnn.seeds import derive_seed

# Robust decisions re-derived with the brute-force compute_T_S in every run.
BRUTE_SAMPLES = 4

_SHIFT_AMOUNT = datagen.shift_amount


def reset_caches() -> None:
    """Forget calibrated shift amounts, as a fresh CLI process would."""
    _SHIFT_AMOUNT.cache_clear()


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


@dataclass
class Op:
    """One operation of a pass: a CLI command."""

    name: str
    seconds: float
    digest: str | None  # None when the operation raised or exited non-zero


@dataclass
class Pass:
    ops: list[Op]
    trials: int
    wall: float = 0.0
    cpu: float = 0.0
    ref: float = 0.0
    kind: str = ""
    span_range: tuple[int, int] = (0, 0)
    checks_failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return sha(*[str(op.digest).encode() for op in self.ops])


def _run_command(argv: list[str], outputs: list[str]) -> Op:
    """Run one CLI command in-process; its digest covers stdout and output files."""
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.dispatch(argv)
    except Exception:
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    if code != 0:
        return Op(argv[0], seconds, None)
    files = [Path(name).read_bytes() for name in outputs]
    return Op(argv[0], seconds, sha(stdout.getvalue().encode(), *files))


def brute_force_mismatch(X, Y, z, kwargs, theta=None, defaulted=None, correct=None,
                         z_from=None) -> str | None:
    """Re-derive one robust decision and check it against compute_T_S.

    The scan's T and S^2 at the selected theta must equal the brute-force
    values, and the label they give must match what the run reported.
    Returns a description of the first mismatch, or None.
    """
    decision = classifier.select_threshold(X, Y, z, **kwargs)
    index = decision.theta_index
    brute = classifier.compute_T_S(X, Y, z, decision.theta)
    if (brute.T, brute.S2) != (int(decision.trace.T[index]), int(decision.trace.S2[index])):
        return f"scan T/S2 {decision.trace.T[index]}/{decision.trace.S2[index]} != brute {brute.T}/{brute.S2}"
    if theta is not None and (decision.theta != theta or decision.defaulted != defaulted):
        return f"theta {decision.theta!r} != reported {theta!r}"
    label = "X" if brute.T <= 0 else "Y"
    if correct is not None and (label == z_from) != correct:
        return f"brute-force label {label} contradicts the reported outcome"
    return None


class DatasetCli:
    """The CLI in-process on a generated CSV: ``cv`` then ``loo --method robust``."""

    name = "dataset_cli_p2k"
    CONFIG = "[scenario]\np = 2000\nm = 10\nn = 10\nmarginal = student_t df=3\n"
    main_variant = "main"
    trace_plan = ((), (("main", None), ("main", "full")))
    CV = (["cv", "--data", "data.csv", "--out", "cv.json"], ["cv.json", "cv.manifest.json"])
    LOO = (
        ["loo", "--data", "data.csv", "--method", "robust", "--out", "loo.json"],
        ["loo.json", "loo.manifest.json"],
    )

    def setup(self, seed: int) -> None:
        Path("dataset.ini").write_text(self.CONFIG)
        argv = ["gen", "--config", "dataset.ini", "--seed", str(seed), "--out", "data.csv"]
        gen = _run_command(argv, ["data.csv", "data.manifest.json"])
        if gen.digest is None:
            raise RuntimeError("gen failed; the workload has no input")
        self._input = gen.digest.encode()
        self._rows = len(dataset.load_dataset("data.csv").labels)
        _run_command(["classify", "--data", "data.csv", "--out", "warmup.json"], [])

    def input_digest(self) -> bytes:
        return self._input

    def run_pass(self, seed: int, variant: str = "main") -> Pass:
        # Each LOO fold classifies one held-out row: one trial per row.
        return Pass([_run_command(*self.CV), _run_command(*self.LOO)], trials=self._rows)

    def memory_pass(self, seed: int) -> None:
        self.run_pass(seed)

    def brute_check(self, seed: int, first: Pass) -> list[str]:
        """Re-derive the LOO confusion fold by fold and CV at theta_cv directly."""
        data = dataset.load_dataset("data.csv")
        first_label, second_label = data.class_labels
        labels = np.array(data.labels)
        picks = set(np.random.default_rng(seed).choice(len(labels), BRUTE_SAMPLES, replace=False))
        problems = []
        confusion: dict[str, int] = {}
        for i in range(len(labels)):
            keep = np.arange(len(labels)) != i
            X = data.samples[keep][labels[keep] == first_label]
            Y = data.samples[keep][labels[keep] == second_label]
            label, _ = classifier.classify_robust(X, Y, data.samples[i])
            predicted = first_label if label == "X" else second_label
            key = f"{labels[i]}->{predicted}"
            confusion[key] = confusion.get(key, 0) + 1
            if i in picks:
                problem = brute_force_mismatch(X, Y, data.samples[i], {})
                if problem:
                    problems.append(f"fold {i}: {problem}")
        reported = json.loads(Path("loo.json").read_text())["confusion"]
        if {k: v for k, v in reported.items() if v} != confusion:
            problems.append(f"LOO confusion {reported} != re-derived {confusion}")
        cv = json.loads(Path("cv.json").read_text())
        direct = tuning.cv_error(
            cv["theta_cv"], data.rows_of(first_label), data.rows_of(second_label)
        )
        if direct != cv["cv_minimum"]:
            problems.append(f"cv_error(theta_cv) = {direct!r} != reported {cv['cv_minimum']!r}")
        return problems


class SweepExpMA:
    """``sweep --workers 2`` over a 3x3 (beta, r) grid with ExpMA dependence."""

    name = "sweep_expma_w2"
    WORKERS = 2
    CONFIG = """\
[scenario]
p = 20000
dependence = exp_ma decay=0.5 alpha_range=0.5,2
[methods]
methods = robust, nn, extrema
robust_rule = dependent
robust_c = 0.16
[sweep]
beta_grid = {beta}
r_grid = {r}
trials = {trials}
"""
    GRID = dict(beta="0.55, 0.7, 0.85", r="0.3, 0.5, 0.7", trials=20)
    TRIALS = 9 * 20
    main_variant = "parallel"
    trace_plan = ((("serial", None),), (("parallel", "coarse"), ("serial", "full")))

    def _argv(self, seed: int, workers: int, out: str, cfg: str = "sweep.ini") -> list[str]:
        return ["sweep", "--config", cfg, "--seed", str(seed),
                "--workers", str(workers), "--out", out]

    @staticmethod
    def _outputs(stem: str) -> list[str]:
        return [f"{stem}.csv", f"{stem}_dominance.csv", f"{stem}.manifest.json"]

    def setup(self, seed: int) -> None:
        Path("sweep.ini").write_text(self.CONFIG.format(**self.GRID))
        Path("warmup.ini").write_text(self.CONFIG.format(beta="0.7", r="0.5", trials=4))
        _run_command(self._argv(seed, self.WORKERS, "warmup.csv", "warmup.ini"), [])

    def input_digest(self) -> bytes:
        return b""

    def run_pass(self, seed: int, variant: str = "parallel") -> Pass:
        if variant == "parallel":
            op = _run_command(self._argv(seed, self.WORKERS, "grid.csv"), self._outputs("grid"))
            return Pass([op], trials=self.TRIALS)
        op = _run_command(self._argv(seed, 1, "serial.csv"), self._outputs("serial"))
        result = Pass([op], trials=self.TRIALS)
        # The serial run must reproduce the parallel run's rates and dominance map.
        for a, b in (("serial.csv", "grid.csv"), ("serial_dominance.csv", "grid_dominance.csv")):
            if Path(b).exists() and Path(a).read_bytes() != Path(b).read_bytes():
                result.checks_failed += 1
                result.notes.append(f"serial {a} differs from parallel {b}")
        return result

    def _template(self, seed: int) -> tuple[Scenario, list]:
        parser = config.load_config("sweep.ini")
        return config.scenario_from_config(parser, seed=str(seed)), config.methods_from_config(parser)

    def memory_pass(self, seed: int) -> None:
        template, methods = self._template(seed)
        scenario = replace(template, beta=0.55, r=0.3)
        for j in range(4):
            experiments.run_trial(scenario, methods, derive_seed(seed, 0, j), "XY"[j % 2])

    def brute_check(self, seed: int, first: Pass) -> list[str]:
        template, methods = self._template(seed)
        robust = methods[0]
        betas = [float(b) for b in self.GRID["beta"].split(",")]
        rs = [float(r) for r in self.GRID["r"].split(",")]
        rng = np.random.default_rng(seed)
        problems = []
        for _ in range(2):  # each sample regenerates an ExpMA draw and recalibrates
            cell, j = int(rng.integers(9)), int(rng.integers(self.GRID["trials"]))
            scenario = replace(template, beta=betas[cell // 3], r=rs[cell % 3])
            z_from = "X" if j % 2 == 0 else "Y"
            data = datagen.generate(
                scenario, z_from, np.random.default_rng(derive_seed(seed, cell, j))
            )
            problem = brute_force_mismatch(
                data.x_samples, data.y_samples, data.z,
                {"rule": robust.rule, "xi_or_c": robust.xi_or_c},
            )
            if problem:
                problems.append(f"cell {cell} trial {j}: {problem}")
        return problems


WORKLOADS = {w.name: w for w in (DatasetCli, SweepExpMA)}
