"""Monte Carlo experiment engine: paired trials, sweeps, and curves.

Every trial draws one dataset and shows it to every configured method, so
method comparisons are paired.  ``run_trial`` records a trial as a float
array with one row (correct, defaulted, theta) per method, NaN where a
method has no threshold; the trial's seed and test-vector label regenerate
its dataset.  ``_trial_plan`` seeds trial j of every study
with derive_seed(base_seed, *key, j) (see ``seeds``): key (cell,) for a
study cell, (0,) for the curves, () for the a priori Monte Carlo in
``tuning``.  Test-vector labels alternate X, Y, X, Y, ..., so success rates
are balanced averages of the two conditional accuracies, and the reported
standard error is the binomial sqrt(rate * (1 - rate) / trials).

``_run_cells`` is the one engine for the trials of every study: it checks and
calibrates every cell in this process first, then scores all the trials with
the study's per-trial function, serially or on a single process pool whose
forked workers inherit the calibration.  Results are reproducible bit-for-bit
and independent of execution order, so parallel runs equal serial ones.

Provided studies:

* ``estimate_success_rate`` - per-method success rates on one scenario.
* ``sweep_beta_r`` - a grid over (beta, r) sparsity/signal exponents, with a
  per-cell dominance map (ties resolve toward a robust method and are
  flagged).  Degenerate cells are skipped, not failed.
* ``threshold_distribution`` - histogram of selected thresholds as a
  proportion of the shift amount, plus the defaulted fraction.
* ``success_vs_threshold`` / ``success_vs_c`` - success curves over a fixed
  threshold grid (selection bypassed) or over the critical-value slope c,
  sharing one dataset per trial across the whole grid and overlaying the
  standard nearest-neighbor rate measured on the same trials.
* ``sample_size_study`` - success rates across (m, n) training-size pairs.

Worker processes are capped by a study's ``workers`` argument, else by the
ROBUSTNN_THREADS environment variable (0: one worker per CPU; the curves and
the a priori Monte Carlo read only the variable); the default is serial.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .classifier import (
    MethodSpec,
    RobustMethod,
    StandardNNMethod,
    _first_firing,
    classify_nn_standard,
    evaluate_method,
    make_method,
    select_threshold,
    threshold_scan,
    zp_value,
)
from .datagen import DegenerateScenarioError, GeneratedData, Scenario, checked_shift_amount
from .datagen import _calibration_sample, generate, shift_amount
from .errors import ConfigurationError, ParameterError
from .seeds import derive_seed

__all__ = [
    "MethodRate",
    "SweepGrid",
    "ThresholdDistribution",
    "SuccessCurve",
    "SampleSizeRow",
    "run_trial",
    "estimate_success_rate",
    "sweep_beta_r",
    "threshold_distribution",
    "success_vs_threshold",
    "success_vs_c",
    "sample_size_study",
    "resolve_workers",
    "write_curve_csv",
    "write_histogram_csv",
    "write_sample_size_csv",
]

THREADS_ENV = "ROBUSTNN_THREADS"


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else ROBUSTNN_THREADS, else 1 (serial)."""
    if workers is None:
        raw = os.environ.get(THREADS_ENV)
        if raw is None:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{THREADS_ENV} must be a nonnegative integer, got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 0:
        raise ConfigurationError(f"worker count must be nonnegative, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def _trial_plan(trials: int, base_seed: int, key: tuple[int, ...]) -> list[tuple[int, str]]:
    """Seed and test-vector label of every trial: derive_seed(base_seed, *key, j), X on even j."""
    return [(derive_seed(base_seed, *key, j), "X" if j % 2 == 0 else "Y") for j in range(trials)]


def _draw(scenario: Scenario, seed: int, z_from: str | None) -> GeneratedData:
    """The dataset of one trial; a None label is a fair coin from the trial's stream."""
    rng = np.random.default_rng(seed)
    if z_from is None:
        z_from = "X" if rng.random() < 0.5 else "Y"
    return generate(scenario, z_from, rng)


def run_trial(
    scenario: Scenario,
    methods: Sequence[MethodSpec],
    seed: int,
    z_from: str | None = None,
) -> np.ndarray:
    """Draw one dataset from ``seed`` and score every method on it.

    Returns one float row ``(correct, defaulted, theta)`` per method, in order,
    NaN where a method has no threshold.  ``z_from`` forces the test-vector
    label; when None it is a fair coin from the trial's own stream.
    """
    data = _draw(scenario, seed, z_from)
    rows = []
    for method in methods:
        label, theta, defaulted = evaluate_method(data.x_samples, data.y_samples, data.z, method)
        rows.append((label == data.z_label, defaulted, theta))
    return np.array(rows, dtype=float)  # None becomes NaN


@dataclass(frozen=True)
class MethodRate:
    """Aggregated success for one method over a common trial set."""

    method: str
    rate: float
    se: float
    trials: int
    defaulted_fraction: float | None = None


def _run_cells(
    cells: Sequence[tuple[Scenario, tuple[int, ...]]],
    score: Callable,
    arg,
    trials: int,
    base_seed: int,
    workers: int | None,
) -> list[list]:
    """Per-trial ``score(scenario, arg, seed, z_from)`` of every (scenario, seed
    key) cell of one study; ``score`` is module-level, so a pool can pickle it.

    A degenerate cell raises DegenerateScenarioError before any trial runs.
    """
    if trials < 1:
        raise ParameterError(f"trials must be positive, got {trials}")
    for scenario, _ in cells:
        checked_shift_amount(scenario)
    _calibration_sample.cache_clear()  # workers inherit the amounts, not the sample
    tasks = [
        (scenario, arg, seed, z_from)
        for scenario, key in cells
        for seed, z_from in _trial_plan(trials, base_seed, key)
    ]
    count = resolve_workers(workers)
    if count <= 1 or len(tasks) < 2 * count:
        results = [score(*task) for task in tasks]
    else:
        # Chunks sized on one cell keep the workers' shares even to the end.
        chunk = max(1, trials // (count * 4))
        with ProcessPoolExecutor(max_workers=count) as pool:
            results = list(pool.map(score, *zip(*tasks), chunksize=chunk))
    return [results[k * trials : (k + 1) * trials] for k in range(len(cells))]


def _method_names(methods: Sequence[MethodSpec]) -> tuple[str, ...]:
    """The names of a study's methods: at least one, and no name twice."""
    names = tuple(method.name for method in methods)
    if not names:
        raise ParameterError("a study needs at least one method")
    if len(set(names)) != len(names):
        raise ParameterError(f"method names must be distinct, got {names}")
    return names


def _rates(
    cells: Sequence[tuple[Scenario, tuple[int, ...]]],
    methods: Sequence[MethodSpec],
    trials: int,
    base_seed: int,
    workers: int | None,
) -> list[dict[str, MethodRate]]:
    """Per cell, the rates of ``methods`` keyed by name, over ``run_trial``'s
    rows; an empty list, or a name given twice, is rejected before any trial
    runs."""
    names = _method_names(methods)
    out = []
    for per_trial in _run_cells(cells, run_trial, methods, trials, base_seed, workers):
        rates = {}
        for name, (hits, defaults, _) in zip(names, np.sum(per_trial, axis=0)):
            rate = float(hits) / trials
            rates[name] = MethodRate(
                method=name,
                rate=rate,
                se=math.sqrt(rate * (1.0 - rate) / trials),
                trials=trials,
                defaulted_fraction=None if math.isnan(defaults) else float(defaults) / trials,
            )
        out.append(rates)
    return out


def estimate_success_rate(
    scenario: Scenario,
    methods: Sequence[MethodSpec],
    trials: int,
    base_seed: int,
    *,
    cell_index: int = 0,
    workers: int | None = None,
) -> dict[str, MethodRate]:
    """Balanced paired success rates for every method on one scenario."""
    return _rates([(scenario, (cell_index,))], methods, trials, base_seed, workers)[0]


@dataclass(frozen=True)
class DominanceCell:
    method: str
    tied: bool


@dataclass
class SweepGrid:
    """Success rates over a (beta, r) grid with a per-cell dominance map."""

    beta_axis: tuple[float, ...]
    r_axis: tuple[float, ...]
    methods: tuple[str, ...]
    cells: dict[tuple[int, int, str], MethodRate]
    dominance: dict[tuple[int, int], DominanceCell]
    skipped: set[tuple[int, int]]
    trials: int

    def rate(self, bi: int, ri: int, method: str) -> MethodRate:
        return self.cells[(bi, ri, method)]

    def to_long_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beta", "r", "method", "rate", "se", "trials"])
            for bi, beta in enumerate(self.beta_axis):
                for ri, r in enumerate(self.r_axis):
                    if (bi, ri) in self.skipped:
                        continue
                    for name in self.methods:
                        cell = self.cells[(bi, ri, name)]
                        writer.writerow(
                            [repr(beta), repr(r), name, repr(cell.rate), repr(cell.se), cell.trials]
                        )

    def to_dominance_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beta"] + [repr(r) for r in self.r_axis])
            for bi, beta in enumerate(self.beta_axis):
                row: list[str] = [repr(beta)]
                for ri in range(len(self.r_axis)):
                    if (bi, ri) in self.skipped:
                        row.append("skipped")
                    else:
                        cell = self.dominance[(bi, ri)]
                        row.append(cell.method + ("*" if cell.tied else ""))
                writer.writerow(row)


def _dominant(methods: Sequence[MethodSpec], rates: dict[str, MethodRate]) -> DominanceCell:
    best = max(rate.rate for rate in rates.values())
    tied = [method for method in methods if rates[method.name].rate == best]
    # Break ties toward a robust method, then method order.
    first = next((method for method in tied if isinstance(method, RobustMethod)), tied[0])
    return DominanceCell(method=first.name, tied=len(tied) > 1)


def sweep_beta_r(
    beta_grid: Sequence[float],
    r_grid: Sequence[float],
    template: Scenario,
    methods: Sequence[MethodSpec],
    trials_per_cell: int,
    base_seed: int,
    *,
    workers: int | None = None,
) -> SweepGrid:
    """Run every (beta, r) cell of the grid; degenerate cells are skipped."""
    beta_axis = tuple(float(b) for b in beta_grid)
    r_axis = tuple(float(r) for r in r_grid)
    if not beta_axis or not r_axis:
        raise ParameterError("beta_grid and r_grid must be nonempty")
    names = _method_names(methods)  # before any cell is calibrated
    live: dict[tuple[int, int], tuple[Scenario, tuple[int]]] = {}
    skipped: set[tuple[int, int]] = set()
    for bi, beta in enumerate(beta_axis):
        for ri, r in enumerate(r_axis):
            scenario = replace(template, beta=beta, r=r)
            try:
                checked_shift_amount(scenario)
            except DegenerateScenarioError:
                skipped.add((bi, ri))
                continue
            live[(bi, ri)] = (scenario, (bi * len(r_axis) + ri,))
    rates = _rates(list(live.values()), methods, trials_per_cell, base_seed, workers)
    by_cell = dict(zip(live, rates))
    return SweepGrid(
        beta_axis=beta_axis,
        r_axis=r_axis,
        methods=names,
        cells={(*at, name): rate for at, cell in by_cell.items() for name, rate in cell.items()},
        dominance={at: _dominant(methods, cell) for at, cell in by_cell.items()},
        skipped=skipped,
        trials=trials_per_cell,
    )


@dataclass(frozen=True)
class ThresholdDistribution:
    """Histogram of selected thresholds, normalized by the shift amount."""

    bin_left: np.ndarray
    bin_right: np.ndarray
    proportion: np.ndarray
    defaulted_fraction: float
    thetas: np.ndarray
    shift: float


def threshold_distribution(
    scenario: Scenario,
    trials: int,
    c_value: float,
    base_seed: int,
    *,
    bins: int = 20,
    workers: int | None = None,
    rule: str = "independent_sqrt_logp",
) -> ThresholdDistribution:
    """Distribution of theta / shift over trials for the robust classifier.

    The histogram covers non-defaulted selections (proportions sum to 1 when
    any exist); the defaulted fraction is reported separately.
    """
    method = make_method("robust", rule, c_value)
    per_trial = _run_cells([(scenario, (0,))], run_trial, [method], trials, base_seed, workers)[0]
    shift = shift_amount(scenario)
    _, defaulted, theta = np.concatenate(per_trial).T
    thetas = theta[defaulted == 0] / shift
    if thetas.size:
        counts, edges = np.histogram(thetas, bins=bins)
        proportion = counts / thetas.size
        bin_left, bin_right = edges[:-1], edges[1:]
    else:
        bin_left = bin_right = proportion = np.array([])
    return ThresholdDistribution(
        bin_left=bin_left,
        bin_right=bin_right,
        proportion=proportion,
        defaulted_fraction=float(defaulted.sum()) / trials,
        thetas=thetas,
        shift=shift,
    )


@dataclass(frozen=True)
class SuccessCurve:
    """Success rate across a parameter grid, with a paired NN reference."""

    xs: np.ndarray
    rates: np.ndarray
    ses: np.ndarray
    defaulted_fractions: np.ndarray | None
    nn_rate: float
    nn_se: float
    trials: int
    x_name: str


def _success_curve(xs, x_name, trials, correct, nn_correct, defaulted_fractions=None):
    rates = correct / trials
    nn_rate = nn_correct / trials
    return SuccessCurve(
        xs=xs,
        rates=rates,
        ses=np.sqrt(rates * (1.0 - rates) / trials),
        defaulted_fractions=defaulted_fractions,
        nn_rate=nn_rate,
        nn_se=math.sqrt(nn_rate * (1.0 - nn_rate) / trials),
        trials=trials,
        x_name=x_name,
    )


def _t_grid_trial(scenario: Scenario, ts: np.ndarray, seed: int, z_from: str):
    """One curve trial: the correct flags of 1(T(t) > 0) over ``ts``, and NN's."""
    data = _draw(scenario, seed, z_from)
    T, _, _, _ = threshold_scan(data.x_samples, data.y_samples, data.z, ts)
    nn = classify_nn_standard(data.x_samples, data.y_samples, data.z)
    return np.where(T <= 0, "X", "Y") == data.z_label, nn == data.z_label


def success_vs_threshold(
    scenario: Scenario,
    t_grid: Sequence[float],
    trials: int,
    base_seed: int,
) -> SuccessCurve:
    """Success of the fixed-threshold classifier over a grid of thresholds.

    Grid values are proportions of the shift amount.  Selection is bypassed:
    the label is simply 1(T(t) > 0).  Every grid point and the NN reference
    are scored on the same per-trial datasets.
    """
    props = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if props.size == 0 or np.isnan(props).any():
        raise ParameterError(f"t_grid must be nonempty and free of NaN, got {props.tolist()}")
    ts = props * shift_amount(scenario)
    per_trial = _run_cells([(scenario, (0,))], _t_grid_trial, ts, trials, base_seed, None)[0]
    correct, nn_correct = (sum(flags) for flags in zip(*per_trial))
    return _success_curve(props, "t_over_shift", trials, correct, nn_correct)


def _c_grid_trial(scenario: Scenario, arg, seed: int, z_from: str):
    """One curve trial: correct and defaulted flags over ``arg = (method, z_ps)``, and NN's."""
    method, z_ps = arg
    data = _draw(scenario, seed, z_from)
    X, Y, z = data.x_samples, data.y_samples, data.z
    trace = select_threshold(X, Y, z, rule=method.rule, xi_or_c=method.xi_or_c, t0=method.t0).trace
    hits = [_first_firing(trace.T, trace.S2, z_p) for z_p in z_ps]
    defaulted = np.array([hit is None for hit in hits])
    labels = np.where(trace.T[[0 if hit is None else hit for hit in hits]] <= 0, "X", "Y")
    return labels == data.z_label, defaulted, classify_nn_standard(X, Y, z) == data.z_label


def success_vs_c(
    scenario: Scenario,
    c_grid: Sequence[float],
    trials: int,
    base_seed: int,
    *,
    rule: str = "independent_sqrt_logp",
    t0: float | None = None,
) -> SuccessCurve:
    """Success of the robust classifier as the critical-value slope varies.

    One dataset (and one breakpoint scan) per trial serves every c value;
    the NN reference uses the same trials.
    """
    cs = np.atleast_1d(np.asarray(c_grid, dtype=float))
    if cs.size == 0:
        raise ParameterError("c_grid must be nonempty")
    z_ps = np.array([zp_value(rule, scenario.p, c) for c in cs])
    arg = (RobustMethod(rule=rule, xi_or_c=cs[0], t0=t0), z_ps)
    per_trial = _run_cells([(scenario, (0,))], _c_grid_trial, arg, trials, base_seed, None)[0]
    correct, defaulted, nn_correct = (sum(flags) for flags in zip(*per_trial))
    return _success_curve(cs, "c", trials, correct, nn_correct, defaulted / trials)


@dataclass(frozen=True)
class SampleSizeRow:
    m: int
    n: int
    method: str
    rate: float
    se: float
    trials: int


def sample_size_study(
    template: Scenario,
    mn_pairs: Sequence[tuple[int, int]],
    trials: int,
    base_seed: int,
    *,
    methods: Sequence[MethodSpec] | None = None,
    workers: int | None = None,
) -> list[SampleSizeRow]:
    """Success rates across training-sample-size pairs (m, n)."""
    if methods is None:
        methods = [RobustMethod(), StandardNNMethod()]
    if not mn_pairs:
        raise ParameterError("mn_pairs must be nonempty")
    pairs = [(int(m), int(n)) for m, n in mn_pairs]
    cells = [(replace(template, m=m, n=n), (k,)) for k, (m, n) in enumerate(pairs)]
    return [
        SampleSizeRow(m=m, n=n, method=name, rate=rate.rate, se=rate.se, trials=trials)
        for (m, n), rates in zip(pairs, _rates(cells, methods, trials, base_seed, workers))
        for name, rate in rates.items()
    ]


def write_curve_csv(path, xs, values, x_name: str = "t") -> None:
    """Two-column CSV: grid value, curve value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([x_name, "value"])
        for x, v in zip(xs, values):
            writer.writerow([repr(float(x)), repr(float(v))])


def write_histogram_csv(path, dist: ThresholdDistribution) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "proportion"])
        for left, right, prop in zip(dist.bin_left, dist.bin_right, dist.proportion):
            writer.writerow([repr(float(left)), repr(float(right)), repr(float(prop))])


def write_sample_size_csv(path, rows: Sequence[SampleSizeRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "method", "rate", "se", "trials"])
        for row in rows:
            writer.writerow([row.m, row.n, row.method, repr(row.rate), repr(row.se), row.trials])
