"""Monte Carlo experiment engine: paired trials, sweeps, curves and the a priori analysis.

Every trial draws one dataset and shows it to every configured method, so
method comparisons are paired.  ``run_trial`` records a trial as a float
array with one row (correct, defaulted, theta) per method, NaN where a
method has no threshold; the trial's seed and test-vector label regenerate
its dataset.  ``_trial_plan`` seeds trial j of every study with
derive_seed(base_seed, *key, j) (see ``seeds``): key (cell,) for a study
cell, (0,) for the curves, () for the a priori Monte Carlo.  Test-vector
labels alternate X, Y, X, Y, ..., so success rates are balanced averages of
the two conditional accuracies, and the reported standard error is the
binomial sqrt(rate * (1 - rate) / trials).

``_run_cells`` is the one engine for the trials of every study: it checks and
calibrates every cell in this process first (``datagen.shift_amount``, looked
up at each call), then scores all the trials with the study's per-trial
function, serially or on a single process pool whose forked workers inherit
the calibration.  A study's ``workers`` argument is
its one source of worker processes: None (the default) is serial, 0 is one
per CPU.  Results are reproducible bit-for-bit and independent of execution
order, so parallel runs equal serial ones.

Provided studies:

* ``estimate_success_rate`` - per-method success rates on one scenario.
* ``grid_study`` - those rates on each cell of a list of Scenario field
  overrides, skipping degenerate cells: ``sweep_beta_r`` over (beta, r)
  sparsity/signal exponents, the CLI's sample-size study over (m, n) pairs.
* ``threshold_distribution`` - histogram of selected thresholds as a
  proportion of the shift amount, plus the defaulted fraction.
* ``success_vs_threshold`` / ``success_vs_c`` - success curves over a fixed
  threshold grid (selection bypassed) or over the critical-value slope c,
  sharing one dataset per trial across the whole grid and overlaying the
  standard nearest-neighbor rate measured on the same trials.
* ``apriori_optimal_threshold`` - predicted success over a threshold grid
  of the fixed-threshold rule at m = n = 1 with iid components: each adds an
  independent term (I - J)(1 - 2K) in {-1, 0, +1} to T, so T's exact mean and
  variance give P(T <= 0 | X) and P(T > 0 | Y) by a continuity-corrected
  normal approximation; the ``monte_carlo`` reference is the fixed-threshold
  curve at absolute thresholds under key ().

``write_rates_csv`` writes a grid study's rates, ``write_dominance_csv`` the
sweep's best method per cell, ``write_columns_csv`` the curves and histogram.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .classifier import (
    MethodSpec,
    RobustMethod,
    _first_firing,
    classify_nn_standard,
    evaluate_method,
    select_threshold,
    threshold_scan,
    zp_value,
)
from . import datagen  # shift_amount is looked up at each call, so a replacement sees it
from .datagen import DegenerateScenarioError, GeneratedData, Independent, Scenario
from .datagen import _calibration_sample, generate, shift_count
from .errors import ConfigurationError, ParameterError, UnsupportedSettingError
from .seeds import derive_seed

__all__ = [
    "MethodRate",
    "ThresholdDistribution",
    "SuccessCurve",
    "run_trial",
    "estimate_success_rate",
    "grid_study",
    "sweep_beta_r",
    "threshold_distribution",
    "success_vs_threshold",
    "success_vs_c",
    "AprioriCurve",
    "apriori_optimal_threshold",
    "write_rates_csv",
    "write_dominance_csv",
    "write_columns_csv",
]

def _worker_count(trials: int, workers: int | None) -> int:
    """Worker processes for ``trials`` trials: 1 (serial) for None, one per CPU for 0."""
    if trials < 1:
        raise ParameterError(f"trials must be positive, got {trials}")
    if workers is None:
        return 1
    if workers < 0:
        raise ConfigurationError(f"worker count must be nonnegative, got {workers}")
    return int(workers) or os.cpu_count() or 1


def _trial_plan(trials: int, base_seed: int, key: tuple[int, ...]) -> list[tuple[int, str]]:
    """Seed and test-vector label of every trial: derive_seed(base_seed, *key, j), X on even j."""
    return [(derive_seed(base_seed, *key, j), "X" if j % 2 == 0 else "Y") for j in range(trials)]


def _draw(scenario: Scenario, seed: int, z_from: str) -> GeneratedData:
    """The dataset of one trial, its test vector drawn from population ``z_from``."""
    return generate(scenario, z_from, np.random.default_rng(seed))


def run_trial(
    scenario: Scenario, methods: Sequence[MethodSpec], seed: int, z_from: str
) -> np.ndarray:
    """Draw one dataset from ``seed``, its test vector from ``z_from``, and
    score every method on it.

    Returns one float row ``(correct, defaulted, theta)`` per method, in order,
    NaN where a method has no threshold.
    """
    data = _draw(scenario, seed, z_from)
    rows = []
    for method in methods:
        label, theta, defaulted = evaluate_method(data.x_samples, data.y_samples, data.z, method)
        rows.append((label == data.z_label, defaulted, theta))
    return np.array(rows, dtype=float)  # None becomes NaN


@dataclass(frozen=True)
class MethodRate:
    """Aggregated success for one method over a common trial set, keyed by its name."""

    rate: float
    se: float
    trials: int
    defaulted_fraction: float | None = None


def _binomial_se(rate, trials: int):
    """sqrt(rate * (1 - rate) / trials), a Python float for a scalar rate (CSVs write its repr)."""
    se = np.sqrt(rate * (1.0 - rate) / trials)
    return se if np.ndim(se) else float(se)


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
    count = _worker_count(trials, workers)
    for scenario, _ in cells:
        datagen.shift_amount(scenario)
    _calibration_sample.cache_clear()  # workers inherit the amounts, not the sample
    tasks = [
        (scenario, arg, seed, z_from)
        for scenario, key in cells
        for seed, z_from in _trial_plan(trials, base_seed, key)
    ]
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
    """Per cell, the rates of ``methods`` keyed by name; an empty list, or a
    name given twice, is rejected before any trial runs."""
    names = _method_names(methods)
    out = []
    for per_trial in _run_cells(cells, run_trial, methods, trials, base_seed, workers):
        rates = {}
        for name, (hits, defaults, _) in zip(names, np.sum(per_trial, axis=0)):
            rate = float(hits) / trials
            rates[name] = MethodRate(
                rate=rate,
                se=_binomial_se(rate, trials),
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


def grid_study(
    template: Scenario,
    fields: Sequence[str],
    cells: Sequence[Sequence],
    methods: Sequence[MethodSpec],
    trials: int,
    base_seed: int,
    *,
    workers: int | None = None,
) -> list[dict[str, MethodRate] | None]:
    """Per cell k, the rates of ``methods`` on ``template`` with the fields
    named in ``fields`` set to ``cells[k]``, its trials seeded with key (k,).
    A degenerate cell is skipped and reads None; when no cell is live, the
    first cell's DegenerateScenarioError is raised."""
    _method_names(methods)  # these checks come before any cell is calibrated
    _worker_count(trials, workers)
    live, errors = {}, []
    for k, values in enumerate(cells):
        scenario = replace(template, **dict(zip(fields, values, strict=True)))
        try:
            datagen.shift_amount(scenario)
            live[k] = (scenario, (k,))
        except DegenerateScenarioError as exc:
            errors.append(exc)
    if not live:
        raise errors[0] if errors else ParameterError("a grid study needs at least one cell")
    rates = dict(zip(live, _rates(list(live.values()), methods, trials, base_seed, workers)))
    return [rates.get(k) for k in range(len(cells))]


def sweep_beta_r(
    beta_grid: Sequence[float],
    r_grid: Sequence[float],
    template: Scenario,
    methods: Sequence[MethodSpec],
    trials_per_cell: int,
    base_seed: int,
    *,
    workers: int | None = None,
) -> list[dict[str, MethodRate] | None]:
    """The grid study whose cell bi * len(r_grid) + ri is (beta_grid[bi], r_grid[ri])."""
    cells = list(product(beta_grid, r_grid))
    return grid_study(
        template, ("beta", "r"), cells, methods, trials_per_cell, base_seed, workers=workers
    )


@dataclass(frozen=True)
class ThresholdDistribution:
    """Histogram of selected thresholds, normalized by the shift amount."""

    bin_left: np.ndarray
    bin_right: np.ndarray
    proportion: np.ndarray
    defaulted_fraction: float
    shift: float


def threshold_distribution(
    scenario: Scenario,
    trials: int,
    method: RobustMethod,
    base_seed: int,
    *,
    bins: int = 20,
    workers: int | None = None,
) -> ThresholdDistribution:
    """Distribution of theta / shift over trials for the robust classifier.

    The histogram covers non-defaulted selections (proportions sum to 1 when
    any exist); the defaulted fraction is reported separately.
    """
    if not isinstance(method, RobustMethod):
        raise ParameterError(f"threshold_distribution needs a RobustMethod, got {method!r}")
    if bins < 1:
        raise ParameterError(f"bins must be positive, got {bins}")
    per_trial = _run_cells([(scenario, (0,))], run_trial, [method], trials, base_seed, workers)[0]
    shift = datagen.shift_amount(scenario)
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
    x_name: str


def _success_curve(scenario, score, grid, xs, x_name, trials, base_seed, workers) -> SuccessCurve:
    """Run one curve study, seeded with key (0,); ``score`` returns a trial's correct
    flags over ``grid``, its NN flag and, for the c curve, its defaulted flags."""
    per_trial = _run_cells([(scenario, (0,))], score, grid, trials, base_seed, workers)[0]
    rates, nn_rate, *defaulted = (sum(flags) / trials for flags in zip(*per_trial))
    return SuccessCurve(
        xs=xs,
        rates=rates,
        ses=_binomial_se(rates, trials),
        defaulted_fractions=defaulted[0] if defaulted else None,
        nn_rate=nn_rate,
        nn_se=_binomial_se(nn_rate, trials),
        x_name=x_name,
    )


def _fixed_flags(data: GeneratedData, ts: np.ndarray) -> np.ndarray:
    """The correct flags of the label 1(T(t) > 0) over ``ts`` on one dataset."""
    T, _ = threshold_scan(data.x_samples, data.y_samples, data.z, ts)
    return np.where(T <= 0, "X", "Y") == data.z_label


def _t_grid_trial(scenario: Scenario, ts: np.ndarray, seed: int, z_from: str) -> np.ndarray:
    """One a priori Monte Carlo trial: the correct flags of 1(T(t) > 0) over ``ts``."""
    return _fixed_flags(_draw(scenario, seed, z_from), ts)


def _t_curve_trial(scenario: Scenario, ts: np.ndarray, seed: int, z_from: str):
    """One threshold-curve trial: ``_t_grid_trial``'s flags, and NN's."""
    data = _draw(scenario, seed, z_from)
    nn = classify_nn_standard(data.x_samples, data.y_samples, data.z)
    return _fixed_flags(data, ts), nn == data.z_label


def _fixed_thresholds(t_grid, trials: int, workers: int | None) -> np.ndarray:
    """A fixed-threshold study's grid as floats, checked with its trial and
    worker counts before anything is calibrated: nonempty and free of NaN."""
    grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if grid.size == 0 or np.isnan(grid).any():
        raise ParameterError(f"t_grid must be nonempty and free of NaN, got {grid.tolist()}")
    _worker_count(trials, workers)
    return grid


def success_vs_threshold(
    scenario: Scenario,
    t_grid: Sequence[float],
    trials: int,
    base_seed: int,
    *,
    workers: int | None = None,
) -> SuccessCurve:
    """Success of the fixed-threshold classifier over a grid of thresholds.

    Grid values are proportions of the shift amount.  Selection is bypassed:
    the label is simply 1(T(t) > 0).  Every grid point and the NN reference
    are scored on the same per-trial datasets.
    """
    props = _fixed_thresholds(t_grid, trials, workers)
    ts = props * datagen.shift_amount(scenario)
    return _success_curve(
        scenario, _t_curve_trial, ts, props, "t_over_shift", trials, base_seed, workers
    )


def _c_grid_trial(scenario: Scenario, z_ps: np.ndarray, seed: int, z_from: str):
    """One curve trial: the correct flags over the critical values ``z_ps``, NN's, the defaults."""
    data = _draw(scenario, seed, z_from)
    X, Y, z = data.x_samples, data.y_samples, data.z
    trace = select_threshold(X, Y, z).trace  # the scan does not depend on z_p
    index, defaulted = _first_firing(trace.T, trace.S2, z_ps)
    labels = np.where(trace.T[index] <= 0, "X", "Y")
    return labels == data.z_label, classify_nn_standard(X, Y, z) == data.z_label, defaulted


def success_vs_c(
    scenario: Scenario,
    c_grid: Sequence[float],
    trials: int,
    base_seed: int,
    *,
    rule: str = "independent",
    workers: int | None = None,
) -> SuccessCurve:
    """Success of the robust classifier as the critical-value slope varies.

    One dataset (and one breakpoint scan) per trial serves every c value;
    the NN reference uses the same trials.
    """
    cs = np.atleast_1d(np.asarray(c_grid, dtype=float))
    if cs.size == 0:
        raise ParameterError("c_grid must be nonempty")
    z_ps = np.array([zp_value(rule, scenario.p, c) for c in cs])
    return _success_curve(scenario, _c_grid_trial, z_ps, cs, "c", trials, base_seed, workers)


@dataclass(frozen=True)
class AprioriCurve:
    """Predicted success over a threshold grid and its best point."""

    ts: np.ndarray
    values: np.ndarray
    t_star: float


def _term_moments(q_i: float, q_j: float, q_k: float) -> tuple[float, float]:
    """Mean and variance of (I - J)(1 - 2K) for independent Bernoulli bits."""
    mean = (q_i - q_j) * (1.0 - 2.0 * q_k)
    diff_sq = q_i * (1.0 - q_j) + q_j * (1.0 - q_i)
    return mean, diff_sq - mean**2


def _one_sided(mu: float, var: float, want_at_most_zero: bool) -> float:
    if var <= 0:
        hit = mu <= 0 if want_at_most_zero else mu > 0
        return 1.0 if hit else 0.0
    from scipy.special import ndtr

    # T is integer valued; 0.5 is the continuity-corrected cut between 0 and 1.
    z = (0.5 - mu) / math.sqrt(var)
    prob_le_zero = float(ndtr(z))
    return prob_le_zero if want_at_most_zero else 1.0 - prob_le_zero


def _check_apriori_scenario(scenario: Scenario) -> None:
    if scenario.m != 1 or scenario.n != 1:
        raise UnsupportedSettingError("a priori analysis requires m = n = 1")
    if not isinstance(scenario.dependence, Independent):
        raise UnsupportedSettingError("a priori analysis requires independent components")
    if scenario.is_blocked:
        raise UnsupportedSettingError(
            "a priori analysis requires identically distributed components"
        )


def _normal_approx_success(scenario: Scenario, t: float) -> float:
    survival = scenario.marginal.survival
    q_x, q_y = survival(t), survival(t - datagen.shift_amount(scenario))
    shifted = shift_count(scenario.p, scenario.beta)
    plain = scenario.p - shifted
    mean_u, var_u = _term_moments(q_x, q_x, q_x)
    correct = 0.0
    # Z's shifted components exceed at rate q_x when Z is from X (correct
    # where T <= 0), at q_y when it is from Y (correct where T > 0).
    for q_z, from_x in ((q_x, True), (q_y, False)):
        mean_s, var_s = _term_moments(q_x, q_y, q_z)
        mu, var = plain * mean_u + shifted * mean_s, plain * var_u + shifted * var_s
        correct += _one_sided(mu, var, want_at_most_zero=from_x)
    return 0.5 * correct


def apriori_optimal_threshold(
    scenario: Scenario,
    t_grid,
    method: str = "normal_approx",
    *,
    trials: int = 2000,
    base_seed: int = 0,
    workers: int | None = None,
) -> AprioriCurve:
    """Predicted balanced success of the fixed-threshold rule over a threshold
    grid, best = smallest argmax, at m = n = 1 with iid components of one family:
    ``normal_approx`` is the exact-moment normal approximation, ``monte_carlo``
    the success over ``trials`` simulated datasets with balanced labels."""
    ts = _fixed_thresholds(t_grid, trials, workers)  # on both paths, so both check workers
    _check_apriori_scenario(scenario)
    if method == "normal_approx":
        values = np.array([_normal_approx_success(scenario, t) for t in ts])
    elif method == "monte_carlo":
        if trials < 2:
            raise ParameterError("monte_carlo needs at least 2 trials")
        per_trial = _run_cells([(scenario, ())], _t_grid_trial, ts, trials, base_seed, workers)[0]
        values = sum(per_trial) / trials  # as _success_curve sums its flags
    else:
        raise ParameterError(f"method must be 'normal_approx' or 'monte_carlo', got {method!r}")
    t_star = float(ts[values == values.max()].min())
    return AprioriCurve(ts=ts, values=values, t_star=t_star)


def write_rates_csv(path, fields: Sequence[str], cells: Sequence[Sequence], rates) -> None:
    """One line per method of each live cell of a grid study, in cell order:
    the cell's ``fields`` values, method, repr(rate), repr(se), trials."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*fields, "method", "rate", "se", "trials"])
        for values, cell in zip(cells, rates, strict=True):
            for name, rate in (cell or {}).items():
                writer.writerow(
                    [*map(repr, values), name, repr(rate.rate), repr(rate.se), rate.trials]
                )


def write_dominance_csv(path, beta_grid, r_grid, methods: Sequence[MethodSpec], rates) -> None:
    """The sweep's dominance map: per beta and r, the best method of the cell
    in ``rates`` (row-major), starred when tied, or "skipped".  Ties break
    toward a robust method, then method order."""

    def best(cell: dict[str, MethodRate] | None) -> str:
        if cell is None:
            return "skipped"
        top = max(rate.rate for rate in cell.values())
        tied = [method for method in methods if cell[method.name].rate == top]
        first = next((method for method in tied if isinstance(method, RobustMethod)), tied[0])
        return first.name + ("*" if len(tied) > 1 else "")

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", *map(repr, r_grid)])
        for bi, beta in enumerate(beta_grid):
            row = rates[bi * len(r_grid) : (bi + 1) * len(r_grid)]
            writer.writerow([repr(beta), *map(best, row)])


def write_columns_csv(path, header: Sequence[str], *columns) -> None:
    """One column per sequence under ``header``, each value written as repr(float(v))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])
