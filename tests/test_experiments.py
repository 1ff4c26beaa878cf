"""Experiment engine: pairing, determinism, grid studies, curves, and CSV output."""

import csv
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import robustnn.classifier as classifier
import robustnn.datagen as datagen
import robustnn.dataset as dataset
import robustnn.experiments as experiments
from robustnn import (
    ConfigurationError,
    DegenerateScenarioError,
    ExponentiatedMA,
    ExtremaMethod,
    FixedThresholdMethod,
    Normal,
    ParameterError,
    RobustMethod,
    Scenario,
    StandardNNMethod,
    StudentT,
    apriori_optimal_threshold,
    classify_robust,
    dataset_from_generated,
    derive_seed,
    estimate_success_rate,
    evaluate_method,
    generate,
    grid_study,
    loo_cross_validate,
    run_trial,
    shift_amount,
    success_vs_c,
    success_vs_threshold,
    sweep_beta_r,
    threshold_distribution,
)
from robustnn.datagen import _calibration_sample
from robustnn.experiments import MethodRate, _worker_count, write_columns_csv
from robustnn.experiments import write_dominance_csv, write_rates_csv

SMALL = Scenario(p=300, m=1, n=1, beta=0.6, r=0.7, marginal=Normal(), seed=0)
METHODS = [RobustMethod(), StandardNNMethod()]


def verdicts(data, methods):
    """(correct, defaulted, theta) of every method on one drawn dataset, None for NaN."""
    rows = []
    for method in methods:
        label, theta, defaulted = evaluate_method(data.x_samples, data.y_samples, data.z, method)
        rows.append((label == data.z_label, defaulted, theta))
    return rows


def test_run_trial_structure_and_pairing():
    methods = METHODS + [ExtremaMethod()]
    rows = run_trial(SMALL, methods, seed=77, z_from="Y")
    assert rows.shape == (3, 3) and rows.dtype == np.float64
    data = experiments._draw(SMALL, 77, "Y")
    assert data.z_label == "Y"  # the forced label
    expected = np.array(verdicts(data, methods), dtype=float)
    np.testing.assert_array_equal(rows, expected)
    assert not np.isnan(rows[0]).any()  # robust: defaulted and theta
    assert np.isnan(rows[1:, 1:]).all()  # nn, extrema: no threshold


def test_run_trial_deterministic():
    a = run_trial(SMALL, METHODS, seed=5, z_from="X")
    b = run_trial(SMALL, METHODS, seed=5, z_from="X")
    np.testing.assert_array_equal(a, b)


def test_estimate_success_rate_replays_exactly():
    rates = estimate_success_rate(SMALL, METHODS, trials=40, base_seed=123, cell_index=2)
    # replay the documented seeding scheme by hand
    rows = np.array([
        run_trial(SMALL, METHODS, derive_seed(123, 2, j), "X" if j % 2 == 0 else "Y")
        for j in range(40)
    ])
    for k, method in enumerate(METHODS):
        rate = rates[method.name]
        assert rate.rate == rows[:, k, 0].sum() / 40
        assert rate.se == pytest.approx(math.sqrt(rate.rate * (1 - rate.rate) / 40))
        assert rate.trials == 40
        assert type(rate.rate) is float and type(rate.se) is float  # CSVs write repr
    assert rates["robust"].defaulted_fraction == rows[:, 0, 1].sum() / 40
    assert type(rates["robust"].defaulted_fraction) is float
    assert rates["nn"].defaulted_fraction is None


@pytest.mark.parametrize("study", ["estimate", "sweep", "sample_size"])
def test_studies_reject_a_method_named_twice_before_any_trial(monkeypatch, study):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_run_cells", no_trials)
    methods = [RobustMethod(), StandardNNMethod(), RobustMethod(xi_or_c=0.3)]
    run = {
        "estimate": lambda: estimate_success_rate(SMALL, methods, 4, 0),
        "sweep": lambda: sweep_beta_r([0.6], [0.7], SMALL, methods, 4, 0),
        "sample_size": lambda: grid_study(SMALL, ("m", "n"), [(1, 1)], methods, 4, 0),
    }[study]
    with pytest.raises(ParameterError, match="method names must be distinct"):
        run()


@pytest.mark.parametrize("study", ["estimate", "sweep", "sample_size"])
def test_studies_reject_an_empty_method_list_before_any_calibration(monkeypatch, study):
    def no_calibration(*args):
        raise AssertionError("a cell was calibrated")

    monkeypatch.setattr(datagen, "shift_amount", no_calibration)
    monkeypatch.setattr(experiments, "_run_cells", no_calibration)
    run = {
        "estimate": lambda: estimate_success_rate(SMALL, [], 4, 0),
        "sweep": lambda: sweep_beta_r([0.6], [0.7], SMALL, [], 4, 0),
        "sample_size": lambda: grid_study(SMALL, ("m", "n"), [(1, 1)], [], 4, 0),
    }[study]
    with pytest.raises(ParameterError, match="at least one method"):
        run()


def test_trials_and_loo_reach_the_module_level_classifiers(monkeypatch):
    # Profilers hook these module attributes; the method specs must call
    # through them rather than through references bound at import.
    calls = {"select_threshold": 0, "classify_extrema": 0, "_leave_one_out": 0}
    for module, name in (
        (classifier, "select_threshold"),
        (classifier, "classify_extrema"),
        (dataset, "_leave_one_out"),
    ):
        def spy(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    methods = [RobustMethod(), ExtremaMethod()]
    run_trial(SMALL, methods, seed=1, z_from="X")
    assert calls == {"select_threshold": 1, "classify_extrema": 1, "_leave_one_out": 0}
    data = generate(replace(SMALL, m=2, n=2), "X", np.random.default_rng(2))
    for method in methods:
        loo_cross_validate(dataset_from_generated(data), method)
    # The 5 robust folds share one ranking in one call; the 5 extrema folds
    # each call the classifier.
    assert calls == {"select_threshold": 1, "classify_extrema": 1 + 5, "_leave_one_out": 1}


def test_estimate_success_rate_parallel_matches_serial():
    serial = estimate_success_rate(SMALL, METHODS, trials=24, base_seed=9, workers=1)
    parallel = estimate_success_rate(SMALL, METHODS, trials=24, base_seed=9, workers=2)
    assert serial == parallel


def test_parallel_sweep_and_sample_size_match_serial():
    serial = sweep_beta_r([0.5, 0.7], [0.4, 0.8], SMALL, METHODS, 6, base_seed=3, workers=1)
    parallel = sweep_beta_r([0.5, 0.7], [0.4, 0.8], SMALL, METHODS, 6, base_seed=3, workers=2)
    assert serial == parallel
    pairs = [(1, 1), (2, 1)]
    serial = grid_study(SMALL, ("m", "n"), pairs, METHODS, 6, base_seed=4, workers=1)
    parallel = grid_study(SMALL, ("m", "n"), pairs, METHODS, 6, base_seed=4, workers=2)
    assert serial == parallel


def test_parallel_threshold_distribution_matches_serial():
    method = RobustMethod(xi_or_c=0.3)
    serial = threshold_distribution(SMALL, 12, method, base_seed=6, bins=5)
    parallel = threshold_distribution(SMALL, 12, method, base_seed=6, bins=5, workers=2)
    assert parallel.defaulted_fraction == serial.defaulted_fraction
    assert parallel.shift == serial.shift
    for name in ("bin_left", "bin_right", "proportion"):
        assert getattr(parallel, name).tobytes() == getattr(serial, name).tobytes(), name


def _studies(workers):
    """Every study, at a size where ``workers=2`` starts a pool."""
    return [
        lambda: sweep_beta_r([0.5, 0.7], [0.4, 0.8], SMALL, METHODS, 4, 3, workers=workers),
        lambda: grid_study(SMALL, ("m", "n"), [(1, 1), (2, 1)], METHODS, 4, 4, workers=workers),
        lambda: estimate_success_rate(SMALL, METHODS, 8, 5, workers=workers),
        lambda: threshold_distribution(SMALL, 8, RobustMethod(xi_or_c=0.3), 6, workers=workers),
        lambda: success_vs_threshold(SMALL, [0.2, 0.6], 8, 7, workers=workers),
        lambda: success_vs_c(SMALL, [0.2, 0.6], 8, 8, workers=workers),
        lambda: apriori_optimal_threshold(
            SMALL, [0.5, 1.0], "monte_carlo", trials=8, workers=workers
        ),
        lambda: apriori_optimal_threshold(SMALL, [0.5], "monte_carlo", trials=8, workers=workers),
    ]


@pytest.fixture
def pools_started(monkeypatch):
    """The max_workers of every process pool a study starts."""
    started = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    return started


def test_parallel_study_starts_one_pool(pools_started):
    for study in _studies(workers=2):
        pools_started.clear()
        study()
        assert pools_started == [2]


@pytest.mark.parametrize("value", ["2", "lots"])
def test_studies_read_no_environment_variable(monkeypatch, pools_started, value):
    monkeypatch.setenv("ROBUSTNN_THREADS", value)
    for study in _studies(workers=None):
        study()
        assert pools_started == []


def test_worker_count():
    assert _worker_count(4, None) == 1
    assert _worker_count(4, 3) == 3
    assert _worker_count(4, 0) >= 1
    with pytest.raises(ConfigurationError):
        _worker_count(4, -2)


def test_sweep_beta_r_grid(tmp_path):
    rates = sweep_beta_r([0.5, 0.7], [0.4, 0.8], SMALL, METHODS, trials_per_cell=20, base_seed=3)
    assert len(rates) == 4 and None not in rates
    assert [list(cell) for cell in rates] == [["robust", "nn"]] * 4

    long_csv = tmp_path / "sweep.csv"
    write_rates_csv(long_csv, ("beta", "r"), list(product([0.5, 0.7], [0.4, 0.8])), rates)
    with open(long_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["beta", "r", "method", "rate", "se", "trials"]
    assert len(rows) == 1 + 2 * 2 * 2
    assert rows[3][:3] == ["0.5", "0.8", "robust"]  # row-major cells, methods in order
    dom_csv = tmp_path / "dom.csv"
    write_dominance_csv(dom_csv, [0.5, 0.7], [0.4, 0.8], METHODS, rates)
    with open(dom_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["beta", "0.4", "0.8"]
    assert len(rows) == 3
    for bi in range(2):
        for ri in range(2):
            cell = rates[bi * 2 + ri]
            winner = rows[1 + bi][1 + ri].rstrip("*")
            assert cell[winner].rate == max(rate.rate for rate in cell.values())


def test_dominance_ties_go_to_a_robust_method_then_method_order(tmp_path):
    methods = [StandardNNMethod(), RobustMethod(), ExtremaMethod()]

    def cell(*values):
        return {
            method.name: MethodRate(value, 0.0, 10)
            for method, value in zip(methods, values)
        }

    rates = [cell(0.5, 0.5, 0.4), cell(0.6, 0.4, 0.6), cell(0.1, 0.2, 0.3), None]
    path = tmp_path / "dom.csv"
    write_dominance_csv(path, [0.5, 0.6], [0.3, 0.7], methods, rates)
    assert path.read_text().splitlines() == [
        "beta,0.3,0.7",
        "0.5,robust*,nn*",
        "0.6,extrema,skipped",
    ]


def test_sweep_cells_match_standalone_estimates():
    rates = sweep_beta_r([0.6], [0.5, 0.7], SMALL, METHODS, trials_per_cell=16, base_seed=8)
    for ri, r in enumerate((0.5, 0.7)):
        sc = replace(SMALL, beta=0.6, r=r)
        standalone = estimate_success_rate(
            sc, METHODS, trials=16, base_seed=8, cell_index=0 * 2 + ri
        )
        assert rates[ri] == standalone


def test_one_axis_grid_study_is_the_matching_sweep_line():
    rs = [0.5, 0.7]
    by_r = grid_study(replace(SMALL, beta=0.6), ("r",), [(r,) for r in rs], METHODS, 8, 5)
    assert by_r == sweep_beta_r([0.6], rs, SMALL, METHODS, 8, 5)
    betas = [0.5, 0.7]
    by_beta = grid_study(replace(SMALL, r=0.8), ("beta",), [(b,) for b in betas], METHODS, 8, 5)
    assert by_beta == sweep_beta_r(betas, [0.8], SMALL, METHODS, 8, 5)


def test_sweep_past_128_cells_calibrates_each_cell_once():
    betas = [0.5 + 0.03 * k for k in range(15)]
    rs = [0.3 + 0.06 * k for k in range(10)]
    shift_amount.cache_clear()
    rates = sweep_beta_r(betas, rs, SMALL, METHODS, 2, 1)
    assert None not in rates
    assert shift_amount.cache_info().misses == len(betas) * len(rs)


def test_exp_ma_study_draws_one_calibration_sample_and_drops_it():
    template = Scenario(p=20_000, m=1, n=1, beta=0.55, r=0.3, marginal=Normal(),
                        dependence=ExponentiatedMA(decay=0.5, alpha_range=(0.5, 2.0)), seed=1)
    cells = [(replace(template, beta=beta, r=r), (k,))
             for k, (beta, r) in enumerate(product((0.55, 0.7, 0.85), (0.3, 0.5, 0.7)))]
    shift_amount.cache_clear()
    _calibration_sample.cache_clear()
    amounts = {scenario.r: shift_amount(scenario) for scenario, _ in cells}
    assert _calibration_sample.cache_info().misses == 1  # 200,000 draws for every r here
    # The amounts of one draw per cell, before cells shared it.
    assert amounts == {0.3: 6.313106694967765, 0.5: 14.074563749182682, 0.7: 26.45390381903415}
    shift_amount.cache_clear()
    experiments._run_cells(cells, run_trial, [StandardNNMethod()], 1, 0, 1)
    assert _calibration_sample.cache_info().currsize == 0  # pool workers would inherit it


def test_sweep_skips_degenerate_cells():
    tiny = Scenario(p=10, m=1, n=1, beta=0.5, r=0.5, marginal=Normal())
    rates = sweep_beta_r([0.02, 0.6], [0.5], tiny, METHODS, trials_per_cell=6, base_seed=1)
    assert rates[0] is None  # round(10^0.98) = 10 shifts leave no contrast
    # The live cell keeps its key, 1, as if the skipped cell had run.
    live = replace(tiny, beta=0.6, r=0.5)
    assert rates[1] == estimate_success_rate(live, METHODS, 6, 1, cell_index=1)


@pytest.mark.parametrize("study", ["sweep", "sample_size"])
def test_grid_with_no_live_cell_raises_the_first_cells_error(study):
    tiny = Scenario(p=10, m=1, n=1, beta=0.02, r=0.5, marginal=Normal())
    run = {
        # Cell 0 has a shift on every component, cell 1 a negative shift.
        "sweep": lambda: sweep_beta_r([0.02], [0.5, 0.1], tiny, METHODS, 4, 0),
        "sample_size": lambda: grid_study(tiny, ("m", "n"), [(1, 1), (2, 1)], METHODS, 4, 0),
    }[study]
    with pytest.raises(DegenerateScenarioError, match=r"shift count round\(p\^\(1-beta\)\) = 10"):
        run()


def test_grid_study_rejects_bad_arguments_before_any_calibration(monkeypatch):
    def no_calibration(*args):
        raise AssertionError("a cell was calibrated")

    monkeypatch.setattr(datagen, "shift_amount", no_calibration)
    for cells, trials, message in [([(0.7,)], 0, "trials must be positive"),
                                   ([], 4, "at least one cell")]:
        with pytest.raises(ParameterError, match=message):
            grid_study(SMALL, ("r",), cells, METHODS, trials, 0)


def test_grid_study_calibrates_through_datagen_before_any_trial(monkeypatch):
    """A stand-in for ``datagen.shift_amount`` (as a tracer installs) sees every
    cell calibrated in the calling process before the first trial, then each
    trial's ``generate`` reaches it."""
    events = []
    calibrate, draw = datagen.shift_amount, experiments.generate

    def counting_shift_amount(scenario):
        events.append(("calibrate", scenario.r))
        return calibrate(scenario)

    def counting_generate(scenario, z_from, rng):
        events.append(("trial", scenario.r))
        return draw(scenario, z_from, rng)

    monkeypatch.setattr(datagen, "shift_amount", counting_shift_amount)
    monkeypatch.setattr(experiments, "generate", counting_generate)
    grid_study(SMALL, ("r",), [(0.5,), (0.7,)], METHODS, 2, 0)
    first_trial = events.index(("trial", 0.5))
    assert set(events[:first_trial]) == {("calibrate", 0.5), ("calibrate", 0.7)}
    assert events[first_trial:] == [
        (kind, r) for r in (0.5, 0.5, 0.7, 0.7) for kind in ("trial", "calibrate")
    ]


def test_threshold_distribution():
    dist = threshold_distribution(SMALL, 60, RobustMethod(xi_or_c=0.3), 11, bins=12)
    assert dist.shift == pytest.approx(shift_amount(SMALL))
    assert 0.0 <= dist.defaulted_fraction < 1.0
    assert type(dist.defaulted_fraction) is float  # the CLI prints its repr
    kept = round((1.0 - dist.defaulted_fraction) * 60)  # the non-defaulted selections
    np.testing.assert_allclose(dist.proportion * kept, np.round(dist.proportion * kept))
    assert dist.bin_left.size == dist.bin_right.size == dist.proportion.size == 12
    assert np.all(dist.bin_right > dist.bin_left)
    assert dist.proportion.sum() == pytest.approx(1.0 - dist.defaulted_fraction)
    again = threshold_distribution(SMALL, 60, RobustMethod(xi_or_c=0.3), 11, bins=12)
    for name in ("bin_left", "bin_right", "proportion"):
        np.testing.assert_array_equal(getattr(dist, name), getattr(again, name))
    never = threshold_distribution(SMALL, 20, RobustMethod(xi_or_c=1e6), 11, bins=12)
    assert never.defaulted_fraction == 1.0  # no point fires: an empty histogram
    for name in ("bin_left", "bin_right", "proportion"):
        assert getattr(never, name).size == 0


def test_threshold_distribution_rejects_a_bad_spec_before_any_trial(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_run_cells", no_trials)
    # A bad rule or slope fails when the spec is built, before any trial.
    for build, bins, message in [
        (
            StandardNNMethod,
            20,
            "threshold_distribution needs a RobustMethod, got StandardNNMethod()",
        ),
        (
            lambda: RobustMethod(xi_or_c=math.nan),
            20,
            "robust slope c must be finite and nonnegative, got nan",
        ),
        (
            lambda: RobustMethod(rule="independent_sqrt_logp"),
            20,
            "unknown rule 'independent_sqrt_logp'; expected one of ['independent', 'dependent']",
        ),
        (RobustMethod, 0, "bins must be positive, got 0"),
    ]:
        with pytest.raises(ParameterError) as info:
            threshold_distribution(SMALL, 8, build(), 0, bins=bins)
        assert str(info.value) == message


def test_success_vs_threshold_curve():
    props = [0.2, 0.6, 50.0]  # proportions of the shift amount
    curve = success_vs_threshold(SMALL, props, trials=40, base_seed=13)
    np.testing.assert_allclose(curve.xs, props)
    assert curve.x_name == "t_over_shift"
    assert len(curve.rates) == 3
    # far above the support every T is 0, ties go to X, labels alternate
    assert curve.rates[-1] == 0.5
    assert 0.0 <= curve.nn_rate <= 1.0
    # the nn reference is paired: same seeds, same scheme
    rates = estimate_success_rate(SMALL, [StandardNNMethod()], trials=40, base_seed=13)
    assert curve.nn_rate == rates["nn"].rate
    with pytest.raises(ParameterError, match="nan"):  # T(nan) = 0 would score ties
        success_vs_threshold(SMALL, [math.nan, 0.6], trials=20, base_seed=1)


def test_success_vs_threshold_matches_fixed_threshold_method():
    props = [0.4, 0.9]
    curve = success_vs_threshold(SMALL, props, trials=30, base_seed=21)
    a = shift_amount(SMALL)
    for k, prop in enumerate(props):
        rates = estimate_success_rate(
            SMALL, [FixedThresholdMethod(t=prop * a)], trials=30, base_seed=21
        )
        assert curve.rates[k] == rates["fixed_threshold"].rate


def test_success_vs_c_matches_direct_classification():
    c_grid = [0.2, 0.6, 1.0]
    curve = success_vs_c(SMALL, c_grid, trials=30, base_seed=15)
    assert curve.x_name == "c"
    for k, c in enumerate(c_grid):
        correct = defaulted = 0
        for j in range(30):
            rng = np.random.default_rng(derive_seed(15, 0, j))
            z_from = "X" if j % 2 == 0 else "Y"
            data = generate(SMALL, z_from, rng)
            label, decision = classify_robust(
                data.x_samples, data.y_samples, data.z, xi_or_c=c
            )
            correct += label == z_from
            defaulted += decision.defaulted
        assert curve.rates[k] == correct / 30
        assert curve.defaulted_fractions[k] == defaulted / 30
    # paired nn reference on the same draws
    rates = estimate_success_rate(SMALL, [StandardNNMethod()], trials=30, base_seed=15)
    assert curve.nn_rate == rates["nn"].rate
    with pytest.raises(ParameterError, match="nan"):  # a NaN slope would never fire
        success_vs_c(SMALL, [math.nan, 0.6], trials=20, base_seed=1)


def test_sample_size_study():
    dense = Scenario(p=200, m=1, n=1, beta=0.6, r=0.8, marginal=StudentT(4.0), seed=0)
    pairs = [(1, 1), (2, 3)]
    rates = grid_study(dense, ("m", "n"), pairs, METHODS, trials=20, base_seed=19)
    assert [list(cell) for cell in rates] == [["robust", "nn"]] * 2
    for k, (m, n) in enumerate(pairs):
        sized = replace(dense, m=m, n=n)
        assert rates[k] == estimate_success_rate(sized, METHODS, 20, 19, cell_index=k)


def test_csv_writers(tmp_path):
    curve_path = tmp_path / "curve.csv"
    write_columns_csv(curve_path, ["c", "value"], [0.1, 0.25], [0.5, 0.625])
    with open(curve_path) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["c", "value"], ["0.1", "0.5"], ["0.25", "0.625"]]

    dist = threshold_distribution(SMALL, 30, RobustMethod(xi_or_c=0.3), 2, bins=5)
    hist_path = tmp_path / "hist.csv"
    write_columns_csv(
        hist_path, ["bin_left", "bin_right", "proportion"],
        dist.bin_left, dist.bin_right, dist.proportion,
    )
    with open(hist_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_left", "bin_right", "proportion"]
    assert len(rows) == 6
    assert float(rows[1][0]) == dist.bin_left[0]

    rates = grid_study(SMALL, ("m", "n"), [(1, 2)], METHODS, trials=10, base_seed=4)
    robust = rates[0]["robust"]
    size_path = tmp_path / "sizes.csv"
    write_rates_csv(size_path, ("m", "n"), [(1, 2), (3, 4)], rates + [None])
    with open(size_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "n", "method", "rate", "se", "trials"]
    assert rows[1] == ["1", "2", "robust", repr(robust.rate), repr(robust.se), "10"]
    assert len(rows) == 3  # the skipped (3, 4) cell writes no line
