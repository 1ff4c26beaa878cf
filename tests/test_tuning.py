"""Cross-validation threshold selection and the a priori success analysis."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import robustnn.experiments as experiments
from robustnn import (
    DegenerateScenarioError,
    Independent,
    Normal,
    SampleSizeError,
    Scenario,
    ShapeError,
    StudentT,
    UnsupportedSettingError,
    apriori_optimal_threshold,
    cv_error,
    select_threshold_cv,
    shift_amount,
)
from robustnn.errors import ParameterError
from robustnn.experiments import _one_sided


def enum_cv(t, X, Y):
    """Direct enumeration of the leave-one-out error sum."""
    Xp = [np.where(row > t, row, 0.0) for row in np.atleast_2d(X)]
    Yp = [np.where(row > t, row, 0.0) for row in np.atleast_2d(Y)]

    def d(a, b):
        return float(((a - b) ** 2).sum())

    err_x = sum(
        1
        for i, xi in enumerate(Xp)
        if min(d(xi, Xp[j]) for j in range(len(Xp)) if j != i)
        > min(d(xi, y) for y in Yp)
    ) / len(Xp)
    err_y = sum(
        1
        for j, yj in enumerate(Yp)
        if min(d(yj, Yp[i]) for i in range(len(Yp)) if i != j)
        > min(d(yj, x) for x in Xp)
    ) / len(Yp)
    return err_x + err_y


def test_cv_error_separated_clusters():
    X = [[0.0, 0.1], [0.1, 0.0]]
    Y = [[100.0, 100.1], [100.1, 100.0]]
    assert cv_error(-np.inf, X, Y) == 0.0


def test_cv_error_everything_zeroed_ties_are_not_errors():
    X = [[1.0, 2.0], [2.0, 1.0]]
    Y = [[3.0, 4.0], [4.0, 3.0]]
    assert cv_error(10.0, X, Y) == 0.0  # all distances tie at 0, strict > fails


def test_cv_error_interleaved_enumeration():
    # X = {0, 2}, Y = {1, 3} on the line: every point's other-population
    # neighbor is nearer, so both error rates are 1
    X = [[0.0], [2.0]]
    Y = [[1.0], [3.0]]
    assert cv_error(-np.inf, X, Y) == 2.0
    assert enum_cv(-np.inf, X, Y) == 2.0


def test_cv_error_matches_enumeration_randomly():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m, n, p = rng.integers(2, 5), rng.integers(2, 5), rng.integers(2, 8)
        X = rng.normal(0, 1, (m, p)).round(1)
        Y = rng.normal(0.5, 1, (n, p)).round(1)
        t = float(rng.uniform(-2, 2))
        assert cv_error(t, X, Y) == enum_cv(t, X, Y)


def test_cv_error_population_swap_symmetry():
    rng = np.random.default_rng(32)
    X = rng.normal(0, 1, (3, 5))
    Y = rng.normal(1, 1, (4, 5))
    for t in (-np.inf, 0.0, 0.7):
        assert cv_error(t, X, Y) == cv_error(t, Y, X)


def test_cv_error_piecewise_constant():
    rng = np.random.default_rng(33)
    X = rng.normal(0, 1, (3, 4))
    Y = rng.normal(1, 1, (3, 4))
    pooled = np.sort(np.unique(np.concatenate([X.ravel(), Y.ravel()])))
    a, b = pooled[3], pooled[4]
    probes = np.linspace(a, b, 7)[1:-1]  # interior of one constancy interval
    vals = {cv_error(float(t), X, Y) for t in probes}
    assert len(vals) == 1


def test_cv_error_sample_size_guard():
    with pytest.raises(SampleSizeError):
        cv_error(0.0, [[1.0, 2.0]], [[1.0, 2.0], [2.0, 1.0]])


def test_cv_rejects_samples_without_components():
    X, Y = np.zeros((2, 0)), np.zeros((2, 0))
    message = r"samples_x must be a \(rows, p\) array, got shape \(2, 0\)"
    with pytest.raises(ShapeError, match=message):
        select_threshold_cv(X, Y)
    with pytest.raises(ShapeError, match=message):
        cv_error(0.0, X, Y)
    X, Y = np.zeros((2, 3)), np.zeros((2, 4))  # rows of different widths
    message = "samples_x and samples_y must have the same number of components"
    with pytest.raises(ShapeError, match=message):
        select_threshold_cv(X, Y)
    with pytest.raises(ShapeError, match=message):
        cv_error(0.0, X, Y)


def test_cv_error_on_tiny_values_takes_the_largest_scale():
    # The scale's exponent would exceed 1023 below about 1e-157; it stops there.
    X = [[1e-200, 0.0], [0.0, 1e-200]]
    Y = [[2e-200, 0.0], [0.0, 2e-200]]
    assert cv_error(0.0, X, Y) == 2.0  # every row is nearer the other class


def test_select_threshold_cv_curve_matches_cv_error():
    X = [[0.0], [2.0]]
    Y = [[1.0], [3.0]]
    curve = select_threshold_cv(X, Y)
    for t, v in zip(curve.ts, curve.values):
        assert v == enum_cv(t, X, Y)
    assert curve.theta_cv == float(curve.minimizers[0])
    assert curve.theta_cv == min(curve.minimizers)


def test_cv_error_and_curve_agree_on_rounding_ties():
    # Y row 2 is at squared distance 6.12 from Y rows 0 and 1 and from both X
    # rows in real arithmetic; in floating point the sums differ by an ulp.
    # That tie is not an error, on the curve and in cv_error alike.
    X = [[0.7, 0.7, 0.7]] * 2
    Y = [[-1.3, -1.3, -1.3], [-1.3, -1.3, -1.3], [-0.7, 1.1, -1.3]]
    curve = select_threshold_cv(X, Y)
    assert curve.theta_cv == -np.inf
    assert curve.values[0] == 0.0
    for t, v in zip(curve.ts, curve.values):
        assert cv_error(t, X, Y) == v
    assert cv_error(curve.theta_cv, X, Y) == float(curve.values.min())


def test_select_threshold_cv_separable():
    X = [[0.0, 0.1], [0.1, 0.0]]
    Y = [[100.0, 100.1], [100.1, 100.0]]
    curve = select_threshold_cv(X, Y)
    assert curve.values[0] == 0.0
    assert curve.theta_cv == curve.ts[0] == -np.inf


def test_select_threshold_cv_identical_samples():
    X = [[1.0, 1.0], [1.0, 1.0]]
    Y = [[1.0, 1.0], [1.0, 1.0]]
    curve = select_threshold_cv(X, Y)
    assert np.all(curve.values == curve.values[0])
    assert curve.minimizers.size == curve.ts.size


def test_select_threshold_cv_random_against_enumeration():
    rng = np.random.default_rng(34)
    X = rng.normal(0, 1, (3, 3))
    Y = rng.normal(0.8, 1, (3, 3))
    curve = select_threshold_cv(X, Y)
    want = np.array([enum_cv(t, X, Y) for t in curve.ts])
    np.testing.assert_array_equal(curve.values, want)


@st.composite
def tied_samples(draw):
    """Two small integer samples with heavy ties.  m and n are drawn
    independently, so m != n and a class of two rows (each with one
    own-class partner) both occur."""
    m, n, p = draw(st.integers(2, 5)), draw(st.integers(2, 5)), draw(st.integers(1, 6))
    values = st.integers(-2, 2).map(float)
    X = draw(arrays(float, (m, p), elements=values))
    return X, draw(arrays(float, (n, p), elements=values))


@settings(max_examples=300, deadline=None)
@given(tied_samples())
def test_select_threshold_cv_matches_enumeration_with_ties(samples):
    # Tied change points share one bin and are summed before the running
    # sum; the curve must still equal the enumeration at every grid point.
    X, Y = samples
    curve = select_threshold_cv(X, Y)
    want = np.array([enum_cv(t, X, Y) for t in curve.ts])
    np.testing.assert_array_equal(curve.values, want)


def test_select_threshold_cv_matches_cv_error_on_wide_magnitudes():
    # With one component 1e4 times the others, a distance taken as the full
    # distance minus the zeroed part leaves rounding noise where the rows tie.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X, Y = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        X[:, 0] *= 1e4
        Y[:, 0] *= 1e4
        curve = select_threshold_cv(X, Y)
        want = [cv_error(t, X, Y) for t in curve.ts]
        np.testing.assert_array_equal(curve.values, want, err_msg=f"seed {seed}")


def rounded_t3_with_shared_columns():
    """t(3) rows rounded to 0.1, with a quarter of Y's columns copied from X's
    first row: every pair has equal components, and the grid is short."""
    rng = np.random.default_rng(2028)
    X = np.round(rng.standard_t(3, (10, 2000)), 1)
    Y = np.round(rng.standard_t(3, (11, 2000)), 1)
    Y[:, ::4] = X[0, ::4]
    return X, Y


def test_select_threshold_cv_matches_cv_error_with_equal_components():
    X, Y = rounded_t3_with_shared_columns()
    curve = select_threshold_cv(X, Y)
    want = [cv_error(t, X, Y) for t in curve.ts]
    np.testing.assert_array_equal(curve.values, want)


def test_cv_does_not_depend_on_the_units():
    X, Y = np.array([[0.0], [2e-5]]), np.array([[1e-5], [3e-5]])
    small = select_threshold_cv(X, Y)
    unit = select_threshold_cv(X * 1e5, Y * 1e5)
    np.testing.assert_array_equal(unit.values, [2, 2, 2, 0.5, 0])
    np.testing.assert_array_equal(small.values, unit.values)
    assert small.theta_cv == 3e-5
    rng = np.random.default_rng(37)
    X, Y = rng.standard_t(2, (4, 6)), rng.standard_t(2, (3, 6))
    curve = select_threshold_cv(X, Y)
    for k in (-1000, -500, 500):
        scaled = select_threshold_cv(np.ldexp(X, k), np.ldexp(Y, k))
        np.testing.assert_array_equal(scaled.ts, np.ldexp(curve.ts, k))
        np.testing.assert_array_equal(scaled.values, curve.values)
        for t, value in zip(scaled.ts[::5], scaled.values[::5]):
            assert cv_error(t, np.ldexp(X, k), np.ldexp(Y, k)) == value


def test_cv_grid_finite_near_float_max():
    # 0.5 * (a + b) overflows for neighbors this large, and so do the
    # squared distances between them.
    big = np.finfo(float).max
    X = np.array([[0.90 * big, 1.0], [-0.97 * big, 2.0], [0.5, 0.5]])
    Y = np.array([[0.95 * big, -1.0], [-0.99 * big, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = select_threshold_cv(X, Y)
    assert curve.ts[0] == -np.inf
    assert np.isfinite(curve.ts[1:]).all() and (np.diff(curve.ts) > 0).all()
    # The enumeration on the values times 2**-515, which no square overflows;
    # the power of two commutes with the truncation.
    scale = 2.0**-515
    want = np.array([enum_cv(t * scale, X * scale, Y * scale) for t in curve.ts])
    assert want[0] == 2 / 3 + 1  # overflowed distances would all tie and read 0
    np.testing.assert_array_equal(curve.values, want)
    for t, value in zip(curve.ts, curve.values):
        assert cv_error(t, X, Y) == value


@pytest.mark.parametrize("X, Y, at_minus_inf", [
    ([[1.7e308, 1.0], [1.6e308, 1.0]], [[-1e308, 1.0], [-1.7e308, 1.0]], 0.0),
    # Each row is nearer the other class; overflowed distances would all tie.
    ([[1.7e308], [-1.7e308]], [[1.6e308], [-1.6e308]], 2.0),
])
def test_cv_error_near_float_max_does_not_overflow(X, Y, at_minus_inf):
    # pytest turns numpy's overflow RuntimeWarning into an error.
    assert cv_error(-1.8e308, X, Y) == at_minus_inf
    curve = select_threshold_cv(X, Y)
    assert curve.values[0] == at_minus_inf
    for t, value in zip(curve.ts, curve.values):
        assert cv_error(t, X, Y) == value


def test_select_threshold_cv_curve_bytes_are_pinned():
    # A realistic size: 42,001 grid points over 210 pairs of t(3) rows.  The
    # digests were recorded before the pair profiles were made two at a time.
    rng = np.random.default_rng(2021)
    X = rng.standard_t(3, (10, 2000))
    Y = rng.standard_t(3, (11, 2000)) + 0.25
    curve = select_threshold_cv(X, Y)
    assert hashlib.sha256(curve.values.tobytes()).hexdigest() == (
        "7c089fa8cdb78b943b9fc4c2d4901983e9b230e591f000dcda8dd00f55661b35"
    )
    assert hashlib.sha256(curve.ts.tobytes()).hexdigest() == (
        "0adce8e3e1dc52cad571c4e01e92b6593f42c231dcfe59375961eb26c871bcf9"
    )


@pytest.mark.parametrize("offset, values_sha, ts_sha", [
    (0.0, "2d8f7846bc5a5e0c37c33991095c612b9da6f4d0806b2d8e6f218aedcb875a85",
     "c0408f5695e3be6f661591b3bf698c0d56aad8c6cdf56e0aecd1d6a8f6f14f49"),
    # Here an equal component's steps, were they +-a^2 and not +0.0, would
    # move the bits of the sums they share a bin with.
    (1e8, "c09fea0027f59eb3e0382ed286b51742134839386348370bdb19d3bfd207557f",
     "82a6613b5c532f7c5cefd9e818345df98fc53ec43ca8f0eb5149313badee5e3e"),
], ids=["no_offset", "offset_1e8"])
def test_select_threshold_cv_curve_bytes_are_pinned_with_equal_components(
    offset, values_sha, ts_sha
):
    # The pinned data above has no equal components.  These digests were
    # recorded while equal components were still left out of the steps.
    X, Y = rounded_t3_with_shared_columns()
    curve = select_threshold_cv(X + offset, Y + offset)
    assert hashlib.sha256(curve.values.tobytes()).hexdigest() == values_sha
    assert hashlib.sha256(curve.ts.tobytes()).hexdigest() == ts_sha


def test_select_threshold_cv_memory_grows_with_rows_not_pairs():
    # One float and one bool per row and cut, with the inputs, grid and one
    # pair's profiles on top: under two floats per row and cut.
    for rows, p in ((10, 500), (20, 2000)):
        rng = np.random.default_rng(36)
        X = rng.normal(0, 1, (rows, p))
        Y = rng.normal(0.5, 1, (rows, p))
        tracemalloc.start()
        try:
            curve = select_threshold_cv(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows_by_grid = (X.shape[0] + Y.shape[0]) * curve.ts.size * 8
        assert peak < 2 * rows_by_grid, (rows, p, peak / rows_by_grid)


@pytest.mark.parametrize("call", [lambda X, Y: cv_error(0.0, X, Y), select_threshold_cv],
                         ids=["cv_error", "select_threshold_cv"])
def test_cv_non_finite_inputs_are_rejected_with_their_position(call):
    X = np.zeros((2, 3))
    Y = np.ones((2, 3))
    bad_x, bad_y = X.copy(), Y.copy()
    bad_x[1, 0] = np.nan
    bad_y[0, 2] = np.inf
    with pytest.raises(ParameterError, match=r"samples_x .* value nan at row 1, column 0"):
        call(bad_x, Y)
    with pytest.raises(ParameterError, match=r"samples_y .* value inf at row 0, column 2"):
        call(X, bad_y)


def test_apriori_above_support_is_half():
    sc = Scenario(p=1000, m=1, n=1, beta=0.7, r=0.5, marginal=Normal())
    curve = apriori_optimal_threshold(sc, [1e9])
    assert curve.values.tolist() == [0.5]  # degenerate T = 0 sends every vector to X


def test_apriori_normal_approx_close_to_monte_carlo():
    sc = Scenario(p=10000, m=1, n=1, beta=0.7, r=0.9, marginal=Normal(), seed=0)
    t = shift_amount(sc) / 2.0
    approx = apriori_optimal_threshold(sc, [t]).values[0]
    mc = apriori_optimal_threshold(sc, [t], "monte_carlo", trials=2000, base_seed=41).values[0]
    assert abs(approx - mc) <= 3.0 * max(math.sqrt(mc * (1 - mc) / 2000), 1e-3)


def test_apriori_monte_carlo_close_on_random_scenarios():
    rng = np.random.default_rng(35)
    for k in range(3):
        sc = Scenario(
            p=5000,
            m=1,
            n=1,
            beta=float(rng.uniform(0.55, 0.8)),
            r=float(rng.uniform(0.4, 0.9)),
            marginal=StudentT(4.0) if k % 2 else Normal(),
            seed=k,
        )
        t = shift_amount(sc) * float(rng.uniform(0.4, 0.8))
        approx = apriori_optimal_threshold(sc, [t]).values[0]
        mc = apriori_optimal_threshold(
            sc, [t], "monte_carlo", trials=800, base_seed=50 + k
        ).values[0]
        assert abs(approx - mc) <= 3.0 * max(math.sqrt(mc * (1 - mc) / 800), 1e-3)


def test_apriori_requires_simple_setting():
    with pytest.raises(UnsupportedSettingError):
        apriori_optimal_threshold(
            Scenario(p=100, m=2, n=1, beta=0.5, r=0.5, marginal=Normal()), [1.0]
        )
    from robustnn import MovingAverage

    with pytest.raises(UnsupportedSettingError):
        apriori_optimal_threshold(
            Scenario(p=100, m=1, n=1, beta=0.5, r=0.5, marginal=Normal(),
                     dependence=MovingAverage.equal(3)),
            [1.0],
        )
    blocked = Scenario(
        p=100, m=1, n=1, beta=0.5, r=0.5, marginal=((Normal(), 40), (StudentT(4.0), 60))
    )
    with pytest.raises(UnsupportedSettingError) as info:
        apriori_optimal_threshold(blocked, [1.0])
    assert str(info.value) == "a priori analysis requires identically distributed components"
    with pytest.raises(ParameterError):
        apriori_optimal_threshold(
            Scenario(p=100, m=1, n=1, beta=0.5, r=0.5, marginal=Normal()),
            [1.0],
            "bootstrap",
        )


def test_apriori_optimal_threshold_grid_rules():
    sc = Scenario(p=2000, m=1, n=1, beta=0.7, r=0.6, marginal=Normal())
    single = apriori_optimal_threshold(sc, [1.3])
    assert single.t_star == 1.3
    curve = apriori_optimal_threshold(sc, np.linspace(0.0, 5.0, 21))
    assert curve.values.max() == curve.values[curve.ts == curve.t_star][0]
    # re-assert the argmax by scan, smallest t on ties
    best = curve.values.max()
    assert curve.t_star == curve.ts[curve.values == best].min()
    with pytest.raises(ParameterError):
        apriori_optimal_threshold(sc, [])


def test_apriori_constant_curve_takes_smallest_t():
    sc = Scenario(p=2000, m=1, n=1, beta=0.7, r=0.6, marginal=Normal())
    curve = apriori_optimal_threshold(sc, [1e9, 2e9, 3e9])
    assert np.all(curve.values == 0.5)
    assert curve.t_star == 1e9


def test_apriori_monte_carlo_curve_is_its_points(monkeypatch):
    """One engine study scores the whole grid, and each of its points is the
    one-point study: trial j of every t sees the dataset of derive_seed(b, j)."""
    sc = Scenario(p=500, m=1, n=1, beta=0.6, r=0.7, marginal=Normal())
    ts = [0.0, 0.4, 0.8, 1.2, 1.6]
    calls = []
    run_cells = experiments._run_cells
    monkeypatch.setattr(
        experiments, "_run_cells", lambda *args: calls.append(args[1]) or run_cells(*args)
    )
    curve = apriori_optimal_threshold(sc, ts, "monte_carlo", trials=30, base_seed=12)
    assert calls == [experiments._t_grid_trial]
    for k, t in enumerate(ts):
        point = apriori_optimal_threshold(sc, [t], "monte_carlo", trials=30, base_seed=12)
        assert curve.values[k] == point.values[0]


def test_apriori_success_rate_values_are_pinned():
    sc = Scenario(p=500, m=1, n=1, beta=0.6, r=0.7, marginal=Normal())
    # Values and SEs as the per-point studies computed them before the grid
    # became one study.
    mc = [
        apriori_optimal_threshold(sc, [t], "monte_carlo", trials=40, base_seed=11).values[0]
        for t in (0.8, 1.6)
    ]
    assert [(v, math.sqrt(v * (1 - v) / 40)) for v in mc] == [
        (0.65, 0.07541551564499178),
        (0.7, 0.07245688373094719),
    ]
    assert apriori_optimal_threshold(sc, [0.8]).values.tolist() == [0.6799120216832418]


def test_normal_approximation_matches_scipy_norm_cdf():
    from scipy.stats import norm

    for mu in (-1e308, -40.0, -3.0, -0.5, 0.0, 0.5, 0.75, 3.0, 40.0, 1e308):
        for var in (1e-300, 0.25, 1.0, 7.0, 1e300):
            want = float(norm.cdf((0.5 - mu) / math.sqrt(var)))
            assert _one_sided(mu, var, True).hex() == want.hex()
            assert _one_sided(mu, var, False).hex() == (1.0 - want).hex()


@pytest.mark.parametrize("method", ["normal_approx", "monte_carlo"])
def test_apriori_rejects_nan_thresholds(method):
    sc = Scenario(p=500, m=1, n=1, beta=0.6, r=0.7, marginal=Normal())
    with pytest.raises(ParameterError, match="free of NaN"):
        apriori_optimal_threshold(sc, [float("nan")], method, trials=4)
    with pytest.raises(ParameterError, match=r"free of NaN, got \[0.5, nan\]"):
        apriori_optimal_threshold(sc, [0.5, float("nan")], method, trials=4)


@pytest.mark.parametrize("method", ["normal_approx", "monte_carlo"])
def test_apriori_rejects_a_degenerate_scenario(method):
    # At p = 200 the calibrated shift for r = 0.1 is negative.
    sc = Scenario(p=200, m=1, n=1, beta=0.6, r=0.1, marginal=Normal())
    with pytest.raises(DegenerateScenarioError, match=r"shift amount -0\.224\d* is not positive"):
        apriori_optimal_threshold(sc, [0.0, 0.5], method, trials=4)
