"""Indicator statistics, threshold selection, and the competitor rules.

The brute-force oracles here recompute everything from the definition:
indicator vectors per row, Hamming distances, nearest rows with lowest-index
ties, and a python loop over every candidate threshold.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustnn import (
    ConfigurationError,
    ExtremaMethod,
    FixedThresholdMethod,
    ParameterError,
    RobustMethod,
    ShapeError,
    StandardNNMethod,
    TruncatedNNMethod,
    classify_extrema,
    classify_nn_standard,
    classify_nn_truncated,
    classify_robust,
    compute_T_S,
    evaluate_method,
    select_threshold,
    threshold_scan,
    truncate_values,
    zp_value,
)
from robustnn.classifier import DEFAULT_C, DEFAULT_XI, METHODS, RULES, make_method
from robustnn import classifier
from robustnn.classifier import _below
from robustnn.cli import dispatch


def brute_label(X, Y, z, t):
    """Nearest-neighbor verdict on the 0-1 vectors, ties and all."""
    I = (np.asarray(X) > t).astype(int)
    J = (np.asarray(Y) > t).astype(int)
    K = (np.asarray(z) > t).astype(int)
    dx = min(int(np.abs(row - K).sum()) for row in I)
    dy = min(int(np.abs(row - K).sum()) for row in J)
    return "X" if dx <= dy else "Y"


def brute_T_S(X, Y, z, t):
    I = (np.asarray(X) > t).astype(int)
    J = (np.asarray(Y) > t).astype(int)
    K = (np.asarray(z) > t).astype(int)
    dxs = [int(np.abs(row - K).sum()) for row in I]
    dys = [int(np.abs(row - K).sum()) for row in J]
    ix = dxs.index(min(dxs))
    iy = dys.index(min(dys))
    T = int(((I[ix] - J[iy]) * (1 - 2 * K)).sum())
    S2 = int(I[ix].sum() + J[iy].sum())
    return T, S2


def scan_grid(X, Y, z, t0):
    pooled = np.unique(np.concatenate([np.ravel(X), np.ravel(Y), np.ravel(z)]))
    upper = pooled[pooled >= t0]
    if upper.size < 2:
        return [t0]
    return [t0] + list(0.5 * (upper[:-1] + upper[1:]))


def random_instance(rng):
    p = rng.integers(2, 21)
    m = rng.integers(1, 4)
    n = rng.integers(1, 4)
    X = rng.integers(0, 6, (m, p)).astype(float)
    Y = rng.integers(0, 6, (n, p)).astype(float)
    z = rng.integers(0, 6, p).astype(float)
    return X, Y, z


def test_truncate_values():
    np.testing.assert_array_equal(
        truncate_values(np.array([-1.0, 0.0, 0.5, 2.0]), 0.5), [0.0, 0.0, 0.0, 2.0]
    )


def test_compute_T_S_hand_trace():
    # I=[0,1,0], J=[1,0,1], K=[1,1,0]:
    # T = (0-1)(-1) + (1-0)(-1) + (0-1)(+1) = -1, S2 = 1 + 2 = 3
    stats = compute_T_S([[0.5, 2.5, 1.0]], [[2.0, 0.2, 3.0]], [1.5, 2.2, 0.1], 1.2)
    assert (stats.T, stats.S2) == (-1, 3)


def test_compute_T_S_hand_trace_multirow():
    X = [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]
    Y = [[5.0, 5.0, 5.0], [0.1, 0.1, 0.1]]
    z = [1.5, 2.2, 0.1]
    stats = compute_T_S(X, Y, z, 1.2)
    # K=[1,1,0]: x-row 1 at distance 1, y-row 0 at distance 1
    assert (stats.T, stats.S2) == (0, 6)


def test_compute_T_S_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(300):
        X, Y, z = random_instance(rng)
        t = float(rng.uniform(-1, 6))
        stats = compute_T_S(X, Y, z, t)
        assert (stats.T, stats.S2) == brute_T_S(X, Y, z, t)


def test_T_equals_signed_distance_difference():
    rng = np.random.default_rng(18)
    for _ in range(200):
        X, Y, z = random_instance(rng)
        t = float(rng.uniform(-1, 6))
        stats = compute_T_S(X, Y, z, t)
        K = (z > t).astype(int)
        dx = min(int(np.abs((row > t).astype(int) - K).sum()) for row in X)
        dy = min(int(np.abs((row > t).astype(int) - K).sum()) for row in Y)
        assert stats.T == dx - dy
        assert (stats.T <= 0) == (brute_label(X, Y, z, t) == "X")


def test_threshold_scan_matches_pointwise():
    rng = np.random.default_rng(19)
    for _ in range(50):
        X, Y, z = random_instance(rng)
        ts = np.asarray(scan_grid(X, Y, z, float(np.median(np.concatenate([X.ravel(), Y.ravel()])))))
        T, S2 = threshold_scan(X, Y, z, ts)
        for k, t in enumerate(ts):
            stats = compute_T_S(X, Y, z, t)
            assert (T[k], S2[k]) == (stats.T, stats.S2)


def assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@st.composite
def tied_instances(draw):
    """Small integer data with heavy ties, and thresholds in any order that
    hit the data, miss it, or are NaN."""
    m, n, p = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    values = st.integers(-2, 2).map(float)
    X = draw(arrays(float, (m, p), elements=values))
    Y = draw(arrays(float, (n, p), elements=values))
    z = draw(arrays(float, p, elements=values))
    pooled = sorted(set(np.concatenate([X.ravel(), Y.ravel(), z]).tolist()))
    t = st.one_of(
        st.sampled_from(pooled + [-math.inf, math.inf]),
        st.floats(-3.0, 3.0, allow_nan=False),
        st.just(math.nan),
    )
    ts = np.array(draw(st.lists(t, min_size=1, max_size=8)))
    return X, Y, z, ts


@settings(max_examples=300, deadline=None)
@given(tied_instances())
def test_threshold_scan_matches_compute_T_S_at_any_threshold(instance):
    X, Y, z, ts = instance
    T, S2 = threshold_scan(X, Y, z, ts)
    assert T.dtype == S2.dtype == np.int64
    for k, t in enumerate(ts):
        stats = compute_T_S(X, Y, z, t)
        assert (T[k], S2[k]) == (stats.T, stats.S2)


# _below's dtypes: the fold kernel's np.min_scalar_type(2p), uint8, uint16
# and uint32, and int64 as one more input case.
BELOW_DTYPES = [np.dtype(np.int64)] + [np.min_scalar_type(k) for k in (12, 65535, 65536)]

bins_and_size = st.integers(1, 40).flatmap(
    lambda size: st.tuples(
        arrays(np.intp, st.integers(0, 60), elements=st.integers(0, size)), st.just(size)
    )
)


@settings(max_examples=300, deadline=None)
@given(bins_and_size, st.sampled_from(BELOW_DTYPES), st.booleans())
@example((np.array([], dtype=np.intp), 1), np.dtype(np.uint8), False)
@example((np.array([], dtype=np.intp), 7), np.dtype(np.int64), True)
@example((np.array([3, 0, 6, 1, 1, 0, 5, 6], dtype=np.intp), 6), np.dtype(np.uint32), False)
# Narrow bins on each side of the edges of np.min_scalar_type(size).
@example((np.array([255, 0, 254, 255, 7], dtype=np.intp), 255), np.dtype(np.uint8), True)
@example((np.array([256, 255, 0, 255, 7], dtype=np.intp), 256), np.dtype(np.uint16), True)
@example((np.array([65535, 0, 65534, 9], dtype=np.intp), 65535), np.dtype(np.uint16), True)
@example((np.array([65536, 65535, 0, 9], dtype=np.intp), 65536), np.dtype(np.uint32), True)
def test_below_counts_the_bins_at_or_below_each_point_either_way(bins_size, dtype, narrow):
    bins, size = bins_size  # duplicates, and bins at 0, at size - 1 and at size
    if narrow:  # the fold kernel's ranks, in the least unsigned type that holds size
        bins = bins.astype(np.min_scalar_type(size))
    want = [(bins <= c).sum() for c in range(size)]
    for sort_above in (0, math.inf):  # always sort; never (size > nan is False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "_SORT_ABOVE", sort_above)
            got = _below(bins, size, dtype)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_scan_grid_finite_near_float_max():
    # 0.5 * (a + b) overflows for neighbors this large; the grid must not.
    big = np.finfo(float).max
    X = np.array([[0.90 * big, 1.0, -0.98 * big]])
    Y = np.array([[0.97 * big, 3.0, -0.93 * big]])
    z = np.array([0.96 * big, 1.5, -0.99 * big])
    trace = select_threshold(X, Y, z, t0=-big).trace
    assert trace.ts.size == 9
    assert np.isfinite(trace.ts).all() and (np.diff(trace.ts) > 0).all()
    for k, t in enumerate(trace.ts):
        stats = compute_T_S(X, Y, z, t)
        assert (trace.T[k], trace.S2[k]) == (stats.T, stats.S2)


@st.composite
def adjacent_instances(draw):
    """Up to 5 rows per class of tied integers, some moved up by one to three
    ulps: a midpoint between adjacent doubles rounds onto one of them, onto
    the upper one about half the time."""
    m, n, p = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(2, 6))

    def ulps_up(v):
        x = float(v[0])
        for _ in range(v[1]):
            x = np.nextafter(x, math.inf)
        return x

    values = st.tuples(st.integers(-2, 2), st.integers(0, 3)).map(ulps_up)
    X = draw(arrays(float, (m, p), elements=values))
    Y = draw(arrays(float, (n, p), elements=values))
    z = draw(arrays(float, p, elements=values))
    t0 = draw(st.one_of(st.none(), st.sampled_from(np.concatenate([X.ravel(), z]).tolist())))
    return X, Y, z, t0


@settings(max_examples=300, deadline=None)
@given(adjacent_instances(), st.data())
def test_default_grid_cuts_match_the_searched_grid(instance, data):
    X, Y, z, t0 = instance
    trace = select_threshold(X, Y, z, t0=t0).trace
    fields = (trace.T, trace.S2)
    assert_same_arrays(threshold_scan(X, Y, z, trace.ts), fields)
    # A caller's grid in any order reads each point at its own cut.
    order = np.array(data.draw(st.permutations(range(trace.ts.size))))
    assert_same_arrays(threshold_scan(X, Y, z, trace.ts[order]), [a[order] for a in fields])
    for k, t in enumerate(trace.ts):
        stats = compute_T_S(X, Y, z, t)
        assert (trace.T[k], trace.S2[k]) == (stats.T, stats.S2)


def test_threshold_scan_of_an_empty_grid_is_two_empty_int64_arrays():
    X, Y, z = [[1.0, 2.0], [0.5, 3.0]], [[3.0, 4.0]], [0.0, 5.0]
    got = threshold_scan(X, Y, z, [])
    assert [(a.dtype, a.shape) for a in got] == [(np.dtype(np.int64), (0,))] * 2


def test_default_t0_finite_near_float_max():
    # (a + b) / 2 of the two middle values overflows here; their midpoint does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decision = select_threshold([[1.7e308, 1.7e308]], [[1.7e308, 1.0]], [1.7e308, 1.0])
    assert float(decision.trace.ts[0]) == 1.7e308


finite_or_tied = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 5), st.data())
def test_default_t0_is_np_median(m, n, p, data):
    X = data.draw(arrays(float, (m, p), elements=finite_or_tied))
    Y = data.draw(arrays(float, (n, p), elements=finite_or_tied))
    with np.errstate(over="ignore"):
        median = float(np.median(np.concatenate([X.ravel(), Y.ravel()])))
    assume(math.isfinite(median))
    # The pooled count (m + n) * p is odd or even; repr tells -0.0 from 0.0.
    assert repr(float(select_threshold(X, Y, np.zeros(p)).trace.ts[0])) == repr(median)


@pytest.mark.parametrize(
    "call",
    [
        lambda X, Y, z: compute_T_S(X, Y, z, 0.5),
        lambda X, Y, z: threshold_scan(X, Y, z, [0.5]),
        lambda X, Y, z: select_threshold(X, Y, z),
        lambda X, Y, z: classify_robust(X, Y, z),
        lambda X, Y, z: classify_nn_standard(X, Y, z),
        lambda X, Y, z: classify_nn_truncated(X, Y, z, 0.5),
        lambda X, Y, z: classify_extrema(X, Y, z),
    ],
    ids=[
        "compute_T_S",
        "threshold_scan",
        "select_threshold",
        "classify_robust",
        "classify_nn_standard",
        "classify_nn_truncated",
        "classify_extrema",
    ],
)
def test_non_finite_inputs_are_rejected_with_their_position(call):
    X = np.zeros((2, 3))
    Y = np.ones((2, 3))
    z = np.full(3, 0.5)
    bad_x, bad_y, bad_z = X.copy(), Y.copy(), z.copy()
    bad_x[1, 2] = np.nan
    bad_y[0, 1] = -np.inf
    bad_z[2] = np.inf
    with pytest.raises(ParameterError, match=r"train_x .* value nan at row 1, column 2"):
        call(bad_x, Y, z)
    with pytest.raises(ParameterError, match=r"train_y .* value -inf at row 0, column 1"):
        call(X, bad_y, z)
    with pytest.raises(ParameterError, match=r"z has a non-finite value inf at component 2"):
        call(X, Y, bad_z)


def test_zp_value_closed_forms():
    assert zp_value("independent", 3226, 0.5) == pytest.approx(1.4211789347831216, rel=1e-12)
    assert zp_value("dependent", 20000, 0.16) == pytest.approx(1.5845580084057804, rel=1e-12)
    assert zp_value("independent", 100, 0.5) == 0.5 * math.sqrt(math.log(100))
    assert zp_value("dependent", 100, 0.2) == 0.2 * math.log(100)
    for rule in ("bonferroni", "independent_sqrt_logp", "dependent_logp"):
        with pytest.raises(ParameterError) as info:
            zp_value(rule, 100, 0.5)
        assert str(info.value) == (
            f"unknown rule {rule!r}; expected one of ['independent', 'dependent']"
        )
    with pytest.raises(ParameterError):
        zp_value("independent", 1, 0.5)
    with pytest.raises(ParameterError):
        zp_value("independent", 100, -0.1)
    with pytest.raises(ParameterError, match="got nan"):
        zp_value("dependent", 100, float("nan"))
    with pytest.raises(ParameterError, match="got inf"):
        zp_value("independent", 100, float("inf"))


def test_default_critical_values_cross_near_p_17424():
    # 0.5 sqrt(log p) = 0.16 log p at log p = (0.5 / 0.16)^2 = 9.765625.
    def independent(p):
        return zp_value("independent", p, DEFAULT_C)

    def dependent(p):
        return zp_value("dependent", p, DEFAULT_XI)

    assert independent(17424) > dependent(17424)
    assert independent(17425) < dependent(17425)
    # At p = 20000 the defaults differ by 0.7%, so no study at that p separates the rules.
    assert independent(20000) == pytest.approx(1.5735, abs=5e-5)
    assert dependent(20000) == pytest.approx(1.5846, abs=5e-5)
    assert dependent(20000) / independent(20000) - 1 == pytest.approx(0.007, abs=5e-4)


def test_select_threshold_matches_brute_scan():
    rng = np.random.default_rng(20)
    for _ in range(200):
        X, Y, z = random_instance(rng)
        t0 = float(rng.uniform(-0.5, 5.5))
        c = float(rng.uniform(0.05, 1.0))
        decision = select_threshold(X, Y, z, xi_or_c=c, t0=t0)
        z_p = c * math.sqrt(math.log(z.size))
        hit = None
        for k, t in enumerate(scan_grid(X, Y, z, t0)):
            T, S2 = brute_T_S(X, Y, z, t)
            if S2 > 0 and abs(T) > z_p * math.sqrt(S2):
                hit = (k, t)
                break
        if hit is None:
            assert decision.defaulted
            assert decision.theta == t0
            assert decision.theta_index == 0
        else:
            assert not decision.defaulted
            assert decision.theta_index == hit[0]
            assert decision.theta == pytest.approx(hit[1])


def test_select_threshold_default_t0_is_pooled_median():
    X = np.array([[1.0, 2.0, 3.0]])
    Y = np.array([[4.0, 5.0, 6.0]])
    z = np.array([0.0, 0.0, 10.0])
    decision = select_threshold(X, Y, z)
    assert float(decision.trace.ts[0]) == 3.5


def select_threshold_peak_units(m, p):
    """select_threshold's tracemalloc peak at m = n rows of standard normals,
    in units of the data and the grid as doubles, ((m + n + 1) p + grid) 8 B."""
    n = m
    rng = np.random.default_rng(31)
    X, Y, z = rng.standard_normal((m, p)), rng.standard_normal((n, p)), rng.standard_normal(p)
    tracemalloc.start()
    try:
        decision = select_threshold(X, Y, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (((m + n + 1) * p + decision.trace.ts.size) * 8)


def test_select_threshold_memory_is_linear_in_the_data_and_the_grid():
    # 40 training rows over a grid of about 20,000 points: dense profiles
    # would hold 80 rows x 20,000 columns (13 MB), 27 times the unit.
    assert select_threshold_peak_units(20, 1000) < 6


def test_select_threshold_peak_per_common_cut_on_narrow_integers():
    # At m = n = 5, p = 200,000 the grid has about 1.1 million common cuts,
    # so ranks take 4 bytes, and distances and counts, at most 2p, 4 bytes.
    # The peak is then the pooled ranking: the stacked rows and their ranks,
    # 8 B per pooled value and about two pooled values per cut, and its sort
    # arrays, about 65 B per cut.  Held in int64, the scan's per-cut state
    # alone took the peak to about 98 B per cut.
    rng = np.random.default_rng(31)
    p = 200_000
    X, Y, z = rng.standard_normal((5, p)), rng.standard_normal((5, p)), rng.standard_normal(p)
    tracemalloc.start()
    try:
        decision = select_threshold(X, Y, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_cut = peak / decision.trace.ts.size
    assert per_cut < 75, per_cut


@pytest.mark.parametrize(("m", "p", "bound"), [(20, 1000, 4.45), (1, 20000, 3.8)])
def test_select_threshold_keeps_no_grid_length_neighbour_rows(m, p, bound):
    # The scan holds T, S^2 and each class's count below at every cut, and no
    # nearest-row index: about 4.1 units at m = n = 20 and 3.2 at m = n = 1,
    # where index arrays of the cuts' length read 4.8 and 4.3.
    assert select_threshold_peak_units(m, p) < bound


def test_classify_robust_label_rule():
    rng = np.random.default_rng(22)
    for _ in range(100):
        X, Y, z = random_instance(rng)
        label, decision = classify_robust(X, Y, z, t0=0.0)
        T_at_theta = decision.trace.T[decision.theta_index]
        assert label == ("X" if T_at_theta <= 0 else "Y")


def test_classify_robust_all_ties_goes_to_x():
    X = [[1.0, 1.0]]
    Y = [[1.0, 1.0]]
    z = [1.0, 1.0]
    label, decision = classify_robust(X, Y, z)
    assert label == "X"
    assert decision.defaulted


def test_monotone_transform_invariance():
    # indicators only see order, so any strictly increasing map fixes the label
    rng = np.random.default_rng(23)
    g = lambda v: v**3 + v
    for _ in range(50):
        p = int(rng.integers(3, 30))
        X = rng.normal(0, 1, (int(rng.integers(1, 4)), p))
        Y = rng.normal(0.3, 1, (int(rng.integers(1, 4)), p))
        z = rng.normal(0, 1, p)
        label, _ = classify_robust(X, Y, z)
        label_g, _ = classify_robust(g(X), g(Y), g(z))
        assert label == label_g


@settings(max_examples=300, deadline=None)
@given(tied_instances(), st.integers(-6, 6))
def test_label_invariant_under_increasing_map_at_a_given_t0(instance, twice_t0):
    # The scan visits every indicator configuration from t0 upward, and a
    # strictly increasing f keeps each value's side of t0 when t0 maps to f(t0).
    X, Y, z, _ = instance
    assume(z.size >= 2)
    t0 = twice_t0 / 2
    f = lambda v: v**3  # exact on these halves and integers
    label, _ = classify_robust(X, Y, z, t0=t0)
    assert classify_robust(f(X), f(Y), f(z), t0=f(t0))[0] == label


@st.composite
def small_instances(draw):
    """Rows of small integers, heavy with ties, or of t(3) draws; m, n <= 4, p <= 11."""
    m, n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 11))
    if draw(st.booleans()):
        values = st.integers(-2, 2).map(float)
        return tuple(draw(arrays(float, shape, elements=values)) for shape in ((m, p), (n, p), p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_t(3, (m, p)), rng.standard_t(3, (n, p)), rng.standard_t(3, p)


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.sampled_from(RULES), st.data())
def test_permuting_the_components_keeps_the_label_and_theta(instance, rule, data):
    # T, S^2, the nearest rows and the pooled median are all sums or order
    # statistics over the components, so no order of them matters.
    X, Y, z = instance
    perm = list(data.draw(st.permutations(range(z.size))))
    label, decision = classify_robust(X, Y, z, rule)
    label_p, decision_p = classify_robust(X[:, perm], Y[:, perm], z[perm], rule)
    assert (label_p, decision_p.theta) == (label, decision.theta)


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.sampled_from(RULES))
@example((np.ones((1, 2)), np.ones((1, 2)), np.ones(2)), "independent")  # T(theta) = 0
def test_swapping_x_and_y_flips_the_label_unless_T_at_theta_is_zero(instance, rule):
    # The swap negates T at every threshold and keeps S^2, so the same
    # threshold fires; at T(theta) = 0 both calls assign z to X.
    X, Y, z = instance
    label, decision = classify_robust(X, Y, z, rule)
    swapped, decision_s = classify_robust(Y, X, z, rule)
    assert decision_s.theta == decision.theta
    if decision.trace.T[decision.theta_index] == 0:
        assert label == swapped == "X"
    else:
        assert {label, swapped} == {"X", "Y"}


def test_classify_nn_standard():
    X = [[0.0, 0.0]]
    Y = [[3.0, 3.0]]
    assert classify_nn_standard(X, Y, [1.0, 1.0]) == "X"
    assert classify_nn_standard(X, Y, [2.5, 2.5]) == "Y"
    assert classify_nn_standard(X, Y, [1.5, 1.5]) == "X"  # tie


def test_classify_nn_truncated():
    X = [[0.0, 10.0]]
    Y = [[5.0, 0.0]]
    z = [0.5, 9.0]
    assert classify_nn_truncated(X, Y, z, t=-100.0) == classify_nn_standard(X, Y, z)
    assert classify_nn_truncated(X, Y, z, t=100.0) == "X"  # everything zeroed, tie


def test_classify_extrema():
    assert classify_extrema([[1.0, 5.0]], [[9.0, 2.0]], [6.5, 0.0]) == "X"
    assert classify_extrema([[1.0, 4.0]], [[9.0, 2.0]], [8.0, 0.0]) == "Y"
    assert classify_extrema([[2.0, 4.0]], [[6.0, 2.0]], [5.0, 0.0]) == "X"  # tie


def test_nn_rules_near_float_max_compare_without_overflow():
    X, Y, z = [[1.7e308, 1.0]], [[-1e308, 1.0]], [-1.7e308, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Both distances overflow; in exact arithmetic Y's is the smaller.
        assert classify_nn_standard(X, Y, z) == "Y"
        assert classify_nn_standard(Y, X, z) == "X"
        assert classify_nn_standard(X, X, z) == "X"  # tie
        assert classify_nn_truncated(X, Y, z, t=-1.79e308) == "Y"
        assert classify_nn_truncated(Y, X, z, t=-1.79e308) == "X"
        # No difference overflows, only the sum of the squares.
        big = np.full((1, 5000), 1e200)
        assert classify_nn_standard(big, -big, 0.9 * big[0]) == "X"
        assert classify_nn_standard(-big, big, 0.9 * big[0]) == "Y"


def test_nn_rules_compare_tiny_distances_without_underflow():
    # Unscaled, both squared distances underflow to 0 and tie.
    assert classify_nn_standard([[1e-200]], [[3e-200]], [2.9e-200]) == "Y"
    assert classify_nn_standard([[3e-200]], [[1e-200]], [2.9e-200]) == "X"
    assert classify_nn_truncated([[1e-200]], [[3e-200]], [2.9e-200], t=0.0) == "Y"


def test_extrema_near_float_max_compares_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Both differences overflow; Y's maximum is the nearer one.
        assert classify_extrema([[1.7e308]], [[1.6e308]], [-1.7e308]) == "Y"
        assert classify_extrema([[1.6e308]], [[1.7e308]], [-1.7e308]) == "X"
        assert classify_extrema([[1.7e308]], [[1.7e308]], [-1.7e308]) == "X"  # tie
        assert classify_extrema([[1.7e308]], [[-1e308]], [-1.7e308]) == "Y"


def test_loo_nn_near_float_max_is_exact_and_silent(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text(
        "label,f0,f1\nX,1.7e308,1.0\nX,1.6e308,1.0\nY,-1e308,1.0\nY,-1.7e308,1.0\n"
    )
    out = tmp_path / "loo.json"
    assert dispatch(["loo", "--data", str(data), "--method", "nn", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["accuracy"] == 1.0


DISPATCH_SPECS = {
    "robust": RobustMethod(xi_or_c=0.4),
    "nn": StandardNNMethod(),
    "nn_trunc": TruncatedNNMethod(t=2.0),
    "fixed_threshold": FixedThresholdMethod(t=2.0),
    "extrema": ExtremaMethod(),
}


@pytest.mark.parametrize("name", list(METHODS))
def test_evaluate_method_dispatch(name):
    # A method added to the table without a spec here, or without its
    # labelling function, fails.
    X, Y, z = random_instance(np.random.default_rng(24))
    label, decision = classify_robust(X, Y, z, xi_or_c=0.4)
    expected = {
        "robust": (label, decision.theta, decision.defaulted),
        "nn": (classify_nn_standard(X, Y, z), None, None),
        "nn_trunc": (classify_nn_truncated(X, Y, z, 2.0), None, None),
        "fixed_threshold": ("X" if compute_T_S(X, Y, z, 2.0).T <= 0 else "Y", None, None),
        "extrema": (classify_extrema(X, Y, z), None, None),
    }
    method = DISPATCH_SPECS[name]
    assert type(method) is METHODS[name]
    assert evaluate_method(X, Y, z, method) == expected[name]


def test_evaluate_method_rejects_a_non_spec():
    X, Y, z = random_instance(np.random.default_rng(24))
    with pytest.raises(ParameterError):
        evaluate_method(X, Y, z, "robust")


def test_make_method_rejects_an_unknown_rule():
    assert RULES == ("independent", "dependent")
    for rule in ("bogus", "independent_sqrt_logp", "dependent_logp"):
        with pytest.raises(ParameterError) as info:
            make_method("robust", rule=rule)
        assert str(info.value) == (
            f"unknown rule {rule!r}; expected one of ['independent', 'dependent']"
        )
    assert make_method("robust", rule="dependent").xi_or_c == DEFAULT_XI


def test_threshold_methods_need_a_finite_t():
    for build, message in [
        (lambda: TruncatedNNMethod(t=math.inf), "nn_trunc threshold t must be finite, got inf"),
        (
            lambda: make_method("fixed_threshold", t=math.nan),
            "fixed_threshold threshold t must be finite, got nan",
        ),
        (
            lambda: FixedThresholdMethod(t=-math.inf),
            "fixed_threshold threshold t must be finite, got -inf",
        ),
    ]:
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == message
    with pytest.raises(ConfigurationError) as info:
        make_method("nn_trunc")
    assert str(info.value) == "nn_trunc needs a threshold t"
    assert make_method("nn_trunc", t=0.5) == TruncatedNNMethod(t=0.5)


def test_defaults():
    assert DEFAULT_C == 0.5
    assert DEFAULT_XI == 0.16
    m = RobustMethod()
    assert m.rule == "independent" and m.xi_or_c == 0.5


def test_the_default_slope_follows_the_rule():
    assert RobustMethod(rule="dependent").xi_or_c == DEFAULT_XI
    assert RobustMethod(rule="dependent") == make_method("robust", rule="dependent")
    rng = np.random.default_rng(3)
    for _ in range(20):
        (X, Y), z = rng.standard_t(3, (2, 1, 2000)), rng.standard_t(3, 2000)
        default = select_threshold(X, Y, z, rule="dependent")
        explicit = select_threshold(X, Y, z, rule="dependent", xi_or_c=DEFAULT_XI)
        assert (default.theta, default.defaulted) == (explicit.theta, explicit.defaulted)
        assert classify_robust(X, Y, z, "dependent")[0] == classify_robust(
            X, Y, z, "dependent", DEFAULT_XI
        )[0]


def test_shape_validation():
    with pytest.raises(ShapeError):
        compute_T_S([[1.0, 2.0]], [[1.0, 2.0, 3.0]], [1.0, 2.0], 0.5)
    with pytest.raises(ShapeError):
        compute_T_S([[1.0, 2.0]], [[1.0, 2.0]], [1.0, 2.0, 3.0], 0.5)
    with pytest.raises(ShapeError):
        classify_nn_standard([[1.0, 2.0]], [[1.0, 2.0]], [[1.0, 2.0]])
    with pytest.raises(ParameterError):
        select_threshold([[1.0, 2.0]], [[1.0, 2.0]], [1.0, 2.0], t0=math.inf)


THREE = [[0.0, 1.0, 2.0]] * 3, [[1.0, 2.0, 3.0]], [0.5, 1.5, 2.5]


def test_a_grid_of_more_than_one_dimension_is_a_shape_error_naming_ts():
    X, Y, z = THREE
    message = r"^ts must be a scalar or 1-dimensional, got shape \(2, 2\)$"
    with pytest.raises(ShapeError, match=message):
        threshold_scan(X, Y, z, [[0.1, 0.2], [0.3, 0.4]])
    assert threshold_scan(X, Y, z, 1.0)[0].shape == (1,)  # a scalar grid is one point


def test_a_non_scalar_t0_is_a_parameter_error_naming_t0():
    X, Y, z = THREE
    for t0 in (np.array([0.5]), [0.5, 1.5], np.zeros((1, 1))):
        with pytest.raises(ParameterError, match=r"^t0 must be a scalar, got shape \("):
            select_threshold(X, Y, z, t0=t0)
        with pytest.raises(ParameterError, match=r"^t0 must be a scalar"):
            classify_robust(X, Y, z, t0=t0)
    assert select_threshold(X, Y, z, t0=np.float64(1.0)).trace.ts[0] == 1.0


def test_one_dimensional_training_promoted_to_single_row():
    label = classify_nn_standard([0.0, 0.0], [3.0, 3.0], [0.5, 0.5])
    assert label == "X"
