"""Threshold tuning: leave-one-out cross-validation and a priori analysis.

``cv_error`` scores a truncation level t by leave-one-out nearest-neighbor
errors on the zeroed-below-t training vectors: with v' = v * 1(v > t),

    CV(t) = (1/m) sum_i 1{ min_{i1 != i} ||X'_i1 - X'_i|| > min_j ||Y'_j - X'_i|| }
          + (1/n) sum_j 1{ min_{j1 != j} ||Y'_j1 - Y'_j|| > min_i ||X'_i - Y'_j|| },

distances squared Euclidean and the comparisons strict, so exact ties count
as non-errors; so do gaps within 1e-9 of the other-class distance, which are
rounding.  Distances are taken once, on values times ``_overflow_scale``, so
CV does not depend on the data's units.  CV is piecewise constant in t;
``select_threshold_cv`` evaluates it on a grid covering every constancy
interval and reports the infimum of the minimizers.

The curve comes from one pooled argsort: each grid point is a cut in
the rank order, and the values ranked below it are zeroed.  Component k of
a pair a, b adds (a_k - b_k)^2 until the smaller value is zeroed, then
max(a_k, b_k)^2 until the larger is.  So the pair's distance at a cut is a
sum from the top rank down (one ``bincount``, then ``cumsum``) of two steps
per component: max(a_k, b_k)^2 at the larger value's rank and
(a_k - b_k)^2 - max(a_k, b_k)^2 at the smaller's, both +0.0 where a_k == b_k.
Where all that remains is zeroed or equal it is exactly 0.  Two pairs share
one ``bincount`` and one complex ``cumsum``, one pair in each part, with the
same sums as their own.
The pairs are taken in two passes.  The first folds each cross-class
pair into both rows' least distance to the other class, one (m + n, grid)
array, and guards it once; the second marks, for each row and cut, whether
some same-class distance is within that guarded bound.  A row is an error
where none is, since the least same-class distance exceeds the bound
exactly when every one does.  So memory is (m + n) * grid floats plus as
many bools.

``apriori_success_rate`` predicts the balanced success probability of the
fixed-threshold indicator classifier when m = n = 1 with independent
components.  Each component contributes an independent term
(I - J)(1 - 2K) in {-1, 0, +1} to T, with exceedance probabilities known
from the scenario's marginal and shift, so T's exact mean and variance
follow per test-vector label and a normal approximation (with continuity
correction) yields P(T <= 0 | X) and P(T > 0 | Y).  A Monte Carlo method
estimates the same probability by full simulation and serves as the
reference for the approximation: one engine study (``experiments``) in which
trial j, seeded by derive_seed(base_seed, j), scores the whole threshold grid
on its one dataset, as the fixed-threshold success curve does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import _breakpoints, _overflow_scale, _pooled_ranks, _require_finite
from .classifier import truncate_values
from .datagen import Independent, Scenario, shift_amount, shift_count
from .errors import ParameterError, SampleSizeError, ShapeError, UnsupportedSettingError
from . import experiments

__all__ = [
    "CvCurve",
    "cv_error",
    "select_threshold_cv",
    "SuccessEstimate",
    "AprioriCurve",
    "apriori_success_rate",
    "apriori_optimal_threshold",
]

_TIE_GUARD = 1e-9


def _as_rows(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ShapeError(f"{name} must be a (rows, p) array, got shape {a.shape}")
    return a


def _check_cv_inputs(samples_x, samples_y) -> tuple[np.ndarray, np.ndarray]:
    X = _as_rows(samples_x, "samples_x")
    Y = _as_rows(samples_y, "samples_y")
    if X.shape[1] != Y.shape[1]:
        raise ShapeError("samples_x and samples_y must have the same number of components")
    _require_finite(samples_x=X, samples_y=Y)
    if X.shape[0] < 2 or Y.shape[0] < 2:
        raise SampleSizeError(
            "cross-validation needs at least 2 samples per population, got "
            f"m = {X.shape[0]}, n = {Y.shape[0]}"
        )
    return X, Y


def _tie_bound(other: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The nearest other-class distance a same-class one must exceed to be an error.

    Distances are sums taken in different orders, so two that tie in real
    arithmetic can differ by an ulp; the guard keeps such ties non-errors, as
    exact ties are.  It is relative, so it holds at any scale of the data, and
    gaps below it do not otherwise occur: continuous draws never land this close.
    """
    return np.add(other, _TIE_GUARD * other, out=out)


def _is_error(same: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Whether the nearest same-class distance exceeds the nearest other-class one."""
    return same > _tie_bound(other)


def cv_error(t: float, samples_x, samples_y) -> float:
    """Leave-one-out error sum at truncation level t; a value in [0, 2].

    Distances are taken on the truncated values times ``_overflow_scale``."""
    X, Y = _check_cv_inputs(samples_x, samples_y)
    scale = _overflow_scale(X, Y)
    A, B = truncate_values(X, t) * scale, truncate_values(Y, t) * scale
    dxx = ((A[:, None, :] - A[None, :, :]) ** 2).sum(axis=2)
    dyy = ((B[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    dxy = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(dxx, np.inf)
    np.fill_diagonal(dyy, np.inf)
    err_x = float(_is_error(dxx.min(axis=1), dxy.min(axis=1)).mean())
    err_y = float(_is_error(dyy.min(axis=0), dxy.min(axis=0)).mean())
    return err_x + err_y


@dataclass(frozen=True)
class CvCurve:
    """CV evaluated over the full constancy grid, with its minimizer set."""

    ts: np.ndarray
    values: np.ndarray
    minimizers: np.ndarray
    theta_cv: float


def _pair_profiles(rows, cols, top: int, pairs):
    """Yield pairs two at a time with their distance profiles: lanes[q] is
    pair q's, summed from the top rank down, so column k holds cut top - 1 - k.
    The lanes are strided views of one complex array.  cols holds each
    component's lane-0 column, 2 * (top - rank); lane 1's is one more."""
    lane_cols, p = (cols, cols + 1), rows.shape[1]
    # Reused for every pair.  Per lane, the steps at the larger values' columns
    # come first, then those at the smaller values', and a bin sums in that order.
    steps, bins = np.empty((2, 2, p)), np.empty((2, 2, p), np.intp)
    differ = np.empty((2, p), bool)
    for two in (pairs[q : q + 2] for q in range(0, len(pairs), 2)):
        for lane, (i, j) in enumerate(two):
            a, b, c = rows[i], rows[j], lane_cols[lane]
            np.minimum(c[i], c[j], out=bins[lane, 0])
            np.maximum(c[i], c[j], out=bins[lane, 1])
            np.not_equal(a, b, out=differ[lane])
            np.maximum(a, b, out=steps[lane, 0])
            np.subtract(a, b, out=steps[lane, 1])
        k = len(two)
        both, hi, lo = steps[:k], steps[:k, 0], steps[:k, 1]
        # +0.0 steps where a_k == b_k: no step is -0.0, so no sum in a bin
        # is, and adding +0.0 keeps its bits, as if the step were not there.
        np.multiply(hi, differ[:k], out=hi)
        np.square(both, out=both)
        np.subtract(lo, hi, out=lo)  # (a - b)^2 - max(a, b)^2
        # A cumsum is bound by its latency, so a complex one makes two pairs'
        # profiles, one in each part, in the time of one, with the same sums.
        hist = np.bincount(bins[:k].reshape(-1), both.reshape(-1), minlength=2 * top)
        profiles = np.cumsum(hist.view(complex), out=hist.view(complex)).view(float)
        yield two, profiles.reshape(top, 2).T


def select_threshold_cv(samples_x, samples_y) -> CvCurve:
    """Evaluate CV on its full breakpoint grid and take the smallest minimizer."""
    X, Y = _check_cv_inputs(samples_x, samples_y)
    m = X.shape[0]
    rows = np.concatenate([X, Y])
    pooled, ranks = _pooled_ranks(rows)
    # One t per constancy interval: -inf (no truncation), the midpoints
    # between consecutive distinct values, and the top value (all zeroed).
    ts, cuts = _breakpoints(pooled, -np.inf)
    ts, cuts = np.append(ts, pooled[-1]), np.append(cuts, pooled.size)
    top = pooled.size + 1
    rows *= _overflow_scale(rows)  # ranks and ts above come from the unscaled values
    # Each component's lane-0 column, 2 * (top - rank), in the ranks' own memory.
    cols = np.multiply(np.subtract(top, ranks, out=ranks), 2, out=ranks)
    n = len(rows) - m
    pairs = list(zip(*np.triu_indices(m + n, 1)))
    # Pass 1, cross-class pairs: bound[k] is row k's nearest distance to the
    # other class at every cut, then guarded as _is_error guards it.
    bound = np.full((m + n, top), np.inf)
    cross = [(i, j) for i, j in pairs if i < m <= j]
    for two, lanes in _pair_profiles(rows, cols, top, cross):
        for profile, pair in zip(lanes, two):
            for k in pair:
                np.minimum(bound[k], profile, out=bound[k])
    for row in bound:  # one row at a time keeps the temporary one grid long
        _tie_bound(row, out=row)
    # Pass 2, same-class pairs: near[k] marks the cuts where some row of k's
    # class is within bound[k], so k is no error there.  With bound, memory
    # is (m + n) * grid floats plus as many bools.
    near = np.zeros((m + n, top), bool)
    profile, within = np.empty(top), np.empty(top, bool)
    same = [(i, j) for i, j in pairs if not i < m <= j]
    for two, lanes in _pair_profiles(rows, cols, top, same):
        for lane, pair in zip(lanes, two):
            # A contiguous copy: a comparison reads a strided lane several times slower.
            np.copyto(profile, lane)
            for k in pair:
                hit = near[k]
                hit |= np.less_equal(profile, bound[k], out=within)
    count = np.min_scalar_type(max(m, n))  # holds every count; a bool sum casts to int64
    ok_x, ok_y = near[:m].sum(axis=0, dtype=count), near[m:].sum(axis=0, dtype=count)
    errors = (m - ok_x) / m + (n - ok_y) / n
    values = errors[::-1][cuts]  # reversed, index c holds cut c = #(values <= t)
    best = values.min()
    minimizers = ts[values == best]
    return CvCurve(ts=ts, values=values, minimizers=minimizers, theta_cv=float(minimizers[0]))


@dataclass(frozen=True)
class SuccessEstimate:
    """A success probability with its Monte Carlo standard error (0 if exact)."""

    value: float
    se: float


@dataclass(frozen=True)
class AprioriCurve:
    """Predicted success over a threshold grid and its best point."""

    ts: np.ndarray
    values: np.ndarray
    t_star: float
    method: str


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
    q_x, q_y = survival(t), survival(t - shift_amount(scenario))
    shifted = shift_count(scenario.p, scenario.beta)
    plain = scenario.p - shifted
    mean_u, var_u = _term_moments(q_x, q_x, q_x)

    # Test vector from X: every exceedance bit of Z has rate q_x.
    mean_sx, var_sx = _term_moments(q_x, q_y, q_x)
    mu_x = plain * mean_u + shifted * mean_sx
    var_x = plain * var_u + shifted * var_sx
    p_correct_x = _one_sided(mu_x, var_x, want_at_most_zero=True)

    # Test vector from Y: shifted components of Z exceed at rate q_y.
    mean_sy, var_sy = _term_moments(q_x, q_y, q_y)
    mu_y = plain * mean_u + shifted * mean_sy
    var_y = plain * var_u + shifted * var_sy
    p_correct_y = _one_sided(mu_y, var_y, want_at_most_zero=False)

    return 0.5 * (p_correct_x + p_correct_y)


def apriori_success_rate(
    scenario: Scenario,
    t: float,
    method: str = "normal_approx",
    *,
    trials: int = 2000,
    base_seed: int = 0,
) -> SuccessEstimate:
    """Predicted balanced success of the fixed-threshold classifier.

    Requires m = n = 1, independent components, and a single marginal family.
    ``normal_approx`` is exact-moment normal approximation; ``monte_carlo``
    simulates ``trials`` full datasets (balanced labels) and reports the
    binomial standard error.  This is the one-point ``apriori_optimal_threshold``.
    """
    curve = apriori_optimal_threshold(scenario, [t], method, trials=trials, base_seed=base_seed)
    value = float(curve.values[0])
    se = experiments._binomial_se(value, trials) if method == "monte_carlo" else 0.0
    return SuccessEstimate(value=value, se=se)


def apriori_optimal_threshold(
    scenario: Scenario,
    t_grid,
    method: str = "normal_approx",
    *,
    trials: int = 2000,
    base_seed: int = 0,
) -> AprioriCurve:
    """Evaluate the a priori success over a threshold grid; best = smallest argmax."""
    _check_apriori_scenario(scenario)
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if ts.size == 0 or np.isnan(ts).any():
        raise ParameterError(f"t_grid must be nonempty and free of NaN, got {ts.tolist()}")
    if method == "normal_approx":
        values = np.array([_normal_approx_success(scenario, t) for t in ts])
    elif method == "monte_carlo":
        if trials < 2:
            raise ParameterError("monte_carlo needs at least 2 trials")
        per_trial = experiments._run_cells(
            [(scenario, ())], experiments._t_grid_trial, ts, trials, base_seed, None
        )[0]
        values = sum(correct for correct, _ in per_trial) / trials
    else:
        raise ParameterError(f"method must be 'normal_approx' or 'monte_carlo', got {method!r}")
    t_star = float(ts[values == values.max()].min())
    return AprioriCurve(ts=ts, values=values, t_star=t_star, method=method)
