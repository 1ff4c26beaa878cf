"""Threshold tuning: leave-one-out cross-validation and a priori analysis.

``cv_error`` scores a truncation level t by leave-one-out nearest-neighbor
errors on the zeroed-below-t training vectors: with v' = v * 1(v > t),

    CV(t) = (1/m) sum_i 1{ min_{i1 != i} ||X'_i1 - X'_i|| > min_j ||Y'_j - X'_i|| }
          + (1/n) sum_j 1{ min_{j1 != j} ||Y'_j1 - Y'_j|| > min_i ||X'_i - Y'_j|| },

distances squared Euclidean and the comparisons strict, so exact ties count
as non-errors; so do gaps within a relative 1e-9, which are rounding.  CV
is piecewise constant in t; ``select_threshold_cv`` evaluates it on a grid
covering every constancy interval and reports the infimum of the minimizers.

The curve comes from one pooled ``np.unique``: each grid point is a cut in
the rank order, and the values ranked below it are zeroed.  Component k of
a pair a, b adds (a_k - b_k)^2 until the smaller value is zeroed, then
max(a_k, b_k)^2 until the larger is, so the pair's distance at every cut is
its full distance minus two step profiles (``bincount`` of the change ranks
weighted by the weight lost there, then ``cumsum``).  Each unordered pair is
folded once into per-row minima over its own class and over the other, so
memory is O((m + n) * grid).

``apriori_success_rate`` predicts the balanced success probability of the
fixed-threshold indicator classifier when m = n = 1 with independent
components.  Each component contributes an independent term
(I - J)(1 - 2K) in {-1, 0, +1} to T, with exceedance probabilities known
from the scenario's marginal and shift, so T's exact mean and variance
follow per test-vector label and a normal approximation (with continuity
correction) yields P(T <= 0 | X) and P(T > 0 | Y).  A Monte Carlo method
estimates the same probability by full simulation and serves as the
reference for the approximation: it runs ``FixedThresholdMethod(t)`` through
the experiment engine (``experiments``), serially, with trial j seeded by
derive_seed(base_seed, j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .classifier import _breakpoints, _pooled_ranks, _require_finite, _step_profiles
from .classifier import FixedThresholdMethod, truncate_values
from .datagen import Independent, Scenario, shift_amount, shift_count
from .errors import ParameterError, SampleSizeError, ShapeError, UnsupportedSettingError
from .experiments import _run_cells, _summarize
from .seeds import derive_seed

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
    if a.ndim != 2:
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


def _is_error(same: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Whether the nearest same-class distance exceeds the nearest other-class one.

    Distances are sums taken in different orders, so two that tie in real
    arithmetic can differ by an ulp; the guard keeps such ties non-errors, as
    exact ties are.  Gaps below the guard do not otherwise occur: integer
    data has gaps >= 1 and continuous draws never land this close.
    """
    return same > other + _TIE_GUARD * (1.0 + other)


def cv_error(t: float, samples_x, samples_y) -> float:
    """Leave-one-out error sum at truncation level t; a value in [0, 2]."""
    X, Y = _check_cv_inputs(samples_x, samples_y)
    Xp = truncate_values(X, t)
    Yp = truncate_values(Y, t)
    dxx = ((Xp[:, None, :] - Xp[None, :, :]) ** 2).sum(axis=2)
    dyy = ((Yp[:, None, :] - Yp[None, :, :]) ** 2).sum(axis=2)
    dxy = ((Xp[:, None, :] - Yp[None, :, :]) ** 2).sum(axis=2)
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

    def pairs(self) -> list[tuple[float, float]]:
        return [(float(t), float(v)) for t, v in zip(self.ts, self.values)]


def _pair_distances(a, b, rank_a, rank_b, top: int) -> np.ndarray:
    """Squared distance between zeroed-below-t copies of a and b at cuts 1..top."""
    lo_rank, hi_rank = np.minimum(rank_a, rank_b), np.maximum(rank_a, rank_b)
    with np.errstate(over="ignore", invalid="ignore"):
        full = (a - b) ** 2
        at_hi = np.maximum(a, b) ** 2  # weight lost as the cut passes the larger value
        at_lo = full - at_hi  # weight lost as it passes the smaller one
        lost = _step_profiles(np.stack([lo_rank, hi_rank]), 1, top, np.concatenate([at_lo, at_hi]))
        d = float(full.sum()) - lost[0] - lost[1]
        # Overflowed squares leave inf - inf above; sum what is left at those
        # cuts directly, as cv_error does.  Column j is cut j + 1.
        for j in np.flatnonzero(~np.isfinite(d)):
            d[j] = np.where(lo_rank > j, full, np.where(hi_rank > j, at_hi, 0.0)).sum()
    return d


def _error_rate(same: np.ndarray, other: np.ndarray) -> np.ndarray:
    # One row at a time keeps temporaries one grid long.
    return sum(_is_error(s, o) for s, o in zip(same, other)) / len(same)


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
    # Nearest distance at every cut to a row of the same class and of the other.
    same = np.full((len(rows), pooled.size + 1), np.inf)
    other = same.copy()
    for i, j in zip(*np.triu_indices(len(rows), 1)):
        near = same if (i < m) == (j < m) else other
        d = _pair_distances(rows[i], rows[j], ranks[i], ranks[j], pooled.size + 1)
        for k in (i, j):
            np.minimum(near[k], d, out=near[k])
    errors = _error_rate(same[:m], other[:m]) + _error_rate(same[m:], other[m:])
    values = errors[cuts]  # column c - 1 holds cut c = 1 + #(values <= t)
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


def _exceedance_pair(scenario: Scenario, t: float) -> tuple[float, float, int]:
    marginal = scenario.marginal
    a = shift_amount(scenario)
    q_base = marginal.survival(t)
    q_shifted = marginal.survival(t - a)
    return q_base, q_shifted, shift_count(scenario.p, scenario.beta)


def _term_moments(q_i: float, q_j: float, q_k: float) -> tuple[float, float]:
    """Mean and variance of (I - J)(1 - 2K) for independent Bernoulli bits."""
    mean = (q_i - q_j) * (1.0 - 2.0 * q_k)
    diff_sq = q_i * (1.0 - q_j) + q_j * (1.0 - q_i)
    return mean, diff_sq - mean**2


def _one_sided(mu: float, var: float, want_at_most_zero: bool) -> float:
    if var <= 0:
        hit = mu <= 0 if want_at_most_zero else mu > 0
        return 1.0 if hit else 0.0
    # T is integer valued; 0.5 is the continuity-corrected cut between 0 and 1.
    z = (0.5 - mu) / math.sqrt(var)
    prob_le_zero = float(norm.cdf(z))
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
    q_x, q_y, shifted = _exceedance_pair(scenario, t)
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
    binomial standard error.
    """
    _check_apriori_scenario(scenario)
    t = float(t)
    if method == "normal_approx":
        return SuccessEstimate(value=_normal_approx_success(scenario, t), se=0.0)
    if method == "monte_carlo":
        if trials < 2:
            raise ParameterError("monte_carlo needs at least 2 trials")
        # Seed key (): trial j draws from derive_seed(base_seed, j).  Serial.
        methods = [FixedThresholdMethod(t)]
        per_trial = _run_cells([(scenario, ())], methods, trials, base_seed, 1)[0]
        rate = _summarize(methods, per_trial)["fixed_threshold"]
        return SuccessEstimate(value=rate.rate, se=rate.se)
    raise ParameterError(f"method must be 'normal_approx' or 'monte_carlo', got {method!r}")


def apriori_optimal_threshold(
    scenario: Scenario,
    t_grid,
    method: str = "normal_approx",
    *,
    trials: int = 2000,
    base_seed: int = 0,
) -> AprioriCurve:
    """Evaluate the a priori success over a threshold grid; best = smallest argmax."""
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if ts.size == 0:
        raise ParameterError("t_grid must not be empty")
    values = np.array(
        [
            apriori_success_rate(
                scenario, t, method, trials=trials, base_seed=derive_seed(base_seed, k)
            ).value
            for k, t in enumerate(ts)
        ]
    )
    t_star = float(ts[values == values.max()].min())
    return AprioriCurve(ts=ts, values=values, t_star=t_star, method=method)
