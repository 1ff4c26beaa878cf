"""Threshold tuning by leave-one-out cross-validation.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import _breakpoints, _overflow_scale, _pooled_ranks, _require_finite
from .classifier import truncate_values
from .errors import SampleSizeError, ShapeError

__all__ = [
    "CvCurve",
    "cv_error",
    "select_threshold_cv",
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
