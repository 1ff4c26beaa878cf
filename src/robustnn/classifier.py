"""Thresholded zero-one nearest-neighbor classification and its competitors.

Given training rows X_1..X_m and Y_1..Y_n and a test vector Z in R^p, the
robust classifier replaces every component value v by the indicator 1(v > t)
and runs nearest-neighbor matching on the resulting 0-1 vectors.  With
I_i = 1(X_i > t), J_j = 1(Y_j > t), K = 1(Z > t) componentwise, and i_X, i_Y
the indices minimizing the indicator Hamming distances to K (lowest index on
ties), the decision statistic is

    T(t) = sum_k (I_{i_X}^(k) - J_{i_Y}^(k)) * (1 - 2 K^(k)),

which equals the signed difference of the two minimal indicator distances,
so "Z is closer to the X side" is exactly T(t) <= 0.  Its scale companion is

    S(t)^2 = sum_k (I_{i_X}^(k) + J_{i_Y}^(k)).

Both are piecewise constant in t, changing only where t crosses a data
value, so scanning the midpoints between consecutive distinct pooled values
visits every attainable configuration.  The working threshold is

    theta = first scanned t >= t0 with S(t) > 0 and |T(t)| / S(t) > z_p,

defaulting to t0 when no point fires.  The critical value z_p is
c * sqrt(log p) for data with independent components and xi * log p for
dependent data (natural logarithm).  Z is assigned to the X population
exactly when T(theta) <= 0.

The scan is evaluated for all breakpoints at once from ranks: one pooled
argsort ranks the distinct values from 1, a threshold t becomes the cut
c = #(values <= t) in that order, and a component of rank r is at or below t
exactly when r <= c.  The default grid's cuts follow from its construction
(midpoint k passes k + 1 values, or k + 2 where it rounds onto the upper
one); only a caller's grid is searched.  One pass down the rows counts each
row's components below every common cut (``_below``: one ``bincount`` and
one ``cumsum``, or one sort of its p ranks where there are many cuts per
component) and keeps each class's least distance at each cut and the count
of the lowest row at it; any grid then reads its points at their cuts.  Only
one row's counts are held at a time, so a scan's memory is
O((m + n) p + grid) and not O((m + n) cuts), about (m + n)^2 p.
Leave-one-out folds of N rows all pool the same N rows, so they share one
ranking and each row's counts below every cut.  Fold i is the scan with row
i as z, and each unordered pair's count of minima below every cut serves
both rows' folds: it is made once and folded, as the scan folds a row
(``_keep_nearer``), into each row's least distance to the other row's class.
A fold adds only its t0, ``_median`` of its rows as ``select_threshold``
takes it, and its grid.

Competitors: plain nearest neighbor on squared Euclidean distance,
nearest neighbor on zeroed-below-threshold values v * 1(v > t), and a
baseline that compares the overall training maxima to the test maximum.
Ties always resolve to the X population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Literal, Union, get_args

import numpy as np

from .errors import ConfigurationError, ParameterError, ShapeError

__all__ = [
    "DEFAULT_C",
    "DEFAULT_XI",
    "Label",
    "ThresholdStatistics",
    "ThresholdTrace",
    "ThresholdDecision",
    "compute_T_S",
    "zp_value",
    "threshold_scan",
    "select_threshold",
    "classify_robust",
    "classify_nn_standard",
    "classify_nn_truncated",
    "classify_extrema",
    "truncate_values",
    "RobustMethod",
    "StandardNNMethod",
    "TruncatedNNMethod",
    "FixedThresholdMethod",
    "ExtremaMethod",
    "MethodSpec",
    "METHODS",
    "RULES",
    "make_method",
    "evaluate_method",
]

Label = Literal["X", "Y"]

RULES = ("independent", "dependent")

DEFAULT_C = 0.5
# The dependent rule's slope, chosen so xi * log p matches the independent
# default 0.5 * sqrt(log p) near p = 2e4; any fixed slope satisfies the
# dependent-rate requirement, this one keeps the two rules comparable.
DEFAULT_XI = 0.16


def _as_training(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"{name} must be a (rows, p) array, got shape {a.shape}")
    return a


def _as_test(z, p: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ShapeError(f"test vector must be 1-dimensional, got shape {z.shape}")
    if z.size != p:
        raise ShapeError(f"test vector has {z.size} components, training has {p}")
    return z


def _require_finite(**arrays: np.ndarray) -> None:
    """Reject NaN and infinite values, naming the argument and place of the first."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            i = tuple(np.argwhere(~np.isfinite(a))[0])
            at = f"row {i[0]}, column {i[1]}" if a.ndim == 2 else f"component {i[0]}"
            raise ParameterError(f"{name} has a non-finite value {float(a[i])!r} at {at}")


def _check_inputs(train_x, train_y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = _as_training(train_x, "train_x")
    Y = _as_training(train_y, "train_y")
    if X.shape[1] != Y.shape[1]:
        raise ShapeError(
            f"train_x has {X.shape[1]} components but train_y has {Y.shape[1]}"
        )
    z = _as_test(z, X.shape[1])
    _require_finite(train_x=X, train_y=Y, z=z)
    return X, Y, z


@dataclass(frozen=True)
class ThresholdStatistics:
    """T and S^2 at one threshold, with the selected neighbor rows (0-based)."""

    t: float
    T: int
    S2: int
    i_x: int
    i_y: int


def compute_T_S(train_x, train_y, z, t: float) -> ThresholdStatistics:
    """Evaluate the decision statistic T(t) and scale S(t)^2 at one threshold."""
    X, Y, z = _check_inputs(train_x, train_y, z)
    I = X > t
    J = Y > t
    K = z > t
    i_x = int(np.argmin((I ^ K).sum(axis=1)))
    i_y = int(np.argmin((J ^ K).sum(axis=1)))
    ix_bits = I[i_x].astype(np.int64)
    iy_bits = J[i_y].astype(np.int64)
    T = int(((ix_bits - iy_bits) * (1 - 2 * K.astype(np.int64))).sum())
    S2 = int(ix_bits.sum() + iy_bits.sum())
    return ThresholdStatistics(t=float(t), T=T, S2=S2, i_x=i_x, i_y=i_y)


def zp_value(rule: str, p: int, xi_or_c: float) -> float:
    """Critical value for the threshold search: c*sqrt(log p) or xi*log p."""
    if rule not in RULES:
        raise ParameterError(f"rule must be one of {list(RULES)}, got {rule!r}")
    p = int(p)
    if p < 2:
        raise ParameterError(f"p must be at least 2, got {p}")
    xi_or_c = float(xi_or_c)
    if not 0 <= xi_or_c < math.inf:  # NaN and inf would never let the scan fire
        raise ParameterError(f"xi_or_c must be finite and nonnegative, got {xi_or_c!r}")
    logp = math.log(p)
    return xi_or_c * (logp if rule == "dependent" else math.sqrt(logp))


def _pooled_ranks(rows: np.ndarray, floor: float = -np.inf) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values >= floor in ``rows``, and each component's rank: 1 + its
    index among them, or 0 below floor.  A threshold t >= floor is the cut
    c = #(values <= t), and a component is at or below t when it ranks <= c.

    One argsort, of kind quicksort like ``np.unique``'s, so a group of tied
    +0.0 and -0.0 keeps the same representative.
    """
    kept = np.flatnonzero(rows >= floor)
    kept = kept[rows.ravel()[kept].argsort()]  # in ascending order of value
    values = rows.ravel()[kept]
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    ranks = np.zeros(rows.size, dtype=np.intp)
    ranks[kept] = np.cumsum(new)
    return values[new], ranks.reshape(rows.shape)


def _midpoints(a, b):
    """0.5 * (a + b), or a + 0.5 * (b - a) where a + b overflows; a <= b."""
    with np.errstate(over="ignore"):
        mid = 0.5 * (a + b)
        return np.where(np.isfinite(mid), mid, a + 0.5 * (b - a))


def _breakpoints(values: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """floor and the midpoints between ``values`` (sorted, distinct, >= floor),
    with #(values <= t) for each t.  Midpoint k passes values[k], and
    values[k + 1] too where it rounds onto it."""
    mid = _midpoints(values[:-1], values[1:])
    below = np.arange(1, values.size) + (mid == values[1:])
    return np.r_[floor, mid], np.r_[np.count_nonzero(values[:1] == floor), below]


def _median(v: np.ndarray) -> float:
    """np.median of finite values from one partition, the two middle values of
    an even count averaged by the midpoint rule, which cannot overflow."""
    k = v.size // 2
    part = np.partition(v, k)
    mid = float(part[k] if v.size % 2 else _midpoints(part[:k].max(), part[k]))
    return float(np.median(v)) if mid == 0 else mid  # +0 and -0 tie: keep np.median's sign


# Above this many points per bin _below sorts the bins.  On a 2-core x86 VM
# the sort drew level with a bincount and a cumsum at 4 to 10 points per bin,
# for 200 to 20000 bins.
_SORT_ABOVE = 8


def _below(bins: np.ndarray, size: int, dtype) -> np.ndarray:
    """How many of ``bins`` (each in 0..size) are at or below each of
    0..size-1, in ``dtype``.  With few bins per point they are sorted, and the
    count is k from the k-th smallest bin up to the next one; otherwise one
    ``bincount`` and one ``cumsum`` make it."""
    if size > _SORT_ABOVE * bins.size:
        edges = np.sort(bins)
        gaps = np.append(edges, size)
        gaps[1:] -= edges
        return np.repeat(np.arange(edges.size + 1, dtype=dtype), gaps)
    hist = np.bincount(bins, minlength=size + 1)[:size]
    return np.cumsum(hist, out=hist).astype(dtype, copy=False)


def _keep_nearer(best, best_count, dist, count, closer) -> None:
    """Where ``dist`` < ``best``, take the row's distance and count: rows folded
    in increasing index keep the lowest on ties.  ``closer`` is a bool buffer.
    On a tie the two distances are equal, so the least distance is one
    ``np.minimum``; only the count needs the mask.  The scan passes int64
    arrays, leave-one-out the least unsigned type that holds 2p + 1."""
    np.less(dist, best, out=closer)
    np.minimum(best, dist, out=best)
    np.copyto(best_count, count, where=closer)


def _nearest(z: np.ndarray, size: int, sides) -> tuple[np.ndarray, np.ndarray]:
    """T and S^2 at common cuts 0..size-1, from ranks in 0..size-1: a
    component of rank r is below the threshold at cut c when r <= c.

    ``sides`` are X's and Y's rows.  A row and z disagree where the smaller
    rank is below the threshold and the larger is not, so their distance is
    2 #(min below) - #(row below) - #(z below).  The z term is common to all
    rows, moves neither the nearest rows nor T = d_x - d_y, and is left out.
    Each class keeps its least distance and the nearest row's count below,
    which gives S^2 = 2p - C_x - C_y.
    """
    low, closer = np.empty_like(z), np.empty(size, dtype=bool)
    nearest = []
    for rows in sides:
        for i, row in enumerate(rows):
            count = _below(row, size, np.int64)
            dist = _below(np.minimum(row, z, out=low), size, np.int64)
            dist *= 2
            dist -= count
            if i == 0:
                best, best_count = dist, count
            else:
                _keep_nearer(best, best_count, dist, count, closer)
        nearest.append((best, best_count))
    (T, S2), (d_y, c_y) = nearest  # T and S2 reuse X's arrays
    T -= d_y
    S2 += c_y
    np.subtract(2 * z.size, S2, out=S2)
    return T, S2


def _scan(X: np.ndarray, Y: np.ndarray, z: np.ndarray, floor: float, ts=None):
    """Grid, T and S^2 at thresholds ts >= floor (default: breakpoints from
    floor), counted at every common cut and read at the grid's cuts."""
    values, ranks = _pooled_ranks(np.concatenate([X, Y, z[None]]), floor)
    if ts is None:
        ts, cuts = _breakpoints(values, floor)
    else:
        cuts = np.searchsorted(values, ts, side="right")
    nx = X.shape[0]
    T, S2 = _nearest(ranks[-1], values.size + 1, (ranks[:nx], ranks[nx:-1]))
    return ts, T[cuts], S2[cuts]


def threshold_scan(train_x, train_y, z, ts) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized T and S^2 over an array of thresholds.

    Returns ``(T, S2)`` as int64 arrays aligned with ``ts``.  Agrees with
    ``compute_T_S`` evaluated pointwise (ties to lowest index).
    """
    X, Y, z = _check_inputs(train_x, train_y, z)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    # fmin skips NaN thresholds, which exceed no value and so need no rank.
    return _scan(X, Y, z, np.fmin.reduce(ts, initial=np.inf), ts)[1:]


@dataclass(frozen=True)
class ThresholdTrace:
    """Scan record over the breakpoint grid: T and S^2 at each threshold of ts."""

    ts: np.ndarray
    T: np.ndarray
    S2: np.ndarray


@dataclass(frozen=True)
class ThresholdDecision:
    """Outcome of the threshold search."""

    theta: float
    defaulted: bool
    t0: float
    theta_index: int
    trace: ThresholdTrace = field(repr=False)


def _first_firing(T: np.ndarray, S2: np.ndarray, z_p):
    """(index, defaulted): the first grid point where S > 0 and |T| > z_p S,
    else (0, True), the t0 point.  An array of critical values gives an
    array of each."""
    z_p = np.asarray(z_p, dtype=float)
    fires = (S2 > 0) & (np.abs(T) > z_p[..., None] * np.sqrt(S2))
    index, defaulted = fires.argmax(axis=-1), ~fires.any(axis=-1)
    if z_p.ndim:
        return index, defaulted
    return int(index), bool(defaulted)


def select_threshold(
    train_x,
    train_y,
    z,
    rule: str = "independent",
    xi_or_c: float = DEFAULT_C,
    t0: float | None = None,
) -> ThresholdDecision:
    """Scan thresholds upward from t0 and return the first that fires.

    The grid is t0 followed by the midpoints between consecutive distinct
    pooled component values (training rows and test vector) at or above t0;
    T and S^2 are constant between consecutive data values, so this visits
    every attainable configuration.  A point fires when S > 0 and
    |T|/S > z_p.  If none fires the decision is defaulted and theta = t0.

    A strictly increasing map of the data and of t0 leaves the label as it
    is.  The default t0, the pooled training median, does not follow the map
    when the pooled count is even: a test component strictly between the two
    middle values can then cross t0 and change the label.
    """
    X, Y, z = _check_inputs(train_x, train_y, z)
    if t0 is None:
        t0 = _median(np.concatenate([X.ravel(), Y.ravel()]))
    t0 = float(t0)
    if not math.isfinite(t0):
        raise ParameterError(f"t0 must be finite, got {t0!r}")
    z_p = zp_value(rule, z.size, xi_or_c)
    ts, T, S2 = _scan(X, Y, z, t0)
    index, defaulted = _first_firing(T, S2, z_p)
    return ThresholdDecision(
        theta=float(ts[index]),  # ts[0] is t0
        defaulted=defaulted,
        t0=t0,
        theta_index=index,
        trace=ThresholdTrace(ts=ts, T=T, S2=S2),
    )


def classify_robust(
    train_x,
    train_y,
    z,
    rule: str = "independent",
    xi_or_c: float = DEFAULT_C,
    t0: float | None = None,
) -> tuple[Label, ThresholdDecision]:
    """Select a threshold and assign z to X exactly when T(theta) <= 0."""
    decision = select_threshold(train_x, train_y, z, rule=rule, xi_or_c=xi_or_c, t0=t0)
    label: Label = "X" if decision.trace.T[decision.theta_index] <= 0 else "Y"
    return label, decision


def _leave_one_out(
    samples: np.ndarray, in_x: np.ndarray, rule: str, xi_or_c: float
) -> list[tuple[Label, float, bool]]:
    """``classify_robust``'s (label, theta, defaulted) for each row of
    ``samples`` held out, trained on the rest (rows with ``in_x`` on the X
    side), from one ranking of all the rows and one profile per pair of rows.

    Every fold pools the same rows, so one ranking of the values at or
    above the least t0 serves them all.  Fold i's values are the common ones
    from lo_i = #(values < t0_i) on, its grid is t0_i and the common
    midpoints from lo_i, and a common rank r is below the threshold at
    common cut c exactly when r <= c.  Fold i is ``_nearest`` with row i as
    z, so its distance to row j is 2 #(min(r_i, r_j) <= c) - C_j(c), C_j(c)
    being row j's count below c.  Each unordered pair's 2 #(min below) is
    made once and folded, less C_b, into a's nearest row of b's class and,
    less C_a, into b's nearest row of a's class, partners in increasing
    index as ``_nearest`` takes them.  Leaving out one row's p values moves
    the pooled median across at most p values, so lo_i <= p, and the pair
    profiles cover every common cut rather than only a fold's own.

    Everything runs on narrow integers: ranks in the least unsigned type that
    holds the number of common cuts, distances and counts in the least one
    that holds 2p + 1, and each fold's T and S^2, formed once over every
    common cut and read at its grid, in int32 (int64 only where 2p does not
    fit).  No narrower: ``np.sqrt`` of a 16-bit S^2 is float32, and
    ``_first_firing`` must compare in float64 as ``select_threshold`` does.
    """
    n, p = samples.shape
    z_p = zp_value(rule, p, xi_or_c)
    # select_threshold's t0: the median of X's rows, then Y's, without row i.
    t0s = [
        _median(np.concatenate([samples[rest & in_x], samples[rest & ~in_x]], axis=None))
        for rest in ~np.eye(n, dtype=bool)
    ]
    # No fold reads a value below the least t0, so rank from there.
    values, ranks = _pooled_ranks(samples, min(t0s))
    ts, cuts = _breakpoints(values, -np.inf)  # -inf, then every midpoint
    size = values.size + 1
    ranks = ranks.astype(np.min_scalar_type(size))  # 2-byte sort keys below 65536 cuts
    # best[i, s]: row i's least distance to class s (0: X, 1: Y) at every cut,
    # best_count[i, s] that row's count.  Distances are <= 2p: 2p + 1 is "no row yet".
    dtype = np.min_scalar_type(2 * p + 1)
    counts = np.array([_below(row, size, dtype) for row in ranks])
    best = np.full((n, 2, size), 2 * p + 1, dtype)
    best_count = np.empty((n, 2, size), dtype)  # set by the first row of each class
    side = [0 if x else 1 for x in in_x]
    dist, closer = np.empty(size, dtype), np.empty(size, dtype=bool)
    for a in range(n):
        for b in range(a + 1, n):
            both = _below(np.minimum(ranks[a], ranks[b]), size, dtype)
            both *= 2
            np.subtract(both, counts[b], out=dist)
            _keep_nearer(best[a, side[b]], best_count[a, side[b]], dist, counts[b], closer)
            both -= counts[a]
            _keep_nearer(best[b, side[a]], best_count[b, side[a]], both, counts[a], closer)
    los = np.searchsorted(values, t0s, side="left")
    his = np.searchsorted(values, t0s, side="right")
    wide = np.int32 if 2 * p <= np.iinfo(np.int32).max else np.int64
    T_all, S2_all = np.empty(size, wide), np.empty(size, wide)
    verdicts = []
    for i, (t0, lo, hi) in enumerate(zip(t0s, los, his)):
        np.subtract(best[i, 0], best[i, 1], out=T_all, dtype=wide)
        np.add(best_count[i, 0], best_count[i, 1], out=S2_all, dtype=wide)
        np.subtract(2 * p, S2_all, out=S2_all)
        grid = np.r_[hi, cuts[lo + 1 :]]  # t0, then the midpoints above it
        T, S2 = T_all[grid], S2_all[grid]
        index, defaulted = _first_firing(T, S2, z_p)
        theta = t0 if index == 0 else float(ts[lo + index])
        verdicts.append(("X" if T[index] <= 0 else "Y", theta, defaulted))
    return verdicts


def _overflow_scale(*arrays: np.ndarray) -> float:
    """A power of two that keeps every difference of values of ``arrays`` times
    it, its square and a sum of p squares (p the last axis's length) finite.
    Squared distances on values times it are the unscaled ones times its square,
    but none overflows, and a square underflows only for a difference some 1e145
    times below the largest value.  The exponent stops at 1023 (data < 1e-157)."""
    e = int(np.frexp(max(max(a.max(), -a.min()) for a in arrays))[1])
    # |values| < 2**e, so a scaled difference is below 2**h, and p * 4**h < 2**1023.
    h = (1023 - arrays[-1].shape[-1].bit_length()) // 2
    return math.ldexp(1.0, min(h - e - 1, 1023))


def _nearest_squared(X: np.ndarray, Y: np.ndarray, z: np.ndarray) -> list[float]:
    """Each class's least squared Euclidean distance to z, on values times
    ``_overflow_scale``: comparable between the classes, not in data units."""
    scale = _overflow_scale(X, Y, z)
    zs, buf = z * scale, np.empty((max(len(X), len(Y)), z.size))  # reused: no page faults
    nearest = []
    for A in (X, Y):
        d = np.subtract(np.multiply(A, scale, out=buf[: len(A)]), zs, out=buf[: len(A)])
        nearest.append(np.square(d, out=d).sum(axis=1).min())
    return nearest


def classify_nn_standard(train_x, train_y, z) -> Label:
    """Nearest neighbor on squared Euclidean distance; ties go to X."""
    dx, dy = _nearest_squared(*_check_inputs(train_x, train_y, z))
    return "X" if dx <= dy else "Y"


def truncate_values(v: np.ndarray, t: float) -> np.ndarray:
    """Zero every component at or below t, keep the rest: v * 1(v > t)."""
    v = np.asarray(v, dtype=float)
    return np.where(v > t, v, 0.0)


def classify_nn_truncated(train_x, train_y, z, t: float) -> Label:
    """Nearest neighbor after zeroing components at or below t, in the
    training and the test vectors alike."""
    X, Y, z = _check_inputs(train_x, train_y, z)
    return classify_nn_standard(truncate_values(X, t), truncate_values(Y, t), truncate_values(z, t))


def classify_extrema(train_x, train_y, z) -> Label:
    """Assign z to the population whose training maximum is nearest max(z)."""
    X, Y, z = _check_inputs(train_x, train_y, z)
    mx, my, mz = float(X.max()), float(Y.max()), float(z.max())  # floats overflow silently
    dx, dy = abs(mx - mz), abs(my - mz)
    if math.isinf(dx) or math.isinf(dy):  # halved, no difference of two of them overflows
        dx, dy = abs(mx / 2 - mz / 2), abs(my / 2 - mz / 2)
    return "X" if dx <= dy else "Y"


@dataclass(frozen=True)
class RobustMethod:
    """Thresholded indicator classifier with data-driven threshold selection."""

    name: ClassVar[str] = "robust"
    rule: str = "independent"
    xi_or_c: float = DEFAULT_C

    def decide(self, train_x, train_y, z) -> tuple[Label, float, bool]:
        label, decision = classify_robust(train_x, train_y, z, self.rule, self.xi_or_c)
        return label, decision.theta, decision.defaulted


@dataclass(frozen=True)
class StandardNNMethod:
    name: ClassVar[str] = "nn"

    def decide(self, train_x, train_y, z) -> tuple[Label, None, None]:
        return classify_nn_standard(train_x, train_y, z), None, None


@dataclass(frozen=True)
class TruncatedNNMethod:
    name: ClassVar[str] = "nn_trunc"
    t: float

    def decide(self, train_x, train_y, z) -> tuple[Label, None, None]:
        return classify_nn_truncated(train_x, train_y, z, self.t), None, None


@dataclass(frozen=True)
class FixedThresholdMethod:
    """Indicator classifier at a fixed threshold, bypassing selection.

    It counts at its one threshold with ``compute_T_S``, O((m + n) p): the
    scan ranks the pooled values and counts every cut, so one point of
    ``threshold_scan`` costs several times more (on a 2-vCPU x86 VM at
    p = 20000: about 2 ms against 0.4 ms at m = n = 1, 16 ms against 0.4 ms
    at m = n = 5)."""

    name: ClassVar[str] = "fixed_threshold"
    t: float

    def decide(self, train_x, train_y, z) -> tuple[Label, None, None]:
        return ("X" if compute_T_S(train_x, train_y, z, self.t).T <= 0 else "Y"), None, None


@dataclass(frozen=True)
class ExtremaMethod:
    name: ClassVar[str] = "extrema"

    def decide(self, train_x, train_y, z) -> tuple[Label, None, None]:
        return classify_extrema(train_x, train_y, z), None, None


MethodSpec = Union[
    RobustMethod, StandardNNMethod, TruncatedNNMethod, FixedThresholdMethod, ExtremaMethod
]

METHODS = {cls.name: cls for cls in get_args(MethodSpec)}


def make_method(
    name: str, rule: str = "independent", c: float | None = None, t: float | None = None
) -> MethodSpec:
    """The method called ``name``, as the config file and the CLI build it.

    ``rule`` and ``c`` configure the robust method; ``c`` defaults by rule, to
    DEFAULT_XI for the dependent rule and DEFAULT_C for the independent one.
    ``t`` is the threshold nn_trunc and fixed_threshold need."""
    if name not in METHODS:
        raise ConfigurationError(f"unknown method {name!r}; expected one of {list(METHODS)}")
    cls = METHODS[name]
    if cls is RobustMethod:
        if rule not in RULES:
            raise ConfigurationError(f"unknown rule {rule!r}; expected one of {list(RULES)}")
        if c is None:
            c = DEFAULT_XI if rule == "dependent" else DEFAULT_C
        if not 0 <= c < math.inf:
            raise ConfigurationError(f"robust slope c must be finite and nonnegative, got {c!r}")
        return RobustMethod(rule=rule, xi_or_c=c)
    if cls in (TruncatedNNMethod, FixedThresholdMethod):
        if t is None:
            raise ConfigurationError(f"{name} needs a threshold t")
        return cls(t=t)
    return cls()


def evaluate_method(
    train_x, train_y, z, method: MethodSpec
) -> tuple[Label, float | None, bool | None]:
    """Run one configured classifier on one training set and test vector.

    Returns the spec's ``decide``: ``(label, theta, defaulted)``, where theta
    and defaulted are None for every method but RobustMethod.
    """
    if not isinstance(method, tuple(METHODS.values())):
        raise ParameterError(f"unknown method spec {method!r}")
    return method.decide(train_x, train_y, z)
