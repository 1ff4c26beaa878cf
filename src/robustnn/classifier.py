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
argsort ranks the distinct values, a threshold t becomes the cut
c = 1 + #(values <= t) in that order, and 1(v > t) is 1(rank(v) >= c).  The
default grid's cuts follow from its construction (midpoint k passes k + 1
values, or k + 2 where it rounds onto the upper one); only a caller's grid is
searched.  Each rank is mapped once to the first grid point, in order of
cut, at which it is below the threshold.  One pass down the rows then counts
each row's components below every grid point, one ``bincount`` and one
``cumsum``, and keeps each point's minimum distance and the lowest row at it.
Only one row's counts are held at a time, so a scan's memory is
O((m + n) p + grid) and not O((m + n) grid), about (m + n)^2 p.
Leave-one-out folds of N rows all pool the same N rows, so they share one
ranking and each row's counts below every cut.  Two rows' indicator distance
at every cut is the same in every fold that trains on both, up to a term the
held-out row adds to all its distances alike.  So each unordered pair's
profile is made once, counted by one sort of its p values, and folded into
both rows' nearest rows of the other's class.  Every fold's t0 comes from
one sort of all the values, and a fold adds only its grid.

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
    c = 1 + #(values <= t), and a component exceeds t when it ranks >= c.

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


def _below(bins: np.ndarray, size: int, weights: np.ndarray | None = None) -> np.ndarray:
    """How many of ``bins`` (or their total ``weights``) are at or below each of 0..size-1."""
    hist = np.bincount(bins, weights, minlength=size + 1)[:size]
    return np.cumsum(hist, out=hist)


def _below_by_sort(bins: np.ndarray, size: int, dtype) -> np.ndarray:
    """``_below(bins, size)`` of non-negative ``bins``, in ``dtype``, from one
    sort: the count is k from the k-th smallest bin up to the next one.

    Cheaper than ``_below`` when there are far fewer bins than ``size``."""
    edges = np.sort(bins)
    k = edges.searchsorted(size)  # bins >= size are below no point
    gaps = np.append(edges[:k], size)
    gaps[1:] -= edges[:k]
    return np.repeat(np.arange(k + 1, dtype=dtype), gaps)


def _nearest(z: np.ndarray, size: int, sides) -> tuple[np.ndarray, ...]:
    """T, S^2, i_x, i_y at ``size`` grid points, from ranks mapped so that a
    component of mapped rank r is below the threshold from point r on.

    ``sides`` are X's and Y's rows.  A row and z disagree where the smaller
    rank is below the threshold and the larger is not, so their distance is
    2 #(min below) - #(row below) - #(z below).  The z term is common to all
    rows, moves neither the nearest rows nor T = d_x - d_y, and is left out.
    """
    low = np.empty_like(z)
    nearest = []
    for rows in sides:
        for i, row in enumerate(rows):
            count = _below(row, size)
            dist = _below(np.minimum(row, z, out=low), size)
            dist *= 2
            dist -= count
            if i == 0:
                best, at, at_count = dist, np.zeros(size, dtype=np.int64), count
                continue
            closer = dist < best  # strict: ties stay with the lowest row
            np.copyto(best, dist, where=closer)
            np.copyto(at, i, where=closer)
            np.copyto(at_count, count, where=closer)
        nearest.append((best, at, at_count))
    (T, i_x, S2), (d_y, i_y, c_y) = nearest  # T and S2 reuse X's arrays
    T -= d_y
    S2 += c_y
    np.subtract(2 * z.size, S2, out=S2)
    return T, S2, i_x, i_y


def _scan(X: np.ndarray, Y: np.ndarray, z: np.ndarray, floor: float, ts=None):
    """Grid, T, S^2, i_x, i_y at thresholds ts >= floor (default: breakpoints from floor)."""
    values, ranks = _pooled_ranks(np.concatenate([X, Y, z[None]]), floor)
    if ts is None:
        ts, cuts = _breakpoints(values, floor)  # non-decreasing
    else:
        cuts = np.searchsorted(values, ts, side="right")
    # A component of rank r is at or below t where r <= #(values <= t).  Put
    # the grid in order of cut: first[r] points have a cut below r, so the
    # component is below from point first[r] of that order on.
    first = np.cumsum(np.bincount(cuts + 1, minlength=values.size + 1)[: values.size + 1])
    del values  # keep only what the rows need
    np.take(first, ranks, out=ranks, mode="clip")  # in place; ranks are in range
    nx = X.shape[0]
    got = _nearest(ranks[-1], cuts.size, (ranks[:nx], ranks[nx:-1]))
    if np.any(cuts[1:] < cuts[:-1]):  # point g's values sit at first[cuts[g]] of the order
        got = tuple(a[first[cuts]] for a in got)
    return ts, *got


def threshold_scan(
    train_x, train_y, z, ts
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized T, S^2, and neighbor indices over an array of thresholds.

    Returns ``(T, S2, i_x, i_y)`` as int64 arrays aligned with ``ts``.
    Agrees with ``compute_T_S`` evaluated pointwise (ties to lowest index).
    """
    X, Y, z = _check_inputs(train_x, train_y, z)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    # fmin skips NaN thresholds, which exceed no value and so need no rank.
    return _scan(X, Y, z, np.fmin.reduce(ts, initial=np.inf), ts)[1:]


@dataclass(frozen=True)
class ThresholdTrace:
    """Scan record over the breakpoint grid, indexable as ThresholdStatistics."""

    ts: np.ndarray
    T: np.ndarray
    S2: np.ndarray
    i_x: np.ndarray
    i_y: np.ndarray

    def __len__(self) -> int:
        return self.ts.size

    def __getitem__(self, index: int) -> ThresholdStatistics:
        index = int(range(len(self))[index])
        return ThresholdStatistics(
            t=float(self.ts[index]),
            T=int(self.T[index]),
            S2=int(self.S2[index]),
            i_x=int(self.i_x[index]),
            i_y=int(self.i_y[index]),
        )


@dataclass(frozen=True)
class ThresholdDecision:
    """Outcome of the threshold search."""

    theta: float
    defaulted: bool
    t0: float
    theta_index: int
    trace: ThresholdTrace = field(repr=False)


def _first_firing(T: np.ndarray, S2: np.ndarray, z_p: float) -> int | None:
    fires = (S2 > 0) & (np.abs(T) > z_p * np.sqrt(S2))
    if not fires.any():
        return None
    return int(fires.argmax())


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
    ts, T, S2, i_x, i_y = _scan(X, Y, z, t0)
    hit = _first_firing(T, S2, z_p)
    if hit is None:
        theta, defaulted, index = t0, True, 0
    else:
        theta, defaulted, index = float(ts[hit]), False, hit
    return ThresholdDecision(
        theta=theta,
        defaulted=defaulted,
        t0=t0,
        theta_index=index,
        trace=ThresholdTrace(ts=ts, T=T, S2=S2, i_x=i_x, i_y=i_y),
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


def _fold_medians(samples: np.ndarray, in_x: np.ndarray) -> list[float]:
    """``select_threshold``'s default t0 for each row of ``samples`` held out:
    ``_median`` of the other rows' values, from one sort of all of them.

    Every fold pools (n - 1) p values, so its two middle order statistics
    k - 1 and k are the same ranks in every fold.  Leaving out p values moves
    a rank up by at most p, so both sit in the window of p + 2 values from
    rank k - 1 of the sorted whole, and the fold's j-th value is the first
    w there with #(values <= w) - #(held-out values <= w) > j.  A median of
    0 may be +0 or -0, so there ``_median`` itself runs on the fold's values
    in ``select_threshold``'s order: X's rows, then Y's.
    """
    n, p = samples.shape
    size = (n - 1) * p
    k = size // 2
    pooled = np.sort(samples, axis=None)
    window = pooled[k - 1 : k + p + 1]
    held = np.sort(samples, axis=1)
    below = pooled.searchsorted(window, "right") - np.array(
        [row.searchsorted(window, "right") for row in held]
    )
    upper = window[np.count_nonzero(below <= k, axis=1)]
    if size % 2:
        t0s = upper
    else:
        t0s = _midpoints(window[np.count_nonzero(below <= k - 1, axis=1)], upper)
    t0s = t0s.tolist()
    for i in np.flatnonzero(np.equal(t0s, 0)):
        rest = np.arange(n) != i
        t0s[i] = _median(np.concatenate([samples[rest & in_x], samples[rest & ~in_x]]).ravel())
    return t0s


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
    common cut c exactly when r <= c.  Rows a and b are at indicator
    distance D_ab(c) = 2 #(min(r_a, r_b) <= c) - C_a(c) - C_b(c), C_j(c)
    being row j's own count below c.  D is symmetric, and fold i's distance
    to a training row is D less C_i, which cancels in T = d_x - d_y.  So
    each unordered pair's profile is made once and folded into a's least
    distance to b's class and b's least distance to a's, with the lowest row
    at it for S^2.  Leaving out one row's p values moves the pooled median
    across at most p values, so lo_i <= p, and the pair profiles cover every
    common cut rather than only a fold's own.
    """
    n, p = samples.shape
    z_p = zp_value(rule, p, xi_or_c)
    t0s = _fold_medians(samples, in_x)
    # No fold reads a value below the least t0, so rank from there.
    values, ranks = _pooled_ranks(samples, min(t0s))
    ts, cuts = _breakpoints(values, -np.inf)  # -inf, then every midpoint
    size = values.size + 1
    dtype = np.min_scalar_type(p + 1)  # a distance is at most p; p + 1 is "no row yet"
    counts = np.empty((n, size), dtype)
    for row, out in zip(ranks, counts):
        out[:] = _below_by_sort(row, size, dtype)
    # best[i, s] is row i's least distance to a row of class s (0: X, 1: Y)
    # at every common cut, and at[i, s] the lowest row at it.
    best = np.full((n, 2, size), p + 1, dtype)
    at = np.zeros((n, 2, size), np.min_scalar_type(n))
    side = [0 if x else 1 for x in in_x]
    dist, closer = np.empty(size, dtype), np.empty(size, bool)
    for a in range(n):
        for b in range(a + 1, n):
            # 2 #(min below) - C_a - C_b, as two differences that are >= 0.
            both = _below_by_sort(np.minimum(ranks[a], ranks[b]), size, dtype)
            np.subtract(both, counts[a], out=dist)
            dist += np.subtract(both, counts[b], out=both)
            # Row i's partners come in increasing order, so a strict < keeps
            # the lowest row on ties.
            for i, j in ((a, b), (b, a)):
                near = best[i, side[j]]
                np.less(dist, near, out=closer)
                np.minimum(near, dist, out=near)
                np.copyto(at[i, side[j]], j, where=closer)
    los = np.searchsorted(values, t0s, side="left")
    his = np.searchsorted(values, t0s, side="right")
    verdicts = []
    for i, (t0, lo, hi) in enumerate(zip(t0s, los, his)):
        grid = np.r_[hi, cuts[lo + 1 :]]  # t0, then the midpoints above it
        T = best[i, 0].take(grid).astype(np.int64)
        T -= best[i, 1].take(grid)
        S2 = np.full(grid.size, 2 * p, dtype=np.int64)
        for nearest in at[i]:  # S^2 = 2p - C_{i_x} - C_{i_y}
            flat = nearest.take(grid).astype(np.intp)
            flat *= size
            flat += grid
            S2 -= counts.take(flat)
        hit = _first_firing(T, S2, z_p)
        index = 0 if hit is None else hit
        theta = t0 if index == 0 else float(ts[lo + index])
        verdicts.append(("X" if T[index] <= 0 else "Y", theta, hit is None))
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
    """Indicator classifier at a fixed threshold, bypassing selection."""

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
