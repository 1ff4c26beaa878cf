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
searched.  Each row's count of components below every cut is a step profile,
one ``bincount`` of its ranks and a ``cumsum``, with no per-row sort, and one
pass up the rows keeps each cut's minimum distance and lowest row at it.
The profiles are built in chunks of cuts, at most ``_CHUNK`` cells (rows x
cuts) at a time, so a scan's memory is O((m + n) p + grid) and not
O((m + n) grid), about (m + n)^2 p.

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
    "make_method",
    "evaluate_method",
]

Label = Literal["X", "Y"]

INDEPENDENT_RULE = "independent_sqrt_logp"
DEPENDENT_RULE = "dependent_logp"
_RULE_ALIASES = {
    "independent": INDEPENDENT_RULE,
    INDEPENDENT_RULE: INDEPENDENT_RULE,
    "dependent": DEPENDENT_RULE,
    DEPENDENT_RULE: DEPENDENT_RULE,
}

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
    if rule not in _RULE_ALIASES:
        raise ParameterError(
            f"rule must be one of {sorted(set(_RULE_ALIASES))}, got {rule!r}"
        )
    p = int(p)
    if p < 2:
        raise ParameterError(f"p must be at least 2, got {p}")
    xi_or_c = float(xi_or_c)
    if not 0 <= xi_or_c < math.inf:  # NaN and inf would never let the scan fire
        raise ParameterError(f"xi_or_c must be finite and nonnegative, got {xi_or_c!r}")
    logp = math.log(p)
    if _RULE_ALIASES[rule] == DEPENDENT_RULE:
        return xi_or_c * logp
    return xi_or_c * math.sqrt(logp)


# Profile cells (rows x grid columns) the scan holds at once.  A scan with
# more goes in chunks of columns; the benchmark's scans (a trial at p = 20000,
# a 20-row LOO fold at p = 2000) fit in one.
_CHUNK = 2**20


def _step_profiles(ranks: np.ndarray, lo: int, top: int, weights=None) -> np.ndarray:
    """Per row of ``ranks`` (in [0, top)), the total weight of its entries
    ranked below each cut c = lo..top, in column c - lo.

    ``weights`` lines up with ``ranks.ravel()``; without it entries count 1.
    One bincount and one cumsum; ranks below lo share the first bin.
    ``ranks`` is overwritten with the bin numbers.
    """
    rows, width = ranks.shape[0], top + 1 - lo
    ranks += 1 - lo
    np.maximum(ranks, 0, out=ranks)
    ranks += width * np.arange(rows)[:, None]
    hist = np.bincount(ranks.ravel(), weights, minlength=rows * width).reshape(rows, width)
    return np.cumsum(hist, axis=1, out=hist)


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


def _nearest(d: np.ndarray, c: np.ndarray):
    """Per column: the minimum of ``d``, the lowest row at it, and ``c`` in that
    row.  The minimum and that ``c`` are kept in the last rows of ``d`` and ``c``."""
    low, row, at_row = d[-1], np.full(d.shape[1], d.shape[0] - 1), c[-1]
    for i in range(d.shape[0] - 2, -1, -1):
        at = d[i] <= low
        np.copyto(low, d[i], where=at)
        np.copyto(row, i, where=at)
        np.copyto(at_row, c[i], where=at)
    return low, row, at_row


def _median(v: np.ndarray) -> float:
    """np.median of finite values from one partition, the two middle values of
    an even count averaged by the midpoint rule, which cannot overflow."""
    k = v.size // 2
    part = np.partition(v, k)
    mid = float(part[k] if v.size % 2 else _midpoints(part[:k].max(), part[k]))
    return float(np.median(v)) if mid == 0 else mid  # +0 and -0 tie: keep np.median's sign


def _scan(X: np.ndarray, Y: np.ndarray, z: np.ndarray, floor: float, ts=None):
    """Grid, T, S^2, i_x, i_y at thresholds ts >= floor (default: breakpoints from floor)."""
    values, ranks = _pooled_ranks(np.concatenate([X, Y, z[None]]), floor)
    if ts is None:
        ts, cuts = _breakpoints(values, floor)
    else:
        cuts = np.searchsorted(values, ts, side="right")
    top = values.size + 1
    del values  # keep only what the profiles need
    lo = int(cuts.min(initial=top))
    cuts += 1 - lo  # the column of cut 1 + #(values <= t)
    # A row and z disagree where the smaller rank is below the cut and the
    # larger is not, so their distance is 2 #(min below) - #(row below) -
    # #(z below).  The z term is common to all rows, moves neither the
    # nearest rows nor T = d_x - d_y, and is left out.
    r, m = X.shape[0] + Y.shape[0], X.shape[0]
    keys = np.empty((2 * r, z.size), dtype=np.intp)
    np.minimum(ranks[:-1], ranks[-1], out=keys[:r])
    keys[r:] = ranks[:-1]
    del ranks
    # Entry (row, rank) adds 1 to the profile of its row from column
    # rank + 1 - lo on; ranks below lo share column 0.  The columns go in
    # chunks of ``step``, each a (rows, step) block of at most _CHUNK cells,
    # and an entry's key is its cell in the chunk-major order of the blocks.
    rows, width = 2 * r, top + 1 - lo
    shift = max(1, _CHUNK // rows).bit_length() - 1
    step = width if rows * width <= _CHUNK else 1 << shift
    chunks = -(-width // step)
    keys += 1 - lo
    np.maximum(keys, 0, out=keys)
    if chunks > 1:  # the chunk of column c is c >> shift
        offset = np.empty(z.size, dtype=np.intp)  # a row at a time, in one buffer
        for row in keys:
            np.right_shift(row, shift, out=offset)
            offset *= (rows - 1) << shift
            row += offset
    keys += step * np.arange(rows)[:, None]
    keys = keys.ravel()
    block = rows * step
    if chunks > 1:
        keys.sort()
        parts = np.split(keys, np.searchsorted(keys, block * np.arange(1, chunks)))
        # A chunk's grid points: a slice of an ascending grid, else indices.
        order = np.argsort(cuts, kind="stable") if (cuts[1:] < cuts[:-1]).any() else None
        ascending = cuts if order is None else cuts[order]
        points = np.searchsorted(ascending, step * np.arange(chunks + 1))
        spans = [slice(a, b) if order is None else order[a:b] for a, b in zip(points, points[1:])]
        out = np.empty((4, cuts.size), dtype=np.int64)  # T, S2, i_x, i_y
    else:
        parts, spans = [keys], [slice(None)]
    del keys  # each part goes once its chunk is counted
    carry = np.zeros(rows, dtype=np.int64)  # each row's entries left of the chunk
    for k, at in enumerate(spans):
        part = parts.pop(0)
        if k:
            part -= k * block
        hist = np.bincount(part, minlength=block).reshape(rows, step)
        del part
        hist[:, 0] += carry
        below = np.cumsum(hist, axis=1, out=hist)
        carry = below[:, -1].copy()
        dist, count = below[:r], below[r:]
        dist *= 2
        dist -= count
        d_x, n_x, c_x = _nearest(dist[:m], count[:m])
        d_y, n_y, c_y = _nearest(dist[m:], count[m:])
        col = cuts[at]
        if k:
            col -= k * step
        got = ((d_x - d_y)[col], (2 * z.size - c_x - c_y)[col], n_x[col], n_y[col])
        if chunks == 1:
            return ts, *got
        for whole, piece in zip(out, got):
            whole[at] = piece
    return ts, *out


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
    z_p: float
    rule: str
    xi_or_c: float
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
    rule: str = INDEPENDENT_RULE,
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
        z_p=z_p,
        rule=_RULE_ALIASES[rule],
        xi_or_c=float(xi_or_c),
        t0=t0,
        theta_index=index,
        trace=ThresholdTrace(ts=ts, T=T, S2=S2, i_x=i_x, i_y=i_y),
    )


def classify_robust(
    train_x,
    train_y,
    z,
    rule: str = INDEPENDENT_RULE,
    xi_or_c: float = DEFAULT_C,
    t0: float | None = None,
) -> tuple[Label, ThresholdDecision]:
    """Select a threshold and assign z to X exactly when T(theta) <= 0."""
    decision = select_threshold(train_x, train_y, z, rule=rule, xi_or_c=xi_or_c, t0=t0)
    label: Label = "X" if decision.trace.T[decision.theta_index] <= 0 else "Y"
    return label, decision


def classify_nn_standard(train_x, train_y, z) -> Label:
    """Nearest neighbor on squared Euclidean distance; ties go to X."""
    X, Y, z = _check_inputs(train_x, train_y, z)
    dx = ((X - z) ** 2).sum(axis=1).min()
    dy = ((Y - z) ** 2).sum(axis=1).min()
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
    mz = z.max()
    return "X" if abs(X.max() - mz) <= abs(Y.max() - mz) else "Y"


@dataclass(frozen=True)
class RobustMethod:
    """Thresholded indicator classifier with data-driven threshold selection."""

    name: ClassVar[str] = "robust"
    rule: str = INDEPENDENT_RULE
    xi_or_c: float = DEFAULT_C
    t0: float | None = None

    def decide(self, train_x, train_y, z) -> tuple[Label, float, bool]:
        label, decision = classify_robust(train_x, train_y, z, self.rule, self.xi_or_c, self.t0)
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
    name: str, rule: str = INDEPENDENT_RULE, c: float | None = None, t: float | None = None
) -> MethodSpec:
    """The method called ``name``, as the config file and the CLI build it.

    ``rule`` and ``c`` configure the robust method; ``c`` defaults by rule, to
    DEFAULT_XI for the dependent rule and DEFAULT_C for the independent one.
    ``t`` is the threshold nn_trunc and fixed_threshold need."""
    if name not in METHODS:
        raise ConfigurationError(f"unknown method {name!r}; expected one of {list(METHODS)}")
    cls = METHODS[name]
    if cls is RobustMethod:
        if rule not in _RULE_ALIASES:
            raise ConfigurationError(
                f"unknown rule {rule!r}; expected one of {sorted(set(_RULE_ALIASES))}"
            )
        if c is None:
            c = DEFAULT_XI if _RULE_ALIASES[rule] == DEPENDENT_RULE else DEFAULT_C
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
