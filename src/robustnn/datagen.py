"""Two-population generators with sparse mean shifts and optional dependence.

The population model: X has p components drawn from a base process; Y is an
independent draw of the same process with a constant shift added to a sparse
set of components.  The number of shifted components is round(p^(1-beta)) and
each shift equals the calibrated exceedance level a_p(r) from
``distributions.solve_scale``, so beta controls sparsity and r controls
signal size, both on logarithmic scales.

Dependence structures for the base process:

* ``Independent`` - i.i.d. components from the scenario marginal (a single
  family or a list of (marginal, count) blocks).
* ``MovingAverage`` - U_k = sum_j w_j e_{k+j} over a sliding window of i.i.d.
  normal innovations; the scenario marginal gives the innovation law and must
  be normal, so the component marginal is again normal with a known scale.
* ``AR1`` - U_1 = e_0 and U_{k+1} = alpha U_k + (1 - alpha) e_k with normal
  innovations; initialization at the first innovation is immaterial to the
  large-p behavior.
* ``ExponentiatedMA`` - U_k = sum_{j>=1} c_j W_{j+k}^{alpha_k} + nu_k with a
  geometric kernel c_j = lead * decay^(j-1), nonnegative innovations W, and
  per-component exponents alpha_k (and optional offsets nu_k) drawn once per
  scenario.  Neighboring components share innovations, giving strong local
  dependence with non-normal marginals.  Each innovation is logged once per
  block of ``_BLOCK`` components (plus the J - 1 it shares with the next
  block) and each of the J kernel terms adds one exp per component, so a
  row costs O(p J) time and O(p) memory, and calibration O(draws) memory,
  for any decay; the temporaries are O(_BLOCK + J), whatever p and draws.

Shift placement policies: ``uniform_random``, ``first_indices``, and the
block policies ``light_block`` / ``heavy_block`` used with two-block
component layouts, where the light block occupies the first indices.

All indices are 0-based.  Given identical scenario fields and seed, the
generated arrays are bit-identical; X rows, Y rows, and the test vector are
independent draws of the process (they never share innovations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Union, get_args

import numpy as np

from .distributions import Exponential, MarginalSpec, Normal, solve_scale
from .errors import (
    ConfigurationError,
    DegenerateScenarioError,
    ParameterError,
    ShapeError,
)
from .seeds import derive_seed

__all__ = [
    "Independent",
    "MovingAverage",
    "AR1",
    "ExponentiatedMA",
    "DependenceModel",
    "Scenario",
    "GeneratedData",
    "shift_count",
    "place_shifts",
    "shift_amount",
    "checked_shift_amount",
    "innovations_needed",
    "apply_dependence",
    "generate",
    "gen_mixed_light_heavy",
]

PLACEMENTS = ("uniform_random", "first_indices", "heavy_block", "light_block")

# Kernel terms beyond the truncation point contribute total weight
# lead * decay^J / (1 - decay); truncating when that falls below 1e-12
# keeps the dropped mass under 1e-11 for every decay in (0, 1).
_KERNEL_TAIL_TOL = 1e-12

# Tags separating the per-scenario parameter stream and the scale-calibration
# stream from trial streams (see seeds.derive_seed).
_PARAMS_TAG = 0x5ceaa110
_SCALE_TAG = 0x5ca1e000

# Components (rows x columns) per block of the ExpMA transform and of the
# calibration draw: the size of their temporaries, whatever p and the
# sample size.
_BLOCK = 2**16


@dataclass(frozen=True)
class Independent:
    """I.i.d. components."""

    kind: ClassVar[str] = "independent"


@dataclass(frozen=True)
class MovingAverage:
    """Sliding-window moving average of i.i.d. normal innovations."""

    weights: tuple[float, ...]

    kind: ClassVar[str] = "moving_average"

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise ParameterError("moving average needs at least one weight")
        if not all(math.isfinite(w) for w in weights):
            raise ParameterError("moving average weights must be finite")
        if all(w == 0.0 for w in weights):
            raise ParameterError("moving average weights must not all be zero")

    @property
    def window(self) -> int:
        return len(self.weights)

    @classmethod
    def equal(cls, window: int) -> "MovingAverage":
        """Equal-weight average over ``window`` innovations."""
        window = int(window)
        if window < 1:
            raise ParameterError("window must be at least 1")
        return cls(weights=(1.0 / window,) * window)


@dataclass(frozen=True)
class AR1:
    """First-order autoregression U_{k+1} = alpha U_k + (1 - alpha) e_k."""

    alpha: float

    kind: ClassVar[str] = "ar1"

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < 1.0):
            raise ParameterError(f"ar1 alpha must lie in [0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class ExponentiatedMA:
    """Moving average of exponentiated nonnegative innovations.

    U_k = sum_{j=1}^{J} lead * decay^(j-1) * W_{j+k}^{alpha_k} + nu_k, with
    exponents alpha_k drawn uniformly in ``alpha_range`` once per scenario and
    offsets nu_k drawn uniformly in [-offset_bound, offset_bound] once per
    scenario (identically zero when the bound is 0).
    """

    decay: float
    lead: float = 1.0
    alpha_range: tuple[float, float] = (1.0, 1.0)
    offset_bound: float = 0.0
    innovation: MarginalSpec = Exponential()

    kind: ClassVar[str] = "exp_ma"

    def __post_init__(self) -> None:
        if not (0.0 < self.decay < 1.0):
            raise ParameterError(f"decay must lie in (0, 1), got {self.decay!r}")
        if not (math.isfinite(self.lead) and self.lead > 0):
            raise ParameterError(f"lead must be positive, got {self.lead!r}")
        if len(self.alpha_range) != 2:
            raise ConfigurationError(f"alpha_range must be (lo, hi), got {self.alpha_range!r}")
        lo, hi = (float(a) for a in self.alpha_range)
        object.__setattr__(self, "alpha_range", (lo, hi))
        if not (0.0 < lo <= hi) or not math.isfinite(hi):
            raise ParameterError(f"alpha_range must satisfy 0 < lo <= hi, got {(lo, hi)!r}")
        if not (self.offset_bound >= 0 and math.isfinite(self.offset_bound)):
            raise ParameterError("offset_bound must be a finite nonnegative real")
        if self.innovation.support_min < 0:
            raise ConfigurationError(
                "exponentiated moving average needs an innovation with "
                f"nonnegative support, got {self.innovation.kind}"
            )

    def kernel(self) -> np.ndarray:
        """Geometric kernel truncated where the dropped tail mass is < 1e-12."""
        terms = math.ceil(
            math.log(_KERNEL_TAIL_TOL * (1.0 - self.decay) / self.lead) / math.log(self.decay)
        )
        terms = max(1, terms)
        return self.lead * self.decay ** np.arange(terms)


DependenceModel = Union[Independent, MovingAverage, AR1, ExponentiatedMA]

DEPENDENCE = {cls.kind: cls for cls in get_args(DependenceModel)}

MarginalField = Union[MarginalSpec, tuple]


@dataclass(frozen=True)
class Scenario:
    """Full description of a synthetic two-population experiment.

    ``marginal`` is a single marginal spec, or a tuple of (spec, count) pairs
    for block layouts (Independent dependence only).  For MovingAverage and
    AR1 it gives the (normal) innovation law.  ``beta`` in (0, 1) sets the
    shifted-component count round(p^(1-beta)); ``r`` in (0, 1) sets the shift
    size through the exceedance calibration.
    """

    p: int
    m: int
    n: int
    beta: float
    r: float
    marginal: MarginalField
    dependence: DependenceModel = Independent()
    shift_placement: str = "uniform_random"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ParameterError(f"p must be at least 2, got {self.p}")
        if self.m < 1 or self.n < 1:
            raise ParameterError("m and n must be at least 1")
        if not (0.0 < self.beta < 1.0):
            raise ParameterError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not (0.0 < self.r < 1.0):
            raise ParameterError(f"r must lie in (0, 1), got {self.r!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed!r}")
        if self.shift_placement not in PLACEMENTS:
            raise ParameterError(
                f"shift_placement must be one of {PLACEMENTS}, got {self.shift_placement!r}"
            )
        if isinstance(self.marginal, (list, tuple)):
            blocks = tuple((spec, int(count)) for spec, count in self.marginal)
            object.__setattr__(self, "marginal", blocks)
            if sum(count for _, count in blocks) != self.p:
                raise ParameterError("block marginal counts must sum to p")
            if any(count <= 0 for _, count in blocks):
                raise ParameterError("block marginal counts must be positive")
            if not isinstance(self.dependence, Independent):
                raise ConfigurationError(
                    "block marginal layouts are only supported with Independent dependence"
                )
        if isinstance(self.dependence, (MovingAverage, AR1)) and not isinstance(
            self.marginal, Normal
        ):
            raise ConfigurationError(
                f"{self.dependence.kind} dependence requires a normal innovation marginal"
            )

    @property
    def is_blocked(self) -> bool:
        return isinstance(self.marginal, tuple)

    @property
    def light_size(self) -> int:
        """Size of the first block for block placements; defaults to the shift count."""
        if self.is_blocked:
            return self.marginal[0][1]
        return shift_count(self.p, self.beta)


@dataclass
class GeneratedData:
    """One realized trial: training rows, test vector, and shift bookkeeping."""

    x_samples: np.ndarray
    y_samples: np.ndarray
    z: np.ndarray
    z_label: str
    shift_indices: np.ndarray
    shift_amount: float


def shift_count(p: int, beta: float) -> int:
    """Number of shifted components, round(p^(1-beta)); always in [1, p-1]."""
    p = int(p)
    if p < 2:
        raise ParameterError(f"p must be at least 2, got {p}")
    if not (0.0 < beta <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta!r}")
    count = round(p ** (1.0 - beta))
    if not 1 <= count <= p - 1:
        raise DegenerateScenarioError(
            f"shift count round(p^(1-beta)) = {count} leaves no contrast at p = {p}"
        )
    return count


def place_shifts(
    p: int,
    beta: float,
    placement: str,
    rng: np.random.Generator,
    *,
    light_size: int | None = None,
) -> np.ndarray:
    """Choose the sorted 0-based indices of the shifted components.

    ``light_block`` places the shifts in the leading block of ``light_size``
    components (all of it when sizes match); ``heavy_block`` samples them
    uniformly from the remaining indices.  ``light_size`` defaults to the
    shift count itself, matching the layout used by the mixed generator.
    """
    if placement not in PLACEMENTS:
        raise ParameterError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    count = shift_count(p, beta)
    if placement == "uniform_random":
        idx = rng.choice(p, size=count, replace=False)
    elif placement == "first_indices":
        idx = np.arange(count)
    else:
        light = count if light_size is None else int(light_size)
        if placement == "light_block":
            if light < count:
                raise ConfigurationError(
                    f"light block of {light} components cannot host {count} shifts"
                )
            if light == count:
                idx = np.arange(count)
            else:
                idx = rng.choice(light, size=count, replace=False)
        else:  # heavy_block
            heavy = p - light
            if heavy < count:
                raise ConfigurationError(
                    f"heavy block of {heavy} components cannot host {count} shifts"
                )
            idx = light + rng.choice(heavy, size=count, replace=False)
    return np.sort(np.asarray(idx, dtype=np.int64))


@lru_cache(maxsize=128)
def _component_params(
    seed: int, p: int, model: ExponentiatedMA
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-component exponents and offsets, drawn once per seed, p and model,
    so every (beta, r) cell of a sweep shares them."""
    rng = np.random.default_rng(derive_seed(seed, _PARAMS_TAG))
    lo, hi = model.alpha_range
    alphas = np.full(p, lo) if lo == hi else rng.uniform(lo, hi, p)
    if model.offset_bound > 0:
        offsets = rng.uniform(-model.offset_bound, model.offset_bound, p)
    else:
        offsets = None
    alphas.setflags(write=False)
    if offsets is not None:
        offsets.setflags(write=False)
    return alphas, offsets


@lru_cache(maxsize=None)
def shift_amount(scenario: Scenario) -> float:
    """The common magnitude a_p(r) added to every shifted component.

    Independent layouts use the exact exceedance calibration on the scenario
    marginals.  MovingAverage and AR1 use the implied normal component
    marginal (variance sum(w^2), respectively (1-alpha)/(1+alpha) times the
    innovation variance) in closed form.  ExponentiatedMA marginals have no
    closed form, so the level is the empirical (1 - p^(-r)) quantile of a
    large pooled sample of components, drawn from a calibration stream that
    depends only on the scenario seed.  Cells with the same seed, p, model
    and sample size share one draw, which a study drops once its cells are
    calibrated.  The cache is unbounded (one float per scenario), so a study
    of any size calibrates each cell once.
    """
    model = scenario.dependence
    p, r = scenario.p, scenario.r
    if isinstance(model, Independent):
        return solve_scale(scenario.marginal, p, r).a_p
    if isinstance(model, (MovingAverage, AR1)):
        base = scenario.marginal
        if isinstance(model, MovingAverage):
            w = np.asarray(model.weights)
            eff = Normal(base.mean * float(w.sum()), base.sd * float(np.sqrt((w**2).sum())))
        else:
            shrink = math.sqrt((1.0 - model.alpha) / (1.0 + model.alpha))
            eff = Normal(base.mean, base.sd * shrink)
        return eff.inverse_survival(p ** (-r))
    # ExponentiatedMA: pooled empirical quantile over the realized exponents
    # and offsets, so the pooled survival matches (1/p) sum_k P(X_k > a).
    q = p ** (-r)
    draws = int(min(2_000_000, max(200_000, math.ceil(50.0 / q))))
    return float(np.quantile(_calibration_sample(scenario.seed, p, model, draws), 1.0 - q))


@lru_cache(maxsize=4)
def _calibration_sample(seed: int, p: int, model: ExponentiatedMA, draws: int) -> np.ndarray:
    """The pooled sample of ``shift_amount``, one per draw count (every r up to
    0.83 at p = 20000 shares one); up to 4 are kept until ``_run_cells`` clears them.

    The stream is the exponent picks, the draws + J - 1 innovations and the
    offset picks, in that order.  The innovations are drawn and transformed
    ``_BLOCK`` at a time, each block after the J - 1 it shares with the one
    before, so the sample is its only full-length array besides the picks.
    """
    rng = np.random.default_rng(derive_seed(seed, _SCALE_TAG))
    alphas, offsets = _component_params(seed, p, model)
    picks = rng.choice(alphas.size, size=draws)  # the stream of rng.choice(alphas, size=draws)
    kernel = model.kernel()
    overlap = kernel.size - 1
    values = np.empty(draws)
    innov = np.empty(min(draws, _BLOCK) + overlap)
    innov[:overlap] = model.innovation.sample(rng, overlap)
    for a in range(0, draws, _BLOCK):
        width = min(_BLOCK, draws - a)
        innov[overlap : overlap + width] = model.innovation.sample(rng, width)
        block = innov[: overlap + width]
        _exp_ma_transform(block, kernel, alphas[picks[a : a + width]], values[a : a + width])
        innov[:overlap] = block[width:]
    del picks
    if offsets is not None:
        values += rng.choice(offsets, size=draws)
    values.setflags(write=False)
    return values


def checked_shift_amount(scenario: Scenario) -> float:
    """The calibrated shift amount, or DegenerateScenarioError when the
    scenario has no contrast: a non-positive shift, or a shift count outside
    [1, p - 1]."""
    amount = shift_amount(scenario)
    if amount <= 0:
        raise DegenerateScenarioError(
            f"calibrated shift amount {amount!r} is not positive; "
            "this (p, r, marginal) combination carries no upward signal"
        )
    shift_count(scenario.p, scenario.beta)
    return amount


def innovations_needed(model: DependenceModel, p: int) -> int:
    """Length of the innovation sequence consumed for p components."""
    if isinstance(model, MovingAverage):
        return p + model.window - 1
    if isinstance(model, ExponentiatedMA):
        return p + model.kernel().size - 1
    return p


def _exp_ma_transform(
    innov: np.ndarray, kernel: np.ndarray, alphas: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Component k of each row of ``innov`` is sum_j kernel[j] * innov[..., j + k] ** alphas[k],
    written to ``out`` (a new array by default).

    The columns go in blocks of at most ``_BLOCK`` components over all rows.
    Each block logs its innovations, the J - 1 overlap included, into one
    block-sized buffer and adds the J terms in another, so no temporary
    grows with p.
    """
    p, overlap = alphas.shape[-1], kernel.size - 1
    if out is None:
        out = np.empty(innov.shape[:-1] + (p,))
    rows = math.prod(innov.shape[:-1])
    step = max(1, min(p, _BLOCK // rows))
    # Flat buffers, viewed as contiguous (rows, width) blocks of each width.
    log_buf = np.empty(rows * (step + overlap))
    term_buf = np.empty(rows * step)
    for a in range(0, p, step):
        width = min(step, p - a)
        logs = log_buf[: rows * (width + overlap)].reshape(innov.shape[:-1] + (-1,))
        term = term_buf[: rows * width].reshape(innov.shape[:-1] + (width,))
        with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(-inf) = 0 = 0 ** alpha
            np.log(innov[..., a : a + width + overlap], out=logs)
        acc = out[..., a : a + width]
        acc[...] = 0.0
        for j, c in enumerate(kernel):
            np.multiply(alphas[..., a : a + width], logs[..., j : j + width], out=term)
            np.exp(term, out=term)
            term *= c
            acc += term
    return out


def apply_dependence(
    model: DependenceModel,
    innovations: np.ndarray,
    p: int,
    *,
    alphas: np.ndarray | None = None,
) -> np.ndarray:
    """Transform an innovation sequence, or each row of a 2-D array of them,
    into p dependent components.

    ``alphas`` supplies the per-component exponents ExponentiatedMA needs.
    """
    innovations = np.asarray(innovations, dtype=float)
    needed = innovations_needed(model, p)
    if innovations.ndim not in (1, 2) or innovations.shape[-1] < needed:
        raise ShapeError(
            f"need at least {needed} innovations for p = {p}, got shape {innovations.shape}"
        )
    innovations = innovations[..., :needed]
    if isinstance(model, Independent):
        return innovations.copy()
    if isinstance(model, MovingAverage):
        # U_k = sum_j w_j e_{k+j}: a sliding correlation with the weights.
        w = np.asarray(model.weights)
        return np.apply_along_axis(np.correlate, -1, innovations, w, mode="valid")
    if isinstance(model, AR1):
        from scipy.signal import lfilter

        a = model.alpha
        if p == 1 or a == 0.0:
            return innovations.copy()
        first = innovations[..., :1]
        rest, _ = lfilter([1.0 - a], [1.0, -a], innovations[..., 1:], axis=-1, zi=a * first)
        return np.concatenate((first, rest), axis=-1)
    # ExponentiatedMA
    if alphas is None:
        raise ParameterError("apply_dependence needs the per-component alphas for exp_ma")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != (p,):
        raise ShapeError(f"alphas must have shape ({p},), got {alphas.shape}")
    return _exp_ma_transform(innovations, model.kernel(), alphas)


def _draw_rows(scenario: Scenario, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Draw ``rows`` independent process realizations, shape (rows, p)."""
    model, p = scenario.dependence, scenario.p
    if scenario.is_blocked:
        return np.hstack([spec.sample(rng, (rows, count)) for spec, count in scenario.marginal])
    law = model.innovation if isinstance(model, ExponentiatedMA) else scenario.marginal
    innov = law.sample(rng, (rows, innovations_needed(model, p)))
    if not isinstance(model, ExponentiatedMA):
        return apply_dependence(model, innov, p)
    alphas, offsets = _component_params(scenario.seed, p, model)
    out = apply_dependence(model, innov, p, alphas=alphas)
    if offsets is not None:
        out += offsets
    return out


def generate(
    scenario: Scenario, z_from: str, rng: np.random.Generator | None = None
) -> GeneratedData:
    """Generate one trial: m X-rows, n shifted Y-rows, and a test vector.

    ``z_from`` names the population the test vector is drawn from.  The rng
    defaults to a fresh generator seeded with ``scenario.seed``; the draw
    order is fixed (placement, X rows, Y rows, test vector), so identical
    scenarios and seeds give bit-identical output.  Unshifted components go
    through exactly the same code path for X and Y.
    """
    if z_from not in ("X", "Y"):
        raise ParameterError(f"z_from must be 'X' or 'Y', got {z_from!r}")
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    amount = checked_shift_amount(scenario)
    indices = place_shifts(
        scenario.p,
        scenario.beta,
        scenario.shift_placement,
        rng,
        light_size=scenario.light_size,
    )
    x = _draw_rows(scenario, rng, scenario.m)
    y = _draw_rows(scenario, rng, scenario.n)
    z = _draw_rows(scenario, rng, 1)[0]
    y[:, indices] += amount
    if z_from == "Y":
        z[indices] += amount
    return GeneratedData(x, y, z, z_from, indices, amount)


def gen_mixed_light_heavy(
    p: int,
    beta: float,
    r: float,
    perturb: str,
    rng: np.random.Generator,
    *,
    z_from: str = "Y",
    m: int = 1,
    n: int = 1,
) -> GeneratedData:
    """Mixed light/heavy-tailed populations with shift r * log(p).

    X has round(p^(1-beta)) standard normal components (the light block, at
    the first indices) and the rest unit exponential (the heavy block).  Y
    is constructed from X by adding mu = r * log(p) to round(p^(1-beta))
    components of the block named by ``perturb``, leaving the other
    components unaltered (Y_j reuses the values of X_{j mod m}).  The test
    vector is always a fresh draw.  This is the setting where the
    extrema-based classifier succeeds for heavy-block shifts yet fails for
    light-block shifts.
    """
    if perturb not in ("heavy_block", "light_block"):
        raise ConfigurationError(
            f"perturb must be 'heavy_block' or 'light_block', got {perturb!r}"
        )
    if z_from not in ("X", "Y"):
        raise ParameterError(f"z_from must be 'X' or 'Y', got {z_from!r}")
    if r < 0:
        raise ParameterError(f"r must be nonnegative, got {r!r}")
    if m < 1 or n < 1:
        raise ParameterError("m and n must be at least 1")
    p = int(p)
    light = shift_count(p, beta)
    if p - 2 * light <= 0:
        raise ConfigurationError(
            f"need p - 2 * round(p^(1-beta)) > 0 so unshifted heavy components remain "
            f"(p = {p}, block = {light})"
        )
    mu = r * math.log(p)
    indices = place_shifts(p, beta, perturb, rng, light_size=light)

    def rows(count: int) -> np.ndarray:
        return np.hstack(
            [rng.normal(0.0, 1.0, (count, light)), rng.exponential(1.0, (count, p - light))]
        )

    x = rows(m)
    y = x[np.arange(n) % m].copy()
    z = rows(1)[0]
    y[:, indices] += mu
    if z_from == "Y":
        z[indices] += mu
    return GeneratedData(x, y, z, z_from, indices, mu)
