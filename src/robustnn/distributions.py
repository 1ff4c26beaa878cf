"""Marginal distributions and the sparse-shift scale calibration.

Five marginal families cover the light- through heavy-tailed range used in
the simulation studies: normal, Student-t, unit-rate exponential, the
exponential-power family with density

    f(x) = C_gamma^{-1} exp(-|x|^gamma / gamma),
    C_gamma = 2 * Gamma(1/gamma) * gamma^{(1/gamma) - 1},

and the Pareto family with survival function x^{-gamma} for x > 1.  Each
family exposes the upper-tail survival function P(X > x), its inverse, and a
sampler driven by a numpy Generator.

``solve_scale`` calibrates the magnitude of rare mean shifts: it finds the
level ``a`` at which the expected number of the p components exceeding ``a``
equals p^(1-r),

    sum_k P(X^(k) > a) = p^(1-r),      0 < r < 1,

so that larger r means rarer, and therefore individually larger, exceedance
levels.  For identically distributed components this reduces to the single
inverse survival value at q = p^(-r); mixed component lists are solved by
root finding on a bracket that is valid by monotonicity.

scipy is imported inside the functions that use it, not with this module:
``scipy.special`` in the normal, Student-t and exponential-power tails, and
``scipy.optimize`` in the mixed-block branch of ``solve_scale``.  The tails
call the ``scipy.special`` functions that ``scipy.stats.norm`` and
``scipy.stats.t`` run underneath, in the same arithmetic, so the values are
the same doubles.  The exponential and Pareto families use no scipy.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DomainError, ParameterError, SolverError

__all__ = [
    "Normal",
    "StudentT",
    "Exponential",
    "Subbotin",
    "Pareto",
    "MarginalSpec",
    "ScaleSolution",
    "solve_scale",
    "parse_marginal",
    "format_marginal",
]


def _check_quantile(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"survival level must lie in (0, 1), got {q!r}")
    return q


@dataclass(frozen=True)
class Normal:
    """Normal distribution with the given mean and standard deviation."""

    mean: float = 0.0
    sd: float = 1.0

    kind: ClassVar[str] = "normal"
    support_min: ClassVar[float] = -math.inf

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
            raise ParameterError("normal parameters must be finite")
        if self.sd <= 0:
            raise ParameterError(f"normal sd must be positive, got {self.sd!r}")

    def survival(self, x: float) -> float:
        from scipy.special import ndtr

        return float(ndtr(-((x - self.mean) / self.sd)))

    def inverse_survival(self, q: float) -> float:
        from scipy.special import ndtri

        return float(-ndtri(_check_quantile(q)) * self.sd + self.mean)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size)


@dataclass(frozen=True)
class StudentT:
    """Student-t distribution with ``df`` degrees of freedom (location 0, scale 1)."""

    df: float

    kind: ClassVar[str] = "student_t"
    support_min: ClassVar[float] = -math.inf

    def __post_init__(self) -> None:
        if not (math.isfinite(self.df) and self.df > 0):
            raise ParameterError(f"student_t df must be a positive real, got {self.df!r}")

    def survival(self, x: float) -> float:
        from scipy.special import stdtr

        return float(stdtr(self.df, -x))

    def inverse_survival(self, q: float) -> float:
        from scipy.special import stdtrit

        # 0.0 - v rather than -v: at q = 0.5 scipy.stats.t.isf gives +0.0.
        return float(0.0 - stdtrit(self.df, _check_quantile(q)))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.standard_t(self.df, size)


@dataclass(frozen=True)
class Exponential:
    """Unit-rate exponential distribution: P(X > x) = exp(-x) for x >= 0."""

    kind: ClassVar[str] = "exponential"
    support_min: ClassVar[float] = 0.0

    def survival(self, x: float) -> float:
        x = float(x)
        return 1.0 if x < 0 else math.exp(-x)

    def inverse_survival(self, q: float) -> float:
        return -math.log(_check_quantile(q))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.exponential(1.0, size)


@dataclass(frozen=True)
class Subbotin:
    """Exponential-power distribution with density C^-1 exp(-|x|^gamma / gamma).

    gamma = 2 recovers the standard normal; gamma = 1 is the Laplace law up to
    scale; smaller gamma gives heavier tails.  The tail mass transforms to a
    gamma law, |X|^gamma / gamma ~ Gamma(1/gamma, 1), which supplies both the
    closed-form survival function (regularized incomplete gamma) and an exact
    sampler.
    """

    gamma: float

    kind: ClassVar[str] = "subbotin"
    support_min: ClassVar[float] = -math.inf

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ParameterError(f"subbotin gamma must be positive, got {self.gamma!r}")

    def _upper_half(self, x: float) -> float:
        # P(|X| > x) for x >= 0.
        from scipy.special import gammaincc

        g = self.gamma
        return float(gammaincc(1.0 / g, x**g / g))

    def survival(self, x: float) -> float:
        x = float(x)
        if x >= 0:
            return 0.5 * self._upper_half(x)
        return 1.0 - 0.5 * self._upper_half(-x)

    def inverse_survival(self, q: float) -> float:
        from scipy.special import gammainccinv

        q = _check_quantile(q)
        g = self.gamma
        if q == 0.5:
            return 0.0
        if q < 0.5:
            return float((g * gammainccinv(1.0 / g, 2.0 * q)) ** (1.0 / g))
        return -float((g * gammainccinv(1.0 / g, 2.0 * (1.0 - q))) ** (1.0 / g))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        g = self.gamma
        magnitude = (g * rng.gamma(1.0 / g, 1.0, size)) ** (1.0 / g)
        sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        return sign * magnitude


@dataclass(frozen=True)
class Pareto:
    """Pareto distribution with survival x^(-gamma) for x > 1, 1 otherwise."""

    gamma: float

    kind: ClassVar[str] = "pareto"
    support_min: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ParameterError(f"pareto gamma must be positive, got {self.gamma!r}")

    def survival(self, x: float) -> float:
        x = float(x)
        return 1.0 if x <= 1 else x ** (-self.gamma)

    def inverse_survival(self, q: float) -> float:
        return _check_quantile(q) ** (-1.0 / self.gamma)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        # Generator.pareto draws the Lomax form on (0, inf); shifting by one
        # gives survival x^(-gamma) on (1, inf) exactly.
        return 1.0 + rng.pareto(self.gamma, size)


MarginalSpec = Union[Normal, StudentT, Exponential, Subbotin, Pareto]

_KINDS = {cls.kind: cls for cls in (Normal, StudentT, Exponential, Subbotin, Pareto)}


@dataclass(frozen=True)
class ScaleSolution:
    """Result of the exceedance-scale calibration.

    Attributes
    ----------
    a_p : float
        Level solving sum_k P(X^(k) > a_p) = p^(1-r).
    r : float
        Rarity exponent used.
    p : int
        Total number of components.
    achieved_sum : float
        The exceedance sum evaluated at ``a_p``; within 1e-8 relative of
        the target p^(1-r).
    iterations : int
        Root-finder iterations (0 when the closed-form reduction applies).
    """

    a_p: float
    r: float
    p: int
    achieved_sum: float
    iterations: int


def _normalize_marginals(
    marginals: MarginalSpec | Sequence[tuple[MarginalSpec, int]], p: int
) -> list[tuple[MarginalSpec, int]]:
    if not isinstance(marginals, (list, tuple)):
        return [(marginals, p)]
    blocks = list(marginals)
    out: list[tuple[MarginalSpec, int]] = []
    total = 0
    for spec, count in blocks:
        count = int(count)
        if count <= 0:
            raise ParameterError("marginal multiplicities must be positive")
        out.append((spec, count))
        total += count
    if total != p:
        raise ParameterError(f"marginal multiplicities sum to {total}, expected p = {p}")
    return out


def solve_scale(
    marginals: MarginalSpec | Sequence[tuple[MarginalSpec, int]], p: int, r: float
) -> ScaleSolution:
    """Find the level ``a`` with sum_k P(X^(k) > a) = p^(1-r).

    Parameters
    ----------
    marginals : MarginalSpec or sequence of (MarginalSpec, count)
        Component distributions; a bare spec means all ``p`` components share
        it.  Counts must sum to ``p``.
    p : int
        Number of components, at least 1.
    r : float
        Rarity exponent in (0, 1).

    Returns
    -------
    ScaleSolution
        With ``achieved_sum`` within 1e-8 relative of the target.
    """
    p = int(p)
    if p < 1:
        raise ParameterError(f"p must be at least 1, got {p}")
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ParameterError(f"r must lie in (0, 1), got {r!r}")
    blocks = _normalize_marginals(marginals, p)
    q = p ** (-r)
    target = p ** (1.0 - r)

    specs = {spec for spec, _ in blocks}
    if len(specs) == 1:
        spec = next(iter(specs))
        a = spec.inverse_survival(q)
        achieved = p * spec.survival(a)
        iterations = 0
    else:
        points = [spec.inverse_survival(q) for spec, _ in blocks]
        lo, hi = min(points), max(points)

        def excess(a: float) -> float:
            return sum(count * spec.survival(a) for spec, count in blocks) - target

        if lo == hi:
            a = lo
            iterations = 0
        else:
            f_lo, f_hi = excess(lo), excess(hi)
            if f_lo < -1e-8 * target or f_hi > 1e-8 * target:
                raise SolverError(
                    "could not bracket the exceedance level between the "
                    "per-marginal inverse survival points"
                )
            from scipy.optimize import brentq

            a, res = brentq(
                excess, lo, hi, xtol=1e-13 * max(1.0, abs(hi)), rtol=9e-16, full_output=True
            )
            iterations = res.iterations
        achieved = sum(count * spec.survival(a) for spec, count in blocks)

    if abs(achieved - target) > 1e-8 * target:
        raise SolverError(
            f"exceedance sum {achieved!r} misses target {target!r} beyond tolerance"
        )
    return ScaleSolution(a_p=float(a), r=r, p=p, achieved_sum=float(achieved), iterations=iterations)


def _number(key: str, value: str, text: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigurationError(f"non-numeric {key} in {text!r}") from None


def _parse_spec(text: str, kinds: dict, what: str, aliases: dict | None = None):
    """Build the spec that ``kind name=value ...`` names.

    ``kinds`` maps each kind to its dataclass, whose fields give the names
    and how each value reads: a float, a comma list of floats (a tuple
    field), or a marginal with ``;`` for spaces.  The field types are the
    annotation strings (``from __future__ import annotations``).  ``aliases``
    maps another name to a field and a function of its float value.  Names
    and kinds are case-insensitive.
    """
    tokens = text.split()
    if not tokens:
        raise ConfigurationError(f"empty {what} expression")
    cls = kinds.get(tokens[0].lower())
    if cls is None:
        raise ConfigurationError(
            f"unknown {what} kind {tokens[0]!r}; expected one of {list(kinds)}"
        )
    types = {f.name: f.type for f in fields(cls)}
    params = {}
    for token in tokens[1:]:
        key, eq, value = token.partition("=")
        key = key.lower()
        name, read = (aliases or {}).get(key, (key, None))
        if not eq:
            raise ConfigurationError(f"malformed {cls.kind} parameter {token!r}")
        if name not in types:
            raise ConfigurationError(f"{cls.kind} does not take a parameter named {key!r}")
        if name in params:
            raise ConfigurationError(f"{cls.kind} sets {name} twice in {text!r}")
        if read is not None:
            params[name] = read(_number(key, value, text))
        elif types[name] == "float":
            params[name] = _number(key, value, text)
        elif types[name].startswith("tuple"):
            params[name] = tuple(_number(key, v, text) for v in value.split(","))
        else:
            params[name] = parse_marginal(value.replace(";", " "))
    for f in fields(cls):
        if f.name not in params and f.default is MISSING:
            raise ConfigurationError(f"{cls.kind} requires {f.name}=")
    return cls(**params)


def _format_spec(spec) -> str:
    """Canonical ``kind name=value ...`` form of a spec, inverse of _parse_spec."""
    parts = [spec.kind]
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type == "float":
            text = repr(value)
        elif f.type.startswith("tuple"):
            text = ",".join(repr(v) for v in value)
        else:
            text = format_marginal(value).replace(" ", ";")
        parts.append(f"{f.name}={text}")
    return " ".join(parts)


def parse_marginal(text: str) -> MarginalSpec:
    """Parse a marginal expression such as ``student_t df=4``."""
    return _parse_spec(text, _KINDS, "marginal")


def format_marginal(spec: MarginalSpec) -> str:
    """Canonical text form of a marginal spec, inverse of parse_marginal."""
    return _format_spec(spec)
