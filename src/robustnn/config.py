"""Config-file parsing: scenarios, methods, and study settings.

Files are flat ``key = value`` text with one section per concern, read by
configparser.  Lines starting with ``#`` are comments.  Grammar for the
compound values:

* marginal and dependence: ``kind name=value ...``, one grammar
  (``distributions._parse_spec``) for both.  The kind names the family in
  ``distributions._KINDS`` or the model in ``datagen.DEPENDENCE``, and the
  names are its dataclass fields; a value is a float, a comma list of floats
  (``weights``, ``alpha_range``), or a marginal with ``;`` in place of spaces
  (``innovation``).  Kinds and names are case-insensitive, each name is given
  at most once, and fields without a default are required.  Marginals:
  ``normal``, ``normal mean=0 sd=1``, ``student_t df=4``, ``exponential``,
  ``subbotin gamma=1.5``, ``pareto gamma=1``; blocked layouts join
  ``spec * count`` segments with ``;``: ``normal * 100; exponential * 9900``.
  Dependence: ``independent``; ``moving_average weights=0.2,0.3,0.5``, or
  ``moving_average w=5`` for five equal weights (the one shorthand);
  ``ar1 alpha=0.5``; ``exp_ma decay=0.5 lead=1 alpha_range=0.5,2
  offset_bound=0 innovation=pareto;gamma=2``.  The formatters write every
  field in this form, so ``parse(format(spec)) == spec``.
* number lists: ``0.1, 0.2, 0.3`` or the exact inclusive range ``0.1:0.9:0.2``.

``default_config()`` returns a complete annotated template; every key it
shows is optional in user files and defaults to the value shown.  A section
or key it does not show, set or commented out, is an error in ``load_config``.
``method_from_config`` reads [methods] for every method a command builds.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from typing import Any, Callable

from .classifier import DEFAULT_C, DEFAULT_XI, METHODS, MethodSpec, make_method
from .datagen import DEPENDENCE, PLACEMENTS, DependenceModel, MovingAverage, Scenario
from .distributions import _format_spec, _parse_spec, format_marginal, parse_marginal
from .errors import ConfigurationError

__all__ = [
    "parse_dependence",
    "format_dependence",
    "parse_number_list",
    "parse_blocked_marginal",
    "format_blocked_marginal",
    "load_config",
    "scenario_from_config",
    "method_from_config",
    "methods_from_config",
    "scenario_fields",
    "default_config",
    "get_setting",
    "parse_mn_pairs",
]


_MAX_RANGE_POINTS = 10**6


def parse_number_list(text: str) -> list[float]:
    """Parse ``a, b, c`` or the inclusive range ``start:stop:step`` of at most a
    million points.  A range is exact on the decimals written: point i is one correctly
    rounded integer division, the double nearest start + i * step (0.85, not 0.85000...01)."""
    text = text.strip()
    if not text:
        raise ConfigurationError("empty number list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"range must be start:stop:step, got {text!r}")
        try:
            bounds = [Decimal(part) for part in parts]
        except ArithmeticError:  # decimal.InvalidOperation
            raise ConfigurationError(f"non-numeric range bound in {text!r}") from None
        if not all(b.is_finite() and math.isfinite(b) for b in bounds):  # and finite as doubles
            raise ConfigurationError(f"range bounds must be finite, got {text!r}")
        # The exact decimal of a double has at most 1074 places, that of 2**-1074.
        if max(-b.as_tuple().exponent for b in bounds) > 1074:
            raise ConfigurationError(f"range {text!r} has a bound with over 1074 decimal places")
        start, stop, step = map(Fraction, bounds)
        if step <= 0 or stop < start:
            raise ConfigurationError(f"range needs step > 0 and stop >= start, got {text!r}")
        count = (stop - start) // step + 1
        if count > _MAX_RANGE_POINTS:
            raise ConfigurationError(f"range {text!r} has more than {_MAX_RANGE_POINTS} points")
        scale = math.lcm(start.denominator, step.denominator)
        first, gap = int(start * scale), int(step * scale)
        return [(first + i * gap) / scale for i in range(count)]
    try:
        numbers = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(f"non-numeric entry in list {text!r}") from None
    if not all(map(math.isfinite, numbers)):
        raise ConfigurationError(f"list entries must be finite, got {text!r}")
    return numbers


def _equal_weights(window: float) -> tuple[float, ...]:
    if not window.is_integer() or window < 1:  # NaN and inf are not integers
        raise ConfigurationError(f"moving_average w must be a positive integer, got {window!r}")
    return MovingAverage.equal(int(window)).weights


def parse_dependence(text: str) -> DependenceModel:
    """Parse a dependence expression (see the module docstring grammar)."""
    return _parse_spec(text, DEPENDENCE, "dependence", {"w": ("weights", _equal_weights)})


def format_dependence(model: DependenceModel) -> str:
    """Canonical text form of a dependence model, inverse of parse_dependence."""
    if not isinstance(model, tuple(DEPENDENCE.values())):
        raise ConfigurationError(f"unknown dependence model {model!r}")
    return _format_spec(model)


def parse_blocked_marginal(text: str):
    """Parse either one marginal or ``spec * count`` blocks joined by ``;``."""
    segments = [segment.strip() for segment in text.split(";") if segment.strip()]
    if not segments:
        raise ConfigurationError("empty marginal expression")
    if len(segments) == 1 and "*" not in segments[0]:
        return parse_marginal(segments[0])
    blocks = []
    for segment in segments:
        spec_text, star, count_text = segment.rpartition("*")
        if not star:
            raise ConfigurationError(
                f"blocked marginal segment {segment!r} needs 'spec * count'"
            )
        try:
            count = int(count_text.strip())
        except ValueError:
            raise ConfigurationError(
                f"non-integer block count in {segment!r}"
            ) from None
        if count < 1:
            raise ConfigurationError(f"block count must be >= 1 in {segment!r}")
        blocks.append((parse_marginal(spec_text), count))
    return tuple(blocks)


def format_blocked_marginal(marginal) -> str:
    if isinstance(marginal, (tuple, list)):
        return "; ".join(f"{format_marginal(spec)} * {count}" for spec, count in marginal)
    return format_marginal(marginal)


_DEFAULT_CONFIG_TEMPLATE = f"""\
# Scenario: the data-generating model.
[scenario]
# dimension (>= 2)
p = 20000
# training rows per population
m = 1
n = 1
# sparsity exponent: round(p^(1-beta)) components are shifted
beta = 0.7
# signal exponent: shift solves sum_k P(X_k > a) = p^(1-r)
r = 0.4
# marginal family; blocks join "spec * count" with ";"
marginal = normal
# independent | moving_average w=5 | ar1 alpha=0.5 | exp_ma decay=0.5 ...
dependence = independent
# uniform_random | first_indices | heavy_block | light_block
shift_placement = uniform_random
seed = 0

# Methods scored in estimates and sweeps; every command given a file checks them.
[methods]
# comma list from: {", ".join(METHODS)}
methods = robust, nn
# critical-value rule for the robust method, the c curve and threshold_dist:
# independent | dependent
robust_rule = independent
# slope of the critical value, threshold_dist's too (its --c overrides it): c for
# the independent rule (default {DEFAULT_C}), xi for the dependent rule (default {DEFAULT_XI})
# robust_c = {DEFAULT_C}
# fixed t for nn_trunc / fixed_threshold (required if those methods appear)
# truncated_t = 0.0
# fixed_t = 0.0

[sweep]
beta_grid = 0.55:0.95:0.1
r_grid = 0.1:0.9:0.2
trials = 400

[curves]
# thresholds as proportions of the shift amount (success_vs_threshold)
t_grid = 0.0:1.2:0.1
# critical-value slopes (success_vs_c)
c_grid = 0.1:1.2:0.1
trials = 200

[threshold_dist]
trials = 400
bins = 20

[apriori]
# absolute thresholds for the predicted-success curve
t_grid = 0.0:8.0:0.25
# normal_approx | monte_carlo
method = normal_approx
trials = 2000

[sample_size]
# semicolon-joined m,n pairs
pairs = 1,1; 2,2; 1,3; 3,1
trials = 200
"""


def default_config() -> str:
    """The full annotated template with every default value."""
    return _DEFAULT_CONFIG_TEMPLATE


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # decoded whole, then parsed
            parser.read_string(fh.read(), source=os.fspath(path))
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if parser.defaults():  # its keys would reach only the sections the file names
        raise ConfigurationError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():  # section names keep their case, keys are lowercased
        if not _DEFAULTS.has_section(section):
            raise ConfigurationError(f"{path}: unknown section [{section}]")
        known = {*_DEFAULTS[section], *_COMMENTED_KEYS.get(section, ())}
        for key in parser[section]:
            if key not in known:
                raise ConfigurationError(f"{path}: unknown key [{section}] {key}")
    return parser


_DEFAULTS = configparser.ConfigParser(inline_comment_prefixes=("#",))
_DEFAULTS.read_string(_DEFAULT_CONFIG_TEMPLATE)
# The optional keys the template shows commented out; a file may set these too.
_COMMENTED_KEYS = {"methods": ("robust_c", "truncated_t", "fixed_t")}


def _section(parser: configparser.ConfigParser | None, name: str) -> dict[str, str]:
    merged = dict(_DEFAULTS[name]) if _DEFAULTS.has_section(name) else {}
    if parser is not None and parser.has_section(name):
        for key, value in parser[name].items():
            merged[key] = value
    return merged


def get_setting(
    parser: configparser.ConfigParser | None,
    section: str,
    key: str,
    convert: Callable[[str], Any] = str,
    optional: bool = False,
) -> Any:
    """A section value, with the built-in default as fallback, read by ``convert``;
    a value ``convert`` rejects is a ConfigurationError naming the section and key.
    An ``optional`` key that is set nowhere reads None."""
    values = _section(parser, section)
    if key not in values:
        if optional:
            return None
        raise ConfigurationError(f"no setting [{section}] {key}")
    return _read(values, section, key, convert)


def _read(values: dict, section: str, key: str, convert: Callable[[str], Any]) -> Any:
    try:
        return convert(values[key])
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key}: {exc}") from None


def scenario_from_config(parser: configparser.ConfigParser | None, **overrides) -> Scenario:
    """Build a Scenario from the [scenario] section plus keyword overrides in
    the section's text form; a None override is left out."""
    values = _section(parser, "scenario")
    values.update((key, value) for key, value in overrides.items() if value is not None)
    marginal = parse_blocked_marginal(values["marginal"])
    dependence = parse_dependence(values["dependence"])
    placement = str(values["shift_placement"]).strip().lower()
    if placement not in PLACEMENTS:
        raise ConfigurationError(
            f"shift_placement must be one of {list(PLACEMENTS)}, got {placement!r}"
        )
    numbers = {
        key: _read(values, "scenario", key, convert)
        for key, convert in (
            ("p", int), ("m", int), ("n", int), ("beta", float), ("r", float), ("seed", int)
        )
    }
    return Scenario(**numbers, marginal=marginal, dependence=dependence, shift_placement=placement)


def scenario_fields(scenario: Scenario) -> dict:
    """The [scenario] keys and values of a Scenario, with the marginal and
    the dependence model in their text form."""
    record = {f.name: getattr(scenario, f.name) for f in fields(scenario)}
    record["marginal"] = format_blocked_marginal(scenario.marginal)
    record["dependence"] = format_dependence(scenario.dependence)
    return record


_THRESHOLD_KEYS = {"nn_trunc": "truncated_t", "fixed_threshold": "fixed_t"}


def method_from_config(parser: configparser.ConfigParser | None, name: str) -> MethodSpec:
    """Method ``name`` with the settings [methods] gives it, checked by its spec."""
    c = get_setting(parser, "methods", "robust_c", float, optional=True)
    t = get_setting(parser, "methods", _THRESHOLD_KEYS.get(name), float, optional=True)
    return make_method(name, get_setting(parser, "methods", "robust_rule"), c, t)


def methods_from_config(parser: configparser.ConfigParser | None) -> list[MethodSpec]:
    """Build the method list from the [methods] section.  A setting that no
    listed method reads is still checked, by building the spec it names."""
    names = [name.strip().lower() for name in _section(parser, "methods")["methods"].split(",")]
    names = [name for name in names if name]
    if not names:
        raise ConfigurationError("methods list is empty")
    methods = [method_from_config(parser, name) for name in names]
    method_from_config(parser, "robust")
    for name, key in _THRESHOLD_KEYS.items():
        if get_setting(parser, "methods", key, optional=True) is not None:
            method_from_config(parser, name)
    return methods


def parse_mn_pairs(text: str) -> list[tuple[int, int]]:
    """Parse ``m,n; m,n; ...`` sample-size pairs."""
    pairs: list[tuple[int, int]] = []
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        parts = segment.split(",")
        if len(parts) != 2:
            raise ConfigurationError(f"sample-size pair must be m,n, got {segment!r}")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigurationError(f"non-integer sample size in {segment!r}") from None
        if m < 1 or n < 1:
            raise ConfigurationError(f"sample sizes must be >= 1 in {segment!r}")
        pairs.append((m, n))
    if not pairs:
        raise ConfigurationError("no sample-size pairs given")
    return pairs
