"""Marginal families and the exceedance-scale solver against scipy oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from robustnn import (
    Exponential,
    Normal,
    Pareto,
    ParameterError,
    StudentT,
    Subbotin,
    format_marginal,
    parse_marginal,
    solve_scale,
)
from robustnn.errors import ConfigurationError


# Arguments at and beyond the edges of the double range, signed zeros included.
_XS = (-math.inf, -1e308, -40.0, -3.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 0.3, 1.5, 4.2,
       9.0, 40.0, 1e308, math.inf)
_QS = (1.0 - 1e-12, 0.9, 0.5, 0.3, 0.05, 1e-4, 1e-12, 1e-100, 1e-300)


def assert_same_double(got, want):
    # float.hex separates -0.0 from 0.0, which == does not.
    assert isinstance(got, float)
    assert got.hex() == float(want).hex()


def test_normal_matches_scipy():
    # The scipy.special expressions are exactly what scipy.stats.norm runs.
    for mean, sd in ((0.0, 1.0), (1.5, 2.0), (-3.0, 0.25), (1e3, 1e-3), (0.0, 1e300)):
        d = Normal(mean, sd)
        for x in _XS:
            with np.errstate(over="ignore"):  # 1e308 / 0.25 is inf on both sides
                want = stats.norm.sf(x, mean, sd)
            assert_same_double(d.survival(x), want)
        for q in _QS:
            assert_same_double(d.inverse_survival(q), stats.norm.isf(q, mean, sd))
    assert Normal().inverse_survival(0.1) == 1.2815515655446004


def test_student_t_matches_scipy():
    for df in (0.5, 1.0, 2.5, 4.0, 30.0, 1e6):
        d = StudentT(df)
        for x in _XS:
            assert_same_double(d.survival(x), stats.t.sf(x, df))
        for q in _QS:
            assert_same_double(d.inverse_survival(q), stats.t.isf(q, df))
    assert StudentT(4.0).survival(2.0) == pytest.approx(0.05805826175840775, rel=1e-12)
    assert StudentT(4.0).survival(-1.5) == pytest.approx(0.896, rel=1e-12)


def test_exponential_closed_form():
    d = Exponential()
    assert d.survival(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert d.survival(-1.0) == 1.0
    assert d.inverse_survival(math.exp(-3.0)) == pytest.approx(3.0, rel=1e-12)


def test_pareto_closed_form():
    assert Pareto(1.0).survival(100.0) == pytest.approx(0.01, rel=1e-15)
    assert Pareto(2.0).survival(5.0) == pytest.approx(0.04, rel=1e-15)
    assert Pareto(2.0).survival(0.5) == 1.0
    assert Pareto(1.0).inverse_survival(0.01) == pytest.approx(100.0, rel=1e-12)


def subbotin_density(g: float):
    """The density exp(-|x|^g / g) / C that Subbotin(g)'s survival integrates."""
    normalizer = 2.0 * math.gamma(1.0 / g) * g ** (1.0 / g - 1.0)
    return lambda x: math.exp(-abs(x) ** g / g) / normalizer


def test_subbotin_density_integrates_to_one():
    for g in (0.7, 1.0, 1.5, 2.0):
        total, err = integrate.quad(subbotin_density(g), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=max(1e-9, 10 * err))


def test_subbotin_survival_matches_quadrature():
    for g, x in ((0.7, 0.8), (1.5, 0.8), (1.5, -0.4), (2.0, 1.3)):
        tail, err = integrate.quad(subbotin_density(g), x, np.inf)
        assert Subbotin(g).survival(x) == pytest.approx(tail, abs=max(1e-10, 10 * err))


def test_subbotin_special_cases():
    # gamma=2 is the standard normal, gamma=1 the unit Laplace.
    for x in (-1.0, 0.3, 2.0):
        assert Subbotin(2.0).survival(x) == pytest.approx(stats.norm.sf(x), rel=1e-10)
    assert Subbotin(1.0).survival(1.3) == pytest.approx(0.5 * math.exp(-1.3), rel=1e-10)


def test_inverse_survival_round_trip():
    specs = [Normal(), StudentT(3.0), Exponential(), Subbotin(1.5), Pareto(1.0)]
    for spec in specs:
        for q in (0.4, 0.1, 1e-3):
            assert spec.survival(spec.inverse_survival(q)) == pytest.approx(q, rel=1e-9)
        with pytest.raises(ParameterError):
            spec.inverse_survival(0.0)
    subbotin = Subbotin(1.5)  # symmetric about 0: the median and the lower half
    assert subbotin.inverse_survival(0.5) == 0.0
    for q in (0.6, 0.9, 1 - 1e-3):
        x = subbotin.inverse_survival(q)
        assert x < 0 and subbotin.survival(x) == pytest.approx(q, rel=1e-9)


def test_samplers_match_survival():
    rng = np.random.default_rng(7)
    n = 200_000
    for spec, x in ((StudentT(4.0), 1.0), (Pareto(1.0), 3.0), (Subbotin(1.5), 0.8),
                    (Exponential(), 1.2)):
        draws = spec.sample(rng, n)
        emp = float((draws > x).mean())
        assert emp == pytest.approx(spec.survival(x), abs=4.0 / math.sqrt(n))


def test_solve_scale_single_family_exact():
    a = solve_scale(Pareto(1.0), 10000, 0.5)
    assert a == pytest.approx(100.0, rel=1e-6)
    # The closed-form reduction: the inverse survival point itself, bit for bit.
    assert a.hex() == Pareto(1.0).inverse_survival(10000 ** -0.5).hex()
    a = solve_scale(Exponential(), 20000, 0.4)
    assert a == pytest.approx(3.961395021014451, rel=1e-8)
    # brentq on scipy's sf gives the same level for student t
    a = solve_scale(StudentT(4.0), 20000, 0.4)
    assert a == pytest.approx(3.04879484080968, rel=1e-9)


def test_solve_scale_achieved_sum():
    # The exceedance sum recomputed at the returned level, on the single and mixed branches.
    for blocks, r in (
        ([(Normal(), 500)], 0.3),
        ([(StudentT(2.0), 2000)], 0.7),
        ([(Exponential(), 60), (Normal(), 40)], 0.5),
        ([(StudentT(3.0), 1500), (Subbotin(1.5), 400), (Pareto(2.0), 100)], 0.6),
    ):
        p = sum(count for _, count in blocks)
        a = solve_scale(blocks[0][0] if len(blocks) == 1 else blocks, p, r)
        achieved = sum(count * spec.survival(a) for spec, count in blocks)
        assert achieved == pytest.approx(p ** (1.0 - r), rel=1e-8)


def test_solve_scale_mixed_blocks():
    # scipy.optimize.brentq on 60*exp(-a) + 40*norm.sf(a) = 10
    a = solve_scale([(Exponential(), 60), (Normal(), 40)], 100, 0.5)
    assert a == pytest.approx(1.910653617432875, rel=1e-9)
    # The brentq result itself, pinned bit for bit.
    assert a.hex() == "0x1.e9209870dbb95p+0"


def test_solve_scale_identical_blocks_collapse():
    whole = solve_scale(Normal(), 100, 0.5)
    split = solve_scale([(Normal(), 60), (Normal(), 40)], 100, 0.5)
    assert split.hex() == whole.hex()


def test_solve_scale_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        solve_scale(Normal(), 100, 1.0)
    with pytest.raises(ParameterError):
        solve_scale(Normal(), 0, 0.5)
    with pytest.raises(ParameterError, match=r"^p must be at least 2, got 1$"):
        solve_scale(Normal(), 1, 0.5)
    with pytest.raises(ParameterError):
        solve_scale([(Normal(), 60), (Exponential(), 30)], 100, 0.5)
    with pytest.raises(ParameterError):
        solve_scale([(Normal(), -5), (Exponential(), 105)], 100, 0.5)


def test_family_parameter_validation():
    with pytest.raises(ParameterError):
        Normal(sd=0.0)
    with pytest.raises(ParameterError):
        StudentT(0.0)
    with pytest.raises(ParameterError):
        Subbotin(-1.0)
    with pytest.raises(ParameterError):
        Pareto(0.0)


def test_parse_format_round_trip():
    specs = [Normal(0.5, 2.0), StudentT(4.0), Exponential(), Subbotin(1.5), Pareto(1.0)]
    for spec in specs:
        assert parse_marginal(format_marginal(spec)) == spec
    assert parse_marginal("STUDENT_T DF=4") == StudentT(4.0)
    assert parse_marginal("normal") == Normal()


def test_parse_marginal_errors():
    with pytest.raises(ConfigurationError):
        parse_marginal("")
    with pytest.raises(ConfigurationError):
        parse_marginal("cauchy")
    with pytest.raises(ConfigurationError):
        parse_marginal("normal df=4")
    with pytest.raises(ConfigurationError):
        parse_marginal("normal sd=abc")
    with pytest.raises(ConfigurationError, match="student_t requires df="):
        parse_marginal("student_t")
    with pytest.raises(ConfigurationError, match="normal sets mean twice"):
        parse_marginal("normal mean=1 mean=2")
