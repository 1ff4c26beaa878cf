"""Config file parsing, expression DSLs, and round trips."""

import configparser

import pytest

from robustnn import (
    AR1,
    ConfigurationError,
    Exponential,
    ExponentiatedMA,
    Independent,
    MovingAverage,
    Normal,
    Pareto,
    RobustMethod,
    Scenario,
    StandardNNMethod,
    StudentT,
    Subbotin,
)
from robustnn.config import (
    default_config,
    format_blocked_marginal,
    format_dependence,
    get_setting,
    load_config,
    methods_from_config,
    parse_blocked_marginal,
    parse_dependence,
    parse_mn_pairs,
    parse_number_list,
    scenario_fields,
    scenario_from_config,
)
from robustnn.datagen import DEPENDENCE


def test_parse_number_list_explicit():
    assert parse_number_list("1, 2, 3.5") == [1.0, 2.0, 3.5]
    assert parse_number_list("0.3") == [0.3]


def test_parse_number_list_range():
    assert parse_number_list("0.55:0.95:0.1") == pytest.approx([0.55, 0.65, 0.75, 0.85, 0.95])
    assert parse_number_list("0.1:0.9:0.2") == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])
    assert parse_number_list("2:2:1") == [2.0]


def test_parse_number_list_errors():
    for bad in ("", "1:2", "1:0:1", "a, b"):
        with pytest.raises(ConfigurationError):
            parse_number_list(bad)


@pytest.mark.parametrize("text", ["0:inf:1", "0:nan:1", "-inf:0:1", "0:1:inf"])
def test_parse_number_list_rejects_a_non_finite_range_bound(text):
    with pytest.raises(ConfigurationError) as info:
        parse_number_list(text)
    assert str(info.value) == f"range bounds must be finite, got {text!r}"


@pytest.mark.parametrize(
    "text", ["0:1e300:1e-300", "0:1e9:1e-9", "-1e308:1e308:1", "1:1000001:1"]
)
def test_parse_number_list_caps_the_range_points(text):
    with pytest.raises(ConfigurationError) as info:
        parse_number_list(text)
    assert str(info.value) == f"range {text!r} has more than 1000000 points"


def test_parse_number_list_allows_the_capped_count():
    grid = parse_number_list("1:1000000:1")
    assert len(grid) == 10**6 and grid[-1] == 1e6


def test_parse_dependence_forms():
    assert parse_dependence("independent") == Independent()
    assert parse_dependence("moving_average w=5") == MovingAverage.equal(5)
    assert parse_dependence("moving_average weights=0.2,0.3,0.5") == MovingAverage(
        (0.2, 0.3, 0.5)
    )
    assert parse_dependence("ar1 alpha=0.5") == AR1(0.5)
    model = parse_dependence(
        "exp_ma decay=0.4 lead=1.5 alpha_range=0.8,1.2 offset_bound=0.1 "
        "innovation=pareto;gamma=2.0"
    )
    assert model == ExponentiatedMA(
        decay=0.4, lead=1.5, alpha_range=(0.8, 1.2), offset_bound=0.1,
        innovation=Pareto(2.0),
    )


def test_parse_dependence_errors():
    for bad in ("", "white_noise", "moving_average", "ar1", "ar1 alpha=x",
                "moving_average w=5 weights=0.5,0.5",
                "moving_average w=inf", "moving_average w=nan", "moving_average w=2.5",
                "exp_ma decay=0.5 alpha_range=0.5",
                # two-sided innovations are rejected by the model itself
                "exp_ma decay=0.5 innovation=subbotin;gamma=1.5"):
        with pytest.raises(ConfigurationError):
            parse_dependence(bad)
    # A value that is no number is named by its key.
    for bad, key in (("moving_average weights=0.2,abc", "weights"),
                     ("moving_average weights=", "weights"),
                     ("exp_ma decay=0.5 alpha_range=0.5,x", "alpha_range")):
        with pytest.raises(ConfigurationError, match=f"non-numeric {key} "):
            parse_dependence(bad)


# Each dependence kind's examples with their canonical text.
DEPENDENCE_EXAMPLES = {
    "independent": [(Independent(), "independent")],
    "moving_average": [
        (MovingAverage.equal(5), "moving_average weights=0.2,0.2,0.2,0.2,0.2"),
        (MovingAverage((0.2, 0.8)), "moving_average weights=0.2,0.8"),
    ],
    "ar1": [(AR1(0.3), "ar1 alpha=0.3")],
    "exp_ma": [
        (ExponentiatedMA(decay=0.4, lead=2.0, alpha_range=(0.8, 1.2),
                         offset_bound=0.05, innovation=Exponential()),
         "exp_ma decay=0.4 lead=2.0 alpha_range=0.8,1.2 offset_bound=0.05 "
         "innovation=exponential"),
        (ExponentiatedMA(decay=0.5, innovation=Pareto(2.0)),
         "exp_ma decay=0.5 lead=1.0 alpha_range=1.0,1.0 offset_bound=0.0 "
         "innovation=pareto;gamma=2.0"),
    ],
}


def test_format_dependence_round_trip():
    # Every model in DEPENDENCE needs examples here, so one without a
    # working grammar fails.
    for kind, cls in DEPENDENCE.items():
        for model, text in DEPENDENCE_EXAMPLES[kind]:
            assert type(model) is cls
            assert format_dependence(model) == text
            assert parse_dependence(text) == model


def test_parse_dependence_takes_each_parameter_once():
    with pytest.raises(ConfigurationError, match="ar1 sets alpha twice"):
        parse_dependence("ar1 alpha=0.1 alpha=0.2")
    with pytest.raises(ConfigurationError, match="moving_average sets weights twice"):
        parse_dependence("moving_average weights=0.5,0.5 w=2")
    with pytest.raises(ConfigurationError, match="ar1 does not take a parameter named 'w'"):
        parse_dependence("ar1 w=2")


def test_blocked_marginal_round_trip():
    blocks = ((Normal(), 40), (Exponential(), 60))
    text = format_blocked_marginal(blocks)
    assert parse_blocked_marginal(text) == blocks
    assert parse_blocked_marginal("student_t df=4 * 10; pareto gamma=1 * 20") == (
        (StudentT(4.0), 10),
        (Pareto(1.0), 20),
    )
    # a bare family name is a plain (unblocked) marginal
    assert parse_blocked_marginal("normal") == Normal()
    with pytest.raises(ConfigurationError):
        parse_blocked_marginal("normal * 0")
    with pytest.raises(ConfigurationError):
        parse_blocked_marginal("normal * x")


def test_default_config_builds_default_scenario():
    expected = Scenario(
        p=20000, m=1, n=1, beta=0.7, r=0.4, marginal=Normal(),
        dependence=Independent(), shift_placement="uniform_random", seed=0,
    )
    # no parser at all falls back to the built-in defaults
    assert scenario_from_config(None) == expected
    # and the template text parses to the same thing
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(default_config())
    assert scenario_from_config(parser) == expected


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[scenario]\n"
        "p = 500\n"
        "marginal = student_t df=4\n"
        "seed = 9\n"
        "# comment line\n"
        "beta = 0.6  # trailing comment\n"
    )
    sc = scenario_from_config(load_config(path))
    assert sc.p == 500
    assert sc.marginal == StudentT(4.0)
    assert sc.beta == 0.6
    assert sc.seed == 9
    assert sc.r == 0.4  # untouched keys keep their defaults
    assert sc.dependence == Independent()

    # correlated models ride on normal innovations, so keep the default marginal
    path2 = tmp_path / "run2.ini"
    path2.write_text("[scenario]\np = 400\ndependence = ar1 alpha=0.3\n")
    assert scenario_from_config(load_config(path2)).dependence == AR1(0.3)


def test_load_config_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "marked.ini"
    path.write_bytes(b"\xef\xbb\xbf[scenario]\np = 500\n")
    assert scenario_from_config(load_config(path)).p == 500


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "nope.ini")


@pytest.mark.parametrize(
    "text, entry",
    [
        ("[scenario]\nbta = 0.9\n", "key [scenario] bta"),
        ("[scenario]\np = 200\nBTA = 0.9\n", "key [scenario] bta"),  # keys are lowercased
        ("[sweep]\ntrails = 2\n", "key [sweep] trails"),
        ("[sweeep]\ntrials = 2\n", "section [sweeep]"),
        ("[Sweep]\ntrials = 2\n", "section [Sweep]"),  # section names are not
        ("[sweeep]\n[scenario]\nbta = 0.9\n", "section [sweeep]"),  # the first in the file
        ("[threshold_dist]\nc = 0.4\nrobust_c = 0.4\n", "key [threshold_dist] robust_c"),
        # A [DEFAULT] key would reach only the sections the file names.
        ("[DEFAULT]\ntrials = 5\n[sweep]\n", "section [DEFAULT]"),
    ],
    ids=["key", "upper_key", "study_key", "section", "upper_section", "first", "other_optional",
         "default"],
)
def test_load_config_names_the_first_unknown_section_or_key(tmp_path, text, entry):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigurationError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}: unknown {entry}"


def test_load_config_knows_the_template_and_its_commented_keys(tmp_path):
    text = default_config()
    for key in ("robust_c", "truncated_t", "fixed_t", "c"):
        text = text.replace(f"# {key} = ", f"{key} = ")
    path = tmp_path / "full.ini"
    path.write_text("[DEFAULT]\n" + text)  # an empty [DEFAULT] sets nothing
    parser = load_config(path)
    assert parser.defaults() == {}
    assert get_setting(parser, "threshold_dist", "c", float) == 0.5
    assert [m.name for m in methods_from_config(parser)] == ["robust", "nn"]
    assert get_setting(parser, "methods", "fixed_t", float) == 0.0


def test_scenario_round_trip_through_text():
    scenarios = [
        Scenario(p=100, m=2, n=3, beta=0.55, r=0.45, marginal=Subbotin(1.5),
                 shift_placement="first_indices", seed=4),
        Scenario(p=120, m=1, n=1, beta=0.6, r=0.5, marginal=Normal(),
                 dependence=MovingAverage.equal(5)),
        Scenario(p=80, m=1, n=1, beta=0.5, r=0.5,
                 marginal=((Normal(), 30), (Exponential(), 50))),
        Scenario(p=60, m=1, n=1, beta=0.5, r=0.5, marginal=Exponential(),
                 dependence=ExponentiatedMA(decay=0.5), seed=2),
    ]
    # The record every manifest writes: marginal and dependence in text form.
    for sc in scenarios:
        assert scenario_from_config(None, **scenario_fields(sc)) == sc


def test_scenario_from_config_overrides():
    sc = scenario_from_config(None, p=50, r=0.8, marginal="exponential")
    assert sc.p == 50 and sc.r == 0.8
    assert sc.marginal == Exponential()
    # already-built objects pass straight through
    sc2 = scenario_from_config(None, p=60, marginal=Subbotin(1.5))
    assert sc2.marginal == Subbotin(1.5)


def test_methods_from_config():
    methods = methods_from_config(None)
    assert [type(m) for m in methods] == [RobustMethod, StandardNNMethod]
    assert methods[0].rule == "independent"
    assert methods[0].xi_or_c == 0.5


def test_methods_from_config_full_roster(tmp_path):
    path = tmp_path / "m.ini"
    path.write_text(
        "[methods]\n"
        "methods = robust, nn, nn_trunc, fixed_threshold, extrema\n"
        "robust_rule = dependent\n"
        "robust_c = 0.2\n"
        "truncated_t = 1.5\n"
        "fixed_t = 2.5\n"
    )
    methods = methods_from_config(load_config(path))
    names = [type(m).__name__ for m in methods]
    assert names == [
        "RobustMethod", "StandardNNMethod", "TruncatedNNMethod",
        "FixedThresholdMethod", "ExtremaMethod",
    ]
    assert methods[0].rule == "dependent" and methods[0].xi_or_c == 0.2
    assert methods[2].t == 1.5
    assert methods[3].t == 2.5


def test_methods_from_config_errors(tmp_path):
    path = tmp_path / "m.ini"
    path.write_text("[methods]\nmethods = robust, magic\n")
    with pytest.raises(ConfigurationError):
        methods_from_config(load_config(path))
    path.write_text("[methods]\nmethods = fixed_threshold\n")
    with pytest.raises(ConfigurationError):
        methods_from_config(load_config(path))  # fixed_t missing


def test_parse_mn_pairs():
    assert parse_mn_pairs("1,1; 2,2; 1,3") == [(1, 1), (2, 2), (1, 3)]
    with pytest.raises(ConfigurationError):
        parse_mn_pairs("1")
    with pytest.raises(ConfigurationError):
        parse_mn_pairs("0,2")


def test_get_setting_merges_defaults(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[sweep]\ntrials = 12\n")
    parser = load_config(path)
    assert get_setting(parser, "sweep", "trials") == "12"
    # keys absent from the file resolve to package defaults
    assert get_setting(parser, "sweep", "beta_grid") == get_setting(
        None, "sweep", "beta_grid"
    )
    assert get_setting(None, "sweep", "beta_grid") == "0.55:0.95:0.1"
    with pytest.raises(ConfigurationError):
        get_setting(parser, "sweep", "no_such_key")


def test_default_config_text_is_parseable():
    from robustnn.config import _DEFAULT_CONFIG_TEMPLATE

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(_DEFAULT_CONFIG_TEMPLATE)
    assert parser.has_section("scenario")
    assert parser.has_section("sweep")
