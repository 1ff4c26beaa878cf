"""End-to-end command behavior: files written, exit codes, reproducibility."""

import argparse
import json

import numpy as np
import pytest

import robustnn.cli as cli
import robustnn.experiments as experiments
from robustnn.classifier import (
    DEFAULT_C,
    DEFAULT_XI,
    METHODS,
    RULES,
    RobustMethod,
    evaluate_method,
)
from robustnn.cli import dispatch
from robustnn.config import load_config, methods_from_config, scenario_from_config
from robustnn.datagen import shift_amount
from robustnn.dataset import Dataset, load_dataset, save_dataset
from robustnn.experiments import success_vs_c, threshold_distribution

SCENARIO_200 = "[scenario]\np = 200\nbeta = 0.6\nr = 0.7\nseed = 3\n"


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_print_config(capsys):
    assert dispatch(["--print-config"]) == 0
    out = capsys.readouterr().out
    assert "[scenario]" in out
    assert "p = 20000" in out


def test_no_command_prints_usage(capsys):
    assert dispatch([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_returns_parser_code(capsys):
    assert dispatch(["gen", "--bogus"]) == 2
    capsys.readouterr()


def test_gen_writes_csv_and_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SCENARIO_200)
    out = tmp_path / "data.csv"
    assert dispatch(["gen", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    dataset = load_dataset(out)
    assert dataset.samples.shape == (3, 200)
    assert list(dataset.labels) == ["X", "Y", "Y"]  # z defaults to a Y draw
    manifest = json.loads((tmp_path / "data.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 3
    assert manifest["schema_version"] == 1
    assert manifest["outputs"] == [str(out)]
    assert manifest["config"]["scenario"]["p"] == 200


def test_gen_replays_byte_identical_from_manifest(tmp_path):
    cfg = write_cfg(tmp_path, SCENARIO_200)
    out = tmp_path / "data.csv"
    assert dispatch(["gen", "--config", cfg, "--out", str(out)]) == 0
    first_csv = out.read_bytes()
    manifest_path = tmp_path / "data.manifest.json"
    first_manifest = manifest_path.read_bytes()
    argv = json.loads(first_manifest)["argv"]
    assert dispatch(argv) == 0
    assert out.read_bytes() == first_csv
    assert manifest_path.read_bytes() == first_manifest


def test_gen_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, SCENARIO_200)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert dispatch(["gen", "--config", cfg, "--out", str(a)]) == 0
    assert dispatch(["gen", "--config", cfg, "--seed", "7", "--out", str(b)]) == 0
    assert json.loads((tmp_path / "b.manifest.json").read_text())["seed"] == 7
    assert a.read_bytes() != b.read_bytes()


def test_gen_missing_config_errors(tmp_path, capsys):
    code = dispatch(
        ["gen", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_gen_infinite_moving_average_window_is_an_error_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SCENARIO_200 + "dependence = moving_average w=inf\n")
    assert dispatch(["gen", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "error: moving_average w must be a positive integer, got inf\n"


@pytest.mark.parametrize(
    "setting, message",
    [
        ("p = 2.5", "error: [scenario] p: invalid literal for int() with base 10: '2.5'\n"),
        ("seed = x", "error: [scenario] seed: "),
        ("seed = -1", "error: seed must be nonnegative, got -1\n"),
    ],
    ids=["p", "seed", "negative_seed"],
)
def test_scenario_error_line_names_the_value(tmp_path, capsys, setting, message):
    cfg = write_cfg(tmp_path, f"[scenario]\n{setting}\n")
    assert dispatch(["gen", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_gen_negative_seed_flag_is_an_error_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SCENARIO_200)
    out = tmp_path / "x.csv"
    assert dispatch(["gen", "--config", cfg, "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_classify_last_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SCENARIO_200)
    data = tmp_path / "data.csv"
    dispatch(["gen", "--config", cfg, "--out", str(data)])
    out = tmp_path / "result.json"
    assert dispatch(["classify", "--data", str(data), "--out", str(out)]) == 0
    assert "predicted" in capsys.readouterr().out
    result = json.loads(out.read_text())
    assert result["row_index"] == 2
    assert result["true_label"] == "Y"
    assert result["predicted_label"] in ("X", "Y")
    assert result["correct"] == (result["predicted_label"] == "Y")
    assert result["method"] == "robust"
    assert (tmp_path / "result.manifest.json").exists()


def test_classify_bad_index(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SCENARIO_200)
    data = tmp_path / "data.csv"
    dispatch(["gen", "--config", cfg, "--out", str(data)])
    code = dispatch(
        ["classify", "--data", str(data), "--index", "99", "--out", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # Row 0 is the one X row: holding it out leaves no X row to train on.
    code = dispatch(
        ["classify", "--data", str(data), "--index", "0", "--out", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: training split leaves an empty class\n"


def test_classify_missing_data(tmp_path, capsys):
    code = dispatch(
        ["classify", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["loo", "--method", "nn", "--t", "nan", "--c", "-5", "--rule", "dependent"],
            "method nn does not read --c",
        ),
        (["classify", "--method", "extrema", "--t", "1"], "method extrema does not read --t"),
    ],
    ids=["loo_nn", "classify_extrema"],
)
def test_flag_the_method_does_not_read_is_an_error_line(tmp_path, capsys, argv, message):
    cfg = write_cfg(tmp_path, "[scenario]\np = 200\nm = 2\nn = 2\nbeta = 0.6\nr = 0.7\n")
    data = tmp_path / "data.csv"
    assert dispatch(["gen", "--config", cfg, "--out", str(data)]) == 0
    capsys.readouterr()
    written = sorted(tmp_path.iterdir())
    for path in (data, tmp_path / "nope.csv"):  # the flags are checked before the data is read
        assert dispatch([*argv, "--data", str(path), "--out", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(tmp_path.iterdir()) == written


def test_loo_and_cv_on_generated_data(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 200\nm = 2\nn = 2\nbeta = 0.6\nr = 0.7\nseed = 5\n",
    )
    data = tmp_path / "data.csv"
    dispatch(["gen", "--config", cfg, "--out", str(data)])

    loo_out = tmp_path / "loo.json"
    assert dispatch(["loo", "--data", str(data), "--method", "nn", "--out", str(loo_out)]) == 0
    payload = json.loads(loo_out.read_text())
    assert payload["total"] == 5
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert set(payload["confusion"]) <= {"X->X", "X->Y", "Y->X", "Y->Y"}
    diagonal = sum(n for key, n in payload["confusion"].items() if key == key[0] + "->" + key[0])
    assert payload["correct"] == diagonal

    cv_out = tmp_path / "cv.json"
    assert dispatch(["cv", "--data", str(data), "--out", str(cv_out)]) == 0
    payload = json.loads(cv_out.read_text())
    assert payload["grid_size"] >= 1
    assert payload["minimizer_count"] >= 1
    # CV is already least with no truncation (t = -inf) here, which JSON writes as null.
    assert payload["theta_cv"] is None
    assert capsys.readouterr().out.endswith("theta_cv = -inf (CV = 0.0)\n")


def _reject_non_finite(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_cv_writes_null_for_no_truncation_and_only_standard_json(tmp_path, capsys):
    # Well separated classes: CV is least already with no truncation, t = -inf.
    rng = np.random.default_rng(0)
    samples = np.vstack([rng.normal(0.0, 1.0, (3, 20)), rng.normal(5.0, 1.0, (3, 20))])
    ids = tuple(f"f{k}" for k in range(20))
    data = tmp_path / "s.csv"
    save_dataset(Dataset(ids, samples, ("a",) * 3 + ("b",) * 3), data)
    out = tmp_path / "cv.json"
    assert dispatch(["cv", "--data", str(data), "--out", str(out)]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert [path.name for path in written] == ["cv.json", "cv.manifest.json"]
    cv, manifest = (json.loads(p.read_text(), parse_constant=_reject_non_finite) for p in written)
    assert cv["theta_cv"] is None and manifest["config"]["theta_cv"] is None
    assert capsys.readouterr().out == "theta_cv = -inf (CV = 0.0)\n"


def test_sweep_writes_grid_and_dominance(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 60\nbeta = 0.6\nr = 0.7\nseed = 1\n"
        "[sweep]\nbeta_grid = 0.6, 0.8\nr_grid = 0.5, 0.9\ntrials = 6\n",
    )
    out = tmp_path / "grid.csv"
    assert dispatch(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert "2x2 cells" in capsys.readouterr().out
    dominance = tmp_path / "grid_dominance.csv"
    assert out.exists() and dominance.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,r,method,rate,se,trials"
    assert len(lines) == 1 + 2 * 2 * 2  # cells x default methods (robust, nn)
    manifest = json.loads((tmp_path / "grid.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(dominance)]
    assert manifest["config"]["trials_per_cell"] == 6
    assert manifest["config"]["methods"] == ["robust", "nn"]


def test_curves_c_kind(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 100\nbeta = 0.6\nr = 0.7\nseed = 2\n"
        "[curves]\nc_grid = 0.3, 0.6\nt_grid = 0.4, 0.8\ntrials = 5\n",
    )
    out = tmp_path / "curve.csv"
    assert dispatch(["curves", "--config", cfg, "--kind", "c", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "c,value"
    details = json.loads((tmp_path / "curve.json").read_text())
    assert details["kind"] == "c"
    assert details["x"] == [0.3, 0.6]
    assert len(details["rate"]) == 2
    assert len(details["defaulted_fraction"]) == 2
    assert 0.0 <= details["nn_rate"] <= 1.0
    manifest = json.loads((tmp_path / "curve.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(tmp_path / "curve.json")]
    capsys.readouterr()


def test_curves_threshold_kind(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 100\nbeta = 0.6\nr = 0.7\nseed = 2\n"
        "[curves]\nc_grid = 0.3, 0.6\nt_grid = 0.4, 0.8\ntrials = 5\n",
    )
    out = tmp_path / "tcurve.csv"
    assert dispatch(["curves", "--config", cfg, "--kind", "threshold", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "t_over_shift,value"
    details = json.loads((tmp_path / "tcurve.json").read_text())
    assert details["kind"] == "threshold"
    assert details["defaulted_fraction"] is None  # fixed thresholds never default
    capsys.readouterr()


def test_apriori_curve(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 100\nbeta = 0.6\nr = 0.7\nseed = 2\n"
        "[apriori]\nt_grid = 0.0:2.0:1.0\nmethod = normal_approx\n",
    )
    out = tmp_path / "ap.csv"
    assert dispatch(["apriori", "--config", cfg, "--out", str(out)]) == 0
    assert "t_star" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 4
    manifest = json.loads((tmp_path / "ap.manifest.json").read_text())
    assert manifest["config"]["t_star"] in (0.0, 1.0, 2.0)
    assert 0.0 <= manifest["config"]["predicted_success_at_t_star"] <= 1.0


def test_threshold_dist(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        SCENARIO_200 + "[methods]\nrobust_c = 0.5\n[threshold_dist]\ntrials = 5\nbins = 4\n",
    )
    out = tmp_path / "hist.csv"
    assert dispatch(["threshold-dist", "--config", cfg, "--out", str(out)]) == 0
    assert "defaulted fraction" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,proportion"
    assert len(lines) == 5
    manifest = json.loads((tmp_path / "hist.manifest.json").read_text())
    assert manifest["config"]["bins"] == 4
    assert 0.0 <= manifest["config"]["defaulted_fraction"] <= 1.0


@pytest.mark.parametrize(
    "rule, setting, flag, slope",
    [
        pytest.param("dependent", "", [], 0.16, id="dependent-0.16"),
        pytest.param("independent", "", [], 0.5, id="independent-0.5"),
        pytest.param("dependent", "robust_c = 0.3\n", [], 0.3, id="dependent-robust_c"),
        pytest.param("independent", "robust_c = 0.3\n", [], 0.3, id="independent-robust_c"),
        pytest.param("dependent", "robust_c = 0.3\n", ["--c", "0.2"], 0.2, id="dependent-flag"),
        pytest.param("independent", "robust_c = 0.3\n", ["--c", "0.2"], 0.2, id="independent-flag"),
    ],
)
def test_threshold_dist_slope_defaults_by_rule(tmp_path, capsys, rule, setting, flag, slope):
    # The slope is --c, then [methods] robust_c, then the rule's default, as in every command.
    cfg = write_cfg(
        tmp_path,
        SCENARIO_200 + f"[methods]\nrobust_rule = {rule}\n{setting}[threshold_dist]\ntrials = 4\n",
    )
    out = tmp_path / "hist.csv"
    assert dispatch(["threshold-dist", "--config", cfg, *flag, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "hist.manifest.json").read_text())
    assert manifest["config"]["c"] == slope
    assert manifest["config"]["rule"] == rule


def test_sample_size_rejects_a_method_named_twice(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 100\nbeta = 0.6\nr = 0.7\nseed = 4\n"
        "[methods]\nmethods = robust, nn, robust\n"
        "[sample_size]\npairs = 1,1\ntrials = 4\n",
    )
    out = tmp_path / "ss.csv"
    assert dispatch(["sample-size", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: method names must be distinct")
    assert not out.exists()


def test_sample_size(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 100\nbeta = 0.6\nr = 0.7\nseed = 4\n"
        "[sample_size]\npairs = 1,1; 2,1\ntrials = 4\n",
    )
    out = tmp_path / "ss.csv"
    assert dispatch(["sample-size", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "m,n,method,rate,se,trials"
    assert len(lines) == 1 + 2 * 2  # pairs x default methods
    manifest = json.loads((tmp_path / "ss.manifest.json").read_text())
    assert manifest["config"]["pairs"] == [[1, 1], [2, 1]]


def test_nn_trunc_requires_t(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SCENARIO_200)
    data = tmp_path / "data.csv"
    dispatch(["gen", "--config", cfg, "--out", str(data)])
    code = dispatch(
        [
            "classify",
            "--data",
            str(data),
            "--method",
            "nn_trunc",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["loo", "--method", "nn_trunc", "--t", "inf"],
            "nn_trunc threshold t must be finite, got inf",
        ),
        (
            ["classify", "--method", "fixed_threshold", "--t", "nan"],
            "fixed_threshold threshold t must be finite, got nan",
        ),
    ],
    ids=["loo_inf", "classify_nan"],
)
def test_non_finite_t_flag_is_an_error_line(tmp_path, capsys, argv, message):
    data = tmp_path / "data.csv"
    assert dispatch(["gen", "--config", write_cfg(tmp_path, SCENARIO_200), "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert dispatch([*argv, "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not (tmp_path / "out.manifest.json").exists()


def test_non_finite_fixed_t_fails_a_sweep_before_calibration(tmp_path, capsys):
    setting = "[methods]\nmethods = robust, fixed_threshold\nfixed_t = nan\n"
    cfg = write_cfg(tmp_path, STUDIES_200 + setting)
    shift_amount.cache_clear()
    assert dispatch(["sweep", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: fixed_threshold threshold t must be finite, got nan\n"
    assert shift_amount.cache_info().currsize == 0  # no cell was calibrated
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]


UNREAD_SETTINGS = {  # id: ([methods] lines, the error they give)
    "fixed_t_with_robust": (
        "methods = robust\nfixed_t = nan", "fixed_threshold threshold t must be finite, got nan"
    ),
    "robust_c_with_nn": (
        "methods = nn\nrobust_c = -3", "robust slope c must be finite and nonnegative, got -3.0"
    ),
}
CONFIG_COMMANDS = {  # id prefix: the command; sweep's cases keep the bare ids
    "": ["sweep"],
    "gen-": ["gen"],
    "threshold_dist-": ["threshold-dist"],
    "curves_c-": ["curves", "--kind", "c"],
    "curves_threshold-": ["curves", "--kind", "threshold"],
    "apriori-": ["apriori"],
}


@pytest.mark.parametrize(
    "command, setting, message",
    [
        pytest.param(command, *case, id=prefix + name)
        for prefix, command in CONFIG_COMMANDS.items()
        for name, case in UNREAD_SETTINGS.items()
    ],
)
def test_setting_no_listed_method_reads_fails_a_sweep_before_calibration(
    tmp_path, capsys, command, setting, message
):
    # Every command that reads a config file checks all of [methods], as sweep does.
    cfg = write_cfg(tmp_path, STUDIES_200 + f"[methods]\n{setting}\n")
    shift_amount.cache_clear()
    assert dispatch([*command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert shift_amount.cache_info().currsize == 0  # no cell was calibrated
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]


@pytest.mark.parametrize("rule, slope", [("independent", DEFAULT_C), ("dependent", DEFAULT_XI)])
def test_config_and_flags_build_the_same_robust_method(tmp_path, monkeypatch, rule, slope):
    # Without robust_c or --c, both front ends take the rule's default slope.
    built = []

    def spy(train_x, train_y, z, method):
        built.append(method)
        return evaluate_method(train_x, train_y, z, method)

    monkeypatch.setattr(cli, "evaluate_method", spy)
    data = tmp_path / "data.csv"
    assert dispatch(["gen", "--config", write_cfg(tmp_path, SCENARIO_200), "--out", str(data)]) == 0
    out = str(tmp_path / "r.json")
    assert dispatch(["classify", "--data", str(data), "--rule", rule, "--out", out]) == 0
    cfg = write_cfg(tmp_path, f"[methods]\nmethods = robust\nrobust_rule = {rule}\n", "m.ini")
    assert built == methods_from_config(load_config(cfg))
    assert built[0].xi_or_c == slope


@pytest.mark.parametrize(
    "command, section, key",
    [("sweep", "sweep", "trials"), ("threshold-dist", "threshold_dist", "bins")],
)
def test_non_numeric_study_setting_is_an_error_line(tmp_path, capsys, command, section, key):
    cfg = write_cfg(tmp_path, SCENARIO_200 + f"[{section}]\n{key} = abc\n")
    assert dispatch([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: [{section}] {key}: ")


@pytest.mark.parametrize(
    "setting, message",
    [
        ("robust_rule = bogus", "unknown rule 'bogus'; expected one of "),
        ("robust_c = -1", "robust slope c must be finite and nonnegative, got -1.0"),
        ("robust_c = nan", "robust slope c must be finite and nonnegative, got nan"),
        ("robust_c = inf", "robust slope c must be finite and nonnegative, got inf"),
    ],
    ids=["rule", "negative_c", "nan_c", "inf_c"],
)
def test_unknown_robust_rule_is_an_error_line_before_calibration(
    tmp_path, capsys, setting, message
):
    cfg = write_cfg(
        tmp_path,
        SCENARIO_200
        + "[sweep]\nbeta_grid = 0.6\nr_grid = 0.7\ntrials = 2\n"
        + f"[methods]\nmethods = robust\n{setting}\n",
    )
    shift_amount.cache_clear()
    assert dispatch(["sweep", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert shift_amount.cache_info().currsize == 0  # no cell was calibrated


@pytest.mark.parametrize(
    "argv, setting",
    [
        (["--c", "nan"], ""),
        ([], "[methods]\nrobust_c = -1\n"),
        ([], "[methods]\nrobust_rule = x\n"),
        ([], "[methods]\nrobust_rule = independent_sqrt_logp\n"),
        ([], "[threshold_dist]\nbins = 0\n"),
        ([], "[threshold_dist]\nbins = -3\n"),
    ],
    ids=[
        "nan_c_flag", "negative_c_setting", "bad_rule", "long_rule", "zero_bins", "negative_bins"
    ],
)
def test_bad_threshold_dist_method_is_an_error_line_before_calibration(
    tmp_path, capsys, argv, setting
):
    cfg = write_cfg(tmp_path, SCENARIO_200 + setting)
    shift_amount.cache_clear()
    out = tmp_path / "hist.csv"
    argv = ["threshold-dist", "--config", cfg, "--trials", "6", *argv, "--out", str(out)]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert shift_amount.cache_info().currsize == 0  # no cell was calibrated
    assert not out.exists()


STUDIES_200 = (
    SCENARIO_200
    + "[sweep]\nbeta_grid = 0.6, 0.8\nr_grid = 0.7\ntrials = 2\n"
    + "[sample_size]\npairs = 1,1; 2,2\ntrials = 2\n"
    + "[curves]\nt_grid = 0, 0.5\nc_grid = 0.5\ntrials = 2\n"
    + "[threshold_dist]\ntrials = 2\n"
)
WORKERS_ERROR = "worker count must be nonnegative, got -1"
TRIALS_ERROR = "trials must be positive, got 0"


@pytest.mark.parametrize(
    "argv, setting, message",
    [
        (["sweep", "--workers", "-1"], "", WORKERS_ERROR),
        (["sample-size", "--workers", "-1"], "", WORKERS_ERROR),
        (["threshold-dist", "--workers", "-1"], "", WORKERS_ERROR),
        (["curves", "--kind", "c", "--workers", "-1"], "", WORKERS_ERROR),
        (["curves", "--kind", "threshold", "--workers", "-1"], "", WORKERS_ERROR),
        (["curves", "--kind", "c", "--trials", "0"], "", TRIALS_ERROR),
        (["curves", "--kind", "threshold", "--trials", "0"], "", TRIALS_ERROR),
        (["sample-size", "--trials", "0"], "", TRIALS_ERROR),
        (["threshold-dist", "--trials", "0"], "", TRIALS_ERROR),
        (["apriori", "--trials", "0"], "", TRIALS_ERROR),
        (["apriori", "--workers", "-1"], "", WORKERS_ERROR),
        (["sweep"], "[methods]\nmethod = nn\n", "unknown key [methods] method"),
        (["sweep"], "[apriori]\ntrails = 2\n[sweeep]\n", "unknown key [apriori] trails"),
        (["sweep"], "[sweeep]\ntrials = 2\n", "unknown section [sweeep]"),
    ],
    ids=[
        "sweep_workers", "sample_size_workers", "threshold_dist_workers",
        "c_curve_workers", "t_curve_workers", "c_curve_trials", "t_curve_trials",
        "sample_size_trials", "threshold_dist_trials", "apriori_trials", "apriori_workers",
        "unknown_key", "first_unknown", "unknown_section",
    ],
)
def test_bad_count_or_config_entry_is_an_error_line_before_calibration(
    tmp_path, capsys, argv, setting, message
):
    cfg = write_cfg(tmp_path, STUDIES_200 + setting)
    shift_amount.cache_clear()
    assert dispatch([*argv, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    prefix = f"{cfg}: " if setting else ""
    assert captured.err == f"error: {prefix}{message}\n" and captured.out == ""
    assert shift_amount.cache_info().currsize == 0  # no cell was calibrated
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]


def _subcommands():
    actions = cli._build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


def test_rule_flag_choices_are_the_rule_table(capsys):
    subs = _subcommands()
    for command in ("classify", "loo"):
        rule = next(a for a in subs[command]._actions if a.dest == "rule")
        assert tuple(rule.choices) == RULES
    argv = ["classify", "--data", "d.csv", "--rule", "independent_sqrt_logp"]
    assert dispatch(argv) == 2
    assert "invalid choice: 'independent_sqrt_logp'" in capsys.readouterr().err


# Each option as every subcommand that takes it parses it:
# (dest, type, default, choices, required).
PINNED_OPTIONS = {
    "--data": ("data", None, None, None, True),
    "--index": ("index", int, None, None, False),
    "--method": ("method", None, "robust", tuple(METHODS), False),
    "--c": ("c", float, None, None, False),
    "--rule": ("rule", None, "independent", RULES, False),
    "--t": ("t", float, None, None, False),
    "--config": ("config", None, None, None, False),
    "--seed": ("seed", int, None, None, False),
    "--z-from": ("z_from", None, "Y", ("X", "Y"), False),
    "--trials": ("trials", int, None, None, False),
    "--workers": ("workers", int, None, None, False),
    "--kind": ("kind", None, "c", ("c", "threshold"), False),
}
# Per subcommand, in order: its options before --out, and --out's default.
PINNED_COMMANDS = {
    "classify": ("--data --index --method --c --rule --t", "classify_result.json"),
    "cv": ("--data", "cv_result.json"),
    "loo": ("--data --method --c --rule --t", "loo_result.json"),
    "gen": ("--config --seed --z-from", "generated.csv"),
    "sweep": ("--config --seed --trials --workers", "grid.csv"),
    "threshold-dist": ("--config --seed --trials --c --workers", "threshold_hist.csv"),
    "curves": ("--config --seed --kind --trials --workers", "curve.csv"),
    "apriori": ("--config --seed --trials --workers", "apriori_curve.csv"),
    "sample-size": ("--config --seed --trials --workers", "sample_size.csv"),
}


def test_every_subcommand_option_is_pinned():
    subs = _subcommands()
    assert list(subs) == list(PINNED_COMMANDS)
    for command, (options, out) in PINNED_COMMANDS.items():
        expected = [(("-h", "--help"), "help", None, argparse.SUPPRESS, None, False)]
        expected += [((option,), *PINNED_OPTIONS[option]) for option in options.split()]
        expected.append((("--out",), "out", None, out, None, False))
        actual = [
            (
                tuple(a.option_strings),
                a.dest,
                a.type,
                a.default,
                None if a.choices is None else tuple(a.choices),
                a.required,
            )
            for a in subs[command]._actions
        ]
        assert actual == expected, command


@pytest.mark.parametrize("command", [None, *PINNED_COMMANDS])
def test_every_help_exits_zero(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    assert dispatch(argv) == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: robustnn", *argv[:-1]]))


def test_non_finite_range_bound_is_an_error_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SCENARIO_200 + "[curves]\nt_grid = 0:inf:1\ntrials = 2\n")
    out = tmp_path / "curve.csv"
    assert dispatch(["curves", "--kind", "threshold", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: [curves] t_grid: range bounds must be finite, got '0:inf:1'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0:1e300:1e-300", "0:1e9:1e-9"])
def test_sweep_range_with_too_many_points_is_an_error_line(tmp_path, capsys, grid):
    cfg = write_cfg(tmp_path, SCENARIO_200 + f"[sweep]\nbeta_grid = {grid}\nr_grid = 0.5\n")
    shift_amount.cache_clear()
    out = tmp_path / "grid.csv"
    assert dispatch(["sweep", "--config", cfg, "--trials", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: [sweep] beta_grid: range {grid!r} has more than 1000000 points\n"
    )
    assert shift_amount.cache_info().currsize == 0  # no cell was calibrated
    assert not out.exists()


@pytest.mark.parametrize("kind", ["curves", "threshold-dist"])
def test_studies_read_the_configured_robust_rule(tmp_path, capsys, kind):
    text = (
        "[curves]\nc_grid = 0.16, 0.3\ntrials = 6\n"
        "[threshold_dist]\ntrials = 6\n"
    )
    outputs = {}
    for rule in ("independent", "dependent"):
        methods = f"[methods]\nrobust_rule = {rule}\nrobust_c = 0.3\n"
        cfg = write_cfg(tmp_path, SCENARIO_200 + text + methods)
        out = tmp_path / f"{rule}.csv"
        assert dispatch([kind, "--config", cfg, "--out", str(out)]) == 0
        outputs[rule] = out.read_text()
        manifest = json.loads((tmp_path / f"{rule}.manifest.json").read_text())
        assert manifest["config"]["rule"] == rule
    capsys.readouterr()
    assert outputs["dependent"] != outputs["independent"]
    scenario = scenario_from_config(load_config(cfg))
    if kind == "curves":
        rates = json.loads((tmp_path / "dependent.json").read_text())["rate"]
        expected = success_vs_c(scenario, [0.16, 0.3], 6, scenario.seed, rule="dependent")
        assert rates == expected.rates.tolist()
    else:
        method = RobustMethod(rule="dependent", xi_or_c=0.3)
        dist = threshold_distribution(scenario, 6, method, scenario.seed, bins=20)
        assert outputs["dependent"].splitlines()[1:] == [
            f"{float(a)!r},{float(b)!r},{float(q)!r}"
            for a, b, q in zip(dist.bin_left, dist.bin_right, dist.proportion)
        ]


@pytest.mark.parametrize("method", ["normal_approx", "monte_carlo"])
def test_apriori_nan_grid_point_is_an_error_line(tmp_path, capsys, method):
    cfg = write_cfg(
        tmp_path,
        SCENARIO_200 + f"[apriori]\nt_grid = 0.5, nan\nmethod = {method}\ntrials = 4\n",
    )
    assert dispatch(["apriori", "--config", cfg, "--out", str(tmp_path / "ap.csv")]) == 1
    # The config reader rejects it, as it rejects a non-finite range bound.
    err = capsys.readouterr().err
    assert err == "error: [apriori] t_grid: list entries must be finite, got '0.5, nan'\n"


def test_loo_names_the_csv_line_of_a_non_finite_value(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("label,f0,f1\nX,0.1,0.2\nX,nan,0.3\nY,1.0,1.1\nY,1.2,1.3\n")
    code = dispatch(["loo", "--data", str(data), "--out", str(tmp_path / "loo.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {data}, line 3: feature 'f0' is nan, not a finite number\n"
    assert not (tmp_path / "loo.json").exists()


def test_gen_to_an_unwritable_path_is_an_error_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SCENARIO_200)
    out = tmp_path / "missing" / "g.csv"
    assert dispatch(["gen", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert captured.out == ""


def test_sweep_to_an_unwritable_path_is_an_error_line(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 60\nbeta = 0.6\nr = 0.7\nseed = 1\n"
        "[sweep]\nbeta_grid = 0.6\nr_grid = 0.5\ntrials = 1\n",
    )
    out = tmp_path / "missing" / "grid.csv"
    code = dispatch(["sweep", "--config", cfg, "--workers", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


STUDY_60 = (
    "[scenario]\np = 60\nbeta = 0.6\nr = 0.7\nseed = 1\n"
    "[sweep]\nbeta_grid = 0.6\nr_grid = 0.5\ntrials = 2\n"
    "[sample_size]\npairs = 1,1\ntrials = 2\n"
    "[threshold_dist]\ntrials = 2\n"
    "[curves]\nc_grid = 0.3\nt_grid = 0.4\ntrials = 2\n"
    "[apriori]\nt_grid = 0.5\nmethod = monte_carlo\ntrials = 2\n"
)


@pytest.mark.parametrize("argv", [
    ["sweep"], ["sample-size"], ["threshold-dist"], ["curves", "--kind", "c"],
    ["curves", "--kind", "threshold"], ["apriori"],
], ids=["sweep", "sample-size", "threshold-dist", "curves-c", "curves-threshold", "apriori"])
@pytest.mark.parametrize("folder, reason", [
    ("missing", "No such file or directory"), ("a_file", "Not a directory"),
])
def test_study_checks_its_out_path_before_any_trial(
    tmp_path, capsys, monkeypatch, argv, folder, reason
):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_run_cells", no_trials)
    cfg = write_cfg(tmp_path, STUDY_60)
    (tmp_path / "a_file").write_text("")
    out = tmp_path / folder / "o.csv"
    assert dispatch([*argv, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["classify", "--data", "missing.csv"], ["cv", "--data", "missing.csv"],
    ["loo", "--data", "missing.csv"], ["gen"], ["sweep"], ["sample-size"], ["threshold-dist"],
    ["curves", "--kind", "c"], ["curves", "--kind", "threshold"], ["apriori"],
], ids=lambda argv: "-".join(argv[:1] + argv[2:3]))
def test_out_that_is_a_folder_is_an_error_line_before_any_input(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, STUDY_60)
    out = tmp_path / "outdir"
    out.mkdir()
    shift_amount.cache_clear()
    config = [] if "--data" in argv else ["--config", cfg]
    assert dispatch([*argv, *config, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: Is a directory\n"
    assert captured.out == ""
    assert shift_amount.cache_info().currsize == 0  # no cell was calibrated
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "outdir"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv, out_name, folder", [
    (["sweep"], "grid.csv", "grid_dominance.csv"),
    (["curves", "--kind", "threshold"], "o.csv", "o.json"),
    (["sweep"], "grid2.csv", "grid2.manifest.json"),
], ids=["sweep-dominance", "curves-details", "sweep-manifest"])
def test_every_output_that_is_a_folder_is_an_error_line_before_any_work(
    tmp_path, capsys, argv, out_name, folder
):
    cfg = write_cfg(tmp_path, STUDY_60)
    (tmp_path / folder).mkdir()
    shift_amount.cache_clear()
    assert dispatch([*argv, "--config", cfg, "--out", str(tmp_path / out_name)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {tmp_path / folder}: Is a directory\n"
    assert captured.out == ""
    assert shift_amount.cache_info().currsize == 0  # no cell was calibrated
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.ini", folder])
    assert not any((tmp_path / folder).iterdir())


def test_curves_out_that_is_its_details_file_is_an_error_line(tmp_path, capsys, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_run_cells", no_trials)
    cfg = write_cfg(tmp_path, STUDY_60)
    out = tmp_path / "curve.json"
    assert dispatch(["curves", "--kind", "c", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {out} ends in .json, the details file's suffix\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]


def test_all_degenerate_sweep_and_sample_size_print_one_error_line(tmp_path, capsys):
    # At p = 200 the calibrated shift for r = 0.1 is negative.
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 200\nbeta = 0.6\nr = 0.1\nseed = 5\n"
        "[sweep]\nbeta_grid = 0.6, 0.8\nr_grid = 0.1\ntrials = 2\n"
        "[sample_size]\npairs = 1,1; 2,1\ntrials = 2\n",
    )
    errors = []
    for command in ("sweep", "sample-size"):
        out = tmp_path / f"{command}.csv"
        assert dispatch([command, "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: calibrated shift amount -")


@pytest.mark.parametrize("method", ["normal_approx", "monte_carlo"])
def test_apriori_on_a_degenerate_scenario_is_one_error_line(tmp_path, capsys, method):
    # At p = 200 the calibrated shift for r = 0.1 is negative.
    cfg = write_cfg(
        tmp_path,
        "[scenario]\np = 200\nbeta = 0.6\nr = 0.1\n"
        f"[apriori]\nt_grid = 0, 0.5\nmethod = {method}\ntrials = 4\n",
    )
    assert dispatch(["apriori", "--config", cfg, "--out", str(tmp_path / "ap.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: calibrated shift amount -0.22421249328297663 is not positive; "
        "this (p, r, marginal) combination carries no upward signal\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]


def test_config_that_is_not_utf8_is_an_error_line(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"[scenario]\np = 200  # caf\xe9\n")
    out = tmp_path / "g.csv"
    assert dispatch(["gen", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text (invalid continuation byte)\n"
    assert not out.exists()


def test_dataset_that_is_not_utf8_is_an_error_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"label,caf\xe9\nX,1\nY,2\nX,3\n")
    out = tmp_path / "loo.json"
    assert dispatch(["loo", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data}: not UTF-8 text (invalid continuation byte)\n"
    assert not out.exists()


def test_a_size_too_large_to_allocate_is_an_error_line(tmp_path, capsys):
    # 1e12 rows of 200 doubles: numpy refuses 1.42 PiB at once, allocating nothing.
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[scenario]\np = 200\nm = 1000000000000\n")
    out = tmp_path / "g.csv"
    assert dispatch(["gen", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: Unable to allocate 1.42 PiB")
    assert captured.err.count("\n") == 1
