"""Command-line front door.

Two tables define the CLI: ``_FLAGS`` holds each option's argparse keywords
once, and ``_COMMANDS`` one row per subcommand, with its ``_cmd_*`` handler,
help, options and default ``--out``.  Rows hold handlers only, so a handler
finds the library functions it calls as module attributes at call time.
Scenario and study settings come from a config file
(``--config``; see ``robustnn --print-config`` for the annotated template),
with a few common flags as overrides.  ``dispatch`` names and checks every
file a command writes before it runs.  Each ``_cmd_*`` handler writes its
outputs to the paths it is given and returns ``(config, seed, message)``;
``dispatch`` then prints the message and writes the one
``<output stem>.manifest.json``, recording the resolved configuration, the
seed, the package version, the outputs and the argv needed to reproduce the
run.  Outputs contain no timestamps, so re-running an identical command
yields byte-identical files.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from configparser import ConfigParser
from pathlib import Path

from . import __version__
from .classifier import METHODS, RULES, evaluate_method, make_method
from .config import (
    default_config,
    get_setting,
    load_config,
    methods_from_config,
    parse_mn_pairs,
    parse_number_list,
    scenario_fields,
    scenario_from_config,
)
from .datagen import Scenario, generate
from .dataset import dataset_from_generated, load_dataset, loo_cross_validate, save_dataset
from .errors import ConfigurationError, RobustnnError
from .experiments import (
    grid_study,
    success_vs_c,
    success_vs_threshold,
    sweep_beta_r,
    threshold_distribution,
    write_columns_csv,
    write_dominance_csv,
    write_rates_csv,
)
from .tuning import apriori_optimal_threshold, select_threshold_cv

__all__ = ["dispatch", "main"]

SCHEMA_VERSION = 1


def _write_json(path, payload: dict) -> None:
    body = dict(payload)
    body["schema_version"] = SCHEMA_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _output_paths(args) -> tuple[list, str]:
    """The files a command writes, as its manifest lists them, and the manifest."""
    out = Path(args.out)
    beside = {  # sweep's and curves' outputs beside --out are listed as Paths
        "sweep": [out.with_name(out.stem + "_dominance" + out.suffix)],
        "curves": [out.with_suffix(".json")],
    }.get(args.command)
    outputs = [out, *beside] if beside else [args.out]
    return outputs, out.with_suffix("").as_posix() + ".manifest.json"


def _check_out(path) -> None:
    """Fail before any work when an output is a folder or its folder cannot be written."""
    folder = Path(path).parent
    if Path(path).is_dir():
        code = errno.EISDIR
    elif not folder.is_dir():
        code = errno.ENOTDIR if folder.exists() else errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def _load_scenario(args) -> tuple[ConfigParser | None, Scenario]:
    """The parsed config file (None without --config) and its scenario."""
    parser = load_config(args.config) if args.config else None
    seed = None if args.seed is None else str(args.seed)
    return parser, scenario_from_config(parser, seed=seed)


def _trials(args, parser: ConfigParser | None, section: str) -> int:
    """--trials, else the section's trials setting."""
    return args.trials if args.trials is not None else get_setting(parser, section, "trials", int)


def _cmd_classify(args, out):
    dataset = load_dataset(args.data)
    index = args.index if args.index is not None else len(dataset.labels) - 1
    if not 0 <= index < len(dataset.labels):
        raise ConfigurationError(
            f"--index must be in [0, {len(dataset.labels) - 1}], got {index}"
        )
    first, second = dataset.class_labels
    train_x, train_y = dataset.rows_of(first, index), dataset.rows_of(second, index)
    if train_x.shape[0] < 1 or train_y.shape[0] < 1:
        raise ConfigurationError("training split leaves an empty class")
    method = make_method(args.method, args.rule, args.c, args.t)
    label, theta, defaulted = evaluate_method(train_x, train_y, dataset.samples[index], method)
    predicted = first if label == "X" else second
    truth = dataset.labels[index]
    result = {
        "data": str(args.data),
        "row_index": index,
        "method": method.name,
        "predicted_label": predicted,
        "true_label": truth,
        "correct": predicted == truth,
        "theta": theta,
        "defaulted": defaulted,
        "x_role_label": first,
    }
    _write_json(out, result)
    return result, None, f"row {index}: predicted {predicted}, true {truth}"


def _cmd_cv(args, out):
    dataset = load_dataset(args.data)
    first, second = dataset.class_labels
    curve = select_threshold_cv(dataset.rows_of(first), dataset.rows_of(second))
    least = float(curve.values.min())
    result = {
        "data": str(args.data),
        "theta_cv": curve.theta_cv,
        "cv_minimum": least,
        "grid_size": int(curve.ts.size),
        "minimizer_count": int(curve.minimizers.size),
        "x_role_label": first,
    }
    _write_json(out, result)
    return result, None, f"theta_cv = {curve.theta_cv!r} (CV = {least!r})"


def _cmd_loo(args, out):
    dataset = load_dataset(args.data)
    method = make_method(args.method, args.rule, args.c, args.t)
    result = loo_cross_validate(dataset, method)
    payload = {
        "data": str(args.data),
        "method": method.name,
        "accuracy": result.accuracy,
        "correct": result.correct,
        "total": result.total,
        "confusion": {f"{true}->{pred}": n for (true, pred), n in result.confusion.items()},
        "x_role_label": result.class_labels[0],
    }
    _write_json(out, payload)
    return payload, None, str(result)


def _cmd_gen(args, out):
    _, scenario = _load_scenario(args)
    data = generate(scenario, args.z_from)
    save_dataset(dataset_from_generated(data), out)
    config = {"scenario": scenario_fields(scenario), "z_from": args.z_from}
    return config, scenario.seed, (
        f"wrote {scenario.m + scenario.n + 1} rows x {scenario.p} features to {out} "
        f"(shifts: {data.shift_indices.size}, amount {data.shift_amount!r})"
    )


def _cmd_sweep(args, out, dominance_path):
    parser, scenario = _load_scenario(args)
    beta_grid = get_setting(parser, "sweep", "beta_grid", parse_number_list)
    r_grid = get_setting(parser, "sweep", "r_grid", parse_number_list)
    trials = _trials(args, parser, "sweep")
    methods = methods_from_config(parser)
    rates = sweep_beta_r(
        beta_grid, r_grid, scenario, methods, trials, scenario.seed, workers=args.workers
    )
    write_rates_csv(out, ("beta", "r"), [(b, r) for b in beta_grid for r in r_grid], rates)
    write_dominance_csv(dominance_path, beta_grid, r_grid, methods, rates)
    config = {
        "scenario": scenario_fields(scenario),
        "beta_grid": beta_grid,
        "r_grid": r_grid,
        "methods": [m.name for m in methods],
        "trials_per_cell": trials,
    }
    return config, scenario.seed, (
        f"swept {len(beta_grid)}x{len(r_grid)} cells "
        f"({rates.count(None)} skipped), {trials} trials each -> {out}"
    )


def _cmd_threshold_dist(args, out):
    parser, scenario = _load_scenario(args)
    trials = _trials(args, parser, "threshold_dist")
    bins = get_setting(parser, "threshold_dist", "bins", int)
    c = args.c
    if c is None:
        c = get_setting(parser, "threshold_dist", "c", float, optional=True)
    method = make_method("robust", get_setting(parser, "methods", "robust_rule"), c)
    dist = threshold_distribution(
        scenario, trials, method, scenario.seed, bins=bins, workers=args.workers
    )
    header = ["bin_left", "bin_right", "proportion"]
    write_columns_csv(out, header, dist.bin_left, dist.bin_right, dist.proportion)
    config = {
        "scenario": scenario_fields(scenario),
        "trials": trials,
        "c": method.xi_or_c,
        "rule": method.rule,
        "bins": bins,
        "defaulted_fraction": dist.defaulted_fraction,
        "shift_amount": dist.shift,
    }
    return config, scenario.seed, (
        f"threshold histogram -> {out} "
        f"(defaulted fraction {dist.defaulted_fraction!r}, shift {dist.shift!r})"
    )


def _cmd_curves(args, out, details_path):
    if details_path == out:
        raise ConfigurationError(f"--out {args.out} ends in .json, the details file's suffix")
    parser, scenario = _load_scenario(args)
    trials = _trials(args, parser, "curves")
    if args.kind == "threshold":
        grid = get_setting(parser, "curves", "t_grid", parse_number_list)
        curve = success_vs_threshold(scenario, grid, trials, scenario.seed)
    else:
        grid = get_setting(parser, "curves", "c_grid", parse_number_list)
        rule = get_setting(parser, "methods", "robust_rule")
        curve = success_vs_c(scenario, grid, trials, scenario.seed, rule=rule)
    write_columns_csv(out, [curve.x_name, "value"], curve.xs, curve.rates)
    payload = {
        "scenario": scenario_fields(scenario),
        "kind": args.kind,
        "trials": trials,
        "x": [float(v) for v in curve.xs],
        "rate": [float(v) for v in curve.rates],
        "se": [float(v) for v in curve.ses],
        "defaulted_fraction": (
            None
            if curve.defaulted_fractions is None
            else [float(v) for v in curve.defaulted_fractions]
        ),
        "nn_rate": curve.nn_rate,
        "nn_se": curve.nn_se,
    }
    if args.kind == "c":
        payload["rule"] = rule
    _write_json(details_path, payload)
    best = float(curve.xs[curve.rates.argmax()])
    return payload, scenario.seed, (
        f"{args.kind} curve over {curve.xs.size} points -> {args.out} "
        f"(best {curve.x_name} = {best!r}, nn reference {curve.nn_rate!r})"
    )


def _cmd_apriori(args, out):
    parser, scenario = _load_scenario(args)
    grid = get_setting(parser, "apriori", "t_grid", parse_number_list)
    method = get_setting(parser, "apriori", "method").strip()
    trials = _trials(args, parser, "apriori")
    curve = apriori_optimal_threshold(
        scenario, grid, method, trials=trials, base_seed=scenario.seed
    )
    write_columns_csv(out, ["t", "value"], curve.ts, curve.values)
    best = float(curve.values.max())
    config = {
        "scenario": scenario_fields(scenario),
        "method": curve.method,
        "t_star": curve.t_star,
        "predicted_success_at_t_star": best,
        "trials": trials,
    }
    message = f"t_star = {curve.t_star!r} with predicted success {best!r} -> {out}"
    return config, scenario.seed, message


def _cmd_sample_size(args, out):
    parser, scenario = _load_scenario(args)
    pairs = get_setting(parser, "sample_size", "pairs", parse_mn_pairs)
    trials = _trials(args, parser, "sample_size")
    methods = methods_from_config(parser)
    rates = grid_study(
        scenario, ("m", "n"), pairs, methods, trials, scenario.seed, workers=args.workers
    )
    write_rates_csv(out, ("m", "n"), pairs, rates)
    config = {
        "scenario": scenario_fields(scenario),
        "pairs": [[m, n] for m, n in pairs],
        "methods": [m.name for m in methods],
        "trials": trials,
    }
    rows = len(methods) * (len(pairs) - rates.count(None))
    return config, scenario.seed, f"{rows} (m, n, method) rows -> {out}"


_FLAGS = {  # each option's argparse keywords; --out's default is per command
    "--data": dict(required=True, help="labeled CSV dataset"),
    "--index": dict(type=int, help="row to classify (default: last)"),
    "--method": dict(default="robust", choices=list(METHODS), help="classifier to run"),
    "--c": dict(type=float, help="critical-value slope (c or xi)"),
    "--rule": dict(default="independent", choices=RULES,
                   help="critical-value rule for the robust method"),
    "--t": dict(type=float, help="threshold for nn_trunc/fixed_threshold"),
    "--config": dict(help="config file (defaults if omitted)"),
    "--seed": dict(type=int, help="override the base seed"),
    "--z-from": dict(default="Y", choices=["X", "Y"]),
    "--trials": dict(type=int),
    "--workers": dict(type=int),
    "--kind": dict(default="c", choices=["c", "threshold"]),
}

_METHOD = "--method --c --rule --t"
_SCENARIO = "--config --seed"

_COMMANDS = {  # name: (handler, help, options before --out, --out's default)
    "classify": (_cmd_classify, "classify one held-out row of a CSV dataset",
                 f"--data --index {_METHOD}", "classify_result.json"),
    "cv": (_cmd_cv, "cross-validated truncation threshold for a dataset",
           "--data", "cv_result.json"),
    "loo": (_cmd_loo, "leave-one-out accuracy of one method on a dataset",
            f"--data {_METHOD}", "loo_result.json"),
    "gen": (_cmd_gen, "draw one synthetic dataset and write it as CSV",
            f"{_SCENARIO} --z-from", "generated.csv"),
    "sweep": (_cmd_sweep, "success rates over a (beta, r) grid",
              f"{_SCENARIO} --trials --workers", "grid.csv"),
    "threshold-dist": (_cmd_threshold_dist, "distribution of selected thresholds",
                       f"{_SCENARIO} --trials --c --workers", "threshold_hist.csv"),
    "curves": (_cmd_curves, "success vs fixed threshold or vs slope c",
               f"{_SCENARIO} --kind --trials", "curve.csv"),
    "apriori": (_cmd_apriori, "predicted success curve and optimal threshold",
                f"{_SCENARIO} --trials", "apriori_curve.csv"),
    "sample-size": (_cmd_sample_size, "success rates across (m, n) training sizes",
                    f"{_SCENARIO} --trials --workers", "sample_size.csv"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robustnn", description=(
        "Thresholded zero-one nearest-neighbor classification: "
        "classify datasets, tune thresholds, and run Monte Carlo studies."
    ))
    parser.add_argument(
        "--print-config", action="store_true", help="print the annotated default config and exit"
    )
    subs = parser.add_subparsers(dest="command")
    for name, (func, help_text, options, out) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for option in options.split():
            sub.add_argument(option, **_FLAGS[option])
        sub.add_argument("--out", default=out)
        sub.set_defaults(func=func)
    return parser


def dispatch(argv) -> int:
    """Parse argv (without the program name) and run; returns the exit code."""
    argv = list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.print_config:
        print(default_config(), end="")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        outputs, manifest_path = _output_paths(args)
        for path in (*outputs, manifest_path):
            _check_out(path)
        config, seed, message = args.func(args, *outputs)
        print(message)
        _write_json(manifest_path, {
            "artifact_version": __version__,
            "command": args.command,
            "argv": argv,
            "config": config,
            "seed": seed,
            "outputs": [str(p) for p in outputs],
        })
        return 0
    except RobustnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Inputs fail with their own error lines, so a file named here is an output.
        what = f"cannot write {exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {what}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
