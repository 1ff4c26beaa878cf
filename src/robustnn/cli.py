"""Command-line front door.

Subcommands: classify, cv, loo, gen, sweep, threshold-dist, curves, apriori,
sample-size.  Scenario and study settings come from a config file
(``--config``; see ``robustnn --print-config`` for the annotated template),
with a few common flags as overrides.  Every run writes its primary outputs
plus a ``<output stem>.manifest.json`` recording the resolved configuration,
the seed, the package version, and the argv needed to reproduce the run;
outputs contain no timestamps, so re-running an identical command yields
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
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
    sample_size_study,
    success_vs_c,
    success_vs_threshold,
    sweep_beta_r,
    threshold_distribution,
    write_columns_csv,
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


def _write_manifest(out_path, command: str, argv: list[str], config: dict, seed, outputs) -> None:
    manifest_path = Path(out_path).with_suffix("").as_posix() + ".manifest.json"
    _write_json(
        manifest_path,
        {
            "artifact_version": __version__,
            "command": command,
            "argv": list(argv),
            "config": config,
            "seed": seed,
            "outputs": [str(p) for p in outputs],
        },
    )


def _add_method_flags(sub) -> None:
    sub.add_argument(
        "--method",
        default="robust",
        choices=list(METHODS),
        help="classifier to run",
    )
    sub.add_argument("--c", type=float, default=None, help="critical-value slope (c or xi)")
    sub.add_argument(
        "--rule",
        default="independent",
        choices=RULES,
        help="critical-value rule for the robust method",
    )
    sub.add_argument("--t", type=float, default=None, help="threshold for nn_trunc/fixed_threshold")


def _load_scenario(args) -> tuple[ConfigParser | None, Scenario]:
    """The parsed config file (None without --config) and its scenario."""
    parser = load_config(args.config) if args.config else None
    seed = None if args.seed is None else str(args.seed)
    return parser, scenario_from_config(parser, seed=seed)


def _trials(args, parser: ConfigParser | None, section: str) -> int:
    """--trials, else the section's trials setting."""
    return args.trials if args.trials is not None else get_setting(parser, section, "trials", int)


def _cmd_classify(args, argv) -> int:
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
    result = {
        "data": str(args.data),
        "row_index": index,
        "method": method.name,
        "predicted_label": predicted,
        "true_label": dataset.labels[index],
        "correct": predicted == dataset.labels[index],
        "theta": theta,
        "defaulted": defaulted,
        "x_role_label": first,
    }
    _write_json(args.out, result)
    print(f"row {index}: predicted {predicted}, true {dataset.labels[index]}")
    _write_manifest(args.out, "classify", argv, result, None, [args.out])
    return 0


def _cmd_cv(args, argv) -> int:
    dataset = load_dataset(args.data)
    first, second = dataset.class_labels
    curve = select_threshold_cv(dataset.rows_of(first), dataset.rows_of(second))
    result = {
        "data": str(args.data),
        "theta_cv": curve.theta_cv,
        "cv_minimum": float(curve.values.min()),
        "grid_size": int(curve.ts.size),
        "minimizer_count": int(curve.minimizers.size),
        "x_role_label": first,
    }
    _write_json(args.out, result)
    print(f"theta_cv = {curve.theta_cv!r} (CV = {float(curve.values.min())!r})")
    _write_manifest(args.out, "cv", argv, result, None, [args.out])
    return 0


def _cmd_loo(args, argv) -> int:
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
    _write_json(args.out, payload)
    print(str(result))
    _write_manifest(args.out, "loo", argv, payload, None, [args.out])
    return 0


def _cmd_gen(args, argv) -> int:
    _, scenario = _load_scenario(args)
    data = generate(scenario, args.z_from)
    save_dataset(dataset_from_generated(data), args.out)
    config = {"scenario": scenario_fields(scenario), "z_from": args.z_from}
    print(
        f"wrote {scenario.m + scenario.n + 1} rows x {scenario.p} features to {args.out} "
        f"(shifts: {data.shift_indices.size}, amount {data.shift_amount!r})"
    )
    _write_manifest(args.out, "gen", argv, config, scenario.seed, [args.out])
    return 0


def _cmd_sweep(args, argv) -> int:
    parser, scenario = _load_scenario(args)
    beta_grid = get_setting(parser, "sweep", "beta_grid", parse_number_list)
    r_grid = get_setting(parser, "sweep", "r_grid", parse_number_list)
    trials = _trials(args, parser, "sweep")
    methods = methods_from_config(parser)
    grid = sweep_beta_r(
        beta_grid, r_grid, scenario, methods, trials, scenario.seed, workers=args.workers
    )
    out = Path(args.out)
    dominance_path = out.with_name(out.stem + "_dominance" + out.suffix)
    grid.to_long_csv(out)
    grid.to_dominance_csv(dominance_path)
    config = {
        "scenario": scenario_fields(scenario),
        "beta_grid": list(grid.beta_axis),
        "r_grid": list(grid.r_axis),
        "methods": list(grid.methods),
        "trials_per_cell": trials,
    }
    print(
        f"swept {len(grid.beta_axis)}x{len(grid.r_axis)} cells "
        f"({len(grid.skipped)} skipped), {trials} trials each -> {out}"
    )
    _write_manifest(out, "sweep", argv, config, scenario.seed, [out, dominance_path])
    return 0


def _cmd_threshold_dist(args, argv) -> int:
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
    write_columns_csv(args.out, header, dist.bin_left, dist.bin_right, dist.proportion)
    config = {
        "scenario": scenario_fields(scenario),
        "trials": trials,
        "c": method.xi_or_c,
        "rule": method.rule,
        "bins": bins,
        "defaulted_fraction": dist.defaulted_fraction,
        "shift_amount": dist.shift,
    }
    print(
        f"threshold histogram -> {args.out} "
        f"(defaulted fraction {dist.defaulted_fraction!r}, shift {dist.shift!r})"
    )
    _write_manifest(args.out, "threshold-dist", argv, config, scenario.seed, [args.out])
    return 0


def _cmd_curves(args, argv) -> int:
    parser, scenario = _load_scenario(args)
    trials = _trials(args, parser, "curves")
    if args.kind == "threshold":
        grid = get_setting(parser, "curves", "t_grid", parse_number_list)
        curve = success_vs_threshold(scenario, grid, trials, scenario.seed)
    else:
        grid = get_setting(parser, "curves", "c_grid", parse_number_list)
        rule = get_setting(parser, "methods", "robust_rule")
        curve = success_vs_c(scenario, grid, trials, scenario.seed, rule=rule)
    write_columns_csv(args.out, [curve.x_name, "value"], curve.xs, curve.rates)
    out = Path(args.out)
    details_path = out.with_suffix("").as_posix() + ".json"
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
    print(
        f"{args.kind} curve over {curve.xs.size} points -> {args.out} "
        f"(best {curve.x_name} = {best!r}, nn reference {curve.nn_rate!r})"
    )
    _write_manifest(out, "curves", argv, payload, scenario.seed, [out, details_path])
    return 0


def _cmd_apriori(args, argv) -> int:
    parser, scenario = _load_scenario(args)
    grid = get_setting(parser, "apriori", "t_grid", parse_number_list)
    method = get_setting(parser, "apriori", "method").strip()
    trials = _trials(args, parser, "apriori")
    curve = apriori_optimal_threshold(
        scenario, grid, method, trials=trials, base_seed=scenario.seed
    )
    write_columns_csv(args.out, ["t", "value"], curve.ts, curve.values)
    best = float(curve.values.max())
    config = {
        "scenario": scenario_fields(scenario),
        "method": curve.method,
        "t_star": curve.t_star,
        "predicted_success_at_t_star": best,
        "trials": trials,
    }
    print(f"t_star = {curve.t_star!r} with predicted success {best!r} -> {args.out}")
    _write_manifest(args.out, "apriori", argv, config, scenario.seed, [args.out])
    return 0


def _cmd_sample_size(args, argv) -> int:
    parser, scenario = _load_scenario(args)
    pairs = get_setting(parser, "sample_size", "pairs", parse_mn_pairs)
    trials = _trials(args, parser, "sample_size")
    methods = methods_from_config(parser)
    rows = sample_size_study(
        scenario, pairs, trials, scenario.seed, methods=methods, workers=args.workers
    )
    write_rates_csv(args.out, ("m", "n"), rows)
    config = {
        "scenario": scenario_fields(scenario),
        "pairs": [[m, n] for m, n in pairs],
        "methods": [m.name for m in methods],
        "trials": trials,
    }
    print(f"{len(rows)} (m, n, method) rows -> {args.out}")
    _write_manifest(args.out, "sample-size", argv, config, scenario.seed, [args.out])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustnn",
        description=(
            "Thresholded zero-one nearest-neighbor classification: "
            "classify datasets, tune thresholds, and run Monte Carlo studies."
        ),
    )
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the annotated default config and exit",
    )
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("classify", help="classify one held-out row of a CSV dataset")
    sub.add_argument("--data", required=True, help="labeled CSV dataset")
    sub.add_argument("--index", type=int, default=None, help="row to classify (default: last)")
    _add_method_flags(sub)
    sub.add_argument("--out", default="classify_result.json")
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("cv", help="cross-validated truncation threshold for a dataset")
    sub.add_argument("--data", required=True)
    sub.add_argument("--out", default="cv_result.json")
    sub.set_defaults(func=_cmd_cv)

    sub = subs.add_parser("loo", help="leave-one-out accuracy of one method on a dataset")
    sub.add_argument("--data", required=True)
    _add_method_flags(sub)
    sub.add_argument("--out", default="loo_result.json")
    sub.set_defaults(func=_cmd_loo)

    def scenario_sub(name: str, help_text: str):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None, help="config file (defaults if omitted)")
        sub.add_argument("--seed", type=int, default=None, help="override the base seed")
        return sub

    sub = scenario_sub("gen", "draw one synthetic dataset and write it as CSV")
    sub.add_argument("--z-from", default="Y", choices=["X", "Y"], dest="z_from")
    sub.add_argument("--out", default="generated.csv")
    sub.set_defaults(func=_cmd_gen)

    sub = scenario_sub("sweep", "success rates over a (beta, r) grid")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", default="grid.csv")
    sub.set_defaults(func=_cmd_sweep)

    sub = scenario_sub("threshold-dist", "distribution of selected thresholds")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--c", type=float, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", default="threshold_hist.csv")
    sub.set_defaults(func=_cmd_threshold_dist)

    sub = scenario_sub("curves", "success vs fixed threshold or vs slope c")
    sub.add_argument("--kind", default="c", choices=["c", "threshold"])
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--out", default="curve.csv")
    sub.set_defaults(func=_cmd_curves)

    sub = scenario_sub("apriori", "predicted success curve and optimal threshold")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--out", default="apriori_curve.csv")
    sub.set_defaults(func=_cmd_apriori)

    sub = scenario_sub("sample-size", "success rates across (m, n) training sizes")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", default="sample_size.csv")
    sub.set_defaults(func=_cmd_sample_size)

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
        return args.func(args, argv)
    except RobustnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Inputs fail with their own error lines, so a file named here is an output.
        what = f"cannot write {exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {what}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
