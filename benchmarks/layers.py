"""Per-layer metrics from the spans of a traced run.

Pass kinds (variant, level) come from the workload's ``trace_plan``:

* level None: untraced; the baseline for the tracing overhead;
* level "full": every wrapper; the source of the per-trial layers;
* level "coarse": the user's parallel command with only CLI-level spans and
  the pool counter, so its wall and CPU time are those of an untraced run.

The CLI, dataset and tuning layers are read from the passes that run the
user's command: the coarse passes when there are any, else the full ones.
Time metrics ending in ``_s`` are seconds per pass (median over passes);
``_ms_p50``/``_p95`` are over all calls; counts are per pass and must repeat
exactly in every pass.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import RETIME

MB = float(1 << 20)

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
UNITS = {
    "classifier.select_threshold_s": "s",
    "classifier.select_threshold_ms_p50": "ms",
    "classifier.threshold_scan_s": "s",
    "classifier.grid_points": "count",
    "classifier.profile_cells": "count",
    "classifier.fire_frac": "ratio",
    "classifier.defaulted_frac": "ratio",
    "classifier.select_threshold_peak_mb": "MB",
    "classifier.competitors_s": "s",
    "datagen.generate_s": "s",
    "datagen.generate_ms_p50": "ms",
    "datagen.shift_amount_cold_s": "s",
    "experiments.run_trial_ms_p50": "ms",
    "experiments.run_trial_ms_p95": "ms",
    "experiments.pools_started": "count",
    "experiments.pool_wait_s": "s",
    "experiments.cpu_s": "s",
    "experiments.useful_cpu_frac": "ratio",
    "tuning.select_threshold_cv_s": "s",
    "tuning.cv_grid_points": "count",
    "tuning.cv_peak_mb": "MB",
    "dataset.load_dataset_s": "s",
    "dataset.load_bytes": "B",
    "dataset.loo_cross_validate_s": "s",
    "dataset.loo_fold_ms_p50": "ms",
    "cli.cv.dispatch_s": "s",
    "cli.loo.dispatch_s": "s",
    "cli.sweep.dispatch_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(tracer, passes, workload) -> tuple[dict, list[str]]:
    full = [p for p in passes if p.kind[1] == "full"]
    base = [p for p in passes if p.kind[1] is None]
    coarse = [p for p in passes if p.kind[1] == "coarse"]
    outer = coarse or full

    def spans_of(p):
        return tracer.spans[p.span_range[0]:p.span_range[1]]

    def named(group, name):
        return [s for p in group for s in spans_of(p) if s.name == name]

    def per_pass(group, fn):
        return [fn(spans_of(p)) for p in group]

    def total(group, name, key=None):
        """Per-pass sums of span time, or of an attribute, for one span name."""
        if key is None:
            return per_pass(group, lambda ss: sum(s.net for s in ss if s.name == name))
        return per_pass(group, lambda ss: sum(s.attrs[key] for s in ss if s.name == name))

    def dispatch(command):
        return _median(per_pass(outer, lambda ss: sum(
            s.net for s in ss if s.name == "cli.dispatch" and s.attrs["command"] == command)))

    def cli_overhead(ss):
        ids = {s.id for s in ss if s.name == "cli.dispatch"}
        inner = sum(s.net for s in ss if s.parent in ids)
        return sum(s.net for s in ss if s.id in ids) - inner

    select = named(full, "classifier.select_threshold")
    grid = sum(s.attrs["grid"] for s in select)
    trial_work = _median(total(full, "experiments.run_trial"))
    # Exact counts: identical in every pass of a run, and across runs of one seed.
    counts = {
        "classifier.grid_points": total(full, "classifier.select_threshold", "grid"),
        "classifier.profile_cells": per_pass(full, lambda ss: sum(
            s.attrs["grid"] * s.attrs["rows"] for s in ss
            if s.name == "classifier.select_threshold")),
        "tuning.cv_grid_points": total(outer, "tuning.select_threshold_cv", "grid"),
        "experiments.pools_started": per_pass(outer, lambda ss: sum(
            s.name == "experiments.pool_start" for s in ss)),
        "dataset.load_bytes": total(outer, "dataset.load_dataset", "bytes"),
    }
    def retimed(p):
        return sum(s.end - s.start for s in spans_of(p) if s.name == RETIME)

    # CPU of the user's parallel command, or of the traced serial passes
    # themselves (without the re-timing) so that drift between passes cancels.
    cpu = _median(p.cpu for p in coarse) if coarse else _median(p.cpu - retimed(p) for p in full)
    cold = [s.net for s in tracer.spans
            if s.name == "datagen.shift_amount" and s.attrs.get("cold") and s.pass_id != "memory"]
    # Full and untraced passes run the same variant, so their walls compare.
    net_walls = [p.wall - retimed(p) for p in full]

    values = {
        "classifier.select_threshold_s": _median(total(full, "classifier.select_threshold")),
        "classifier.select_threshold_ms_p50": 1e3 * _median(s.net for s in select),
        "classifier.threshold_scan_s": _median(total(full, RETIME)),
        "classifier.fire_frac": sum(s.attrs["theta_index"] for s in select) / grid if grid else 0.0,
        "classifier.defaulted_frac": (
            sum(s.attrs["defaulted"] for s in select) / len(select) if select else 0.0),
        "classifier.select_threshold_peak_mb": tracer.peaks.get("classifier.select_threshold", 0) / MB,
        "classifier.competitors_s": _median(total(full, "classifier.competitors")),
        "datagen.generate_s": _median(total(full, "datagen.generate")),
        "datagen.generate_ms_p50": 1e3 * _median(s.net for s in named(full, "datagen.generate")),
        "datagen.shift_amount_cold_s": _median(cold),
        "experiments.run_trial_ms_p50": 1e3 * _quantile(
            [s.net for s in named(full, "experiments.run_trial")], 0.5),
        "experiments.run_trial_ms_p95": 1e3 * _quantile(
            [s.net for s in named(full, "experiments.run_trial")], 0.95),
        "experiments.pool_wait_s": (
            _median(p.wall for p in coarse) - trial_work / workload.WORKERS if coarse else 0.0),
        "experiments.cpu_s": cpu,
        "experiments.useful_cpu_frac": trial_work / cpu if cpu else 0.0,
        "tuning.select_threshold_cv_s": _median(total(outer, "tuning.select_threshold_cv")),
        "tuning.cv_peak_mb": tracer.peaks.get("tuning.select_threshold_cv", 0) / MB,
        "dataset.load_dataset_s": _median(total(outer, "dataset.load_dataset")),
        "dataset.loo_cross_validate_s": _median(total(outer, "dataset.loo_cross_validate")),
        "dataset.loo_fold_ms_p50": 1e3 * _median(s.net for s in named(full, "dataset.loo_fold")),
        "cli.cv.dispatch_s": dispatch("cv"),
        "cli.loo.dispatch_s": dispatch("loo"),
        "cli.sweep.dispatch_s": dispatch("sweep"),
        "cli.overhead_s": _median(per_pass(outer, cli_overhead)),
        "trace.overhead_s": _median(net_walls) - _median(p.wall for p in base),
    }
    problems = []
    for name, per in counts.items():
        if len(set(per)) > 1:
            problems.append(f"{name} differs between passes: {per}")
        values[name] = per[0] if per else 0
    metrics = {name: (values[name], unit) for name, unit in UNITS.items()}
    for name, (value, unit) in metrics.items():
        print(f"layer {name} {value!r} {unit}")
    return metrics, problems
