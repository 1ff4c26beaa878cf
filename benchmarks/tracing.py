"""Spans around the public calls of robustnn, recorded from outside the package.

The tracer replaces module attributes with timing wrappers, so a call that the
package makes through that attribute (``classify_robust`` calling
``select_threshold``, ``run_trial`` calling ``generate``, the CLI calling
``load_dataset``) opens a span.  Nothing under ``src/robustnn`` changes.

``install`` has two levels.  "coarse" wraps the CLI entry and the library
calls the CLI makes, plus the construction of process pools; its cost is a
few microseconds per command, so a parallel sweep runs under it unperturbed.
"full" adds the per-trial calls.  A span records its name, start, end, the
span that caused it and the pass it belongs to; spans stay in memory and are
written once when the run ends.

``threshold_scan`` is timed by calling it again on the decision's own grid
(``decision.trace.ts``) right after ``select_threshold`` returns.  That
re-timing is excluded from the duration of every span open around it, so the
trial and command spans measure the program's own work.

With ``memory`` on (and ``tracemalloc`` started) each span also records the
peak of traced allocations above its starting level, including the peaks of
the spans nested in it.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc

import numpy as np

import robustnn.classifier as classifier
import robustnn.cli as cli
import robustnn.dataset as dataset
import robustnn.datagen as datagen
import robustnn.experiments as experiments

RETIME = "classifier.threshold_scan"


class Span:
    __slots__ = ("id", "name", "parent", "pass_id", "start", "end", "excluded", "attrs",
                 "base", "child_peak")

    def __init__(self, id_, name, parent, pass_id):
        self.id = id_
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = self.end = 0.0
        self.excluded = 0.0
        self.attrs = {}
        self.base = 0
        self.child_peak = 0

    @property
    def net(self) -> float:
        """Duration without the threshold re-timing done inside the span."""
        return self.end - self.start - self.excluded

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "pass": self.pass_id,
            "start": self.start,
            "end": self.end,
            "excluded": self.excluded,
            "attrs": self.attrs,
        }


def _rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.peaks: dict[str, int] = {}
        self.memory = False
        self.pass_id = "setup"
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._orig_scan = classifier.threshold_scan
        self._orig_shift = datagen.shift_amount

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent.id if parent else None, self.pass_id)
        self.spans.append(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.child_peak = max(parent.child_peak, peak)
            span.base = current
            tracemalloc.reset_peak()
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            top = max(tracemalloc.get_traced_memory()[1], span.child_peak)
            self.peaks[span.name] = max(self.peaks.get(span.name, 0), top - span.base)
            if self._stack:
                self._stack[-1].child_peak = max(self._stack[-1].child_peak, top)
        if span.name == RETIME:
            for open_span in self._stack:
                open_span.excluded += span.end - span.start

    def timed(self, name: str, fn, *args, **kwargs):
        span = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(span)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            span = tracer.enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.exit(span)
            if after:
                after(span, args, result, state)
            return result

        self._patched.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def _after_dispatch(self, span, args, result, state):
        span.attrs["command"] = str(list(args[0])[0])
        span.attrs["exit_code"] = int(result)

    def _after_load(self, span, args, result, state):
        span.attrs["bytes"] = os.path.getsize(args[0])

    def _after_cv(self, span, args, result, state):
        span.attrs["grid"] = int(result.ts.size)

    def _before_shift(self, args):
        return self._orig_shift.cache_info().misses

    def _after_shift(self, span, args, result, misses_before):
        span.attrs["cold"] = self._orig_shift.cache_info().misses > misses_before

    def _after_select(self, span, args, result, state):
        grid = int(result.trace.ts.size)
        span.attrs.update(
            grid=grid,
            rows=_rows(args[0]) + _rows(args[1]),
            theta_index=int(result.theta_index),
            defaulted=bool(result.defaulted),
        )
        self.timed(RETIME, self._orig_scan, args[0], args[1], args[2], result.trace.ts)

    def install(self, level: str | None) -> None:
        """Wrap the calls of ``level`` (None, "coarse" or "full")."""
        self.uninstall()
        if level is None:
            return
        self._wrap(cli, "dispatch", "cli.dispatch", after=self._after_dispatch)
        self._wrap(cli, "load_dataset", "dataset.load_dataset", after=self._after_load)
        self._wrap(cli, "select_threshold_cv", "tuning.select_threshold_cv", after=self._after_cv)
        self._wrap(cli, "loo_cross_validate", "dataset.loo_cross_validate")
        self._wrap(cli, "sweep_beta_r", "experiments.sweep_beta_r")
        self._wrap(experiments, "ProcessPoolExecutor", "experiments.pool_start")
        if level == "coarse":
            return
        self._wrap(experiments, "run_trial", "experiments.run_trial")
        self._wrap(experiments, "generate", "datagen.generate")
        self._wrap(datagen, "shift_amount", "datagen.shift_amount",
                   before=self._before_shift, after=self._after_shift)
        self._wrap(classifier, "select_threshold", "classifier.select_threshold",
                   after=self._after_select)
        self._wrap(classifier, "classify_nn_standard", "classifier.competitors")
        self._wrap(classifier, "classify_extrema", "classifier.competitors")
        self._wrap(dataset, "evaluate_method", "dataset.loo_fold")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)
