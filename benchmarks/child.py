"""One workload in one fresh process: set-up, timed loop, checks and metrics.

Started by ``run.py``, which removes the thread variables from the
environment and points PYTHONPATH at ``src``.  Prints readable lines and, as
its last line, one JSON object that ``run.py`` turns into the result.

    python3 benchmarks/child.py --workload NAME --seed N --seconds S --trace 0|1
        --t0 MONOTONIC [--ambient NAMES] [--setup-only]

``--t0`` is the launcher's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, configuration and
input preparation, and one warm-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--ambient", default="")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(ambient: list[str]) -> dict:
    import numpy as np
    import scipy

    from run import THREAD_VARS

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name", "unknown"),
        "git_sha": git_sha(ROOT),
        "thread_vars_unset": [v for v in THREAD_VARS if v not in os.environ],
        "thread_vars_set_in_caller": ambient,
    }


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def reference_loop() -> float:
    """Fixed work that never calls robustnn, timed beside every pass.

    Sorts, searches, cumulative sums, random draws and a Python loop: the
    operations the scan, the CV curve and the CLI spend their time on.  No
    BLAS call, so the program's thread settings cannot change its speed.
    """
    import numpy as np

    rng = np.random.default_rng(2009)
    acc = 0.0
    for _ in range(10):
        a = rng.standard_t(3, size=(8, 20000))
        s = np.sort(a, axis=1)
        grid = np.unique(s[:2].ravel())
        acc += float(np.cumsum(np.searchsorted(s[2], grid))[-1])
        acc += float(np.abs(s - np.median(s, axis=1, keepdims=True)).min())
        acc += sum(x * 0.5 for x in a[0, :3000].tolist())
    return acc


def emit(kind: str, name: str, value, unit: str) -> None:
    print(f"{kind} {name} {value!r} {unit}")


class Runner:
    def __init__(self, args, workload, tracer):
        from workloads import reset_caches

        self.args = args
        self.wl = workload
        self.tracer = tracer
        self.passes = []
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self._reset = reset_caches

    def run_pass(self, seed: int, variant: str, level: str | None = None):
        self._reset()
        tracer = self.tracer
        if tracer is not None:
            tracer.install(level)
            tracer.pass_id = len(self.passes)
            first_span = len(tracer.spans)
        else:
            ref_start = time.perf_counter()
            reference_loop()
            ref = time.perf_counter() - ref_start
        cpu = cpu_seconds()
        start = time.perf_counter()
        result = self.wl.run_pass(seed, variant)
        result.wall = time.perf_counter() - start
        result.cpu = cpu_seconds() - cpu
        if tracer is not None:
            tracer.uninstall()
            result.span_range = (first_span, len(tracer.spans))
        else:
            result.ref = ref
        result.kind = (variant, level)
        return result

    def timed_loop(self) -> None:
        args, wl = self.args, self.wl
        if self.tracer is None:
            schedule_first, cycle = (), ((wl.main_variant, None),)
        else:
            schedule_first, cycle = wl.trace_plan
        start = time.perf_counter()
        for variant, level in schedule_first:
            self.passes.append(self.run_pass(args.seed, variant, level))
        # Stop before a cycle that would end past --seconds, so a run lasts
        # about --seconds whatever the length of a pass.
        while True:
            cycle_start = time.perf_counter()
            for variant, level in cycle:
                self.passes.append(self.run_pass(args.seed, variant, level))
            now = time.perf_counter()
            if now + (now - cycle_start) - start > args.seconds:
                break

    def memory_pass(self) -> None:
        """A short traced pass under tracemalloc, for the per-call peaks only."""
        import tracemalloc

        self._reset()
        self.tracer.memory = True
        self.tracer.pass_id = "memory"
        self.tracer.install("full")
        tracemalloc.start()
        try:
            self.wl.memory_pass(self.args.seed)
        finally:
            tracemalloc.stop()
            self.tracer.uninstall()
            self.tracer.memory = False

    def count_failures(self) -> None:
        """Failed operations, outputs that differ between passes, failed checks."""
        firsts = {}
        for p in self.passes:
            first = firsts.setdefault(p.kind[0], p)
            self.attempted += len(p.ops)
            for op, ref in zip(p.ops, first.ops):
                if op.digest is None or op.digest != ref.digest:
                    self.failed += 1
            self.failed += p.checks_failed
            self.problems += p.notes
        if sum(op.digest is None for p in self.passes for op in p.ops):
            self.problems.append("operations raised or exited non-zero")
        main = firsts[self.wl.main_variant]
        brute = self.wl.brute_check(self.args.seed, main)
        self.failed += len(brute)
        self.problems += brute
        self.check_reference(main)

    def check_reference(self, main) -> None:
        """The default seed's outputs must hash to the recorded digest."""
        from workloads import sha

        expected = json.loads(EXPECTED.read_text())
        default = expected["default_seed"]
        if self.args.seed != default:
            self.wl.setup(default)
            main = self.run_pass(default, self.wl.main_variant)
            self.attempted += len(main.ops)
        digest = sha(self.wl.input_digest(), main.digest.encode())
        print(f"digest {self.wl.name} seed {default} {digest}")
        if digest != expected["digests"].get(self.wl.name):
            self.failed += len(main.ops)
            self.problems.append(f"default-seed digest {digest} differs from the recorded one")

    def per_layer(self, env: dict) -> dict:
        """Per-layer metrics; the spans are written to .bench_out here, once."""
        from layers import layer_metrics

        metrics, problems = layer_metrics(self.tracer, self.passes, self.wl)
        self.failed += len(problems)
        self.problems += problems
        trace_file = OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env,
            "passes": [{"kind": p.kind, "wall": p.wall, "cpu": p.cpu, "spans": p.span_range}
                       for p in self.passes],
            "spans": [s.as_dict() for s in self.tracer.spans],
        }))
        print(f"trace {trace_file.relative_to(ROOT)}")
        return metrics

    def end_to_end(self) -> dict:
        """Whole-run figures; only the JSON ones are gated.

        The host's speed drifts by up to a third over minutes, so the gated
        time is ``wall_x_ref``: the timed wall time over the wall time of the
        reference loops run just before each pass.  Both slow down together,
        so the ratio keeps the program's own cost.  The raw times are
        printed beside it.
        """
        walls = [p.wall for p in self.passes]
        metrics = {
            "wall_x_ref": (sum(walls) / sum(p.ref for p in self.passes), "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        extra = {
            "wall_s": (sum(walls) / len(walls), "s"),
            "trials_per_s": (sum(p.trials for p in self.passes) / sum(walls), "1/s"),
        }
        ops = [op for p in self.passes for op in p.ops]
        for name in ("cv", "loo"):
            times = [op.seconds for op in ops if op.name == name]
            if times:
                extra[f"{name}_s"] = (median(times), "s")
        extra["pass_walls"] = ([round(w, 4) for w in walls], "s")
        extra["reference_walls"] = ([round(p.ref, 4) for p in self.passes], "s")
        for name, (value, unit) in {**metrics, **extra}.items():
            emit("metric", name, value, unit)
        return metrics


def main() -> int:
    args = parse_args()
    import robustnn

    if not Path(robustnn.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"robustnn was imported from {robustnn.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        if tracer is not None:
            tracer.install("full")
        workload.setup(args.seed)
        setup_s = time.monotonic() - args.t0
        if tracer is not None:
            tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment([v for v in args.ambient.split(",") if v])
        print("env " + json.dumps(env, sort_keys=True))
        runner = Runner(args, workload, tracer)
        runner.timed_loop()
        if tracer is None:
            metrics = runner.end_to_end()
        else:
            runner.memory_pass()
            metrics = runner.per_layer(env)
        runner.count_failures()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    failed = min(runner.failed, runner.attempted)
    for problem in runner.problems:
        print(f"check FAILED {problem}")
    emit("metric", "fail_frac", failed / runner.attempted, "ratio")
    print(json.dumps({
        "setup_s": setup_s,
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
