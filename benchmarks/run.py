"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the package under ``src`` and needs
nothing installed beyond numpy and scipy.  Workloads: dataset_cli_p2k,
sweep_expma_w2 (see benchmarks/README.md).

Every workload runs in a fresh Python process (``child.py``) so that its
peak RSS is its own, with ROBUSTNN_THREADS and the BLAS/OpenMP thread
variables removed so that the program runs with its default worker and
thread counts.  With ``--trace 0`` the set-up is repeated in SETUPS fresh
processes, ``setup_s`` is their median, and the last process also runs the
timed loop and prints the end-to-end metrics.  With ``--trace 1`` one
process runs the traced loop and prints the per-layer metrics.  The last
line of standard output is one JSON object; the exit code is non-zero, with
no such line, when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dataset_cli_p2k", "sweep_expma_w2")
END_TO_END = ("setup_s", "wall_x_ref", "peak_rss_mb")
SETUPS = 5
# A run must end within 180 s; leave a margin for the launcher itself.
DEADLINE_S = 170.0
THREAD_VARS = (
    "ROBUSTNN_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


def child_env() -> tuple[dict, list[str]]:
    env = dict(os.environ)
    ambient = [name for name in THREAD_VARS if env.pop(name, None) is not None]
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, ambient


def run_child(args, env, ambient, deadline, setup_only=False) -> tuple[dict, list[str]]:
    """Start child.py, wait for it, and return its JSON line and other lines."""
    argv = [sys.executable, str(HERE / "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--ambient", ",".join(ambient)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        proc.communicate()
        raise SystemExit(f"{args.workload}: child process exceeded the {DEADLINE_S:.0f} s limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # reap pool workers left behind
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload}: child process exited with code {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "robustnn" / "__init__.py").is_file():
        print(f"no package at {ROOT / 'src' / 'robustnn'}; run from a robustnn checkout",
              file=sys.stderr)
        return 2
    env, ambient = child_env()
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(run_child(args, env, ambient, deadline, setup_only=True)[0]["setup_s"])
    result, lines = run_child(args, env, ambient, deadline)
    print("\n".join(lines))
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"metric setup_s {metrics['setup_s']['value']!r} s (median of {setups})")
        metrics = {name: metrics[name] for name in END_TO_END}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
