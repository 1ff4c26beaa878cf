"""The benchmark's tracer wraps package attributes by name (``cli.dispatch``,
``experiments.run_trial``, ``classifier.select_threshold``, ...).  Renaming or
removing one breaks the benchmark; this test fails first.  It reads
``benchmarks/`` and changes nothing there."""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under benchmarks/
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install("full")
        patched = list(tracer._patched)
        assert patched, "the tracer wrapped nothing"
        for module, attr, orig in patched:
            assert getattr(module, attr) is not orig
    finally:
        tracer.uninstall()
    for module, attr, orig in patched:
        assert getattr(module, attr) is orig
