"""The benchmark tracer (perfbench/tracer.py) wraps program attributes by
name. A compile under the tracer must run, and the wrapped layers must see
calls, so that renaming one of those attributes fails here."""
import time
from pathlib import Path

import impsprep
from impsprep import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_compile_runs_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer(impsprep)
    t0 = time.perf_counter()
    with t.installed(), t.op(0):
        rc = cli.main([
            "compile", "--target", "f1", "--scheme", "hen", "--n", "8",
            "--layers", "2", "--out", str(tmp_path),
        ])
    metrics = t.metrics(1, time.perf_counter() - t0)
    assert rc == 0
    assert metrics["statevec.bytes_moved_computed"][0] > 0
    assert metrics["disentangler.steps"][0] > 0
    assert metrics["gatesynth.synthesize_gate_calls"][0] > 0
