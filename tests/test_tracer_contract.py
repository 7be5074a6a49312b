"""The benchmark tracer (perfbench/tracer.py) wraps program attributes by
name. A compile under the tracer must run, and the wrapped layers must see
calls, so that renaming one of those attributes fails here."""
import time
from pathlib import Path

import impsprep
from impsprep import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced(tmp_path, monkeypatch, argv: list) -> dict:
    """The tracer's metrics of one ``cli.main`` run of ``argv`` into ``tmp_path``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer(impsprep)
    t0 = time.perf_counter()
    with t.installed(), t.op(0):
        rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == 0
    return t.metrics(1, time.perf_counter() - t0)


def traced_compile(tmp_path, monkeypatch, target: str) -> dict:
    """The tracer's metrics of one hen compile of ``target`` at n=8, L=2."""
    return traced(tmp_path, monkeypatch,
                  ["compile", "--target", target, "--scheme", "hen", "--n", "8", "--layers", "2"])


def test_compile_runs_under_the_tracer(tmp_path, monkeypatch):
    metrics = traced_compile(tmp_path, monkeypatch, "f1")
    assert metrics["statevec.bytes_moved_computed"][0] > 0
    assert metrics["disentangler.steps"][0] > 0
    assert metrics["gatesynth.synthesize_gate_calls"][0] > 0
    # counted through the attribute the caller looks up at call time, which
    # a moved definition or a name bound at import would leave at 0
    assert metrics["statevec.require_unitary_calls"][0] > 0
    assert metrics["circuits.gates_applied"][0] > 0


def test_a_complex_compile_counts_its_rewrites(tmp_path, monkeypatch):
    # a real target's steps are two-CNOT as they are and never rewritten
    metrics = traced_compile(tmp_path, monkeypatch, "random")
    assert metrics["gatesynth.build_u2cx_calls"][0] > 0


def test_a_benchmark_cell_runs_under_the_tracer(tmp_path, monkeypatch):
    # the random sweep's path: a cell's samples compiled as one stack
    metrics = traced(tmp_path, monkeypatch, [
        "benchmark", "--targets", "random", "--samples", "3", "--schemes", "chain", "--n", "8",
        "--layers-list", "2",
    ])
    for name in ("disentangler.steps", "gatesynth.synthesize_gate_calls",
                 "disentangler.run_schedule_s", "gatesynth.synthesize_circuit_s"):
        assert metrics[name][0] > 0, name
