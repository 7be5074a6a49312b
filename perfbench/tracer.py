"""Outside-in tracing of one ``impsprep`` process.

The tracer replaces the module attributes through which one layer of the
program calls another with wrappers, so no file of the program changes.
Spans (name, start, end, parent, op id) are kept in memory and written out
when the run ends. Hot, small calls are counted instead of spanned, which
keeps the tracing overhead low.

A layer's self time is its span's duration minus the durations of its child
spans. The self times of all spans of one operation add up to the
operation's wall time, so the per-layer self times below partition it. The
self time of the operation's root span is the time spent outside every
wrapped layer; ``trace.unwrapped_share`` reports it as a share of the wall
time, and it grows when a wrapped attribute is no longer the program's call
site.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). The attribute is the name the *calling*
# module looks up at call time, e.g. ``cli.run_schedule`` was imported by name
# into ``cli``, while ``gatesynth.synthesize_circuit`` is looked up on the
# ``gatesynth`` module by ``cli``.
SPANS = (
    ("targets", "discretize", "targets.discretize"),
    ("statevec", "load_amplitudes", "statevec.load_amplitudes"),
    ("cli", "run_schedule", "disentangler.run_schedule"),
    ("disentangler", "disentangle_step", "disentangler.disentangle_step"),
    ("disentangler", "extract_block", "statevec.extract_block"),
    ("disentangler", "inverse_extract", "statevec.inverse_extract"),
    ("disentangler", "truncate_and_renormalize", "disentangler.truncate"),
    ("disentangler", "simulate", "disentangler.check_simulate"),
    ("gatesynth", "build_u2cx", "gatesynth.build_u2cx"),
    ("gatesynth", "synthesize_circuit", "gatesynth.synthesize_circuit"),
    ("gatesynth", "count_gates", "gatesynth.count_gates"),
    ("qasm", "emit", "qasm.emit"),
    ("cli", "_revalidate", "circuits.revalidate"),
    ("qasm", "parse", "qasm.parse"),
    ("cli", "simulate", "circuits.resimulate"),
)

# Per-layer time metrics: metric name -> (span name, "self" | "total").
TIME_METRICS = {
    "targets.discretize_s": ("targets.discretize", "self"),
    "statevec.load_amplitudes_s": ("statevec.load_amplitudes", "total"),
    "disentangler.run_schedule_s": ("disentangler.run_schedule", "total"),
    "disentangler.apply_self_s": ("disentangler.run_schedule", "self"),
    "disentangler.step_self_s": ("disentangler.disentangle_step", "self"),
    "statevec.extract_block_s": ("statevec.extract_block", "total"),
    "statevec.inverse_extract_s": ("statevec.inverse_extract", "total"),
    "disentangler.truncate_s": ("disentangler.truncate", "total"),
    "disentangler.check_simulate_s": ("disentangler.check_simulate", "total"),
    "gatesynth.build_u2cx_s": ("gatesynth.build_u2cx", "total"),
    "gatesynth.synthesize_circuit_s": ("gatesynth.synthesize_circuit", "total"),
    "gatesynth.count_gates_s": ("gatesynth.count_gates", "total"),
    "qasm.emit_s": ("qasm.emit", "total"),
    "qasm.parse_s": ("qasm.parse", "total"),
    "circuits.revalidate_s": ("circuits.revalidate", "total"),
    "circuits.revalidate_self_s": ("circuits.revalidate", "self"),
    "circuits.resimulate_s": ("circuits.resimulate", "total"),
    "cli.self_s": ("op", "self"),
}
COUNT_METRICS = (
    "disentangler.steps",
    "gatesynth.build_u2cx_calls",
    "gatesynth.synthesize_gate_calls",
    "gatesynth.synthesize_gate_failed",
    "qasm.bytes",
    "circuits.gates_applied",
    "statevec.require_unitary_calls",
    "statevec.bytes_moved_computed",
)


class Tracer:
    """Records every wrapped call made while ``installed()`` is active."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; every wrapped call inside is its descendant."""
        self._op = op_id
        try:
            with self._span("op"):
                yield
        finally:
            self._op = -1

    @contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            # a closed span is a tuple of atoms, which the garbage collector stops scanning
            self.spans[idx] = (name, start, perf_counter(), parent, self._op)
            self._stack.pop()

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, module_name: str, attr: str, wrapper_factory) -> None:
        module = getattr(self.pkg, module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))

    @contextmanager
    def installed(self):
        """Wrap the layers on entry and restore the original attributes on exit."""
        self._install()
        try:
            yield
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def _install(self) -> None:
        counts = self.counts
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, lambda fn, name=name: self._spanned(fn, name))

        def counting(name, amount=lambda args, result: 1):
            def factory(fn):
                def wrapper(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    counts[name] += amount(args, result)
                    return result

                return wrapper

            return factory

        # One gate pass reads and writes the whole complex128 state once.
        moved = "statevec.bytes_moved_computed"
        for attr in ("apply_two_qubit", "apply_single_qubit"):
            self._patch("circuits", attr, counting(moved, lambda args, _: 32 << args[0].n))
        self._patch("disentangler", "_apply_gate_to_amps", counting(moved, lambda args, _: 32 << args[1]))
        for module_name in ("statevec", "gatesynth"):  # gatesynth imported it by name
            self._patch(module_name, "require_unitary", counting("statevec.require_unitary_calls"))
        self._patch("qasm", "emit", counting("qasm.bytes", lambda _, text: len(text)))
        self._patch("cli", "simulate", counting("circuits.gates_applied", lambda args, _: len(args[0].gates)))

        def synthesize_gate(fn):
            def wrapper(*args, **kwargs):
                counts["gatesynth.synthesize_gate_calls"] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    counts["gatesynth.synthesize_gate_failed"] += 1
                    raise

            return wrapper

        self._patch("gatesynth", "synthesize_gate", synthesize_gate)

    # -- reporting -------------------------------------------------------
    def self_times(self) -> tuple[dict, dict]:
        """Total and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def metrics(self, ops: int, wall: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}, each per attempted
        operation; ``wall`` is the operations' wall time as the caller timed it."""
        total, own = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        counts = Counter(self.counts)
        counts["disentangler.steps"] = calls["disentangler.disentangle_step"]
        counts["gatesynth.build_u2cx_calls"] = calls["gatesynth.build_u2cx"]
        out = {
            metric: ((own if kind == "self" else total)[span] / ops, "s")
            for metric, (span, kind) in TIME_METRICS.items()
        }
        for name in COUNT_METRICS:
            out[name] = (counts[name] / ops, "B" if "bytes" in name else "count")
        out["trace.unwrapped_share"] = (own["op"] / wall, "1")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
