import re

import numpy as np
import pytest

from impsprep import qasm, schedules, statevec, targets
from impsprep.circuits import CNOT, Circuit, OneQubitGate, TwoQubitGate, simulate
from impsprep.disentangler import TruncationMode, run_schedule
from impsprep.gatesynth import SynthMode, synthesize_circuit

from conftest import haar_unitary


class TestU3:
    def test_angles_roundtrip_random(self, rng):
        for _ in range(200):
            u = haar_unitary(2, rng)
            th, ph, lm = qasm.u3_angles(u)
            rebuilt = qasm.u3_matrix(th, ph, lm)
            tr = np.trace(rebuilt.conj().T @ u) / 2
            assert abs(abs(tr) - 1.0) < 1e-10
            assert np.abs(rebuilt * (tr / abs(tr)) - u).max() < 1e-9

    def test_diagonal_and_antidiagonal_cases(self):
        for u in (np.diag([1.0, 1j]), np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]])):
            th, ph, lm = qasm.u3_angles(u)
            rebuilt = qasm.u3_matrix(th, ph, lm)
            tr = np.trace(rebuilt.conj().T @ u) / 2
            assert np.abs(rebuilt * (tr / abs(tr)) - u).max() < 1e-12


    @pytest.mark.parametrize("s", [1e-3, 1e-8, 2e-12])
    def test_small_off_diagonal_keeps_the_diagonal_phase(self, rng, s):
        # a synthesized near-diagonal gate is unitary to round-off, so its
        # small off-diagonal entries carry phase errors of eps / s; those
        # phases must not set the phase of m[1, 1]
        c = np.sqrt(1 - s * s)
        for _ in range(20):
            al, be, ga = rng.uniform(-np.pi, np.pi, size=3)
            u = np.array([[c * np.exp(1j * al), -s * np.exp(1j * be)],
                          [s * np.exp(1j * ga), c * np.exp(1j * (be + ga - al))]])
            u[[0, 1], [1, 0]] += 2e-16 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            rebuilt = qasm.u3_matrix(*qasm.u3_angles(u))
            tr = np.trace(rebuilt.conj().T @ u) / 2
            assert np.abs(rebuilt * (tr / abs(tr)) - u).max() < 1e-14


class TestEmitParse:
    def build_circuit(self, rng):
        return Circuit(
            n=3,
            gates=[
                OneQubitGate(0, haar_unitary(2, rng)),
                TwoQubitGate(0, 2, CNOT),
                OneQubitGate(2, haar_unitary(2, rng)),
                TwoQubitGate(2, 1, CNOT),
            ],
        )

    def test_roundtrip_action(self, rng):
        circ = self.build_circuit(rng)
        text = qasm.emit(circ, {"scheme": "test", "n": 3})
        parsed, header = qasm.parse(text)
        assert header["scheme"] == "test"
        assert parsed.n == 3
        assert statevec.infidelity(simulate(circ), simulate(parsed)) < 1e-12

    def test_emission_is_byte_deterministic(self, rng):
        circ = self.build_circuit(rng)
        assert qasm.emit(circ, {"k": "v"}) == qasm.emit(circ, {"k": "v"})

    def test_dialect_contents(self, rng):
        text = qasm.emit(self.build_circuit(rng), {})
        lines = text.strip().splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[1] == 'include "qelib1.inc";'
        assert lines[2] == "qreg q[3];"
        body = lines[3:]
        assert all(l.startswith(("u3(", "cx ")) for l in body)
        assert "cx q[0],q[2];" in body

    def test_raw_two_qubit_gate_rejected(self, rng):
        circ = Circuit(n=2, gates=[TwoQubitGate(0, 1, haar_unitary(4, rng))])
        with pytest.raises(ValueError):
            qasm.emit(circ, {})

    @pytest.mark.parametrize("text,reason", [
        ("qreg q[2];\nh q[0];\n", "line 2: cannot parse"),
        ("qreg q[2];\ncx q[0],q[1]; cx q[1],q[0];\n", "line 2: cannot parse"),
        ("qreg q[2]; cx q[0],q[1];\n", "line 1: cannot parse"),
        ("qreg q[1];\nu3(0,0,0) q[0]; x\n", "line 2: cannot parse"),
        ("OPENQASM 2.0; cx q[0],q[1];\nqreg q[2];\n", "line 1: cannot parse"),
        ('include "qelib1.inc"; cx q[0],q[1];\nqreg q[2];\n', "line 1: cannot parse"),
        ("qreg q[2];\ncx q[0],q[1];\nqreg q[3];\n", "line 3: a second qreg declaration"),
        ("OPENQASM 2.0;\ncx q[0],q[1];\nqreg q[2];\n", "line 2: a gate before the qreg declaration"),
        ("qreg q[2];\ncx q[0],q[5];\n", "line 2: qubit index 5 out of range for n = 2"),
        ("qreg q[2];\ncx q[1],q[1];\n", "line 2: qubit indices must differ, got a = b = 1"),
        ("qreg q[1];\nu3(nan,0,0) q[0];\n", "line 2: u3 angles must be finite, got 'u3(nan,0,0) q[0];'"),
        ("qreg q[1];\nu3(0,inf,0) q[0];\n", "line 2: u3 angles must be finite, got 'u3(0,inf,0) q[0];'"),
        ("qreg q[1];\nu3(0,0,1e400) q[0];\n", "line 2: u3 angles must be finite, got 'u3(0,0,1e400) q[0];'"),
        ("OPENQASM 2.0;\nqreg q[0];\n", "line 2: a register of 0 qubits"),
    ], ids=["unknown-gate", "two-cx", "qreg-then-cx", "u3-then-text", "version-then-cx", "include-then-cx",
            "second-qreg", "gate-before-qreg", "wire-out-of-range", "same-wire-twice",
            "nan-angle", "inf-angle", "overflowing-angle", "empty-register"])
    def test_unparsable_line_rejected(self, text, reason):
        # a statement is its whole line, after the one non-empty qreg, on its qubits, with finite angles
        with pytest.raises(ValueError, match="^" + re.escape(reason)):
            qasm.parse(text)

    @pytest.mark.parametrize("key,value", [
        ("target", "t\nu3(0,0,0) q[0];"), ("a\rb", 1), ("k", "v\u2028w"), ("k", "v\n"),
    ], ids=["newline", "key-return", "line-separator", "trailing-newline"])
    def test_a_header_entry_with_a_line_break_rejected(self, key, value):
        with pytest.raises(ValueError, match=re.escape(f"header entry {key!r} holds a line break")):
            qasm.emit(Circuit(n=1, gates=[]), {key: value})

    def test_missing_qreg_rejected(self):
        with pytest.raises(ValueError):
            qasm.parse("cx q[0],q[1];\n")


class TestEndToEnd:
    def test_compiled_target_survives_the_file_format(self, rng):
        target = targets.discretize(targets.make_spec("f2", 6))
        sched = schedules.ttn_schedule(6)
        res = run_schedule(target, sched, 1, TruncationMode.PER_LAYER, rewrite_2cx=True)
        prim, _ = synthesize_circuit(res.circuit, SynthMode.OPTIMIZED2)
        text = qasm.emit(prim, {"infidelity": res.final_infidelity})
        parsed, _ = qasm.parse(text)
        prepared = simulate(parsed)
        assert abs(statevec.infidelity(prepared, target) - res.final_infidelity) < 1e-8
