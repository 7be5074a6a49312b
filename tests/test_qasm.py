import numpy as np
import pytest

from impsprep import qasm, schedules, statevec, targets
from impsprep.circuits import CNOT, Circuit, OneQubitGate, simulate
from impsprep.disentangler import TruncationMode, run_schedule
from impsprep.gatesynth import SynthMode, synthesize_circuit
from impsprep.statevec import TwoQubitGate

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

    def test_unparsable_line_rejected(self):
        with pytest.raises(ValueError):
            qasm.parse("qreg q[2];\nh q[0];\n")

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
