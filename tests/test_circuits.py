"""The fused simulator against a dense operator oracle and against the
gate-by-gate loop it replaced."""
import numpy as np
import pytest

from impsprep import circuits, gatesynth, schedules, statevec, targets
from impsprep.circuits import CNOT, Circuit, OneQubitGate, TwoQubitGate, embed, simulate
from impsprep.disentangler import TruncationMode, run_schedule

from conftest import dense_two_qubit_operator, haar_unitary


def dense_circuit_operator(circuit):
    """Reference 2^n x 2^n operator: a Kronecker product per single-qubit
    gate, an enumerated embedding per two-qubit gate, multiplied in order."""
    n = circuit.n
    op = np.eye(1 << n, dtype=complex)
    for g in circuit.gates:
        if isinstance(g, OneQubitGate):
            full = np.kron(np.kron(np.eye(1 << g.wire), g.matrix), np.eye(1 << (n - 1 - g.wire)))
        else:
            full = dense_two_qubit_operator(g.matrix, n, g.a, g.b)
        op = full @ op
    return op


def gate_by_gate(circuit):
    """The unfused simulation: one state pass per gate."""
    state = statevec.from_amplitudes(np.eye(1, 1 << circuit.n))
    for g in circuit.gates:
        if isinstance(g, TwoQubitGate):
            state = circuits.apply_two_qubit(state, g)
        else:
            state = circuits.apply_single_qubit(state, g.wire, g.matrix)
    return state


def random_circuit(n, length, rng):
    """Gates drawn to exercise every fusion rule: u3 on any wire (idle or
    in the open pair), cx in both orientations on the last pair, a jump to
    another pair, and engine-level 4x4 unitaries."""
    gates, pair = [], (0, 1)
    for _ in range(length):
        kind = rng.integers(5)
        if kind == 0:
            gates.append(OneQubitGate(int(rng.integers(n)), haar_unitary(2, rng)))
        elif kind == 1:
            gates.append(TwoQubitGate(*pair, CNOT))
        elif kind == 2:
            gates.append(TwoQubitGate(pair[1], pair[0], CNOT))
        elif kind == 3:
            pair = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(TwoQubitGate(*pair, CNOT))
        else:
            pair = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(TwoQubitGate(*pair, haar_unitary(4, rng)))
    return Circuit(n=n, gates=gates)


@pytest.fixture
def passes(monkeypatch):
    """State passes made by simulate's gate kernel: how many, and the wire
    pairs and single wires they cover. Every pass carries one or two pairs
    or one single wire."""
    seen = {"passes": 0, "pairs": [], "single": 0}
    kernel = circuits._apply_gate_to_amps

    def counting(*args):
        wires = args[2]
        assert len(wires) in (1, 2, 4)
        seen["passes"] += 1
        if len(wires) == 1:
            seen["single"] += 1
        else:
            seen["pairs"] += [wires[i:i + 2] for i in range(0, len(wires), 2)]
        return kernel(*args)

    monkeypatch.setattr(circuits, "_apply_gate_to_amps", counting)
    return seen


class TestEmbed:
    """A gate's 4x4 on an ordered pair, read back onto the pair's wires,
    is the gate's own dense operator."""

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 2), (2, 1)])
    def test_matches_dense_oracle(self, rng, pair):
        a, b = pair
        gates = [
            OneQubitGate(a, haar_unitary(2, rng)),
            OneQubitGate(b, haar_unitary(2, rng)),
            TwoQubitGate(a, b, haar_unitary(4, rng)),
            TwoQubitGate(b, a, haar_unitary(4, rng)),
            TwoQubitGate(b, a, CNOT),
        ]
        for g in gates:
            expected = dense_circuit_operator(Circuit(n=3, gates=[g]))
            assert np.abs(dense_two_qubit_operator(embed(g, pair), 3, a, b) - expected).max() < 1e-12


class TestFusedSimulate:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_oracle_on_random_circuits(self, rng, n):
        for _ in range(10):
            circuit = random_circuit(n, 30, rng)
            expected = dense_circuit_operator(circuit)[:, 0]
            assert np.abs(simulate(circuit).amps - expected).max() < 1e-12

    @pytest.mark.parametrize("gates,pairs,total,single", [
        # both orientations of cx on one pair, u3 on both wires: one pass
        ([("u", 0), ("cx", 0, 1), ("u", 1), ("cx", 1, 0), ("u", 0), ("cx", 0, 1)], [(0, 1)], 1, 0),
        # u3 on an idle wire waits for the next pair that touches it; one
        # on a wire no later pair touches is applied alone at the end
        ([("cx", 0, 1), ("u", 2), ("u", 2), ("cx", 1, 2), ("u", 0)], [(0, 1), (1, 2)], 3, 1),
        # disjoint back-to-back pairs share a pass, then trailing u3 on two
        # idle wires
        ([("cx", 0, 1), ("cx", 2, 3), ("cx", 1, 2), ("u", 0), ("u", 4), ("u", 4)],
         [(0, 1), (2, 3), (1, 2)], 4, 2),
        # a pair waits for a disjoint partner across interleaved u3
        ([("cx", 3, 4), ("u", 0), ("cx", 1, 0), ("u", 4), ("cx", 2, 3)], [(3, 4), (1, 0), (2, 3)], 3, 1),
        # single-qubit gates only
        ([("u", 3), ("u", 1), ("u", 3)], [], 2, 2),
    ])
    def test_pass_counts_and_oracle(self, rng, passes, gates, pairs, total, single):
        built = [
            OneQubitGate(g[1], haar_unitary(2, rng)) if g[0] == "u" else TwoQubitGate(g[1], g[2], CNOT)
            for g in gates
        ]
        circuit = Circuit(n=5, gates=built)
        prepared = simulate(circuit)
        assert passes == {"passes": total, "pairs": pairs, "single": single}
        expected = dense_circuit_operator(circuit)[:, 0]
        assert np.abs(prepared.amps - expected).max() < 1e-12

    @pytest.mark.parametrize("scheme", ["chain", "htn"])
    def test_engine_circuit_matches_gate_by_gate(self, rng, scheme):
        target = statevec.random_state(6, rng)
        sched = getattr(schedules, f"{scheme}_schedule")(6)
        res = run_schedule(target, sched, 2, TruncationMode.PER_ROUND)
        assert np.abs(simulate(res.circuit).amps - gate_by_gate(res.circuit).amps).max() < 1e-12

    def test_synthesized_circuit_covers_each_unitary_once(self, passes):
        target = targets.discretize(targets.make_spec("f1", 8))
        # as ``compile`` does it with the default two-CNOT synthesis
        res = run_schedule(target, schedules.htn_schedule(8), 2, TruncationMode.PER_ROUND, rewrite_2cx=True)
        primitive, _ = gatesynth.synthesize_circuit(res.circuit, gatesynth.SynthMode.OPTIMIZED2)
        assert len(primitive.gates) > 4 * len(res.steps)
        prepared = simulate(primitive)
        # each unitary's pair is covered once, two disjoint pairs to a pass
        assert passes["pairs"] == [step.pair for step in reversed(res.steps)]
        assert passes["passes"] < len(res.steps)
        assert passes["single"] == 0
        reference = gate_by_gate(primitive)
        assert np.abs(prepared.amps - reference.amps).max() < 1e-12

    def test_checks_still_apply_to_fused_gates(self, rng):
        bad = Circuit(n=3, gates=[OneQubitGate(0, 1.02 * np.eye(2)), TwoQubitGate(0, 1, CNOT)])
        with pytest.raises(ValueError, match="not unitary"):
            simulate(bad)
        with pytest.raises(ValueError, match="out of range"):
            simulate(Circuit(n=3, gates=[TwoQubitGate(0, 3, CNOT)]))
        with pytest.raises(ValueError, match="out of range"):
            simulate(Circuit(n=3, gates=[OneQubitGate(5, np.eye(2))]))
