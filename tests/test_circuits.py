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
    """The wires of each state pass (``statevec._pass``) the gate kernel
    makes, in order: a pass's pairs flattened, or one single wire."""
    seen = []
    kernel_pass = statevec._pass

    def recording(*args, **kwargs):
        seen.append(args[2])
        return kernel_pass(*args, **kwargs)

    monkeypatch.setattr(statevec, "_pass", recording)
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

    def test_stacked_form_is_each_gate_alone(self, rng):
        # a stack of 2x2s or of 4x4s with one flip per matrix is, bit for
        # bit, each matrix placed alone
        for size, gate in ((2, lambda m, flip: OneQubitGate(int(flip), m)),
                           (4, lambda m, flip: TwoQubitGate(*((1, 0) if flip else (0, 1)), m))):
            matrices = np.array([haar_unitary(size, rng) for _ in range(5)])
            flips = np.array([False, True, True, False, True])
            stacked = circuits.embed_stack(matrices, flips)
            for m, flip, out in zip(matrices, flips, stacked):
                assert np.array_equal(out, embed(gate(m, flip), (0, 1)))


class TestFusedSimulate:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_oracle_on_random_circuits(self, rng, n):
        for _ in range(10):
            circuit = random_circuit(n, 30, rng)
            expected = dense_circuit_operator(circuit)[:, 0]
            assert np.abs(simulate(circuit).amps - expected).max() < 1e-12

    @pytest.mark.parametrize("gates,want", [
        # both orientations of cx on one pair, u3 on both wires: one pass
        ([("u", 0), ("cx", 0, 1), ("u", 1), ("cx", 1, 0), ("u", 0), ("cx", 0, 1)], [(0, 1)]),
        # u3 on an idle wire waits for the next pair that touches it; one
        # on a wire no later pair touches is applied alone at the end
        ([("cx", 0, 1), ("u", 2), ("u", 2), ("cx", 1, 2), ("u", 0)], [(0, 1), (1, 2), (0,)]),
        # disjoint back-to-back pairs share a pass, then trailing u3 on two
        # idle wires
        ([("cx", 0, 1), ("cx", 2, 3), ("cx", 1, 2), ("u", 0), ("u", 4), ("u", 4)],
         [(0, 1, 2, 3), (1, 2), (0,), (4,)]),
        # a pair joins the pass of a disjoint one across interleaved u3
        ([("cx", 3, 4), ("u", 0), ("cx", 1, 0), ("u", 4), ("cx", 2, 3)], [(3, 4, 1, 0), (2, 3), (4,)]),
        # three disjoint pairs in a row are one pass (a sample fits in one chunk)
        ([("cx", 0, 1), ("cx", 2, 3), ("cx", 4, 5), ("u", 0), ("cx", 1, 2)], [(0, 1, 2, 3, 4, 5), (1, 2), (0,)]),
        # single-qubit gates only
        ([("u", 3), ("u", 1), ("u", 3)], [(3,), (1,)]),
    ])
    def test_pass_counts_and_oracle(self, rng, passes, gates, want):
        built = [
            OneQubitGate(g[1], haar_unitary(2, rng)) if g[0] == "u" else TwoQubitGate(g[1], g[2], CNOT)
            for g in gates
        ]
        circuit = Circuit(n=6, gates=built)
        prepared = simulate(circuit)
        assert passes == want
        expected = dense_circuit_operator(circuit)[:, 0]
        assert np.abs(prepared.amps - expected).max() < 1e-12

    def test_pass_takes_each_maximal_disjoint_run(self, rng, monkeypatch, passes):
        # fused runs A(0, 1), B(2, 3), C(4, 5), D(0, 6): while a sample fits
        # in one chunk a pass takes the next run unless it shares a wire
        # with the pass, [ABC] then [D]; above one chunk (chunks of 2^6) a
        # pass also closes at two runs, [AB] then [CD]
        circuit = Circuit(n=10, gates=[TwoQubitGate(a, b, haar_unitary(4, rng))
                                       for a, b in ((0, 1), (2, 3), (4, 5), (0, 6))])
        expected = dense_circuit_operator(circuit)[:, 0]
        for chunk, want in ((statevec.CHUNK, [(0, 1, 2, 3, 4, 5), (0, 6)]), (1 << 6, [(0, 1, 2, 3), (4, 5, 0, 6)])):
            passes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(statevec, "CHUNK", chunk)
                prepared = simulate(circuit)
            assert passes == want, chunk
            assert np.abs(prepared.amps - expected).max() < 1e-12, chunk

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
        passes.clear()
        prepared = simulate(primitive)
        # each unitary's pair is covered once, in order; a pass holds
        # disjoint pairs, and the next pass opens on a pair that shares a
        # wire with it (n = 8: a sample fits in one chunk)
        pairs = [wires[i:i + 2] for wires in passes for i in range(0, len(wires), 2)]
        assert pairs == [step.pair for step in reversed(res.steps)]
        assert all(len(set(wires)) == len(wires) > 1 for wires in passes)
        assert all(set(after[:2]) & set(before) for before, after in zip(passes, passes[1:]))
        assert len(passes) < len(res.steps)
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
