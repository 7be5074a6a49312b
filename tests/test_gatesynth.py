import numpy as np
import pytest

from impsprep import gatesynth, statevec
from impsprep.disentangler import disentangle_step
from impsprep.gatesynth import (
    GAMMA,
    MAGIC,
    SynthMode,
    build_u2cx,
    cosine_sine_decompose,
    count_gates,
    magic_kak_decompose,
    synthesize_circuit,
    synthesize_generic,
    synthesize_two_cnot,
)
from impsprep.circuits import Circuit, OneQubitGate, simulate
from impsprep.statevec import TwoQubitGate

from conftest import haar_unitary, random_real_state, random_state

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
ZI = np.kron(Z, I2)


def random_class_member(rng):
    u = haar_unitary(4, rng)
    return u @ ZI @ u.conj().T


def naive_csd_oracle(u):
    """Independent CSD via the one-block SVD construction; valid away from
    degenerate cosines, used only as a cross-check on well-conditioned input."""
    u00, u01, u10 = u[:2, :2], u[:2, 2:], u[2:, :2]
    ap, c, a = np.linalg.svd(u00)
    s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    b = np.diag(1.0 / s) @ ap.conj().T @ u01
    bp = u10 @ a.conj().T @ np.diag(1.0 / s)
    return ap, bp, a, b, c, s


def assemble(ap, bp, a, b, c, s):
    z = np.zeros((2, 2))
    mid = np.block([[np.diag(c), np.diag(s)], [np.diag(s), -np.diag(c)]])
    return np.block([[ap, z], [z, bp]]) @ mid @ np.block([[a, z], [z, b]])


class TestCosineSine:
    def test_identity_input(self):
        dec = cosine_sine_decompose(np.eye(4))
        assert np.allclose(dec.cosines, [1.0, 1.0])
        assert np.allclose(dec.sines, [0.0, 0.0])
        assert np.abs(dec.reassemble() - np.eye(4)).max() < 1e-12

    def test_block_diagonal_input(self, rng):
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        z = np.zeros((2, 2))
        u = np.block([[u1, z], [z, u2]])
        dec = cosine_sine_decompose(u)
        assert np.allclose(dec.sines, 0.0, atol=1e-10)
        assert np.abs(dec.reassemble() - u).max() < 1e-9

    def test_random_reassembly_and_structure(self, rng):
        for _ in range(50):
            u = haar_unitary(4, rng)
            dec = cosine_sine_decompose(u)
            assert np.abs(dec.reassemble() - u).max() < 1e-9
            assert dec.cosines[0] >= dec.cosines[1] - 1e-12
            c2s2 = dec.cosines**2 + dec.sines**2
            assert np.abs(c2s2 - 1.0).max() < 1e-10
            for m in (dec.left_top, dec.left_bottom, dec.right_top, dec.right_bottom):
                assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-9

    def test_agrees_with_naive_construction_when_well_conditioned(self, rng):
        checked = 0
        while checked < 20:
            u = haar_unitary(4, rng)
            dec = cosine_sine_decompose(u)
            if dec.sines[1] < 0.1 or dec.cosines[0] > 0.99:
                continue  # oracle divides by s; skip its weak spots
            ap, bp, a, b, c, s = naive_csd_oracle(u)
            assert np.allclose(np.sort(c), np.sort(dec.cosines), atol=1e-9)
            assert np.abs(assemble(ap, bp, a, b, c, s) - u).max() < 1e-8
            checked += 1

    def test_near_degenerate_cosine_stays_accurate(self, rng):
        # adversarial: one rotation angle ~ 1e-8; the naive construction
        # loses the block coupling here, the shipped one must not
        z = np.zeros((2, 2))
        th = np.array([1e-8, 0.9])
        mid = np.block(
            [[np.diag(np.cos(th)), np.diag(np.sin(th))],
             [np.diag(np.sin(th)), -np.diag(np.cos(th))]]
        )
        l1, l2, r1, r2 = (haar_unitary(2, rng) for _ in range(4))
        u = np.block([[l1, z], [z, l2]]) @ mid @ np.block([[r1, z], [z, r2]])
        dec = cosine_sine_decompose(u)
        assert np.abs(dec.reassemble() - u).max() < 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            cosine_sine_decompose(np.eye(4) * 1.5)


class TestBuildU2cx:
    def test_identity_gives_class_member(self):
        g = build_u2cx(np.eye(4))
        eig = np.sort(np.linalg.eigvals(g).real)
        assert np.allclose(eig, [-1, -1, 1, 1], atol=1e-9)

    def test_equivalence_class_property(self, rng):
        # result = D @ input with D block-diagonal unitary
        for _ in range(20):
            u = haar_unitary(4, rng)
            g = build_u2cx(u)
            d = g @ u.conj().T
            assert np.abs(d[:2, 2:]).max() < 1e-9
            assert np.abs(d[2:, :2]).max() < 1e-9
            assert np.abs(d @ d.conj().T - np.eye(4)).max() < 1e-9

    def test_hermitian_involution(self, rng):
        g = build_u2cx(haar_unitary(4, rng))
        assert np.abs(g - g.conj().T).max() < 1e-9
        assert np.abs(g @ g - np.eye(4)).max() < 1e-9

    def test_preserves_retained_weight_on_disentangling_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            state = random_state(n, rng)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            step = disentangle_step(state, a, b)
            rewritten = build_u2cx(step.unitary)
            rows = statevec.extract_block(state, a, b).rows
            kept = np.linalg.norm((rewritten @ rows)[:2]) ** 2
            assert abs(kept - step.retained_weight) < 1e-10

    def test_real_orthogonal_input_gives_real_output(self, rng):
        state = random_real_state(4, rng)
        step = disentangle_step(state, 1, 3)
        g = build_u2cx(step.unitary)
        assert np.abs(g.imag).max() < 1e-9


class TestMagicKak:
    def test_z_tensor_i(self):
        angles = magic_kak_decompose(ZI)
        assert np.abs(angles.reconstruct() - ZI).max() < 1e-12
        # angles are pairwise opposite
        assert np.abs(np.sort(angles.theta) + np.sort(angles.theta)[::-1]).max() < 1e-9

    def test_x_tensor_i(self):
        k = np.kron(X, I2)
        angles = magic_kak_decompose(k)
        assert np.abs(angles.reconstruct() - k).max() < 1e-9

    def test_fuzz_class_members(self, rng):
        for _ in range(100):
            k = random_class_member(rng)
            angles = magic_kak_decompose(k)
            assert np.abs(angles.reconstruct() - k).max() < 1e-9
            # negation closure as a multiset mod 2 pi
            fwd = np.sort(np.angle(np.exp(1j * angles.theta)))
            bwd = np.sort(np.angle(np.exp(-1j * angles.theta)))
            assert np.abs(np.exp(1j * fwd) - np.exp(1j * bwd)).max() < 1e-9
            # omega pattern: w0 = 0 and at least one of w1..w3 = 0 (mod pi)
            def mod_pi(v):
                return min(abs(np.angle(np.exp(1j * v))), abs(np.angle(np.exp(1j * (v + np.pi)))))
            assert mod_pi(angles.omega[0]) < 1e-9
            assert min(mod_pi(w) for w in angles.omega[1:]) < 1e-9
            assert abs(np.linalg.det(angles.p) - 1.0) < 1e-10
            assert abs(np.linalg.det(angles.q) - 1.0) < 1e-10

    def test_gamma_is_the_pauli_string_transform(self, rng):
        # M exp(i diag(GAMMA w)) M^dag == exp(i (w0 II + w1 XX + w2 YY + w3 ZZ))
        from scipy.linalg import expm

        paulis = [np.eye(4), np.kron(X, X),
                  np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]), np.kron(Z, Z)]
        for _ in range(5):
            w = rng.normal(size=4)
            lhs = MAGIC @ np.diag(np.exp(1j * (GAMMA @ w))) @ MAGIC.conj().T
            rhs = expm(1j * sum(wi * p for wi, p in zip(w, paulis)))
            assert np.abs(lhs - rhs).max() < 1e-12
        assert np.allclose(np.linalg.inv(GAMMA), GAMMA.T / 4)

    def test_non_class_member_rejected(self, rng):
        with pytest.raises(ValueError):
            magic_kak_decompose(haar_unitary(4, rng))

    def test_deterministic(self, rng):
        k = random_class_member(rng)
        a1 = magic_kak_decompose(k)
        a2 = magic_kak_decompose(k)
        assert np.array_equal(a1.p, a2.p)
        assert np.array_equal(a1.theta, a2.theta)


class TestSynthesizeTwoCnot:
    @staticmethod
    def assert_reconstructs(seq, target, tol=1e-9):
        rebuilt = seq.matrix()
        tr = np.trace(rebuilt.conj().T @ target) / 4.0
        assert abs(tr) > 1e-6
        assert np.abs(rebuilt * (tr / abs(tr)) - target).max() < tol

    def test_z_tensor_i_is_one_single_qubit_z(self):
        seq = synthesize_two_cnot(ZI)
        assert seq.cnot_count == 0
        assert seq.single_qubit_count() == 1
        gate = seq.gates[0]
        assert gate.wire == 0
        phase = gate.matrix[0, 0]
        assert np.abs(gate.matrix - phase * Z).max() < 1e-9
        self.assert_reconstructs(seq, ZI)

    def test_single_pauli_string_exponential(self):
        from scipy.linalg import expm

        k = expm(1j * 0.37 * np.kron(Z, Z))
        seq = synthesize_two_cnot(k)
        assert 1 <= seq.cnot_count <= 2
        self.assert_reconstructs(seq, k)

    def test_fuzz_class_members(self, rng):
        for _ in range(200):
            k = random_class_member(rng)
            seq = synthesize_two_cnot(k)
            assert seq.cnot_count <= 2
            assert seq.single_qubit_count() <= 8
            self.assert_reconstructs(seq, k)

    def test_u2cx_of_disentangling_steps(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            state = random_state(n, rng)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            step = disentangle_step(state, a, b)
            seq = synthesize_two_cnot(build_u2cx(step.unitary))
            assert seq.cnot_count == 2  # generic instances saturate the bound
            self.assert_reconstructs(seq, build_u2cx(step.unitary))

    def test_real_special_orthogonal_without_rewrite(self, rng):
        # SVD factors of real amplitudes synthesize directly
        for _ in range(25):
            n = int(rng.integers(2, 6))
            state = random_real_state(n, rng)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            step = disentangle_step(state, a, b)
            seq = synthesize_two_cnot(step.unitary)
            assert seq.cnot_count <= 2
            self.assert_reconstructs(seq, step.unitary)

    @pytest.mark.parametrize("angles", [
        (0.0, 0.7),  # cosine at 1
        (np.pi / 2, 0.7),  # cosine at 0
        (0.7, 0.7),  # equal cosines
        (1e-9, 0.7),
        (np.pi / 2 - 1e-9, 0.7),
        (0.7, 0.7 + 1e-9),
        (0.0, np.pi / 2),
    ])
    def test_degenerate_csd_angles(self, angles):
        rng = np.random.default_rng(2024)
        th = np.array(angles)
        c, s = np.diag(np.cos(th)), np.diag(np.sin(th))
        z = np.zeros((2, 2))
        mid = np.block([[c, s], [s, -c]])
        for _ in range(20):
            l1, l2, r1, r2 = (haar_unitary(2, rng) for _ in range(4))
            u = np.block([[l1, z], [z, l2]]) @ mid @ np.block([[r1, z], [z, r2]])
            k = build_u2cx(u)
            seq = synthesize_two_cnot(k)
            assert seq.cnot_count <= 2
            self.assert_reconstructs(seq, k, tol=gatesynth.RECON_TOL)

    def test_generic_complex_input_rejected(self, rng):
        with pytest.raises(ValueError):
            synthesize_two_cnot(haar_unitary(4, rng))


class TestSynthesizeGeneric:
    def test_swap_needs_three(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        seq = synthesize_generic(swap)
        assert seq.cnot_count == 3
        TestSynthesizeTwoCnot.assert_reconstructs(seq, swap)

    def test_identity_needs_zero(self):
        assert synthesize_generic(np.eye(4)).cnot_count == 0

    def test_tensor_product_needs_zero(self, rng):
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        seq = synthesize_generic(u)
        assert seq.cnot_count == 0
        TestSynthesizeTwoCnot.assert_reconstructs(seq, u)

    def test_fuzz_random_unitaries(self, rng):
        for _ in range(200):
            u = haar_unitary(4, rng)
            seq = synthesize_generic(u)
            assert seq.cnot_count == 3
            assert seq.single_qubit_count() <= 8
            TestSynthesizeTwoCnot.assert_reconstructs(seq, u)

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 4e-7, 1e-8, 1e-9])
    def test_near_local_gates_need_three(self, eps):
        rng = np.random.default_rng(99)
        xx = np.kron(X, X)
        core = np.cos(eps) * np.eye(4) + 1j * np.sin(eps) * xx  # expm(i eps XX)
        for _ in range(20):
            a, b, c, d = (haar_unitary(2, rng) for _ in range(4))
            u = np.kron(a, b) @ core @ np.kron(c, d)
            seq = synthesize_generic(u)
            assert seq.cnot_count == 3
            TestSynthesizeTwoCnot.assert_reconstructs(seq, u, tol=gatesynth.RECON_TOL)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            synthesize_generic(np.ones((4, 4)))


class TestCountGates:
    def build_generic_chain_circuit(self, rng, gates=5):
        ops = [
            TwoQubitGate(i, i + 1, haar_unitary(4, rng)) for i in range(gates)
        ]
        return Circuit(n=gates + 1, gates=ops, u_depth=gates)

    def test_generic3_counts_three_per_gate(self, rng):
        circ = self.build_generic_chain_circuit(rng)
        cnots, singles, depth = count_gates(circ, SynthMode.GENERIC3)
        assert cnots == 15
        assert depth == 5

    def test_optimized2_counts_two_per_gate(self, rng):
        u = haar_unitary(4, rng)
        ops = [TwoQubitGate(i, i + 1, build_u2cx(haar_unitary(4, rng))) for i in range(5)]
        circ = Circuit(n=6, gates=ops, u_depth=5)
        cnots, _, _ = count_gates(circ, SynthMode.OPTIMIZED2)
        assert cnots == 10

    def test_empty_circuit(self):
        assert count_gates(Circuit(n=2, gates=[], u_depth=0), SynthMode.GENERIC3) == (0, 0, 0)

    def test_single_qubit_gates_counted(self, rng):
        circ = Circuit(n=2, gates=[OneQubitGate(0, haar_unitary(2, rng))], u_depth=0)
        cnots, singles, _ = count_gates(circ, SynthMode.GENERIC3)
        assert (cnots, singles) == (0, 1)


class TestSynthesizeCircuit:
    def test_primitive_circuit_reproduces_action(self, rng):
        n = 4
        ops = []
        for _ in range(4):
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            ops.append(TwoQubitGate(a, b, haar_unitary(4, rng)))
        circ = Circuit(n=n, gates=ops, u_depth=4)
        prim, _ = synthesize_circuit(circ, SynthMode.GENERIC3)
        s1 = simulate(circ)
        s2 = simulate(prim)
        assert statevec.infidelity(s1, s2) < 1e-10
        for g in prim.gates:
            if isinstance(g, TwoQubitGate):
                assert np.abs(g.matrix - gatesynth.CNOT).max() < 1e-12

    def test_generic_counts_come_with_either_mode(self, rng):
        # two class representatives around a pass-through single-qubit gate
        ops = [
            TwoQubitGate(0, 1, build_u2cx(haar_unitary(4, rng))),
            OneQubitGate(2, haar_unitary(2, rng)),
            TwoQubitGate(1, 2, build_u2cx(haar_unitary(4, rng))),
        ]
        circ = Circuit(n=3, gates=ops, u_depth=2)
        prim, counts = synthesize_circuit(circ, SynthMode.OPTIMIZED2)
        generic, generic_counts = synthesize_circuit(circ, SynthMode.GENERIC3)
        assert prim.two_qubit_count() == 4 and generic.two_qubit_count() == 6
        assert counts == generic_counts == (6, generic.one_qubit_count())
        assert statevec.infidelity(simulate(prim), simulate(generic)) < 1e-10

    def test_gate_sequences_per_mode(self, rng):
        u = build_u2cx(haar_unitary(4, rng))
        emitted, generic = gatesynth.synthesize_gate(u, SynthMode.OPTIMIZED2)
        assert (emitted.cnot_count, generic.cnot_count) == (2, 3)
        emitted, generic = gatesynth.synthesize_gate(u, SynthMode.GENERIC3)
        assert emitted is generic and generic.cnot_count == 3
