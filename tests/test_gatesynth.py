import re

import numpy as np
import pytest

from impsprep import disentangler, gatesynth, schedules, statevec, targets
from impsprep.disentangler import default_truncation_mode, disentangle_step, run_schedule
from impsprep.gatesynth import (
    GAMMA,
    MAGIC,
    SynthMode,
    _general_magic_kak,
    build_u2cx,
    count_gates,
    synthesize_circuit,
    synthesize_gate,
)
from impsprep.circuits import Circuit, OneQubitGate, TwoQubitGate, simulate

from conftest import haar_unitary, random_real_state, random_state, sequence_matrix

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


class TestBuildU2cx:
    @staticmethod
    def assert_representative(u, tol=1e-9):
        """K = build_u2cx(u) is a Hermitian involution, D = K u^dag is
        block-diagonal, and the eigenvalues of K's top-left 2x2 are u's CSD
        cosines, the singular values of u's top-left 2x2. Returns K."""
        k = build_u2cx(u)
        assert np.abs(k - k.conj().T).max() < tol
        assert np.abs(k @ k - np.eye(4)).max() < tol
        d = k @ u.conj().T
        assert max(np.abs(d[:2, 2:]).max(), np.abs(d[2:, :2]).max()) < tol
        cosines = np.linalg.svd(u[:2, :2], compute_uv=False)
        assert np.abs(np.linalg.eigvalsh(k[:2, :2])[::-1] - cosines).max() < tol
        return k

    def test_identity_gives_class_member(self):
        g = self.assert_representative(np.eye(4))
        eig = np.sort(np.linalg.eigvals(g).real)
        assert np.allclose(eig, [-1, -1, 1, 1], atol=1e-9)

    def test_block_diagonal_input(self, rng):
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        z = np.zeros((2, 2))
        self.assert_representative(np.block([[u1, z], [z, u2]]))

    def test_random_inputs(self, rng):
        for _ in range(50):
            self.assert_representative(haar_unitary(4, rng))

    def test_agrees_with_naive_construction_when_well_conditioned(self, rng):
        checked = 0
        while checked < 20:
            u = haar_unitary(4, rng)
            ap, bp, a, b, c, s = naive_csd_oracle(u)
            if s.min() < 0.1 or c.max() > 0.99:
                continue  # oracle divides by s; skip its weak spots
            assert np.abs(assemble(ap, bp, a, b, c, s) - u).max() < 1e-8
            k = self.assert_representative(u)
            assert np.allclose(np.linalg.eigvalsh(k[:2, :2]), np.sort(c), atol=1e-9)
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
        self.assert_representative(u)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="CSD input is not unitary"):
            build_u2cx(np.eye(4) * 1.5)

    def test_preserves_retained_weight_on_disentangling_instances(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            state = random_state(n, rng)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            step = disentangle_step(state, a, b)
            rewritten = build_u2cx(step.unitary)
            rows = disentangler.extract_block(state, a, b)
            kept = np.linalg.norm((rewritten @ rows)[:2]) ** 2
            assert abs(kept - step.retained_weight) < 1e-10

    def test_real_orthogonal_input_gives_real_output(self, rng):
        state = random_real_state(4, rng)
        step = disentangle_step(state, 1, 3)
        g = build_u2cx(step.unitary)
        assert np.abs(g.imag).max() < 1e-9


# CSD angle pairs at and near the cases where a cosine or a sine vanishes,
# or two of them meet
CSD_ANGLES = [(0.0, 0.0), (np.pi / 2, np.pi / 2), (0.0, np.pi / 2), (1e-9, np.pi / 2 - 1e-9),
              (0.3, 0.3), (1e-8, 0.9), (1e-8, 2e-6)]


def csd_inputs(rng, haar=2000, per_angles=20):
    """Haar unitaries, then each pair of CSD_ANGLES between random
    block-diagonal factors: a stack large enough that numpy's elementwise
    loops take it in several passes, where an array complex product
    rounds some matrices otherwise than alone."""
    z = np.zeros((2, 2))
    out = [haar_unitary(4, rng) for _ in range(haar)]
    for angles in CSD_ANGLES:
        c, s = np.diag(np.cos(angles)), np.diag(np.sin(angles))
        mid = np.block([[c, -s], [s, c]])
        for _ in range(per_angles):
            l1, l2, r1, r2 = (haar_unitary(2, rng) for _ in range(4))
            out.append(np.block([[l1, z], [z, l2]]) @ mid @ np.block([[r1, z], [z, r2]]))
    return np.array(out)


class TestCsdAgainstCossin:
    """``_csd`` and ``build_u2cx`` against scipy's LAPACK ``cossin``."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return csd_inputs(np.random.default_rng(77))

    def test_factors_reassemble_in_order(self, inputs):
        q, cosines, sines, v1h, v2h = gatesynth._csd(inputs)
        z = np.zeros_like(q[:, 0])
        middle = np.array([np.block([[np.diag(c), -np.diag(s)], [np.diag(s), np.diag(c)]])
                           for c, s in zip(cosines, sines)])
        rebuilt = np.block([[q[:, 0], z], [z, q[:, 1]]]) @ middle @ np.block([[v1h, z], [z, v2h]])
        assert np.abs(rebuilt - inputs).max() < 1e-12
        assert (cosines[:, 0] >= cosines[:, 1] - 1e-14).all()
        assert (sines[:, 0] <= sines[:, 1] + 1e-14).all()

    def test_representative_matches_cossin(self, inputs):
        from scipy.linalg import cossin

        k = build_u2cx(inputs)
        assert np.abs(k - k.conj().mT).max() < 1e-12
        assert np.abs(k @ k - np.eye(4)).max() < 1e-12
        d = k @ inputs.conj().mT
        assert max(np.abs(d[:, :2, 2:]).max(), np.abs(d[:, 2:, :2]).max()) < 1e-12
        z = np.zeros((2, 2))
        checked = 0
        for u, got in zip(inputs, k):
            (_, _), theta, (v1h, v2h) = cossin(u, p=2, q=2, separate=True)
            if np.cos(theta).min() <= 1e-6:
                continue  # a vanishing cosine leaves the class member free
            c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
            right = np.block([[v1h, z], [z, -v2h]])
            want = right.conj().T @ np.block([[c, s], [s, -c]]) @ right
            assert np.abs(got - want).max() < 1e-12
            checked += 1
        assert checked >= 2000 + 4 * 20

    def test_stack_gives_each_matrix_its_bits_alone(self, inputs):
        stacked = build_u2cx(inputs)
        for u, got in zip(inputs, stacked):
            assert got.tobytes() == build_u2cx(u).tobytes()


class TestGeneralMagicKak:
    def test_fuzz_class_members(self, rng):
        for _ in range(100):
            k = random_class_member(rng)
            p, theta, q, _ = _general_magic_kak(k)
            rebuilt = MAGIC @ p @ np.diag(np.exp(1j * theta)) @ q.T @ MAGIC.conj().T
            tr = np.trace(rebuilt.conj().T @ k) / 4.0
            assert np.abs(rebuilt * (tr / abs(tr)) - k).max() < 1e-9
            # negation closure as a multiset mod 2 pi
            fwd = np.sort(np.angle(np.exp(1j * theta)))
            bwd = np.sort(np.angle(np.exp(-1j * theta)))
            assert np.abs(np.exp(1j * fwd) - np.exp(1j * bwd)).max() < 1e-9
            # omega pattern: w0 = 0 and at least one of w1..w3 = 0 (mod pi)
            def mod_pi(v):
                return min(abs(np.angle(np.exp(1j * v))), abs(np.angle(np.exp(1j * (v + np.pi)))))
            omega = GAMMA.T @ theta / 4.0
            assert mod_pi(omega[0]) < 1e-9
            assert min(mod_pi(w) for w in omega[1:]) < 1e-9
            assert abs(np.linalg.det(p) - 1.0) < 1e-10
            assert abs(np.linalg.det(q) - 1.0) < 1e-10

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


class TestSynthesizeTwoCnot:
    @staticmethod
    def assert_reconstructs(seq, target, tol=1e-9):
        rebuilt = sequence_matrix(seq)
        tr = np.trace(rebuilt.conj().T @ target) / 4.0
        assert abs(tr) > 1e-6
        assert np.abs(rebuilt * (tr / abs(tr)) - target).max() < tol

    def test_z_tensor_i_is_one_single_qubit_z(self):
        seq = synthesize_gate(ZI, SynthMode.OPTIMIZED2)[0]
        assert seq.cnot_count == 0
        assert seq.single_qubit_count == 1
        gate = seq.on((0, 1))[0]
        assert gate.wire == 0
        phase = gate.matrix[0, 0]
        assert np.abs(gate.matrix - phase * Z).max() < 1e-9
        self.assert_reconstructs(seq, ZI)

    def test_x_tensor_i(self):
        k = np.kron(X, I2)
        seq = synthesize_gate(k, SynthMode.OPTIMIZED2)[0]
        assert seq.cnot_count == 0
        self.assert_reconstructs(seq, k)

    def test_deterministic(self, rng):
        k = random_class_member(rng)
        a, b = synthesize_gate(k, SynthMode.OPTIMIZED2)[0], synthesize_gate(k, SynthMode.OPTIMIZED2)[0]
        assert len(a.on((0, 1))) == len(b.on((0, 1)))
        assert all(np.array_equal(g.matrix, h.matrix) for g, h in zip(a.on((0, 1)), b.on((0, 1))))
        assert np.array_equal(sequence_matrix(a), sequence_matrix(b))

    def test_single_pauli_string_exponential(self):
        from scipy.linalg import expm

        k = expm(1j * 0.37 * np.kron(Z, Z))
        seq = synthesize_gate(k, SynthMode.OPTIMIZED2)[0]
        assert 1 <= seq.cnot_count <= 2
        self.assert_reconstructs(seq, k)

    def test_fuzz_class_members(self, rng):
        for _ in range(1000):
            k = random_class_member(rng)
            seq = synthesize_gate(k, SynthMode.OPTIMIZED2)[0]
            assert seq.cnot_count <= 2
            assert seq.single_qubit_count <= 8
            self.assert_reconstructs(seq, k)

    def test_u2cx_of_disentangling_steps(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            state = random_state(n, rng)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            step = disentangle_step(state, a, b)
            seq = synthesize_gate(build_u2cx(step.unitary), SynthMode.OPTIMIZED2)[0]
            assert seq.cnot_count == 2  # generic instances saturate the bound
            self.assert_reconstructs(seq, build_u2cx(step.unitary))

    def test_real_special_orthogonal_without_rewrite(self, rng):
        # SVD factors of real amplitudes synthesize directly
        for _ in range(25):
            n = int(rng.integers(2, 6))
            state = random_real_state(n, rng)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            step = disentangle_step(state, a, b)
            seq = synthesize_gate(step.unitary, SynthMode.OPTIMIZED2)[0]
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
            seq = synthesize_gate(k, SynthMode.OPTIMIZED2)[0]
            assert seq.cnot_count <= 2
            self.assert_reconstructs(seq, k, tol=gatesynth.RECON_TOL)

    def test_generic_complex_input_rejected(self, rng):
        with pytest.raises(ValueError):
            synthesize_gate(haar_unitary(4, rng), SynthMode.OPTIMIZED2)[0]


class TestSynthesizeGeneric:
    def test_swap_needs_three(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        seq = synthesize_gate(swap, SynthMode.GENERIC3)[0]
        assert seq.cnot_count == 3
        TestSynthesizeTwoCnot.assert_reconstructs(seq, swap)

    def test_identity_needs_zero(self):
        assert synthesize_gate(np.eye(4), SynthMode.GENERIC3)[0].cnot_count == 0

    def test_tensor_product_needs_zero(self, rng):
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        seq = synthesize_gate(u, SynthMode.GENERIC3)[0]
        assert seq.cnot_count == 0
        TestSynthesizeTwoCnot.assert_reconstructs(seq, u)

    def test_fuzz_random_unitaries(self, rng):
        for _ in range(1000):
            u = haar_unitary(4, rng)
            seq = synthesize_gate(u, SynthMode.GENERIC3)[0]
            assert seq.cnot_count == 3
            assert seq.single_qubit_count <= 8
            TestSynthesizeTwoCnot.assert_reconstructs(seq, u)

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 4e-7, 1e-8, 1e-9])
    def test_near_local_gates_need_three(self, eps):
        rng = np.random.default_rng(99)
        xx = np.kron(X, X)
        core = np.cos(eps) * np.eye(4) + 1j * np.sin(eps) * xx  # expm(i eps XX)
        for _ in range(200):
            a, b, c, d = (haar_unitary(2, rng) for _ in range(4))
            u = np.kron(a, b) @ core @ np.kron(c, d)
            seq = synthesize_gate(u, SynthMode.GENERIC3)[0]
            assert seq.cnot_count == 3
            TestSynthesizeTwoCnot.assert_reconstructs(seq, u, tol=gatesynth.RECON_TOL)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            synthesize_gate(np.ones((4, 4)), SynthMode.GENERIC3)[0]


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


def same_sequence(a, b):
    """Gate types, wires and matrices equal bit for bit (signed zeros too,
    which move the u3 angles of an emitted gate by 2 pi)."""
    def key(g):
        wires = (g.wire,) if isinstance(g, OneQubitGate) else (g.a, g.b)
        return type(g), wires, g.matrix.shape, g.matrix.tobytes()

    return a.cnot_count == b.cnot_count and [key(g) for g in a.on((0, 1))] == [key(g) for g in b.on((0, 1))]


def assert_batch_independent(matrices, mode):
    """Each gate's sequences from the whole batch equal those from the gate
    alone and from the reversed batch."""
    whole = gatesynth.synthesize_gate(matrices, mode)
    reversed_batch = gatesynth.synthesize_gate(matrices[::-1], mode)[::-1]
    for k, (pair, back) in enumerate(zip(whole, reversed_batch)):
        alone = gatesynth.synthesize_gate(matrices[k], mode)
        for a, b, c in zip(pair, alone, back):
            assert same_sequence(a, b) and same_sequence(a, c), (mode, k)


def round_off_change(matrices, rng, eps=1e-13):
    """exp(i eps H) u for each u of the stack, with H a random Hermitian
    matrix scaled to a largest entry of 1."""
    h = rng.normal(size=matrices.shape) + 1j * rng.normal(size=matrices.shape)
    h += h.conj().mT
    h /= np.abs(h).max(axis=(-2, -1), keepdims=True)
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(1j * eps * w)[..., None] * v.conj().mT) @ matrices


def eigenvalue_gap(matrices):
    """The least distance between two eigenvalues of u u^T in the magic
    basis, the matrix whose eigenbasis the KAK takes, for each u."""
    m = MAGIC.conj().T @ matrices @ MAGIC
    lam = np.linalg.eigvals(m @ m.mT)
    i, j = np.triu_indices(4, 1)
    return np.abs(lam[:, i] - lam[:, j]).min(axis=-1)


def locals_moved(a, b):
    """How far the single-qubit gates of sequence b are from those of a, up
    to the global phase of each; infinite where the sequences differ in
    their gates' types or wires."""
    def layout(seq):
        return [(g.wire,) if isinstance(g, OneQubitGate) else (g.a, g.b) for g in seq.on((0, 1))]

    if layout(a) != layout(b):
        return np.inf
    moved = 0.0
    for x, y in zip(a.on((0, 1)), b.on((0, 1))):
        if isinstance(x, OneQubitGate):
            t = np.vdot(x.matrix, y.matrix)
            moved = max(moved, np.abs(x.matrix * (t / abs(t)) - y.matrix).max())
    return moved


@pytest.fixture(scope="module")
def function_grid():
    """The two-qubit gates of the 48 function-grid circuits at n=12 (f1-g3
    x 4 schemes x L = 1, 2) per synthesis mode: exact targets, whose gates
    hold exact zeros and exactly repeated eigenvalues."""
    n, gates = 12, {}
    for synth in (SynthMode.GENERIC3, SynthMode.OPTIMIZED2):
        matrices = []
        for name in ("f1", "f2", "f3", "g1", "g2", "g3"):
            target = targets.discretize(targets.make_spec(name, n))
            for scheme, build in schedules.SCHEMES.items():
                for layers in (1, 2):
                    res = run_schedule(target, build(n), layers, default_truncation_mode(scheme),
                                       rewrite_2cx=synth == SynthMode.OPTIMIZED2)
                    matrices += [g.matrix for g in res.circuit.gates if isinstance(g, TwoQubitGate)]
        gates[synth] = np.array(matrices)
    return gates


def special_orthogonal(rng):
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q[:, 0] *= np.linalg.det(q)
    return q


def with_spectrum(phi, rng):
    """A gate whose u u^T in the magic basis has the eigenvalues exp(i phi)
    in a random real eigenbasis."""
    w = special_orthogonal(rng) @ np.diag(np.exp(0.5j * np.array(phi))) @ special_orthogonal(rng)
    return MAGIC @ w @ MAGIC.conj().T


_PEAK = np.pi / 2 - np.arctan2(1 / np.pi, np.pi)  # where cos(phi) / pi + pi sin(phi) peaks
# Angles phi of the eigenvalues exp(i phi) of u u^T in the magic basis, each
# set summing to 0, and how far a 1e-13 change may move the locals. The ties
# of the imaginary part are eigenvalues 2 sin(eps) apart: the change moves
# their eigenvectors, and with them the locals, by up to about 1e-13 /
# (2 sin(eps)), which the bound allows ten times over.
SPECTRA = {
    "combination-tie": ([_PEAK - 0.6, _PEAK + 0.6, 0.7, -2 * _PEAK - 0.7], 1e-8),  # of Re/pi + pi Im
    "real-tie": ([1.1, -1.1, 0.4, -0.4], 1e-8),
    "imaginary-tie-5e-8": ([np.pi / 2 + 5e-8, np.pi / 2 - 5e-8, 0.6, -np.pi - 0.6], 1e-12 / (2 * 5e-8)),
    "imaginary-tie-2e-7": ([np.pi / 2 + 2e-7, np.pi / 2 - 2e-7, 0.6, -np.pi - 0.6], 1e-12 / (2 * 2e-7)),
    "double": ([0.5, 0.5, 1.3, -2.3], 1e-8),
    "quadruple": ([0.0, 0.0, 0.0, 0.0], 1e-8),
}
# Function-grid gates whose eigenvalues of u u^T are 1e-5 apart or more but
# whose locals the change of ``test_function_grid_locals_stay_under_round_off``
# moves, by mode and gate, with the reason. In g1's htn gates 773 and 813 a
# merged run 1.9e-13 from the identity moves to 4.0e-12 and 2.9e-12.
MERGED_IDENTITY = ("_merge_singles: a merged run about 1e-12 from the identity, up to phase, crosses "
                   "the 1e-12 identity test, and one single-qubit gate more or fewer is emitted")
ROUND_OFF_MOVERS = {
    SynthMode.GENERIC3: {773: MERGED_IDENTITY, 813: MERGED_IDENTITY},
    SynthMode.OPTIMIZED2: {},
}


class TestSynthesisBatch:
    @pytest.mark.parametrize("synth", [SynthMode.GENERIC3, SynthMode.OPTIMIZED2])
    def test_function_grid_gates_do_not_depend_on_their_batch(self, function_grid, synth):
        assert len(function_grid[synth]) == 1404
        assert_batch_independent(function_grid[synth], synth)

    @pytest.mark.parametrize("synth", [SynthMode.GENERIC3, SynthMode.OPTIMIZED2])
    def test_function_grid_locals_stay_under_round_off(self, function_grid, synth):
        # a 1e-13 change of each gate moves no emitted single-qubit gate by
        # more than 1e-8, up to global phase, where the eigenvalues of u u^T
        # are 1e-5 apart or more, except the listed threshold flips
        matrices = function_grid[synth]
        changed = round_off_change(matrices, np.random.default_rng(0))
        pairs = zip(gatesynth.synthesize_gate(matrices, synth), gatesynth.synthesize_gate(changed, synth))
        separated = eigenvalue_gap(matrices) >= 1e-5
        movers = {k for k, ((a, _), (b, _)) in enumerate(pairs) if separated[k] and locals_moved(a, b) > 1e-8}
        assert movers == set(ROUND_OFF_MOVERS[synth])

    def test_haar_gates_do_not_depend_on_their_batch(self, rng):
        assert_batch_independent(np.array([haar_unitary(4, rng) for _ in range(30)]), SynthMode.GENERIC3)
        members = np.array([build_u2cx(haar_unitary(4, rng)) for _ in range(30)])
        assert_batch_independent(members, SynthMode.OPTIMIZED2)

    def test_determinant_and_modulus_round_as_numpy_scalars(self, rng):
        # the single-gate code formed these from numpy scalars; numpy's array
        # complex product (a fused multiply-add) and modulus round otherwise
        m = np.array([haar_unitary(2, rng) for _ in range(60)])
        m[::3, 0, 1] = complex(-0.0, 0.0)
        m[1::3, 1, 0] = complex(0.0, -0.0)
        ref = np.array([x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0] for x in m])
        assert gatesynth._det2(m).tobytes() == ref.tobytes()
        z = m.reshape(-1)
        assert gatesynth._abs(z).tobytes() == np.array([abs(x) for x in z]).tobytes()

    @pytest.mark.parametrize("phi,bound", SPECTRA.values(), ids=SPECTRA.keys())
    def test_constructed_spectra(self, phi, bound):
        # the gate reconstructs, does not depend on its batch, and keeps its
        # locals under a 1e-13 change
        rng = np.random.default_rng(11)
        u = with_spectrum(phi, rng)
        seq = synthesize_gate(u, SynthMode.GENERIC3)[0]
        TestSynthesizeTwoCnot.assert_reconstructs(seq, u, tol=gatesynth.RECON_TOL)
        batch = np.array([haar_unitary(4, rng) for _ in range(5)])
        batch[3] = u
        assert_batch_independent(batch, SynthMode.GENERIC3)
        changed = round_off_change(u[None], rng)[0]
        assert locals_moved(seq, synthesize_gate(changed, SynthMode.GENERIC3)[0]) <= bound

    def test_spectra_across_the_tie_tolerances(self):
        # two eigenvalues of u u^T from 1e-16 to 1e-1 apart, across both tie
        # tolerances: an imaginary tie, real ties near 1 and near -1, a
        # double eigenvalue; the batch passes every check, reconstruction
        # included
        rng = np.random.default_rng(13)
        families = [lambda e: [np.pi / 2 + e, np.pi / 2 - e, 0.6, -np.pi - 0.6], lambda e: [e, -e, 0.5, -0.5],
                    lambda e: [np.pi + e, np.pi - e, 0.5, -2 * np.pi - 0.5], lambda e: [0.5 + e, 0.5 - e, 1.3, -2.3]]
        gates = np.array([with_spectrum(family(eps), rng) for family in families for eps in np.logspace(-16, -1, 61)])
        assert len(gatesynth.synthesize_gate(gates, SynthMode.GENERIC3)) == len(gates)


class TestSynthesisFailures:
    PAIRS = [(0, 1), (2, 3), (3, 1), (0, 2)]

    def circuit(self, rng, replaced):
        gates = [TwoQubitGate(a, b, build_u2cx(haar_unitary(4, rng))) for a, b in self.PAIRS]
        for k, matrix in replaced.items():
            gates[k] = TwoQubitGate(*self.PAIRS[k], matrix)
        return Circuit(n=4, gates=gates, u_depth=len(gates))

    def test_names_the_first_failing_gate_in_circuit_order(self, rng):
        # gate 3 fails an earlier check than gate 2, but gate 2 comes first
        circ = self.circuit(rng, {2: haar_unitary(4, rng), 3: 1.02 * haar_unitary(4, rng)})
        with pytest.raises(ValueError, match=re.escape(
                "gate 2 on (3, 1): input is not two-CNOT realizable (no vanishing Pauli-string coefficient)")):
            synthesize_circuit(circ, SynthMode.OPTIMIZED2)

    def test_non_unitary_gate_named_with_its_deviation(self, rng):
        circ = self.circuit(rng, {1: 1.02 * haar_unitary(4, rng), 2: haar_unitary(4, rng)})
        with pytest.raises(ValueError, match=r"^gate 1 on \(2, 3\): synthesis input is not unitary "
                                             r"\(deviation 4\.040e-02 > 1\.0e-10\)$"):
            synthesize_circuit(circ, SynthMode.OPTIMIZED2)

    def test_first_gate_in_the_batch_wins(self, rng):
        # gate 1 fails a later check (realizability) than gate 2 (unitarity)
        batch = np.array([build_u2cx(haar_unitary(4, rng)), haar_unitary(4, rng), 1.02 * haar_unitary(4, rng)])
        with pytest.raises(statevec.StackError) as exc:
            gatesynth.synthesize_gate(batch, SynthMode.OPTIMIZED2)
        assert str(exc.value) == ("input is not two-CNOT realizable (no vanishing Pauli-string coefficient); "
                                  "rewrite with build_u2cx or use 3cx mode")
        assert exc.value.index == 1
        with pytest.raises(statevec.StackError) as exc:
            gatesynth.synthesize_gate(batch[2:], SynthMode.OPTIMIZED2)
        assert str(exc.value) == "synthesis input is not unitary (deviation 4.040e-02 > 1.0e-10)"
        assert exc.value.index == 0


class TestSynthesisModes:
    @pytest.mark.parametrize("mode", ["2CX", "bogus", ""])
    def test_unknown_mode_rejected_by_every_entry(self, rng, mode):
        u = haar_unitary(4, rng)
        circ = Circuit(n=2, gates=[TwoQubitGate(0, 1, u)], u_depth=1)
        message = re.escape(f"unknown synthesis mode {mode!r}; known: '2cx', '3cx'")
        for call in (synthesize_gate, synthesize_circuit, count_gates):
            with pytest.raises(ValueError, match=message):
                call(u if call is synthesize_gate else circ, mode)


class TestCircuitBatch:
    """Several circuits in one ``synthesize_circuit`` batch."""

    @staticmethod
    def circuits(rewrite):
        n, rng = 8, np.random.default_rng(5)
        samples = [random_state(n, rng), targets.discretize(targets.make_spec("g1", n)), random_state(n, rng)]
        # a real target runs in a stack of its own kind
        return [run_schedule(t, schedules.htn_schedule(n), 2, rewrite_2cx=rewrite).circuit for t in samples]

    @staticmethod
    def key(circuit):
        return [(type(g), (g.wire,) if isinstance(g, OneQubitGate) else (g.a, g.b), g.matrix.tobytes())
                for g in circuit.gates]

    @pytest.mark.parametrize("mode", [SynthMode.OPTIMIZED2, SynthMode.GENERIC3])
    def test_batch_equals_each_circuit_alone(self, mode):
        circuits = self.circuits(mode == SynthMode.OPTIMIZED2)
        together = synthesize_circuit(circuits, mode)
        assert len(together) == len(circuits)
        for circuit, (primitive, counts) in zip(circuits, together):
            alone, alone_counts = synthesize_circuit(circuit, mode)
            assert self.key(primitive) == self.key(alone) and counts == alone_counts
        ((primitive, counts),) = synthesize_circuit(circuits[1:2], mode)
        assert self.key(primitive) == self.key(synthesize_circuit(circuits[1], mode)[0])

    def test_primitives_are_formed_on_their_gate_wires(self):
        # the emitted sequence of each gate, read on its own wires, is its
        # sequence on wires 0 and 1 relabeled
        (circuit,) = self.circuits(True)[:1]
        primitive, _ = synthesize_circuit(circuit, SynthMode.OPTIMIZED2)
        gates = [g for g in circuit.gates if isinstance(g, TwoQubitGate)]
        sequences = gatesynth.synthesize_gate(np.array([g.matrix for g in gates]), SynthMode.OPTIMIZED2)
        relabeled = []
        for g, (seq, _) in zip(gates, sequences):
            wires = (g.a, g.b)
            relabeled += [OneQubitGate(wires[p.wire], p.matrix) if isinstance(p, OneQubitGate)
                          else TwoQubitGate(wires[p.a], wires[p.b], p.matrix) for p in seq.on((0, 1))]
        singles = [g for g in circuit.gates if isinstance(g, OneQubitGate)]
        assert self.key(Circuit(n=8, gates=singles + relabeled)) == self.key(primitive)

    def test_failure_names_its_circuit(self, rng):
        circuits = self.circuits(True)
        g = circuits[1].gates[3]
        circuits[1].gates[3] = TwoQubitGate(g.a, g.b, haar_unitary(4, rng))
        with pytest.raises(statevec.StackError, match=re.escape(
                f"gate 3 on ({g.a}, {g.b}): input is not two-CNOT realizable")) as exc:
            synthesize_circuit(circuits, SynthMode.OPTIMIZED2)
        assert exc.value.index == 1
