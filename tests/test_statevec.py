import functools
import itertools

import numpy as np
import pytest

from impsprep import statevec
from impsprep.circuits import kron2
from impsprep.statevec import TwoQubitGate

from conftest import (
    dense_two_qubit_operator,
    extract_block_bitloop,
    haar_unitary,
    random_state,
)


class TestFromAmplitudes:
    def test_single_qubit_passthrough(self):
        s = statevec.from_amplitudes([1, 0])
        assert s.n == 1
        assert np.allclose(s.amps, [1, 0])

    def test_uniform_normalization(self):
        s = statevec.from_amplitudes([1, 1, 1, 1])
        assert np.allclose(s.amps, [0.5, 0.5, 0.5, 0.5])

    def test_three_four_norm(self):
        # norm of [3, 4i] is 5 by hand
        s = statevec.from_amplitudes([3, 4j])
        assert np.allclose(s.amps, [0.6, 0.8j])

    @pytest.mark.parametrize("bad", [[], [1.0], [1, 2, 3], list(range(6))])
    def test_non_power_of_two_rejected(self, bad):
        with pytest.raises(ValueError):
            statevec.from_amplitudes(bad)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            statevec.from_amplitudes([0, 0, 0, 0])

    def test_qubit_cap(self, monkeypatch):
        monkeypatch.setenv("IMPS_MAX_QUBITS", "3")
        with pytest.raises(ValueError):
            statevec.from_amplitudes(np.ones(16))
        statevec.from_amplitudes(np.ones(8))

    def test_norm_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            s = random_state(n, rng)
            assert abs(s.norm() - 1.0) < 1e-12


class _NoDraws:
    def normal(self, size=None):
        raise AssertionError("sampled before the qubit count was checked")


class TestRandomState:
    @pytest.mark.parametrize("n,message", [
        (5, "5 qubits exceeds cap of 4"), (0, "at least one qubit"), (-1, "at least one qubit"),
    ])
    def test_qubit_count_checked_before_any_draw(self, monkeypatch, n, message):
        monkeypatch.setenv("IMPS_MAX_QUBITS", "4")
        with pytest.raises(ValueError, match=message):
            statevec.random_state(n, _NoDraws())

    def test_real_parts_then_imaginary_parts(self):
        s = statevec.random_state(3, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        re = rng.normal(size=8)
        z = re + 1j * rng.normal(size=8)
        assert np.array_equal(s.amps, z / np.linalg.norm(z))


class TestExtractBlock:
    def test_paper_worked_example(self, rng):
        # four qubits, pair (1, 3): row (1, 0) must hold the amplitudes with
        # bit patterns 0100, 0110, 1100, 1110 in that order
        s = random_state(4, rng)
        blk = statevec.extract_block(s, 1, 3)
        c = s.amps
        expected = [c[0b0100], c[0b0110], c[0b1100], c[0b1110]]
        assert np.allclose(blk.rows[2], expected)

    def test_two_qubit_identity_permutation(self, rng):
        s = random_state(2, rng)
        blk = statevec.extract_block(s, 0, 1)
        assert np.allclose(blk.rows[:, 0], s.amps)

    def test_basis_state_lands_in_correct_slot(self):
        # |101>: qubit2 bit = 1, qubit0 bit = 1, remaining qubit1 bit = 0,
        # so row (1,1) holds [1, 0] (enumeration oracle cross-checks)
        s = statevec.basis_state(3, 5)
        blk = statevec.extract_block(s, 2, 0)
        oracle = extract_block_bitloop(s.amps, 3, 2, 0)
        assert np.array_equal(blk.rows, oracle)
        assert np.allclose(blk.rows[3], [1, 0])
        zeroed = blk.rows.copy()
        zeroed[3] = 0
        assert np.abs(zeroed).max() == 0

    def test_matches_bitloop_oracle_exhaustively(self, rng):
        for n in range(2, 6):
            s = random_state(n, rng)
            for a, b in itertools.permutations(range(n), 2):
                blk = statevec.extract_block(s, a, b)
                assert np.array_equal(blk.rows, extract_block_bitloop(s.amps, n, a, b))

    def test_fixed_qubits_select_the_oracle_columns(self, rng):
        n = 6
        s = random_state(n, rng)
        for a, b in itertools.permutations(range(n), 2):
            rest = [q for q in range(n) if q not in (a, b)]
            fixed = set(rest[::2])
            keep = [c for c in range(1 << (n - 2))
                    if not any(c >> (n - 3 - i) & 1 for i, q in enumerate(rest) if q in fixed)]
            rows = statevec.extract_block(s, a, b, fixed).rows
            assert np.array_equal(rows, extract_block_bitloop(s.amps, n, a, b)[:, keep])
        with pytest.raises(ValueError, match="overlaps"):
            statevec.extract_block(s, 0, 1, {1})

    def test_rows_frozen_contiguous_and_not_aliasing_state(self, rng):
        s = random_state(4, rng)
        for a, b in itertools.permutations(range(4), 2):
            rows = statevec.extract_block(s, a, b).rows
            assert not rows.flags.writeable and rows.flags.c_contiguous
            assert not np.shares_memory(rows, s.amps)

    def test_roundtrip_exact(self, rng):
        for n in range(2, 7):
            s = random_state(n, rng)
            for a, b in itertools.permutations(range(n), 2):
                back = statevec.inverse_extract(statevec.extract_block(s, a, b))
                assert np.array_equal(back.amps, s.amps)

    def test_row_swap_relation(self, rng):
        s = random_state(5, rng)
        for a, b in itertools.permutations(range(5), 2):
            ab = statevec.extract_block(s, a, b)
            ba = statevec.extract_block(s, b, a)
            assert np.array_equal(ba.rows, ab.rows[[0, 2, 1, 3]])

    def test_identical_indices_rejected(self, rng):
        s = random_state(3, rng)
        with pytest.raises(ValueError):
            statevec.extract_block(s, 1, 1)
        with pytest.raises(ValueError):
            statevec.extract_block(s, 0, 3)


class TestBasisState:
    def test_single_amplitude(self):
        s = statevec.basis_state(3, 5)
        assert s.amps[5] == 1.0 and np.count_nonzero(s.amps) == 1
        assert not s.amps.flags.writeable

    @pytest.mark.parametrize("n,k", [(3, -1), (3, 8), (0, 0), (-1, 0)])
    def test_invalid_rejected(self, n, k):
        with pytest.raises(ValueError):
            statevec.basis_state(n, k)


class TestApplyTwoQubit:
    def test_identity_is_noop(self, rng):
        s = random_state(4, rng)
        out = statevec.apply_two_qubit(s, TwoQubitGate(1, 3, np.eye(4)))
        assert np.allclose(out.amps, s.amps, atol=1e-15)

    def test_cnot_on_basis_state(self):
        cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        s = statevec.basis_state(2, 0b10)
        out = statevec.apply_two_qubit(s, TwoQubitGate(0, 1, cx))
        assert np.allclose(out.amps, statevec.basis_state(2, 0b11).amps)

    def test_matches_dense_operator_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            s = random_state(n, rng)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            u = haar_unitary(4, rng)
            out = statevec.apply_two_qubit(s, TwoQubitGate(a, b, u))
            dense = dense_two_qubit_operator(u, n, a, b)
            assert np.allclose(out.amps, dense @ s.amps, atol=1e-12)

    def test_dense_oracle_on_every_ordered_pair(self, rng):
        s = random_state(4, rng)
        for a, b in itertools.permutations(range(4), 2):
            u = haar_unitary(4, rng)
            out = statevec.apply_two_qubit(s, TwoQubitGate(a, b, u))
            assert np.allclose(out.amps, dense_two_qubit_operator(u, 4, a, b) @ s.amps, atol=1e-12)

    def test_input_untouched_and_output_frozen(self, rng):
        s = random_state(4, rng)
        before = s.amps.copy()
        out = statevec.apply_two_qubit(s, TwoQubitGate(0, 1, haar_unitary(4, rng)))
        assert np.array_equal(s.amps, before)
        assert not out.amps.flags.writeable

    def test_out_of_range_pair_rejected(self, rng):
        s = random_state(3, rng)
        for a, b in ((0, 3), (-1, 1), (2, 2)):
            with pytest.raises(ValueError):
                statevec.apply_two_qubit(s, TwoQubitGate(a, b, np.eye(4)))

    def test_unitary_roundtrip_and_norm(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            s = random_state(n, rng)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            u = haar_unitary(4, rng)
            fwd = statevec.apply_two_qubit(s, TwoQubitGate(a, b, u))
            assert abs(fwd.norm() - 1.0) < 1e-12
            back = statevec.apply_two_qubit(fwd, TwoQubitGate(a, b, u.conj().T))
            assert np.abs(back.amps - s.amps).max() < 1e-12

    def test_non_unitary_rejected(self, rng):
        s = random_state(3, rng)
        with pytest.raises(ValueError):
            statevec.apply_two_qubit(s, TwoQubitGate(0, 1, np.eye(4) * 1.01))


def dense_single_qubit_operator(m, n, wire):
    """Reference 2^n x 2^n operator: ``m`` on ``wire`` in a Kronecker chain."""
    return functools.reduce(np.kron, [m if q == wire else np.eye(2) for q in range(n)])


class TestApplySingleQubit:
    def test_matches_dense_operator_oracle_on_every_wire(self, rng):
        for n in range(1, 6):
            s = random_state(n, rng)
            for wire in range(n):
                m = haar_unitary(2, rng)
                out = statevec.apply_single_qubit(s, wire, m)
                assert np.allclose(out.amps, dense_single_qubit_operator(m, n, wire) @ s.amps, atol=1e-12)
                assert not out.amps.flags.writeable

    def test_out_of_range_wire_rejected(self, rng):
        s = random_state(3, rng)
        for wire in (-1, 3):
            with pytest.raises(ValueError):
                statevec.apply_single_qubit(s, wire, np.eye(2))

    def test_non_unitary_rejected(self, rng):
        s = random_state(3, rng)
        with pytest.raises(ValueError):
            statevec.apply_single_qubit(s, 1, np.eye(2) * 1.01)


def fresh_array_gate(amps, n, wires, matrix):
    """The kernel's arithmetic on fresh arrays: gather, ``@``, scatter."""
    front = tuple(range(len(wires)))
    t = np.moveaxis(amps.reshape([2] * n), wires, front).reshape(1 << len(wires), -1)
    return np.moveaxis((matrix @ t).reshape([2] * n), front, wires).reshape(-1)


class TestGateKernel:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_in_place_equals_fresh_array_reference(self, rng, n):
        amps = random_state(n, rng).amps.copy()
        work = statevec._work_buffers(n)
        for wires in [*itertools.permutations(range(n), 2), *((w,) for w in range(n))]:
            matrix = haar_unitary(1 << len(wires), rng)
            expected = fresh_array_gate(amps, n, wires, matrix)
            statevec._apply_gate_to_amps(amps, n, wires, matrix, *work)
            assert np.array_equal(amps, expected), wires

    @pytest.mark.parametrize("n", range(4, 8))
    def test_four_wire_pass_equals_two_pair_passes(self, rng, n):
        # the Kronecker product of two pairs' gates in one pass
        work = statevec._work_buffers(n)
        for _ in range(6):
            wires = tuple(int(q) for q in rng.permutation(n)[:4])
            first, second = haar_unitary(4, rng), haar_unitary(4, rng)
            amps = random_state(n, rng).amps.copy()
            expected = fresh_array_gate(fresh_array_gate(amps, n, wires[:2], first), n, wires[2:], second)
            statevec._apply_gate_to_amps(amps, n, wires, kron2(first, second), *work)
            assert np.abs(amps - expected).max() < 1e-13, wires

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_chunked_pass_equals_fresh_array_reference(self, rng, monkeypatch, k):
        # 16 chunks of 2^6 amplitudes: each chunk's product is the same
        # arithmetic as the whole state's, bit for bit
        monkeypatch.setattr(statevec, "CHUNK", 1 << 6)
        n = 10
        amps = random_state(n, rng).amps.copy()
        work = statevec._work_buffers(n)
        assert all(len(buffer) == 1 << 6 for buffer in work)
        for _ in range(12):
            wires = tuple(int(q) for q in rng.permutation(n)[:k])
            matrix = haar_unitary(1 << k, rng)
            expected = fresh_array_gate(amps, n, wires, matrix)
            statevec._apply_gate_to_amps(amps, n, wires, matrix, *work)
            assert np.array_equal(amps, expected), wires

    @pytest.mark.parametrize("chunk,per", [(statevec.CHUNK, 5), (1 << 7, 2), (1 << 6, 1), (1 << 5, 1)],
                             ids=["stack-per-chunk", "two-per-chunk", "one-per-chunk", "chunks-per-sample"])
    def test_stack_pass_equals_each_sample_alone(self, rng, monkeypatch, chunk, per):
        # five n=6 samples, one matrix each: every sample's amplitudes are
        # bit for bit those of its pass alone, however many samples a chunk
        # holds; a function in place of the matrices sees each chunk's
        # samples
        monkeypatch.setattr(statevec, "CHUNK", chunk)
        n, count = 6, 5
        amps = np.array([random_state(n, rng).amps for _ in range(count)])
        work = statevec._work_buffers(n, count)
        assert all(len(buffer) == min(count << n, chunk) for buffer in work)
        for k in (1, 2, 4):
            wires = tuple(int(q) for q in rng.permutation(n)[:k])
            matrices = np.array([haar_unitary(1 << k, rng) for _ in range(count)])
            expected = amps.copy()
            for a, m in zip(expected, matrices):
                statevec._apply_gate_to_amps(a, n, wires, m, *statevec._work_buffers(n))
            seen = []

            def factor(chunks):
                seen.extend(samples for samples, _bits, _gather in chunks)
                return matrices

            statevec._apply_gate_to_amps(amps, n, wires, factor, *work)
            assert all(np.array_equal(a, e) for a, e in zip(amps, expected)), wires
            assert [list(samples) for samples in dict.fromkeys(seen)] == [
                list(range(lo, min(lo + per, count))) for lo in range(0, count, per)]

    @pytest.mark.parametrize("chunk,lead", [(statevec.CHUNK, 0), (1 << 6, 2)], ids=["one", "four"])
    def test_matrix_from_the_gathered_block(self, rng, monkeypatch, chunk, lead):
        # a function in place of the matrix sees every chunk's gathered
        # block, wires in front, with the ``lead`` most significant other
        # qubits at ``bits`` (the whole block for one chunk), as the block
        # of the one sample of a one-state stack, and returns the matrix to
        # apply; one that gathers only some chunks, or none, gets the same
        # pass
        monkeypatch.setattr(statevec, "CHUNK", chunk)
        n, wires = 8, (5, 1)
        matrix = haar_unitary(4, rng)
        for keep in (lambda bits: True, lambda bits: bits[-1:] != (1,), lambda bits: False):
            amps = random_state(n, rng).amps.copy()
            seen = []

            def factor(chunks):
                for samples, bits, gather in chunks:
                    assert samples == range(1)
                    if keep(bits):
                        seen.append((bits, gather()[0].copy()))
                return matrix

            expected = fresh_array_gate(amps, n, wires, matrix)
            whole = np.moveaxis(amps.reshape([2] * n), wires, (0, 1)).reshape([4] + [2] * lead + [-1])
            statevec._apply_gate_to_amps(amps, n, wires, factor, *statevec._work_buffers(n))
            assert [bits for bits, _block in seen] == [b for b in np.ndindex(*[2] * lead) if keep(b)]
            for bits, block in seen:
                assert np.array_equal(block, whole[(slice(None), *bits)]), bits
            assert np.array_equal(amps, expected)


class TestInfidelity:
    def test_self_is_zero(self, rng):
        s = random_state(4, rng)
        assert statevec.infidelity(s, s) == 0.0

    def test_global_phase_invariance(self, rng):
        s = random_state(4, rng)
        t = statevec.from_amplitudes(s.amps * np.exp(1.7j))
        assert statevec.infidelity(s, t) < 1e-15

    def test_zero_vs_plus(self):
        zero = statevec.basis_state(1, 0)
        plus = statevec.from_amplitudes([1, 1])
        assert abs(statevec.infidelity(zero, plus) - 0.5) < 1e-12

    def test_symmetry(self, rng):
        a, b = random_state(3, rng), random_state(3, rng)
        assert abs(statevec.infidelity(a, b) - statevec.infidelity(b, a)) < 1e-15

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            statevec.infidelity(random_state(2, rng), random_state(3, rng))


class TestAmplitudeFiles:
    def test_roundtrip(self, tmp_path, rng):
        s = random_state(5, rng)
        path = tmp_path / "state.amps"
        statevec.save_amplitudes(s, path)
        loaded = statevec.load_amplitudes(path)
        assert loaded.n == 5
        assert np.abs(loaded.amps - s.amps).max() < 1e-15

    def test_format_is_re_im_per_line(self, tmp_path):
        path = tmp_path / "state.amps"
        path.write_text("0.6 0\n0 0.8\n")
        s = statevec.load_amplitudes(path)
        assert np.allclose(s.amps, [0.6, 0.8j])

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.amps"
        path.write_text("1 0\n0,5 0\n")
        with pytest.raises(ValueError):
            statevec.load_amplitudes(path)

    def test_parse_is_bit_identical_to_float_loop(self, tmp_path, rng):
        path = tmp_path / "state.amps"
        statevec.save_amplitudes(random_state(10, rng), path)
        with open(path, "a", encoding="ascii") as fh:  # signed zeros, subnormals, odd spacing
            fh.write("\n-0 0\n0 -0\n  1e-320\t-4.9e-324 \n")
            fh.writelines(f"{x:.17g} {y:.17g}\n" for x, y in rng.normal(size=(1024 - 3, 2)))
        loop = []
        for line in path.read_text().splitlines():
            if line.strip():
                re_, im_ = line.split()
                loop.append(complex(float(re_), float(im_)))
        expected = statevec.from_amplitudes(loop).amps
        assert statevec.load_amplitudes(path).amps.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("body", ["1 0 3\n0 1 2\n", "1\n0\n", "1 0\n0 1 2\n", "", "\n\n"])
    def test_anything_but_two_columns_names_the_path(self, tmp_path, body):
        path = tmp_path / "bad.amps"
        path.write_text(body)
        with pytest.raises(ValueError, match="bad.amps"):
            statevec.load_amplitudes(path)
