import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from impsprep import circuits, disentangler, gatesynth, schedules, statevec, targets
from impsprep.circuits import simulate
from impsprep.disentangler import (
    TruncationMode,
    disentangle_step,
    run_schedule,
    truncate_and_renormalize,
)

from conftest import (
    apply_step,
    break_csd,
    dense_two_qubit_operator,
    haar_unitary,
    one_pair_per_pass_engine,
    random_real_state,
    random_state,
    two_state_layer_reference,
)


class TestDisentangleStep:
    def test_bell_state_fully_disentangles(self):
        bell = statevec.from_amplitudes([1, 0, 0, 1])
        step = disentangle_step(bell, 0, 1)
        post = apply_step(bell, step)
        assert abs(step.retained_weight - 1.0) < 1e-14
        # the 4x1 block [1,0,0,1]/sqrt(2) has the single singular value 1
        assert np.allclose(np.sort(step.singular_values)[::-1], [1, 0, 0, 0], atol=1e-14)
        assert abs(abs(post.amps[0]) - 1.0) < 1e-12

    def test_product_state_keeps_all_weight(self, rng):
        rest = random_state(3, rng)
        amps = np.concatenate([rest.amps, np.zeros(8)])  # qubit 0 already |0>
        s = statevec.from_amplitudes(amps)
        step = disentangle_step(s, 0, 1)
        post = apply_step(s, step)
        assert abs(step.retained_weight - 1.0) < 1e-12
        assert np.abs(post.amps[8:]).max() < 1e-12

    def test_uniform_state_rank_one_block(self):
        s = statevec.from_amplitudes(np.ones(8))
        step = disentangle_step(s, 0, 1)
        assert abs(step.retained_weight - 1.0) < 1e-14
        assert np.allclose(np.sort(step.singular_values)[::-1][1:], 0.0, atol=1e-14)

    def test_unitary_is_unitary_and_deterministic(self, rng):
        s = random_state(4, rng)
        step1 = disentangle_step(s, 2, 0)
        step2 = disentangle_step(s, 2, 0)
        assert np.array_equal(step1.unitary, step2.unitary)
        assert np.abs(step1.unitary @ step1.unitary.conj().T - np.eye(4)).max() < 1e-10
        assert abs(np.linalg.det(step1.unitary) - 1.0) < 1e-10

    def test_retained_is_top_two_mass(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            s = random_state(n, rng)
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            step = disentangle_step(s, a, b)
            post = apply_step(s, step)
            lam = np.sort(step.singular_values)[::-1]
            assert step.retained_weight >= lam[2] ** 2 + lam[3] ** 2 - 1e-12
            assert 0.0 <= step.retained_weight <= 1.0 + 1e-12
            # mass on the source qubit's |1> half equals 1 - retained
            bottom = np.linalg.norm(disentangler.extract_block(post, a, b)[2:]) ** 2
            assert abs(bottom - (1.0 - step.retained_weight)) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.nan)])
    def test_non_finite_block_names_its_pair(self, rng, bad):
        # the check reads the 4x4 Gram matrix, whose diagonal a non-finite
        # block entry makes non-finite; the engine hands in that Gram matrix
        amps = random_state(5, rng).amps.copy()
        amps[0b01101] = bad
        state = statevec.StateVector(n=5, amps=amps)
        with pytest.raises(ValueError, match=r"pair \(3, 1\) contains non-finite entries"):
            disentangle_step(state, 3, 1)
        # every amplitude is in every pair's block: the round's first pair
        with pytest.raises(ValueError, match=r"pair \(0, 1\) contains non-finite entries"):
            run_schedule(state, schedules.hen_schedule(5), 1, TruncationMode.PER_ROUND)

    def test_non_finite_block_in_a_stack_names_its_pair_and_index(self):
        # three samples of two pairs: the first non-finite Gram matrix is the
        # second pair's of the second sample, matrix 3 in C order
        gram = np.tile(np.eye(4, dtype=complex), (3, 2, 1, 1))
        gram[1, 1, 2, 2] = np.nan
        gram[2, 0, 0, 0] = np.inf
        with pytest.raises(statevec.StackError) as exc:
            disentangle_step(None, (0, 2), (1, 3), gram=gram)
        assert str(exc.value) == "block matrix of pair (2, 3) contains non-finite entries"
        assert exc.value.index == 3

    def test_real_states_give_special_orthogonal_gates(self, rng):
        for _ in range(10):
            s = random_real_state(4, rng)
            a, b = (int(x) for x in rng.choice(4, size=2, replace=False))
            step = disentangle_step(s, a, b)
            assert np.abs(step.unitary.imag).max() < 1e-12
            assert abs(np.linalg.det(step.unitary).real - 1.0) < 1e-10


EPS = np.finfo(float).eps


def block_with_spectrum(w, width, rng, real):
    """(u, R): a 4 x width block R = u diag(sqrt(w)) V^H with random unitary
    factors, so u's columns are its exact left singular vectors."""
    if real:
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        v = np.linalg.qr(rng.normal(size=(width, 4)))[0]
    else:
        u = haar_unitary(4, rng)
        v = np.linalg.qr(rng.normal(size=(width, 4)) + 1j * rng.normal(size=(width, 4)))[0]
    return u, (u * np.sqrt(w)) @ v.conj().T


def low_rank_block(rank, width, rng):
    """A random complex 4 x width block of the given rank, also for width < 4."""
    left = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    return left @ (rng.normal(size=(rank, width)) + 1j * rng.normal(size=(rank, width)))


def kept_projector(u):
    return u[:, :2] @ u[:, :2].conj().T


def assert_special_unitary(u):
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
    assert abs(np.linalg.det(u) - 1.0) < 1e-12


class TestBlockFactor:
    """Properties of the block factor, ``_factor_gram(_gram(rows))``,
    against the block's own construction."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("width", [4, 5, 64, 1 << 10, 1 << 14])
    def test_separated_spectra_give_the_singular_vectors(self, rng, width, real):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        u_ref, rows = block_with_spectrum(w, width, rng, real)
        u, lam = disentangler._factor_gram(disentangler._gram(rows))
        assert np.abs(lam - np.sqrt(w)).max() < 1e-12
        # each column is the exact singular vector up to its phase
        assert np.abs(np.abs(u_ref.conj().T @ u) - np.eye(4)).max() < 1e-12
        assert_special_unitary(u)
        if real:
            assert np.abs(u.imag).max() < 1e-12

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("where", [0, 1, 2], ids=["kept", "boundary", "discarded"])
    @pytest.mark.parametrize("gap", [10.0 ** -k for k in range(3, 13)])
    def test_near_degenerate_spectra_keep_the_kept_subspace(self, rng, gap, where, real):
        # two Gram eigenvalues gap * w0 apart, inside the kept pair, across
        # the kept/discarded boundary or inside the discarded pair; the kept
        # subspace is determined to eps * w0 / (w1 - w2)
        w = np.array([0.4, 0.3, 0.2, 0.1])
        w[where + 1] = w[where] - gap * w[0]
        bound = 10 * EPS * w[0] / (w[1] - w[2])
        for width in (4, 16, 1 << 12):
            u_ref, rows = block_with_spectrum(w, width, rng, real)
            u, lam = disentangler._factor_gram(disentangler._gram(rows))
            assert np.abs(kept_projector(u) - kept_projector(u_ref)).max() < bound
            assert abs(lam[0] ** 2 + lam[1] ** 2 - (w[0] + w[1]) / w.sum()) < 1e-12
            assert_special_unitary(u)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 2, 3, 64, 1 << 12])
    def test_rank_deficient_blocks_report_zero_singular_values(self, rng, rank, width):
        rows = low_rank_block(rank, width, rng)
        u, lam = disentangler._factor_gram(disentangler._gram(rows))
        s = np.linalg.svd(rows, compute_uv=False)
        s = np.pad(s, (0, 4 - s.size)) / np.linalg.norm(s)
        kept = min(rank, width)
        assert np.abs(lam[:kept] - s[:kept]).max() < 1e-12
        assert np.all(lam[kept:] == 0.0)
        assert_special_unitary(u)
        # the kept columns hold all the weight the block has in its top two
        moved = u.conj().T @ rows
        total = np.linalg.norm(rows) ** 2
        assert abs(np.linalg.norm(moved[:2]) ** 2 / total - (s[0] ** 2 + s[1] ** 2)) < 1e-12

    def test_round_off_singular_values_are_zero(self, rng):
        # Gram eigenvalues within CLUSTER_TOL * w0 of 0 are round-off; this
        # includes every singular value below sqrt(eps) * s0
        for tiny, kept in ((1e-4, True), (1e-5, True), (1e-7, False), (1e-9, False), (0.0, False)):
            w = np.array([1.0, 0.5, tiny ** 2, 0.0])
            _u_ref, rows = block_with_spectrum(w, 64, rng, False)
            _u, lam = disentangler._factor_gram(disentangler._gram(rows))
            assert lam[3] == 0.0
            if kept:
                assert abs(lam[2] / np.sqrt(w[2] / w.sum()) - 1.0) < 1e-4
            else:
                assert lam[2] == 0.0

    @pytest.mark.parametrize("w1", [1e-8, 1e-10, 1e-11])
    def test_small_second_singular_value_stays_kept(self, rng, w1):
        # a rank-2 block whose second Gram eigenvalue is far below w0 but
        # above round-off: all its weight stays in the kept pair
        _u_ref, rows = block_with_spectrum([1.0, w1, 0.0, 0.0], 1 << 12, rng, False)
        u, lam = disentangler._factor_gram(disentangler._gram(rows))
        moved = u.conj().T @ rows
        assert np.linalg.norm(moved[2:]) ** 2 / np.linalg.norm(rows) ** 2 < 1e-14
        assert lam[1] > 0.0 and np.all(lam[2:] == 0.0)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("width", [2, 64, 1 << 12])
    def test_null_space_is_stable_under_round_off(self, rng, rank, width):
        # the columns beyond the rank span the null space; round-off-level
        # changes of the block must not pick another basis of it
        rows = low_rank_block(rank, width, rng)
        u, _ = disentangler._factor_gram(disentangler._gram(rows))
        for _ in range(5):
            noisy = rows * (1.0 + 1e-15 * rng.normal(size=rows.shape))
            assert np.abs(disentangler._factor_gram(disentangler._gram(noisy))[0] - u).max() < 1e-12

    @pytest.mark.parametrize("case", ["boundary", "identity-rows"])
    def test_degenerate_boundary_keeps_the_weight(self, rng, case):
        # equal eigenvalues across the boundary: any split keeps the same weight
        if case == "boundary":
            w = np.array([0.4, 0.25, 0.25, 0.1])
            u_ref, rows = block_with_spectrum(w, 64, rng, False)
            outside = u_ref[:, 3:].conj().T  # the kept pair never reaches w3's vector
        else:
            w, rows, outside = np.full(4, 0.25), np.eye(4, 16, dtype=complex) / 2, np.zeros((0, 4))
        u, lam = disentangler._factor_gram(disentangler._gram(rows))
        assert abs(lam[0] ** 2 + lam[1] ** 2 - (w[0] + w[1]) / w.sum()) < 1e-12
        assert np.abs(outside @ u[:, :2]).max(initial=0.0) < 1e-12
        assert_special_unitary(u)

    @pytest.mark.parametrize("w", [
        [0.35, 0.35, 0.2, 0.1], [0.4, 0.3, 0.15, 0.15], [0.35, 0.35, 0.15, 0.15],
    ], ids=["kept", "discarded", "both"])
    def test_degenerate_clusters_get_one_basis(self, rng, w):
        # mixing the left singular vectors of equal singular values leaves
        # R R^H, and so U, as it is
        u_ref, rows = block_with_spectrum(np.array(w), 64, rng, False)
        u, lam = disentangler._factor_gram(disentangler._gram(rows))
        mix = np.eye(4, dtype=complex)
        for lo in (0, 2):
            if w[lo] == w[lo + 1]:
                mix[lo:lo + 2, lo:lo + 2] = haar_unitary(2, rng)
        mixed = (u_ref @ mix @ u_ref.conj().T) @ rows
        assert np.abs(disentangler._factor_gram(disentangler._gram(mixed))[0] - u).max() < 1e-12
        assert np.abs(lam - np.sqrt(w)).max() < 1e-12

    @pytest.mark.parametrize("code", range(15))
    def test_every_pattern_of_equal_eigenvalues(self, rng, code):
        # bit 3 - j of ``code`` makes gap j (w_j - w_(j+1), or w3 - 0) zero,
        # and every other gap halves w. Mixing the left singular vectors of
        # equal eigenvalues leaves U as it is, except when they straddle
        # the kept/discarded boundary, where the kept weight is still exact
        zero_gap = [bool(code >> (3 - j) & 1) for j in range(4)]
        w = [1.0]
        for j in range(3):
            w.append(w[-1] if zero_gap[j] else w[-1] / 2)
        for j in (3, 2, 1):
            if zero_gap[j] and (j == 3 or w[j + 1] == 0.0):
                w[j] = 0.0
        w = np.array(w)
        u_ref, rows = block_with_spectrum(w, 64, rng, False)
        u, lam = disentangler._factor_gram(disentangler._gram(rows))
        assert abs(lam[0] ** 2 + lam[1] ** 2 - (w[0] + w[1]) / w.sum()) < 1e-12
        if w[1] == w[2] > 0.0:
            return
        mix, lo = np.eye(4, dtype=complex), 0
        for hi in range(1, 5):
            if hi == 4 or w[hi] != w[lo]:
                mix[lo:hi, lo:hi] = haar_unitary(hi - lo, rng)
                lo = hi
        mixed = (u_ref @ mix @ u_ref.conj().T) @ rows
        assert np.abs(disentangler._factor_gram(disentangler._gram(mixed))[0] - u).max() < 1e-12
        assert np.abs(lam - np.sqrt(w / w.sum())).max() < 1e-12

    def test_gram_bytes_do_not_depend_on_the_blas_thread_count(self):
        # one matmul per Gram matrix; a sum of dot products splits its sum
        # by thread
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from impsprep.disentangler import _gram\n"
            "rng = np.random.default_rng(5)\n"
            "for m in (64, 4096):\n"
            "    rows = rng.normal(size=(16, m)) + 1j * rng.normal(size=(16, m))\n"
            "    print(hashlib.sha256(_gram(rows).tobytes()).hexdigest())\n"
        )
        src = Path(disentangler.__file__).resolve().parents[1]
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True, timeout=120)
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 2 and digests[0] == digests[1]


class TestTruncate:
    def test_noop_when_already_zero(self, rng):
        rest = random_state(2, rng)
        s = statevec.from_amplitudes(np.concatenate([rest.amps, np.zeros(4)]))
        out, discarded = truncate_and_renormalize(s, 0)
        assert discarded == 0.0
        assert np.abs(out.amps - s.amps).max() < 1e-15

    def test_ninety_ten_split(self):
        amps = np.concatenate([np.full(4, math.sqrt(0.9) / 2), np.full(4, math.sqrt(0.1) / 2)])
        s = statevec.from_amplitudes(amps)
        out, discarded = truncate_and_renormalize(s, 0)
        assert abs(discarded - 0.1) < 1e-12
        assert np.allclose(out.amps[:4], amps[:4] / math.sqrt(0.9))
        assert np.abs(out.amps[4:]).max() == 0.0

    def test_bell_after_step_unchanged(self):
        bell = statevec.from_amplitudes([1, 0, 0, 1])
        post = apply_step(bell, disentangle_step(bell, 0, 1))
        out, discarded = truncate_and_renormalize(post, 0)
        assert discarded < 1e-14
        assert statevec.infidelity(out, post) < 1e-12

    @pytest.mark.parametrize("a", [3, -1])
    def test_out_of_range_qubit_rejected(self, rng, a):
        with pytest.raises(ValueError) as exc:
            truncate_and_renormalize(random_state(3, rng), a)
        assert str(exc.value) == f"qubit index {a} out of range for n = 3"

    def test_degenerate_truncation_rejected(self):
        s = statevec.from_amplitudes(np.eye(1, 4, 0b10))  # all mass on qubit0 = 1
        with pytest.raises(ValueError):
            truncate_and_renormalize(s, 0)


def canonical_mps_reference(target: statevec.StateVector):
    """Independent sequential canonical-MPS preparation (explicit loops only).

    Sweeps pairs (i, i+1) in order, applying each SVD inverse and projecting
    qubit i onto |0>, then builds the reversed circuit as dense matrices and
    returns the prepared state's infidelity against the target.
    """
    n = target.n
    dim = 1 << n
    state = np.array(target.amps, dtype=complex)
    gates = []  # (a, b, u_inverse)
    for i in range(n - 1):
        rows = np.zeros((4, dim // 4), dtype=complex)
        for k in range(dim):
            xa = (k >> (n - 1 - i)) & 1
            xb = (k >> (n - 1 - (i + 1))) & 1
            rest = 0
            for q in range(n):
                if q not in (i, i + 1):
                    rest = (rest << 1) | ((k >> (n - 1 - q)) & 1)
            rows[2 * xa + xb, rest] = state[k]
        u, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[1] < 4)
        u_inv = u.conj().T
        gates.append((i, i + 1, u_inv))
        state = dense_two_qubit_operator(u_inv, n, i, i + 1) @ state
        # project qubit i onto |0> and renormalize
        for k in range(dim):
            if (k >> (n - 1 - i)) & 1:
                state[k] = 0.0
        state = state / np.linalg.norm(state)
    # absorb the survivor's residual superposition with one 2x2 rotation
    i1 = 1
    v0, v1 = state[0], state[i1]
    nv = math.hypot(abs(v0), abs(v1))
    rot = np.array([[v0.conjugate() / nv, v1.conjugate() / nv], [-v1 / nv, v0 / nv]])
    # build the preparation state: reversed, inverted gate list applied to |0...0>
    prep = np.zeros(dim, dtype=complex)
    prep[0] = 1.0
    full_rot = np.kron(np.eye(dim // 2), rot.conj().T)  # survivor = last qubit
    prep = full_rot @ prep
    for a, b, u_inv in reversed(gates):
        prep = dense_two_qubit_operator(u_inv.conj().T, n, a, b) @ prep
    overlap = abs(np.vdot(prep, target.amps)) ** 2
    return 1.0 - overlap


def phase_ramp(target):
    """``target`` with amplitude k times exp(i pi k / (2^n - 1)): a complex
    target of the same moduli."""
    return statevec.from_amplitudes(target.amps * np.exp(1j * np.linspace(0.0, np.pi, target.amps.size)))


class TestRunSchedule:
    def test_zero_target_stays_exact(self):
        target = statevec.from_amplitudes(np.eye(1, 32))
        for sched in (schedules.chain_schedule(5), schedules.htn_schedule(5)):
            res = run_schedule(target, sched, 1, TruncationMode.PER_ROUND)
            assert res.final_infidelity < 1e-12

    def test_ghz8_htn_exact(self):
        ghz = targets.ghz_state(8)
        res = run_schedule(ghz, schedules.htn_schedule(8), 1, TruncationMode.PER_ROUND)
        assert res.final_infidelity < 1e-10

    def test_layering_never_hurts(self):
        f1 = targets.discretize(targets.make_spec("f1", 10))
        sched = schedules.htn_schedule(10)
        one = run_schedule(f1, sched, 1, TruncationMode.PER_ROUND).final_infidelity
        two = run_schedule(f1, sched, 2, TruncationMode.PER_ROUND).final_infidelity
        assert two <= one + 1e-9

    def test_circuit_gate_count_matches_steps(self, rng):
        target = random_state(5, rng)
        sched = schedules.ttn_schedule(5)
        res = run_schedule(target, sched, 2, TruncationMode.PER_LAYER)
        assert res.circuit.two_qubit_count() == len(res.steps)
        assert res.circuit.u_depth == 2 * sched.u_depth
        assert len(res.per_round_weights) == 2 * sched.u_depth

    @pytest.mark.parametrize("rewrite", [False, True], ids=["svd", "2cx"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["chain", "ttn", "htn", "hen"])
    def test_self_consistency_with_fresh_simulation(self, rng, scheme, layers, rewrite):
        # the closed-form infidelity equals that of the simulated circuit
        target = random_state(5, rng)
        sched = getattr(schedules, f"{scheme}_schedule")(5)
        mode = disentangler.default_truncation_mode(scheme)
        res = run_schedule(target, sched, layers, mode, rewrite_2cx=rewrite)
        prepared = simulate(res.circuit)
        assert abs(statevec.infidelity(prepared, target) - res.final_infidelity) < 1e-12

    @pytest.mark.parametrize("build,sizes", [
        (schedules.chain_schedule, range(4, 9)),
        (schedules.ttn_schedule, range(4, 9)),
        (lambda n: schedules.grid_schedule(3, 4), [12]),
        (lambda n: schedules.graph_contraction_schedule(schedules.TopologyGraph.from_edge_list(
            7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (1, 4), (2, 6)])), [7]),
    ], ids=["chain", "ttn", "grid3x4", "graph"])
    def test_per_layer_slice_matches_two_state_reference(self, rng, build, sizes):
        # reading steps from the exact state's slice equals carrying a
        # truncated working copy through the layer
        for n in sizes:
            sched = build(n)
            target = random_state(n, rng)
            res = run_schedule(target, sched, 1, TruncationMode.PER_LAYER)
            ref_infidelity, ref_weights = two_state_layer_reference(target, sched)
            assert abs(res.final_infidelity - ref_infidelity) < 1e-12, n
            assert np.abs(np.subtract(res.per_round_weights, ref_weights)).max() < 1e-12, n

    @pytest.mark.parametrize("scheme", ["chain", "ttn", "htn", "hen"])
    def test_each_gate_applied_once(self, rng, monkeypatch, scheme):
        # the kernel's passes cover the steps' pairs in order, one or two
        # pairs to a pass
        calls = []
        kernel = disentangler._apply_gate_to_amps

        def recording(*args):
            calls.append(args[2])
            return kernel(*args)

        monkeypatch.setattr(disentangler, "_apply_gate_to_amps", recording)
        res = run_schedule(random_state(6, rng), getattr(schedules, f"{scheme}_schedule")(6),
                           2, disentangler.default_truncation_mode(scheme))
        assert all(len(wires) in (2, 4) for wires in calls)
        assert [q for wires in calls for q in wires] == [q for step in res.steps for q in step.pair]

    @pytest.mark.parametrize("build,sizes,modes", [
        (schedules.chain_schedule, range(4, 11), (TruncationMode.PER_LAYER, TruncationMode.PER_ROUND)),
        (schedules.ttn_schedule, range(4, 11), (TruncationMode.PER_LAYER, TruncationMode.PER_ROUND)),
        (schedules.htn_schedule, range(4, 11), (TruncationMode.PER_ROUND,)),
        (schedules.hen_schedule, range(4, 11), (TruncationMode.PER_ROUND,)),
        (lambda n: schedules.grid_schedule(2, n // 2), range(4, 11, 2),
         (TruncationMode.PER_LAYER, TruncationMode.PER_ROUND)),
        (lambda n: schedules.fig6_schedule(), [12], (TruncationMode.PER_ROUND,)),
    ], ids=["chain", "ttn", "htn", "hen", "grid", "fig6"])
    @pytest.mark.parametrize("rewrite", [False, True], ids=["3cx", "2cx"])
    def test_grouped_passes_match_one_pair_per_pass(self, build, sizes, modes, rewrite):
        # two disjoint pairs share a pass: a gate on one pair leaves the
        # other's Gram matrix unchanged up to round-off. The paper's targets:
        # on random ones at n = 10, hen L = 2, the infidelity (0.94) moves by
        # 4e-13 when the target moves by 1e-16, so round-off alone nears 1e-12.
        # Under the rewrite a phase ramp makes them complex: a real target is
        # never rewritten
        synth = gatesynth.SynthMode.OPTIMIZED2 if rewrite else gatesynth.SynthMode.GENERIC3
        for n in sizes:
            sched = build(n)
            target = targets.discretize(targets.make_spec(("f1", "f2", "f3", "g1", "g2", "g3")[n % 6], sched.n))
            if rewrite:
                target = phase_ramp(target)
            for mode in modes:
                for layers in (1, 2):
                    res = run_schedule(target, sched, layers, mode, rewrite_2cx=rewrite)
                    ref_steps, ref_infidelity = one_pair_per_pass_engine(target, sched, layers, mode, rewrite)
                    where = (n, mode, layers)
                    assert [s.pair for s in res.steps] == [s.pair for s in ref_steps], where
                    assert abs(res.final_infidelity - ref_infidelity) < 1e-12, where
                    ref_circuit = circuits.Circuit(n=sched.n, gates=[
                        circuits.TwoQubitGate(*s.pair, s.unitary.conj().T) for s in ref_steps])
                    counts = [gatesynth.synthesize_circuit(c, synth)[0].two_qubit_count()
                              for c in (res.circuit, ref_circuit)]
                    assert counts[0] == counts[1], where

    def test_target_untouched_and_simulated_state_frozen(self, rng):
        target = random_state(6, rng)
        before = target.amps.tobytes()
        res = run_schedule(target, schedules.hen_schedule(6), 2, TruncationMode.PER_ROUND)
        assert target.amps.tobytes() == before and not target.amps.flags.writeable
        assert not simulate(res.circuit).amps.flags.writeable

    def test_one_state_buffer_per_call(self, rng, monkeypatch):
        # every pass of one run_schedule, and of one simulate, updates the
        # same state through the same two work buffers, however many passes
        # they make
        buffers = []
        for module in (disentangler, circuits):
            kernel = module._apply_gate_to_amps

            def recording(*args, _kernel=kernel):
                buffers.append(tuple(args[i].ctypes.data for i in (0, 4, 5)))
                return _kernel(*args)

            monkeypatch.setattr(module, "_apply_gate_to_amps", recording)
        res = run_schedule(random_state(6, rng), schedules.hen_schedule(6), 2, TruncationMode.PER_ROUND)
        assert len(buffers) > 1 and len(set(buffers)) == 1
        buffers.clear()
        simulate(res.circuit)
        assert len(buffers) > 1 and len(set(buffers)) == 1

    @pytest.mark.parametrize("scheme,mode", [
        ("hen", TruncationMode.PER_ROUND),
        ("chain", TruncationMode.PER_LAYER),
        ("ttn", TruncationMode.PER_LAYER),
    ])
    def test_peak_memory_is_three_state_sizes(self, rng, scheme, mode):
        # the owned state and the two work buffers; a held slice is copied
        # into the second work buffer, which is free until the multiply
        n = 16
        target = random_state(n, rng)
        tracemalloc.start()
        try:
            run_schedule(target, getattr(schedules, f"{scheme}_schedule")(n), 2, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * target.amps.nbytes

    @pytest.mark.parametrize("scheme,mode", [
        ("hen", TruncationMode.PER_ROUND),
        ("chain", TruncationMode.PER_LAYER),
    ])
    def test_peak_memory_is_one_state_size_and_two_chunks(self, rng, scheme, mode):
        # above one chunk (n = 18: 4 chunks of 1 MiB) the work buffers are
        # two chunks, not two state sizes: the engine holds its owned state
        # and them (1.5 state sizes), and so does simulate
        n = 18
        target = random_state(n, rng)
        tracemalloc.start()
        try:
            res = run_schedule(target, getattr(schedules, f"{scheme}_schedule")(n), 2, mode)
            engine = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            simulate(res.circuit)
            simulator = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine <= 2.3 * target.amps.nbytes
        assert simulator <= 2.3 * target.amps.nbytes

    @pytest.mark.parametrize("scheme,mode", [
        ("chain", TruncationMode.PER_LAYER),
        ("ttn", TruncationMode.PER_LAYER),
        ("htn", TruncationMode.PER_ROUND),
        ("hen", TruncationMode.PER_ROUND),
    ])
    def test_chunked_passes_match_one_chunk(self, rng, monkeypatch, scheme, mode):
        # 16 chunks of 2^6 amplitudes: the Gram matrices are summed over the
        # chunks (skipping those that hold a held qubit at 1), which moves
        # them by round-off only. A step unitary's columns move by that
        # round-off over the step's smallest gap of squared singular values;
        # on hen at L = 2 a 1e-16 change of the target alone moves the
        # unitaries by 1e-11, so they are compared scaled by that gap
        n = 10
        target, sched = random_state(n, rng), getattr(schedules, f"{scheme}_schedule")(n)
        ref = run_schedule(target, sched, 2, mode)
        whole = simulate(ref.circuit).amps
        monkeypatch.setattr(statevec, "CHUNK", 1 << 6)
        res = run_schedule(target, sched, 2, mode)
        assert abs(res.final_infidelity - ref.final_infidelity) < 1e-12
        assert np.abs(np.subtract(res.per_round_weights, ref.per_round_weights)).max() < 1e-12
        assert [s.pair for s in res.steps] == [s.pair for s in ref.steps]
        for step, want in zip(res.steps, ref.steps):
            gap = np.abs(np.diff(want.singular_values ** 2)).min()
            assert np.abs(step.unitary - want.unitary).max() * gap < 1e-11, step.pair
        # the simulator's chunked passes are bit for bit the one-chunk ones
        assert np.array_equal(simulate(ref.circuit).amps, whole)

    @pytest.mark.parametrize("sched,qubit,rnd", [
        (schedules.htn_schedule(8), 1, 1),
        (schedules.hen_schedule(8), 2, 1),
        (schedules.fig6_schedule(), 0, 1),
    ], ids=["htn", "hen", "fig6"])
    @pytest.mark.parametrize("mode", [TruncationMode.PER_LAYER, "layer"])
    def test_per_layer_rejects_a_revisited_qubit(self, rng, sched, qubit, rnd, mode):
        with pytest.raises(ValueError, match=rf"qubit {qubit} is disentangled before round {rnd} "):
            run_schedule(random_state(sched.n, rng), sched, 1, mode)

    @pytest.mark.parametrize("sched", [
        schedules.chain_schedule(6), schedules.ttn_schedule(6), schedules.htn_schedule(6),
        schedules.hen_schedule(6), schedules.grid_schedule(2, 3), schedules.fig6_schedule(),
        schedules.graph_contraction_schedule(schedules.TopologyGraph.from_edge_list(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])),
    ], ids=["chain", "ttn", "htn", "hen", "grid2x3", "fig6", "graph"])
    def test_default_truncation_is_the_schemes_own(self, rng, sched):
        for target in (random_state(sched.n, rng), targets.discretize(targets.make_spec("f1", sched.n))):
            want = run_schedule(target, sched, 2, disentangler.default_truncation_mode(sched.scheme))
            assert same_result(run_schedule(target, sched, 2), want)

    @pytest.mark.parametrize("sched", [schedules.chain_schedule(8), schedules.ttn_schedule(8)], ids=["chain", "ttn"])
    def test_truncation_mode_by_its_value(self, sched):
        target = targets.discretize(targets.make_spec("f1", 8))
        for mode in TruncationMode:
            assert same_result(run_schedule(target, sched, 2, mode.value), run_schedule(target, sched, 2, mode))

    @pytest.mark.parametrize("mode", ["bogus", "", "LAYER"])
    def test_unknown_truncation_mode_rejected(self, rng, mode):
        with pytest.raises(ValueError, match="is not a valid TruncationMode"):
            run_schedule(random_state(4, rng), schedules.chain_schedule(4), 1, mode)

    def test_matches_canonical_mps_reference(self, rng):
        # chain schedule with per-layer truncation == sequential canonical MPS
        for trial in range(50):
            n = int(rng.integers(2, 5))
            target = random_state(n, rng)
            res = run_schedule(
                target, schedules.chain_schedule(n), 1, TruncationMode.PER_LAYER
            )
            ref = canonical_mps_reference(target)
            assert abs(res.final_infidelity - ref) < 1e-12, trial

    def test_round_pairs_commute(self, rng):
        # steps of one round are computed from the pre-round state, so a
        # reversed application order must give the same result
        target = random_state(6, rng)
        sched = schedules.htn_schedule(6)
        res = run_schedule(target, sched, 1, TruncationMode.PER_ROUND)
        flipped = schedules.Schedule(
            n=6, rounds=tuple(tuple(reversed(r)) for r in sched.rounds), scheme="htn-flipped"
        )
        res2 = run_schedule(target, flipped, 1, TruncationMode.PER_ROUND)
        assert abs(res.final_infidelity - res2.final_infidelity) < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            run_schedule(random_state(3, rng), schedules.chain_schedule(4), 1)

    def test_bad_layers_rejected(self, rng):
        with pytest.raises(ValueError):
            run_schedule(random_state(3, rng), schedules.chain_schedule(3), 0)

    def test_rewrite_2cx_keeps_exact_targets_exact(self):
        ghz = targets.ghz_state(8)
        res = run_schedule(ghz, schedules.htn_schedule(8), 1, TruncationMode.PER_ROUND,
                           rewrite_2cx=True)
        assert res.final_infidelity < 1e-10

    def test_rewrite_2cx_is_equally_good_compilation(self, rng):
        # the rewritten pipeline keeps every per-layer retained weight (the
        # truncated sweep only differs by partner-qubit rotations) and lands
        # at the same error scale
        target = random_state(5, rng)
        sched = schedules.chain_schedule(5)
        plain = run_schedule(target, sched, 1, TruncationMode.PER_LAYER)
        rewritten = run_schedule(target, sched, 1, TruncationMode.PER_LAYER, rewrite_2cx=True)
        for w1, w2 in zip(plain.per_round_weights, rewritten.per_round_weights):
            assert abs(w1 - w2) < 1e-10
        assert rewritten.final_infidelity < 10 * plain.final_infidelity + 1e-9

    @pytest.mark.parametrize("scheme", ["chain", "ttn"])
    @pytest.mark.parametrize("kind", ["f1", "f2", "f3", "g1", "g2", "g3"])
    def test_rewrite_2cx_keeps_one_per_layer_infidelity(self, kind, scheme):
        # one PER_LAYER layer: the rewrite moves the infidelity by round-off
        # only; per round or over more layers it moves it either way. A phase
        # ramp makes the target complex: a real one is never rewritten
        target = phase_ramp(targets.discretize(targets.make_spec(kind, 10)))
        sched = getattr(schedules, f"{scheme}_schedule")(10)
        plain = run_schedule(target, sched, 1, TruncationMode.PER_LAYER)
        rewritten = run_schedule(target, sched, 1, TruncationMode.PER_LAYER, rewrite_2cx=True)
        assert abs(rewritten.final_infidelity - plain.final_infidelity) < 1e-12


class TestRankOneAndRankTwoExactness:
    @pytest.mark.parametrize("kind", ["ghz", "w", "cos", "linear"])
    @pytest.mark.parametrize("build", [schedules.chain_schedule, schedules.ttn_schedule, schedules.htn_schedule])
    def test_rank2_exact_single_layer(self, kind, build):
        n = 8
        target = targets.discretize(targets.make_spec(kind, n))
        assert targets.mps_rank(target).chi <= 2
        sched = build(n)
        mode = disentangler.default_truncation_mode(sched.scheme)
        res = run_schedule(target, sched, 1, mode)
        assert res.final_infidelity < 1e-9

    @pytest.mark.parametrize(
        "build", [schedules.chain_schedule, schedules.ttn_schedule, schedules.htn_schedule, schedules.hen_schedule]
    )
    def test_rank1_exact_everywhere(self, build):
        n = 8
        target = targets.discretize(targets.make_spec("exp", n))
        assert targets.mps_rank(target).chi == 1
        sched = build(n)
        res = run_schedule(target, sched, 1, disentangler.default_truncation_mode(sched.scheme))
        assert res.final_infidelity < 1e-9
        # every single step keeps all the weight, starting with round one
        for step in res.steps:
            assert step.retained_weight > 1.0 - 1e-12


def same_step(a, b) -> bool:
    """Pair, unitary, singular values and retained weight equal bit for bit."""
    return (a.pair == b.pair and a.unitary.tobytes() == b.unitary.tobytes()
            and a.singular_values.tobytes() == b.singular_values.tobytes()
            and a.retained_weight == b.retained_weight)


def same_result(a, b) -> bool:
    """Steps, per-round weights, final infidelity and every gate of the
    circuit equal bit for bit."""
    def gate(g):
        wires = (g.wire,) if isinstance(g, circuits.OneQubitGate) else (g.a, g.b)
        return type(g), wires, g.matrix.tobytes()

    return (len(a.steps) == len(b.steps) and all(map(same_step, a.steps, b.steps))
            and a.per_round_weights == b.per_round_weights and a.final_infidelity == b.final_infidelity
            and [gate(g) for g in a.circuit.gates] == [gate(g) for g in b.circuit.gates])


class TestStack:
    """A stack of targets gives each target the result it gets alone."""

    @staticmethod
    def samples(n, rng):
        # a stack holds one kind: random targets between exact ones, whose
        # blocks are rank-deficient and whose Gram matrices have clusters of
        # equal eigenvalues (a phase ramp, a product of one-qubit phases,
        # keeps both), and a stack of real exact ones
        exact = [targets.discretize(targets.make_spec(name, n)) for name in ("f1", "g2", "f3")]
        return ([random_state(n, rng), phase_ramp(exact[0]), random_state(n, rng), phase_ramp(exact[1]),
                 random_state(n, rng)], exact)

    # several samples per chunk (the whole stack, or two), one sample per
    # chunk, and several chunks per sample
    @pytest.mark.parametrize("n,chunk", [(6, statevec.CHUNK), (6, 1 << 7), (6, 1 << 6), (10, 1 << 6)],
                             ids=["stack-per-chunk", "two-per-chunk", "one-per-chunk", "chunks-per-sample"])
    @pytest.mark.parametrize("rewrite", [False, True], ids=["3cx", "2cx"])
    @pytest.mark.parametrize("scheme", ["chain", "ttn", "htn", "hen"])
    def test_stack_equals_alone(self, rng, monkeypatch, n, chunk, rewrite, scheme):
        monkeypatch.setattr(statevec, "CHUNK", chunk)
        sched = getattr(schedules, f"{scheme}_schedule")(n)
        mode = disentangler.default_truncation_mode(scheme)
        for samples in self.samples(n, rng):
            for layers in (1, 2):
                alone = [run_schedule(t, sched, layers, mode, rewrite_2cx=rewrite) for t in samples]
                for count in range(1, len(samples) + 1, 2):
                    stacked = run_schedule(samples[:count], sched, layers, mode, rewrite_2cx=rewrite)
                    assert len(stacked) == count
                    for i, (got, want) in enumerate(zip(stacked, alone)):
                        assert same_result(got, want), (layers, count, i)

    def test_factor_gram_stack_equals_alone(self, rng):
        # distinct, doubly degenerate (kept, discarded, both) and
        # rank-deficient Gram matrices, and exact unit rows, in one stack
        spectra = [[0.4, 0.3, 0.2, 0.1], [0.35, 0.35, 0.2, 0.1], [0.4, 0.3, 0.15, 0.15],
                   [0.35, 0.35, 0.15, 0.15], [0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
        blocks = [block_with_spectrum(np.array(w), 64, rng, real)[1] for w in spectra for real in (False, True)]
        blocks += [low_rank_block(rank, width, rng) for rank in (1, 2, 3) for width in (2, 64)]
        blocks += [np.eye(4, 16, dtype=complex) / 2]
        grams = np.array([disentangler._gram(np.ascontiguousarray(b)) for b in blocks])
        for stack in (grams, grams[::-1], grams[:18].reshape(6, 3, 4, 4)):
            u, lam = disentangler._factor_gram(stack)
            assert u.shape == stack.shape and lam.shape == stack.shape[:-1]
            for index in np.ndindex(*stack.shape[:-2]):
                want_u, want_lam = disentangler._factor_gram(stack[index])
                assert u[index].tobytes() == want_u.tobytes(), index
                assert lam[index].tobytes() == want_lam.tobytes(), index

    def test_failure_names_its_sample_layer_round_and_pair(self, rng, monkeypatch):
        # the CSD of sample 2's step in layer 1, round 2 fails: the error
        # names the step and the matrix's cosines, and carries the sample's
        # index, 0 when it is alone
        n = 6
        sched = schedules.chain_schedule(n)
        samples = [random_state(n, rng) for _ in range(3)]
        prefix = re.escape("layer 1 round 2 pair (2, 3): CSD reassembly failed: deviation ") + r"\d\.\d{3}e[+-]\d\d"
        for stack, fail_at, index in ((samples, 3 * (n - 1 + 2) + 3, 2), (samples[2], n - 1 + 2 + 1, 0)):
            # the third of the eighth pass's three, or the eighth pass alone
            with monkeypatch.context() as patch:
                cosines = break_csd(patch, fail_at)
                with pytest.raises(statevec.StackError) as exc:
                    run_schedule(stack, sched, 2, TruncationMode.PER_LAYER, rewrite_2cx=True)
            (c0, c1), = cosines
            assert re.fullmatch(prefix + re.escape(f" (cosines {c0:.2g}, {c1:.2g})"), str(exc.value))
            assert exc.value.index == index

    def test_peak_memory_is_the_stack_and_two_chunks(self, rng):
        # ten n = 14 samples in one chunk-size work buffer pair: the owned
        # (10, 2^14) stack and two chunks of 1 MiB, with 0.5 MiB for the
        # per-step records and the passes' small arrays
        n, count = 14, 10
        samples = [random_state(n, rng) for _ in range(count)]
        tracemalloc.start()
        try:
            run_schedule(samples, schedules.ttn_schedule(n), 2, TruncationMode.PER_LAYER, rewrite_2cx=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count * samples[0].amps.nbytes + 2 * 16 * statevec.CHUNK + (1 << 19)

    def test_stack_of_mixed_sizes_rejected(self, rng):
        with pytest.raises(ValueError, match="schedule is for n = 4, target has n = 5"):
            run_schedule([random_state(4, rng), random_state(5, rng)], schedules.chain_schedule(4))
        with pytest.raises(ValueError, match="need at least one target"):
            run_schedule([], schedules.chain_schedule(4))


class TestRealTargets:
    """A stack of real targets runs in float64, and its special orthogonal
    steps are never rewritten."""

    @staticmethod
    def functions(n):
        return [targets.discretize(targets.make_spec(name, n)) for name in ("f1", "f2", "f3", "g1", "g2", "g3")]

    @staticmethod
    def passes(sched, layers):
        return layers * sum((len(rnd) + 1) // 2 for rnd in sched.rounds)

    @pytest.mark.parametrize("scheme", ["chain", "ttn", "htn", "hen"])
    def test_steps_are_float64_with_determinant_one(self, scheme):
        sched = getattr(schedules, f"{scheme}_schedule")(10)
        for target in self.functions(10):
            res = run_schedule(target, sched, 2, disentangler.default_truncation_mode(scheme), rewrite_2cx=True)
            for step in res.steps:
                assert step.unitary.dtype == np.float64
                assert abs(np.linalg.det(step.unitary) - 1.0) <= 1e-12

    def test_build_u2cx_runs_once_per_pass_of_a_complex_stack_only(self, rng, monkeypatch):
        build_u2cx, calls = gatesynth.build_u2cx, []

        def counting(u):
            calls.append(len(u))
            return build_u2cx(u)

        monkeypatch.setattr(gatesynth, "build_u2cx", counting)
        n, sched = 8, schedules.htn_schedule(8)
        real = self.functions(n)[:2] + [random_real_state(n, rng)]
        complex_ = [random_state(n, rng) for _ in range(2)]
        run_schedule(real, sched, 2, TruncationMode.PER_ROUND, rewrite_2cx=True)
        assert calls == []
        # one call per pass, on the whole stack
        run_schedule(complex_, sched, 2, TruncationMode.PER_ROUND, rewrite_2cx=True)
        assert calls == [2] * self.passes(sched, 2)

    @pytest.mark.parametrize("scheme", ["chain", "ttn", "htn", "hen"])
    def test_rewrite_2cx_changes_nothing(self, scheme):
        sched = getattr(schedules, f"{scheme}_schedule")(10)
        mode = disentangler.default_truncation_mode(scheme)
        for target in self.functions(10):
            for layers in (1, 2):
                rewritten = run_schedule(target, sched, layers, mode, rewrite_2cx=True)
                assert same_result(rewritten, run_schedule(target, sched, layers, mode)), (layers, target)

    def test_peak_memory_is_three_real_state_sizes(self):
        # the float64 stack and the two float64 work buffers, 1.5 complex
        # state sizes in place of 3, with the complex bound's 0.3 for the rest
        n = 16
        target = self.functions(n)[0]
        tracemalloc.start()
        try:
            run_schedule(target, schedules.hen_schedule(n), 2, TruncationMode.PER_ROUND, rewrite_2cx=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * target.amps.nbytes

    def test_mixed_stack_is_rejected_before_any_pass(self, rng, monkeypatch):
        # a stack holds one kind, the first target's: the error names the
        # first target of the other kind, and no gate pass runs
        kernel, calls = disentangler._apply_gate_to_amps, []
        monkeypatch.setattr(disentangler, "_apply_gate_to_amps", lambda *args: calls.append(args) or kernel(*args))
        n, sched = 6, schedules.chain_schedule(6)
        real = self.functions(n)[:2]
        complex_ = [random_state(n, rng) for _ in range(2)]
        for stack, message in ((real[:1] + complex_ + real[1:], "target 1 is complex and target 0 is not"),
                               (complex_[:1] + real + complex_[1:], "target 1 is real and target 0 is not"),
                               (real + complex_, "target 2 is complex and target 0 is not")):
            with pytest.raises(ValueError, match=f"^{message}: a stack holds targets of one kind$"):
                run_schedule(stack, sched, 1, rewrite_2cx=True)
        assert calls == []
        run_schedule(real, sched, 1)  # the wrapper counts a stack of one kind's passes
        assert len(calls) == n - 1
