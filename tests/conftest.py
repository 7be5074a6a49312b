"""Shared test helpers: independent brute-force oracles kept deliberately
separate from the library's vectorized implementations."""
import numpy as np
import pytest

from impsprep import circuits, statevec


def haar_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(n, rng):
    z = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return statevec.from_amplitudes(z)


def random_real_state(n, rng):
    return statevec.from_amplitudes(rng.normal(size=1 << n))


def write_amplitudes(state, path):
    """Write ``state`` as an amplitude file: one ``re im`` line per
    amplitude, each float as the program's output files write it
    (``statevec._fmt``)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{statevec._fmt(z.real)} {statevec._fmt(z.imag)}\n" for z in state.amps)


def qubit_bit(index, qubit, n):
    """Bit of `qubit` inside basis `index` (qubit 0 = most significant)."""
    return (index >> (n - 1 - qubit)) & 1


def extract_block_bitloop(amps, n, a, b):
    """Reference block extraction by explicit enumeration of basis states."""
    rows = np.zeros((4, 1 << (n - 2)), dtype=complex)
    for k in range(1 << n):
        xa = qubit_bit(k, a, n)
        xb = qubit_bit(k, b, n)
        rest = 0
        for q in range(n):
            if q in (a, b):
                continue
            rest = (rest << 1) | qubit_bit(k, q, n)
        rows[2 * xa + xb, rest] = amps[k]
    return rows


def dense_two_qubit_operator(u4, n, a, b):
    """Reference full 2^n x 2^n operator: embed u4 on (a, b) by enumeration."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        xa, xb = qubit_bit(col, a, n), qubit_bit(col, b, n)
        for ya in (0, 1):
            for yb in (0, 1):
                row = col
                row = (row & ~(1 << (n - 1 - a))) | (ya << (n - 1 - a))
                row = (row & ~(1 << (n - 1 - b))) | (yb << (n - 1 - b))
                full[row, col] += u4[2 * ya + yb, 2 * xa + xb]
    return full


def sequence_matrix(seq):
    """Reference 4x4 of a synthesized sequence: its primitives on wires 0
    and 1, each embedded by enumeration, multiplied in order."""
    out = np.eye(4, dtype=complex)
    for g in seq.on((0, 1)):
        if isinstance(g, circuits.OneQubitGate):
            local = np.kron(g.matrix, np.eye(2)) if g.wire == 0 else np.kron(np.eye(2), g.matrix)
            g = circuits.TwoQubitGate(0, 1, local)
        out = dense_two_qubit_operator(g.matrix, 2, g.a, g.b) @ out
    return out


def apply_step(state, step):
    """The state after ``step``: its unitary applied on its pair."""
    a, b = step.pair
    return circuits.apply_two_qubit(state, circuits.TwoQubitGate(a, b, step.unitary))


def two_state_layer_reference(target, schedule):
    """One layer of per-layer truncation with an explicit truncated copy.

    Steps are computed from the full-width blocks of ``work`` and applied to
    both ``work`` and ``exact``; each round's sources are then truncated out
    of ``work``. The prepared state is rebuilt gate by gate from |0...0>.
    Returns (infidelity, per-round weights).
    """
    from impsprep.disentangler import disentangle_step, truncate_and_renormalize

    n = target.n
    exact = work = target
    steps, weights = [], []
    for rnd in schedule.rounds:
        round_steps = [disentangle_step(work, a, b) for a, b in rnd]
        for step in round_steps:
            exact = apply_step(exact, step)
            work = apply_step(work, step)
        for a, _b in rnd:
            work, _ = truncate_and_renormalize(work, a)
        steps += round_steps
        weights.append(float(np.prod([s.retained_weight for s in round_steps])))
    s = 1 << (n - 1 - schedule.survivor())
    v = np.array([exact.amps[0], exact.amps[s]])
    prepared = np.zeros(1 << n, dtype=complex)
    prepared[[0, s]] = v / np.linalg.norm(v)
    prepared = statevec.StateVector(n=n, amps=prepared)
    for step in reversed(steps):
        a, b = step.pair
        prepared = circuits.apply_two_qubit(
            prepared, circuits.TwoQubitGate(a, b, step.unitary.conj().T)
        )
    return statevec.infidelity(prepared, target), weights


def one_pair_per_pass_engine(target, schedule, layers, mode, rewrite_2cx=False):
    """The engine with one gate per state pass: every step of a round is
    factored from the pre-round state (its slice with the round's held
    qubits at |0>), then each is applied on its own. As in ``run_schedule``,
    ``rewrite_2cx`` rewrites the steps of a complex target only.

    Returns the steps and the closed-form infidelity, as ``run_schedule``
    reads it.
    """
    from dataclasses import replace

    from impsprep import disentangler
    from impsprep.gatesynth import build_u2cx

    state, steps = target, []
    held = disentangler._held_qubits(schedule, mode)
    for _ in range(layers):
        for rnd, fixed in zip(schedule.rounds, held):
            round_steps = [disentangler.disentangle_step(state, a, b, fixed) for a, b in rnd]
            if rewrite_2cx and target.amps.imag.any():
                round_steps = [replace(s, unitary=build_u2cx(s.unitary)) for s in round_steps]
            for step in round_steps:
                state = apply_step(state, step)
            steps += round_steps
    kept = abs(state.amps[0]) ** 2 + abs(state.amps[1 << (target.n - 1 - schedule.survivor())]) ** 2
    return steps, 1.0 - kept


def break_csd(monkeypatch, fail_at):
    """Make the CSD of matrix ``fail_at``, counted from 1 over every matrix
    that ``gatesynth._csd`` factors, return its left factor with the columns
    swapped, so that its reassembly fails. Returns the list that receives
    that matrix's cosines."""
    from impsprep import gatesynth

    csd, seen, cosines_seen = gatesynth._csd, [0], []

    def failing(u):
        q, cosines, sines, v1h, v2h = csd(u)
        k = fail_at - 1 - seen[0]
        seen[0] += len(u)
        if 0 <= k < len(u):
            q = q.copy()
            q[k] = q[k, ..., ::-1]
            cosines_seen.append(cosines[k])
        return q, cosines, sines, v1h, v2h

    monkeypatch.setattr(gatesynth, "_csd", failing)
    return cosines_seen


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
