"""Two-qubit gate synthesis.

The disentangling unitaries produced by the block factor are only
determined up to a block-diagonal factor diag(U1, U2): any member of that
equivalence class keeps the same weight in the top two amplitude rows.
``build_u2cx`` picks the representative from one cosine-sine decomposition
(CSD) of the unitary by cancelling its outer factors; that representative
is a Hermitian involution with eigenvalues (1, 1, -1, -1) and can always be
realized with two CNOTs.

Every 4x4 unitary then goes through one real-orthogonal KAK factorization
in the magic basis, ``_general_magic_kak``: M^dag u M = P exp(i Theta) Q^T
up to global phase, with P, Q in SO(4), which makes M P M^dag and
M Q^T M^dag local gates. The diagonal angles map linearly (via the fixed
sign matrix GAMMA) onto coefficients of XX / YY / ZZ, and the two synthesis
modes differ only in how they realize that middle factor. The two-CNOT mode
needs one coefficient to vanish (mod pi/2), which holds for the class above.
The generic three-CNOT baseline uses no CNOT when all three vanish and a
fixed three-CNOT core otherwise (Vatan & Williams, quant-ph/0308006).
``synthesize_circuit`` stacks the two-qubit matrices of one circuit, or of
several (a benchmark cell's samples), into one (G, 4, 4) batch for one
``synthesize_gate`` call: one KAK per gate, as array code over the stack,
gives the emitted sequences and the generic counts, each gate's bit for bit
as it gets them alone.

Sequences use the circuit's own gate types: ``OneQubitGate`` and
``TwoQubitGate(control, target, CNOT)`` on wires 0 and 1 of the 4x4, where
wire 0 is the more significant bit, as ``circuits.embed`` places every
gate. A ``GateSequence`` reads its counts from the batch's arrays and forms
its primitives only when they are read: ``synthesize_circuit`` forms each
emitted primitive once, on its gate's pair (a, b), and never forms the
generic baseline's.
"""
from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .circuits import CNOT, Circuit, GateLike, OneQubitGate, embed, kron2
from .statevec import UNITARY_TOL, StackError, TwoQubitGate, require_unitary

RECON_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
S_GATE = np.diag([1.0, 1j])

# Magic basis: conjugates SO(4) to SU(2) x SU(2); diagonal matrices in this
# basis are exponentials of XX/YY/ZZ.
MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ]
) / math.sqrt(2)

# LAPACK's complex CSD with the arguments and workspace sizes ``cossin`` uses
_UNCSD, _uncsd_lwork = get_lapack_funcs(("uncsd", "uncsd_lwork"), (np.zeros((2, 2), dtype=complex),))
_lwork, _lrwork, _ = _uncsd_lwork(m=4, p=2, q=2)
_UNCSD_ARGS = {"trans": False, "signs": False, "lwork": int(_lwork.real), "lrwork": int(_lrwork)}

# Fixed sign matrix linking diagonal phase angles Theta to Pauli-string
# coefficients Omega: Theta = GAMMA @ Omega, GAMMA^-1 = GAMMA^T / 4.
GAMMA = np.array(
    [
        [1, 1, -1, 1],
        [1, 1, 1, -1],
        [1, -1, -1, -1],
        [1, -1, 1, 1],
    ],
    dtype=float,
)


# flat 4x4 positions of C, S, S and -C in the CSD middle [[C, S], [S, -C]]
_MIDDLE = [0, 5, 2, 7, 8, 13, 10, 15]


def _block_diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros((*x.shape[:-2], 4, 4), dtype=complex)
    out[..., :2, :2], out[..., 2:, 2:] = x, y
    return out


def _raise_first_failure(checks: list) -> None:
    """Raise StackError for the first matrix of a stack that fails any of
    the (failed mask, message) ``checks``, with its first failed check's
    message; a callable message is called with the matrix's index."""
    failed = np.array([bad for bad, _ in checks])
    if failed.any():
        k = int(failed.any(axis=0).argmax())
        message = checks[int(failed[:, k].argmax())][1]
        raise StackError(message(k) if callable(message) else message, k)


def build_u2cx(u_inv: np.ndarray) -> np.ndarray:
    """The two-CNOT representative of the equivalence class of ``u_inv``,
    for a 4x4 unitary or each of a (..., 4, 4) stack of them.

    One cosine-sine decomposition (LAPACK's ``zuncsd``, which keeps the
    coupling between blocks when a cosine approaches 1) gives u_inv = L M R
    with block-diagonal L and R around the real middle M = [[C, S], [S, -C]];
    LAPACK's own middle [[C, -S], [S, C]] becomes M by negating the
    lower-right factor of R. The outer factor L is replaced by R^dag, so the
    result R^dag M R equals D @ u_inv for a block-diagonal unitary D, and
    applying it in a disentangling step preserves the retained weight. It is
    Hermitian with eigenvalues (1, 1, -1, -1).

    The stack takes one ``zuncsd`` per matrix and array code for the rest,
    which gives each matrix the bits it gets alone. A failed check raises
    StackError for the first matrix that fails one.
    """
    u = require_unitary(u_inv, what="CSD input")
    if u.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    batch = u.reshape(-1, 4, 4)
    parts = [_UNCSD(m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:], **_UNCSD_ARGS)[-6:] for m in batch]
    theta, q1, q2, v1h, v2h, info = (np.array(part) for part in zip(*parts))
    cosines = np.cos(theta).clip(0.0, 1.0)  # descending, in [0, 1]
    sines = np.sin(theta).clip(0.0, 1.0)
    middle = np.zeros(batch.shape, dtype=complex)  # complex, as the real one is cast to multiply
    middle.reshape(-1, 16)[:, _MIDDLE] = np.concatenate([cosines, sines, sines, -cosines], axis=1)
    right = _block_diag(v1h, -v2h)
    deviation = np.abs(_block_diag(q1, q2) @ middle @ right - batch)
    out = _block_diag(v1h.conj().mT, (-v2h).conj().mT) @ middle @ right
    unsorted = cosines[:, 0] < cosines[:, 1] - 1e-12
    if info.any() or not deviation.max(initial=0.0) <= RECON_TOL or unsorted.any():
        err = deviation.max(axis=(-2, -1))
        _raise_first_failure([
            (info != 0, lambda k: f"CSD failed: zuncsd info {info[k]}"),
            (~(err <= RECON_TOL), lambda k: f"CSD reassembly failed: deviation {err[k]:.3e}"),
            (unsorted, "CSD cosines not sorted descending"),
        ])
    return out.reshape(u.shape)


# --- primitive gate sequences ------------------------------------------------
# Below, a batch of gates is one (G, 4, 4) array and a per-gate branch a mask;
# each gate gets the operations, in the order, that it gets alone. ``_det2``
# and ``_abs`` spell out numpy's scalar complex product and modulus, which
# its array ones (a fused multiply-add, another hypot) do not reproduce.

CX01 = TwoQubitGate(0, 1, CNOT)
CX10 = TwoQubitGate(1, 0, CNOT)
I4 = np.eye(4, dtype=complex)


class GateSequence:
    """Single-qubit gates and CNOTs that realize a 4x4 unitary, exactly up
    to global phase: gate ``index`` of a synthesis batch, read from the
    batch's ``slots`` (gate, stacked matrices) where ``kept`` is true. Its
    counts come from the batch's arrays; its primitives are formed when
    read, on wires 0 and 1 (``gates``) or on any wire pair (``on``)."""

    def __init__(self, slots: list, kept: list, index: int, cnot_count: int, single_count: int):
        self._slots, self._kept, self._index = slots, kept, index
        self.cnot_count = cnot_count
        self._single_count = single_count

    def on(self, wires: tuple[int, int]) -> list[GateLike]:
        """The primitives with wires 0 and 1 of the 4x4 on ``wires``."""
        k = self._index
        return [TwoQubitGate(wires[g.a], wires[g.b], g.matrix) if isinstance(g, TwoQubitGate)
                else OneQubitGate(wires[g.wire], g.matrix[k]) for g, keep in zip(self._slots, self._kept) if keep]

    @cached_property
    def gates(self) -> tuple[GateLike, ...]:
        return tuple(self.on((0, 1)))

    def matrix(self) -> np.ndarray:
        out = np.eye(4, dtype=complex)
        for g in self.gates:
            out = embed(g, (0, 1)) @ out
        return out

    def single_qubit_count(self) -> int:
        return self._single_count


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| as numpy's scalar ``abs`` computes it."""
    return np.hypot(z.real, z.imag)


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants of stacked 2x2 matrices, each product rounded as numpy's
    scalar complex product rounds it."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    out = np.empty(a.shape, dtype=complex)
    out.real = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    out.imag = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    return out


def _merge_singles(items: list) -> list:
    """Fuse runs of single-qubit gates per wire for every gate of a batch.

    ``items`` are (gate, present) pairs, single-qubit gates holding stacked
    matrices and ``present`` masking the gates that have the item; an absent
    item multiplies nothing into its run. A present CNOT ends the runs. Each
    run becomes a slot (gate, keep), kept unless it is the identity up to a
    phase (the phase only moves the global one)."""
    slots: list = []
    pending = [I2, I2]

    def flush(at):
        for w in (0, 1):
            m = pending[w]
            moved = (_abs(m[..., 0, 1]) > 1e-12) | (_abs(m[..., 1, 0]) > 1e-12)
            moved |= _abs(m[..., 1, 1] - m[..., 0, 0]) > 1e-12
            slots.append((OneQubitGate(w, m), at & moved))
            pending[w] = np.where(at[..., None, None], I2, m)

    for g, present in items:
        if isinstance(g, TwoQubitGate):
            flush(present)
            slots.append((g, present))
        else:
            run = pending[g.wire]
            pending[g.wire] = np.where(present[..., None, None], g.matrix @ run, run)
    flush(np.ones_like(items[0][1]))
    return slots


def _exp_ix(a: np.ndarray) -> np.ndarray:
    return np.cos(a)[..., None, None] * I2 + (1j * np.sin(a))[..., None, None] * PAULI_X


def _rz(t) -> np.ndarray:
    out = np.zeros(np.shape(t) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = np.exp(-1j * t / 2), np.exp(1j * t / 2)
    return out


def _ry(t: np.ndarray) -> np.ndarray:
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)


_RX_CONJ = _exp_ix(np.array([math.pi / 4]))[0]  # maps Z -> Y under conjugation, fixes X


def _reduce_omega(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split exp(i (w1 XX + w2 YY + w3 ZZ)), up to global phase, into reduced
    coefficients in (-pi/2, pi/2) and a local Pauli tail P x P, with the mask
    of the rows whose P is not the identity.

    A multiple of pi only flips the global sign, and a coefficient of pi/2
    (mod pi) contributes exp(i pi/2 PP) = i P x P; both commute with the
    rest. Coefficients within 1e-10 of those values become exactly 0; the
    test is linear in the nonlocal angle.
    """
    red = omega - np.round(omega / math.pi) * math.pi
    tail = I2
    for i, pauli in enumerate((PAULI_X, PAULI_Y, PAULI_Z)):
        hit = np.abs(np.abs(red[..., i]) - math.pi / 2) < 1e-10
        tail = np.where(hit[..., None, None], pauli @ tail, tail)
        red[..., i][hit] = 0.0
    red[np.abs(red) <= 1e-10] = 0.0
    return red, tail, np.abs(tail - I2).max(axis=(-2, -1)) > 1e-12


def _middle_sequence(red: np.ndarray) -> tuple[list, np.ndarray]:
    """<= 2 CNOT realization of exp(i (w1 XX + w2 YY + w3 ZZ)) from reduced
    coefficients, as items for ``_merge_singles``, and the mask of the rows
    where none vanishes, which need a third CNOT.

    Uses CX (e^{iaX} x e^{icZ}) CX = exp(i (a XX + c ZZ)) plus single-qubit
    conjugations rotating the missing axis onto Y (Z for XX and YY, X for YY
    and ZZ)."""
    live = red != 0.0
    core = live.any(axis=-1)
    xy = live[..., 1] & ~live[..., 2]
    yz = live[..., 1] & live[..., 2]
    conj = np.where(xy[..., None, None], _RX_CONJ, S_GATE)
    inner = (np.where(yz, red[..., 1], red[..., 0]), np.where(xy, red[..., 1], red[..., 2]))
    sandwich = [CX01, OneQubitGate(0, _exp_ix(inner[0])), OneQubitGate(1, _rz(-2 * inner[1])), CX01]
    items = [(OneQubitGate(w, conj.conj().mT), live[..., 1]) for w in (0, 1)] + [(g, core) for g in sandwich]
    return items + [(OneQubitGate(w, conj), live[..., 1]) for w in (0, 1)], live.all(axis=-1)


def _three_cnot_core(omega: np.ndarray) -> list[GateLike]:
    """exp(i (a XX + b YY + c ZZ)) up to global phase with three CNOTs
    (Vatan & Williams, quant-ph/0308006), for stacked (a, b, c)."""
    a, b, c = omega[..., 0], omega[..., 1], omega[..., 2]
    return [OneQubitGate(1, _rz(-math.pi / 2)), CX10, OneQubitGate(0, _rz(math.pi / 2 - 2 * c)),
            OneQubitGate(1, _ry(2 * a - math.pi / 2)), CX01, OneQubitGate(1, _ry(math.pi / 2 - 2 * b)),
            CX10, OneQubitGate(0, _rz(math.pi / 2))]


def _real_imag_split_eigh(a: np.ndarray, factor: float):
    _, basis = np.linalg.eigh(a.real / factor + factor * a.imag)
    return basis.mT @ a @ basis, basis


def _ai_kak(u: np.ndarray):
    """u = o1 @ diag(phases) @ o2 with o1, o2 in SO(4) for each matrix of a
    stack, and the mask of those whose o2 is not real.

    o1 is a real eigenbasis of the symmetric unitary u u^T: that of Re/pi +
    pi Im, or of Re/10 + 10 Im where a repeated eigenvalue of the first mixed
    eigenvectors of u u^T. Each row of o1^T u is then a unit phase times a
    real unit row; the phase is read off the row itself (row . row =
    phase^2), which stays stable under degenerate eigenvalues of u u^T, where
    square roots of the eigenvalues would pick inconsistent branches.
    """
    delta = u @ u.mT
    d2, o1 = _real_imag_split_eigh(delta, math.pi)
    off = np.where(np.eye(4, dtype=bool), 0.0, np.abs(d2))
    mixed = ~np.all(off <= 1e-7 + 1e-5 * off, axis=(-2, -1))  # np.allclose's test, atol=1e-7
    if mixed.any():
        o1[mixed] = _real_imag_split_eigh(delta[mixed], 10.0)[1]
    o1[..., :, 0] *= np.linalg.det(o1)[..., None]
    rows = o1.mT @ u
    phases = np.sqrt(np.sum(rows * rows, axis=-1))  # unit modulus, any branch
    o2 = rows / phases[..., :, None]
    complex_o2 = np.abs(o2.imag).max(axis=(-2, -1)) > 1e-8
    o2 = o2.real.copy()
    det_o2 = np.linalg.det(o2)
    o2[..., 0, :] *= det_o2[..., None]
    phases[..., 0] = det_o2 * phases[..., 0]
    return o1, phases, o2, complex_o2


def _general_magic_kak(u: np.ndarray):
    """KAK of arbitrary 4x4 unitaries in the magic basis: returns
    (p, theta, q, failed) with M p exp(i theta) q^T M^dag = u up to global
    phase, p and q in SO(4) and theta in (-pi, pi] summing to a multiple of
    2 pi, and the mask of matrices whose real factor could not be split."""
    u_su = u / (np.linalg.det(u) ** 0.25)[..., None, None]
    o1, phases, o2, failed = _ai_kak(MAGIC.conj().T @ u_su @ MAGIC)
    return o1, np.angle(phases), o2.mT, failed


def split_tensor_product(u4: np.ndarray):
    """Split u4 = phase * (A x B) with A, B special unitary, for each matrix
    of a stack: returns A, B and the masks of the matrices that are not
    tensor products and of those whose split missed."""
    upper, lower = u4[..., :2, :2], u4[..., 2:, :2]
    det_upper = _det2(upper)
    use_lower = _abs(det_upper) < 0.1
    r = np.where(use_lower[..., None, None], lower, upper)
    det_r = np.where(use_lower, _det2(lower), det_upper)
    not_product = _abs(det_r) < 0.1
    r = r / np.sqrt(det_r)[..., None, None]
    le = (u4 @ kron2(I2, r.conj().mT))[..., ::2, ::2]
    le = le / np.sqrt(_det2(le))[..., None, None]
    phase = np.trace(kron2(le, r).conj().mT @ u4, axis1=-2, axis2=-1) / 4.0
    return le, r, not_product, np.abs(_abs(phase) - 1.0) > 1e-9


def _kak_layers(u: np.ndarray):
    """The shared KAK of stacked 4x4 unitaries as (right locals, XX/YY/ZZ
    coefficients, left locals, checks): u = left exp(i omega . PP) right up
    to global phase, with checks as (failed mask, message) pairs."""
    p, theta, q, complex_q = _general_magic_kak(u)
    la, lb, *left_failed = split_tensor_product(MAGIC @ p @ MAGIC.conj().T)
    ra, rb, *right_failed = split_tensor_product(MAGIC @ q.mT @ MAGIC.conj().T)
    omega = (GAMMA.T @ theta[..., None])[..., 0] / 4.0
    checks = [(complex_q, "orthogonal factor is not real; eigenbasis split failed")]
    for not_product, missed in (left_failed, right_failed):
        checks += [(not_product, "matrix is not a tensor product of single-qubit gates"),
                   (missed, "tensor-product split failed")]
    return (ra, rb), omega[..., 1:], (la, lb), checks


def _finish_sequence(items: list, source: np.ndarray, max_cnots: int):
    """Merge a batch's items into slots and check every gate's sequence: the
    CNOT and single-qubit budgets, then its matrix against ``source`` up to
    global phase. Returns the slots, the CNOT and single-qubit counts and
    the checks."""
    slots = _merge_singles(items)
    ncx = sum(keep for g, keep in slots if isinstance(g, TwoQubitGate))
    nsingle = sum(keep for g, keep in slots if isinstance(g, OneQubitGate))
    rebuilt = I4
    for g, keep in slots:
        rebuilt = np.where(keep[..., None, None], embed(g, (0, 1)) @ rebuilt, rebuilt)
    tr = np.trace(rebuilt.conj().mT @ source, axis1=-2, axis2=-1) / 4.0
    err = np.abs(rebuilt * (tr / _abs(tr))[..., None, None] - source).max(axis=(-2, -1))
    return slots, ncx, nsingle, [
        (ncx > max_cnots, lambda k: f"synthesis produced {ncx[k]} CNOTs, budget {max_cnots}"),
        (nsingle > 8, lambda k: f"synthesis produced {nsingle[k]} single-qubit gates, budget 8"),
        (_abs(tr) < 1e-12, "synthesis reconstruction failed (orthogonal result)"),
        (err > RECON_TOL, lambda k: f"synthesis reconstruction failed: deviation {err[k]:.3e}"),
    ]


def _gate_sequences(slots: list, ncx: np.ndarray, nsingle: np.ndarray) -> list[GateSequence]:
    """Each gate's kept slots, in order, as its own sequence."""
    gates = [g for g, _ in slots]
    kept = np.array([keep for _, keep in slots]).T.tolist()
    return [GateSequence(gates, row, k, cnots, singles)
            for k, (row, cnots, singles) in enumerate(zip(kept, ncx.tolist(), nsingle.tolist()))]


class SynthMode:
    GENERIC3 = "3cx"
    OPTIMIZED2 = "2cx"


def synthesize_gate(gate_matrix: np.ndarray, mode: str):
    """(emitted, generic) sequences of a preparation gate from one KAK; in
    GENERIC3 mode both are the same object. In OPTIMIZED2 mode the matrix
    must already be an equivalence-class representative (a circuit compiled
    with ``rewrite_2cx=True``); its sequence is checked, and fails, first.

    A (G, 4, 4) stack is one batch and gives a list of G pairs. A failed
    check raises StackError for the first gate in the batch that fails any,
    with that gate's first failed check.
    """
    u = np.asarray(gate_matrix, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    batch = u.reshape(-1, 4, 4)
    deviation = np.abs(batch @ batch.conj().mT - I4).max(axis=(-2, -1))
    not_unitary = ~(deviation <= UNITARY_TOL)
    checks = [(not_unitary, lambda k: f"synthesis input is not unitary "
                                      f"(deviation {deviation[k]:.3e} > {UNITARY_TOL:.1e})")]
    batch = np.where(not_unitary[:, None, None], I4, batch)  # failed input stays out of LAPACK
    everyone = np.ones(len(batch), dtype=bool)
    with np.errstate(all="ignore"):  # a gate that failed a check runs on as garbage
        (ra, rb), omega, (la, lb), kak_checks = _kak_layers(batch)
        checks += kak_checks
        right = [(OneQubitGate(0, ra), everyone), (OneQubitGate(1, rb), everyone)]
        left = [(OneQubitGate(0, la), everyone), (OneQubitGate(1, lb), everyone)]
        red, pauli, has_tail = _reduce_omega(omega)
        tail = [OneQubitGate(0, pauli), OneQubitGate(1, pauli)]
        if mode == SynthMode.OPTIMIZED2:
            middle, unrealizable = _middle_sequence(red)
            checks.append((unrealizable, "input is not two-CNOT realizable (no vanishing Pauli-string "
                                         "coefficient); rewrite with build_u2cx or use synthesize_generic"))
            middle += [(g, has_tail) for g in tail]
            emitted, emitted_cnots, emitted_singles, emitted_checks = _finish_sequence(
                right + middle + left, batch, 2)
            checks += emitted_checks
        core = red.any(axis=-1)
        middle = [(g, core) for g in _three_cnot_core(omega)] + [(g, has_tail & ~core) for g in tail]
        generic, generic_cnots, generic_singles, generic_checks = _finish_sequence(
            right + middle + left, batch, 3)
        checks += generic_checks
    _raise_first_failure(checks)
    generic = _gate_sequences(generic, generic_cnots, generic_singles)
    if mode == SynthMode.OPTIMIZED2:
        emitted = _gate_sequences(emitted, emitted_cnots, emitted_singles)
    else:
        emitted = generic
    pairs = list(zip(emitted, generic))
    return pairs[0] if u.ndim == 2 else pairs


def synthesize_two_cnot(u2cx: np.ndarray) -> GateSequence:
    """Realize a two-CNOT-implementable 4x4 unitary with at most two CNOTs
    and at most eight single-qubit gates.

    Accepts any unitary whose Pauli-string coefficients include a vanishing
    one mod pi/2: members of the U (Z x I) U^dag class (``build_u2cx``
    outputs), real special-orthogonal matrices (the SVDs of real amplitudes)
    and single Pauli-string exponentials. Raises ValueError for gates that
    genuinely need a third CNOT.
    """
    return synthesize_gate(u2cx, SynthMode.OPTIMIZED2)[0]


def synthesize_generic(u: np.ndarray) -> GateSequence:
    """Baseline synthesis of an arbitrary 4x4 unitary: no CNOT for a local
    gate, the fixed three-CNOT core otherwise."""
    return synthesize_gate(u, SynthMode.GENERIC3)[0]


def synthesize_circuit(circuits, mode: str):
    """Expand every two-qubit gate of ``circuits``, one circuit or a
    sequence of them, into primitives, all of them in one
    ``synthesize_gate`` batch.

    Returns, per circuit, a circuit of OneQubitGate and CNOT-valued
    TwoQubitGate entries that reproduces it up to global phase, and the
    generic baseline's (CNOT, single-qubit) counts from the same synthesis
    of each gate: one such pair for one circuit, a list for a sequence.
    Each primitive is formed once, on its gate's wires; the generic counts
    are read from the batch's arrays. A OneQubitGate passes through and
    counts as one single-qubit gate. A failed check raises StackError
    prefixed by ``gate {k} on ({a}, {b}): `` for the first gate k, in
    circuit order, that fails one; its ``index`` is the circuit's position
    in the sequence.
    """
    batch = [circuits] if isinstance(circuits, Circuit) else list(circuits)
    places = [(c, k) for c, circuit in enumerate(batch)
              for k, g in enumerate(circuit.gates) if isinstance(g, TwoQubitGate)]
    try:
        matrices = np.array([batch[c].gates[k].matrix for c, k in places]).reshape(-1, 4, 4)
        sequences = iter(synthesize_gate(matrices, mode))
    except StackError as exc:
        c, k = places[exc.index]
        g = batch[c].gates[k]
        raise StackError(f"gate {k} on ({g.a}, {g.b}): {exc}", c) from exc
    out = []
    for circuit in batch:
        gates: list = []
        g_cnots = g_singles = 0
        for g in circuit.gates:
            if isinstance(g, OneQubitGate):
                gates.append(g)
                g_singles += 1
                continue
            seq, generic = next(sequences)
            g_cnots += generic.cnot_count
            g_singles += generic.single_qubit_count()
            gates += seq.on((g.a, g.b))
        out.append((replace(circuit, gates=gates), (g_cnots, g_singles)))
    return out[0] if isinstance(circuits, Circuit) else out


def count_gates(circuit: Circuit, mode: str) -> tuple[int, int, int]:
    """(cnot_total, single_qubit_total, u_depth) after synthesis of every
    two-qubit gate in the given mode."""
    primitive, _ = synthesize_circuit(circuit, mode)
    return primitive.two_qubit_count(), primitive.one_qubit_count(), circuit.u_depth
