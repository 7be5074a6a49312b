"""Two-qubit gate synthesis.

The disentangling unitaries produced by the block factor are only
determined up to a block-diagonal factor diag(U1, U2): any member of that
equivalence class keeps the same weight in the top two amplitude rows.
``build_u2cx`` picks the representative from one cosine-sine decomposition
(CSD) of the unitary by cancelling its outer factors; that representative
is a Hermitian involution with eigenvalues (1, 1, -1, -1) and can always be
realized with two CNOTs. The CSD (``_csd``) is numpy array code over a
stack, built from the SVDs of its 2x2 blocks.

Every 4x4 unitary then goes through one real-orthogonal KAK factorization in
the magic basis, ``_general_magic_kak``: M^dag u M = P exp(i Theta) Q^T up
to global phase, with P, Q in SO(4), which makes M P M^dag and M Q^T M^dag
local gates. P is the eigenbasis of u u^T in one order (ascending real
parts; a run of them within 1e-6 by the imaginary part, a tie of that within
1e-12 by the real part), with the block factor's canonical bases
(``statevec.cluster_bases``), and Theta takes one stated branch
(``_ai_kak``), so the emitted locals of a gate whose eigenvalues are apart
do not depend on round-off, except where a merged run sits at the identity
threshold. The diagonal angles map linearly (via the fixed sign matrix
GAMMA) onto coefficients of XX / YY / ZZ, and the two synthesis modes differ
only in how they realize that middle factor. The two-CNOT mode needs one
coefficient to vanish (mod pi/2), which holds for the class above. The
generic three-CNOT baseline uses no CNOT when all three vanish and a fixed
three-CNOT core otherwise (Vatan & Williams, quant-ph/0308006).
``synthesize_circuit`` stacks the two-qubit matrices of one circuit, or of
several (a benchmark cell's samples), into one (G, 4, 4) batch for one call
of ``synthesize_gate``, the one synthesis entry in either mode: one KAK per
gate, as array code over the stack, gives the emitted sequences and the
generic counts, each gate's bit for bit as it gets them alone.

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

import numpy as np

from .circuits import CNOT, I2, Circuit, GateLike, OneQubitGate, TwoQubitGate, embed, kron2
from .statevec import StackError, _raise_first_failure, _unitarity_check, require_unitary
from .statevec import cluster_bases, clusters

RECON_TOL = 1e-9
KAK_CLUSTER_TOL = 1e-6  # eigenvalues of u u^T whose real parts are this close share a run
ROUNDOFF_TOL = 1e-12  # parts of eigenvalues of u u^T this close are equal up to round-off

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


# _csd: the signs of the cofactors of a 2x2, [[d, -c], [-b, a]] for
# [[a, b], [c, d]], and of q1 S and q2 C in v2^H
_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_V2_SIGNS = np.array([-1.0, 1.0])[:, None, None]

# flat 4x4 positions of C, S, S and -C in the CSD middle [[C, S], [S, -C]]
_MIDDLE = np.array([0, 5, 2, 7, 8, 13, 10, 15])


def _block_diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros((*x.shape[:-2], 4, 4), dtype=complex)
    out[..., :2, :2], out[..., 2:, 2:] = x, y
    return out


def _csd(u: np.ndarray):
    """Cosine-sine decomposition of each 4x4 unitary of a (B, 4, 4) stack,
    u = diag(q1, q2) [[C, -S], [S, C]] diag(v1, v2)^H, as (q, cosines,
    sines, v1^H, v2^H) with q the (B, 2, 2, 2) stack of q1 and q2, the
    cosines descending and the sines ascending (Sutton, arXiv 0707.1838).

    v1 holds the right singular vectors of u's top-left 2x2, or, where the
    sines sum smaller than the cosines, those of its bottom-left 2x2 in
    reverse: a small sine is then resolved on its own scale, not as the
    distance of a cosine from 1. The cosines and sines are the column norms
    of z = u11 v1 and u21 v1, whose columns are orthogonal, and q1 and q2
    their orthonormal completions: the unitary polar factors
    (z + e cof(z)^*) / (n0 + n1), with e the phase of det z (1 where it is
    0), and the identity for a zero block. Row j of v2^H, (q2^H u22)_j / c_j
    or -(q1^H u12)_j / s_j, is then c_j (q2^H u22)_j - s_j (q1^H u12)_j,
    which needs no division.
    """
    count = len(u)
    left = u[:, :, :2].reshape(count, 2, 2, 2)  # u11 and u21
    _, values, vh = np.linalg.svd(left)
    sums = values[..., 0] + values[..., 1]
    v1h = np.where((sums[:, 1] < sums[:, 0])[:, None, None], vh[:, 1, ::-1], vh[:, 0])
    z = left @ v1h.conj().mT[:, None]
    sizes = np.abs(z)
    norms = np.hypot(sizes[..., 0, :], sizes[..., 1, :])  # (B, block, column)
    phase = np.sign(np.linalg.det(z))
    phase[phase == 0.0] = 1.0
    total = norms[..., 0] + norms[..., 1]
    cofactors = z.conj()[..., ::-1, ::-1] * _COFACTOR_SIGNS
    # a matmul, not numpy's array complex product, which rounds by position
    q = z + (phase[..., None, None] @ cofactors.reshape(count, 2, 1, 4)).reshape(z.shape)
    scale = np.maximum(total, np.finfo(float).tiny)[..., None, None]
    q = np.where((total == 0.0)[..., None, None], I2, q / scale)
    scaled = q * (norms[:, ::-1, None, :] * _V2_SIGNS)  # -q1 S over q2 C
    v2h = scaled.reshape(count, 4, 2).conj().mT @ u[:, :, 2:]
    return q, norms[:, 0], norms[:, 1], v1h, v2h


def build_u2cx(u_inv: np.ndarray) -> np.ndarray:
    """The two-CNOT representative of the equivalence class of ``u_inv``,
    for a 4x4 unitary or each of a (..., 4, 4) stack of them.

    One cosine-sine decomposition (``_csd``) gives u_inv = L M R with
    block-diagonal L = diag(q1, q2) and R = diag(v1, -v2)^H around the real
    middle M = [[C, S], [S, -C]]. The outer factor L is replaced by R^dag,
    so the result R^dag M R equals D @ u_inv for a block-diagonal unitary D,
    and applying it in a disentangling step preserves the retained weight.
    It is Hermitian with eigenvalues (1, 1, -1, -1).

    The stack is array code throughout, which gives each matrix the bits it
    gets alone. A failed check raises StackError for the first matrix that
    fails one; a failed reassembly names the matrix's cosines.
    """
    u = require_unitary(u_inv, what="CSD input")
    if u.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    batch = u.reshape(-1, 4, 4)
    q, cosines, sines, v1h, v2h = _csd(batch)
    middle = np.zeros(batch.shape, dtype=complex)  # complex, as the real one is cast to multiply
    middle.reshape(-1, 16)[:, _MIDDLE] = np.concatenate([cosines, sines, sines, -cosines], axis=1)
    right = _block_diag(v1h, -v2h)
    tail = middle @ right
    deviation = np.abs((q @ tail.reshape(-1, 2, 2, 4)).reshape(batch.shape) - batch)
    out = right.conj().mT @ tail
    _raise_first_failure([
        (~(deviation <= RECON_TOL), lambda k: f"CSD reassembly failed: deviation {deviation[k].max():.3e} "
                                              f"(cosines {cosines[k, 0]:.2g}, {cosines[k, 1]:.2g})"),
        (cosines[:, 0] < cosines[:, 1] - 1e-12, "CSD cosines not sorted descending"),
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
    counts come from the batch's arrays; ``on`` forms its primitives on a
    wire pair when they are read (``on((0, 1))`` on the 4x4's own wires)."""

    def __init__(self, slots: list, kept: list, index: int, cnot_count: int, single_count: int):
        self._slots, self._kept, self._index = slots, kept, index
        self.cnot_count = cnot_count
        self.single_qubit_count = single_count

    def on(self, wires: tuple[int, int]) -> list[GateLike]:
        """The primitives with wires 0 and 1 of the 4x4 on ``wires``."""
        k = self._index
        return [TwoQubitGate(wires[g.a], wires[g.b], g.matrix) if isinstance(g, TwoQubitGate)
                else OneQubitGate(wires[g.wire], g.matrix[k]) for g, keep in zip(self._slots, self._kept) if keep]


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


def _ai_kak(u: np.ndarray):
    """u = o1 @ diag(exp(i theta)) @ o2 with o1, o2 in SO(4) for each matrix
    of a (G, 4, 4) stack, and the mask of those whose o2 is not real.

    o1 is the real eigenbasis of the symmetric unitary u u^T, whose real and
    imaginary parts commute, in one order: Re sorts its columns ascending,
    Im restricted to a run of them closer than KAK_CLUSTER_TOL sorts the
    run, and Re restricted to a tie of that within ROUNDOFF_TOL sorts the
    tie. ``cluster_bases`` gives each remaining tie and each single column
    its canonical basis; column 0 is negated where det o1 = -1. Row j of
    o1^T u is exp(i theta_j) times row j of o2, with 2 theta_j the angle of
    row . row in (-pi, pi], and pi where row . row is within ROUNDOFF_TOL of
    the negative real axis; where det o2 would be -1, row 0 is negated and
    theta_0 raised by pi.
    """
    delta = u @ u.mT
    w, o1 = np.linalg.eigh(delta.real)
    tied = np.diff(w) <= KAK_CLUSTER_TOL
    for part in (delta.imag, delta.real):
        for at in list(clusters(tied)):
            block = o1[at]  # the run's columns as rows
            w, turn = np.linalg.eigh(block @ part[at[0][:, 0]] @ block.mT)
            o1[at] = turn.mT @ block
            tied[at[0], at[2][:, :-1]] = np.diff(w) <= ROUNDOFF_TOL
    o1 = cluster_bases(o1, tied)
    o1[:, :, 0] *= np.linalg.det(o1)[:, None]
    rows = o1.mT @ u
    squares = np.sum(rows * rows, axis=-1)
    # on the negative axis, round-off would pick the root's sign
    squares.imag[(squares.real < 0) & (np.abs(squares.imag) <= ROUNDOFF_TOL)] = 0.0
    o2 = rows / np.sqrt(squares)[..., None]
    complex_o2 = np.abs(o2.imag).max(axis=(-2, -1)) > 1e-8
    o2, theta = o2.real.copy(), np.angle(squares) / 2
    flip = np.linalg.det(o2) < 0
    o2[flip, 0] *= -1.0
    theta[flip, 0] += math.pi
    return o1, theta, o2, complex_o2


def _general_magic_kak(u: np.ndarray):
    """KAK of 4x4 unitaries in the magic basis, one or a stack: returns
    (p, theta, q, failed) with M p exp(i theta) q^T M^dag = u up to global
    phase, p and q in SO(4) and theta summing to a multiple of 2 pi, in the
    order and signs of ``_ai_kak``, and the mask of matrices whose real
    factor could not be split."""
    u_su = u / (np.linalg.det(u) ** 0.25)[..., None, None]
    o1, theta, o2, failed = _ai_kak((MAGIC.conj().T @ u_su @ MAGIC).reshape(-1, 4, 4))
    return o1.reshape(u.shape), theta.reshape(u.shape[:-1]), o2.mT.reshape(u.shape), failed.reshape(u.shape[:-2])


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


def _finish_sequence(items: list, source: np.ndarray, max_cnots: int, checks: list) -> list[GateSequence]:
    """Merge a batch's items into slots, add the checks of every gate's
    sequence to ``checks`` (the CNOT and single-qubit budgets, then its
    matrix against ``source`` up to global phase) and return each gate's
    kept slots, in order, as its own sequence."""
    slots = _merge_singles(items)
    ncx = sum(keep for g, keep in slots if isinstance(g, TwoQubitGate))
    nsingle = sum(keep for g, keep in slots if isinstance(g, OneQubitGate))
    rebuilt = I4
    for g, keep in slots:
        rebuilt = np.where(keep[..., None, None], embed(g, (0, 1)) @ rebuilt, rebuilt)
    tr = np.trace(rebuilt.conj().mT @ source, axis1=-2, axis2=-1) / 4.0
    err = np.abs(rebuilt * (tr / _abs(tr))[..., None, None] - source).max(axis=(-2, -1))
    checks += [
        (ncx > max_cnots, lambda k: f"synthesis produced {ncx[k]} CNOTs, budget {max_cnots}"),
        (nsingle > 8, lambda k: f"synthesis produced {nsingle[k]} single-qubit gates, budget 8"),
        (_abs(tr) < 1e-12, "synthesis reconstruction failed (orthogonal result)"),
        (err > RECON_TOL, lambda k: f"synthesis reconstruction failed: deviation {err[k]:.3e}"),
    ]
    gates, kept = [g for g, _ in slots], np.array([keep for _, keep in slots]).T.tolist()
    return [GateSequence(gates, row, k, cnots, singles)
            for k, (row, cnots, singles) in enumerate(zip(kept, ncx.tolist(), nsingle.tolist()))]


class SynthMode:
    GENERIC3 = "3cx"
    OPTIMIZED2 = "2cx"


def synthesize_gate(gate_matrix: np.ndarray, mode: str):
    """(emitted, generic) sequences of a preparation gate from one KAK; in
    GENERIC3 mode both are the same object, with no CNOT for a local gate
    and the fixed three-CNOT core otherwise. OPTIMIZED2 mode emits at most
    two CNOTs and eight single-qubit gates for a unitary with a vanishing
    Pauli-string coefficient mod pi/2 (a ``build_u2cx`` output, as in a
    circuit compiled with ``rewrite_2cx=True``, a real special-orthogonal
    matrix, a single Pauli-string exponential); its sequence is checked,
    and fails, first.

    A (G, 4, 4) stack is one batch and gives a list of G pairs. A failed
    check raises StackError for the first gate in the batch that fails any,
    with that gate's first failed check. A ``mode`` that is neither
    raises ValueError before any work.
    """
    if mode not in (SynthMode.GENERIC3, SynthMode.OPTIMIZED2):
        raise ValueError(f"unknown synthesis mode {mode!r}; known: "
                         f"{SynthMode.OPTIMIZED2!r}, {SynthMode.GENERIC3!r}")
    u = np.asarray(gate_matrix, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    batch = u.reshape(-1, 4, 4)
    not_unitary, message = _unitarity_check(batch, "synthesis input")
    checks = [(not_unitary, message)]
    batch = np.where(not_unitary.any(axis=(1, 2))[:, None, None], I4, batch)  # failed input stays out of LAPACK
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
                                         "coefficient); rewrite with build_u2cx or use 3cx mode"))
            middle += [(g, has_tail) for g in tail]
            emitted = _finish_sequence(right + middle + left, batch, 2, checks)
        core = red.any(axis=-1)
        middle = [(g, core) for g in _three_cnot_core(omega)] + [(g, has_tail & ~core) for g in tail]
        generic = _finish_sequence(right + middle + left, batch, 3, checks)
    _raise_first_failure(checks)
    pairs = list(zip(emitted if mode == SynthMode.OPTIMIZED2 else generic, generic))
    return pairs[0] if u.ndim == 2 else pairs


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
            g_singles += generic.single_qubit_count
            gates += seq.on((g.a, g.b))
        out.append((replace(circuit, gates=gates), (g_cnots, g_singles)))
    return out[0] if isinstance(circuits, Circuit) else out


def count_gates(circuit: Circuit, mode: str) -> tuple[int, int, int]:
    """(cnot_total, single_qubit_total, u_depth) after synthesis of every
    two-qubit gate in the given mode."""
    primitive, _ = synthesize_circuit(circuit, mode)
    return primitive.two_qubit_count(), primitive.one_qubit_count(), circuit.u_depth
