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
``synthesize_gate`` builds both from one KAK per gate, so one pass gives the
emitted circuit and the generic counts it is compared with.

Sequences are built from the circuit's own gate types: ``OneQubitGate`` and
``TwoQubitGate(control, target, CNOT)`` on wires 0 and 1 of the 4x4, which
``synthesize_circuit`` relabels to the gate's pair (a, b). Wire 0 is the
more significant bit, as ``circuits.embed`` places every gate.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_lapack_funcs

from .circuits import CNOT, Circuit, GateLike, OneQubitGate, embed, kron2
from .statevec import TwoQubitGate, require_unitary

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


def _block_diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2], out[2:, 2:] = x, y
    return out


def build_u2cx(u_inv: np.ndarray) -> np.ndarray:
    """The two-CNOT representative of the equivalence class of ``u_inv``.

    One cosine-sine decomposition (LAPACK's ``zuncsd``, which keeps the
    coupling between blocks when a cosine approaches 1) gives u_inv = L M R
    with block-diagonal L and R around the real middle M = [[C, S], [S, -C]];
    LAPACK's own middle [[C, -S], [S, C]] becomes M by negating the
    lower-right factor of R. The outer factor L is replaced by R^dag, so the
    result R^dag M R equals D @ u_inv for a block-diagonal unitary D, and
    applying it in a disentangling step preserves the retained weight. It is
    Hermitian with eigenvalues (1, 1, -1, -1).
    """
    u = require_unitary(u_inv, what="CSD input")
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    *_, theta, q1, q2, v1h, v2h, info = _UNCSD(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:], **_UNCSD_ARGS)
    if info != 0:
        raise ValueError(f"CSD failed: zuncsd info {info}")
    cosines = np.clip(np.cos(theta), 0.0, 1.0)  # descending, in [0, 1]
    c, s = np.diag(cosines), np.diag(np.clip(np.sin(theta), 0.0, 1.0))
    middle = np.empty((4, 4))
    middle[:2, :2], middle[:2, 2:], middle[2:, :2], middle[2:, 2:] = c, s, s, -c
    right = _block_diag(v1h, -v2h)
    err = np.abs(_block_diag(q1, q2) @ middle @ right - u).max()
    if not err <= RECON_TOL:
        raise ValueError(f"CSD reassembly failed: deviation {err:.3e}")
    if cosines[0] < cosines[1] - 1e-12:
        raise ValueError("CSD cosines not sorted descending")
    return _block_diag(v1h.conj().T, (-v2h).conj().T) @ middle @ right


# --- primitive gate sequences ------------------------------------------------


def _u(wire: int, matrix: np.ndarray) -> OneQubitGate:
    return OneQubitGate(wire, np.asarray(matrix, dtype=complex))


def _cx(control: int, target: int) -> TwoQubitGate:
    return TwoQubitGate(control, target, CNOT)


@dataclass(frozen=True)
class GateSequence:
    """Single-qubit gates and CNOTs on wires 0 and 1 that realize a 4x4
    unitary, exactly up to global phase."""

    gates: tuple[GateLike, ...]
    cnot_count: int

    def matrix(self) -> np.ndarray:
        out = np.eye(4, dtype=complex)
        for g in self.gates:
            out = embed(g, (0, 1)) @ out
        return out

    def single_qubit_count(self) -> int:
        return len(self.gates) - self.cnot_count


def _merge_singles(gates: list[GateLike]) -> list[GateLike]:
    """Fuse runs of single-qubit gates per wire; drop any that are the
    identity up to a phase (the phase only moves the global one)."""
    merged: list[GateLike] = []
    pending: dict[int, np.ndarray] = {}

    def flush(wires=(0, 1)):
        for w in wires:
            m = pending.pop(w, None)
            if m is not None and (abs(m[0, 1]) > 1e-12 or abs(m[1, 0]) > 1e-12 or abs(m[1, 1] - m[0, 0]) > 1e-12):
                merged.append(_u(w, m))

    for g in gates:
        if isinstance(g, TwoQubitGate):
            flush()
            merged.append(g)
        else:
            pending[g.wire] = g.matrix @ pending.get(g.wire, I2)
    flush()
    return merged


def _exp_ix(a: float) -> np.ndarray:
    return math.cos(a) * I2 + 1j * math.sin(a) * PAULI_X


def _exp_iz(a: float) -> np.ndarray:
    return np.diag([cmath.exp(1j * a), cmath.exp(-1j * a)])


def _rz(t: float) -> np.ndarray:
    return np.diag([cmath.exp(-1j * t / 2), cmath.exp(1j * t / 2)])


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


_RX_CONJ = _exp_ix(math.pi / 4)  # maps Z -> Y under conjugation, fixes X


def _reduce_omega(omega: np.ndarray) -> tuple[np.ndarray, list[GateLike]]:
    """Split exp(i (w1 XX + w2 YY + w3 ZZ)), up to global phase, into reduced
    coefficients in (-pi/2, pi/2) and a local Pauli tail.

    A multiple of pi only flips the global sign, and a coefficient of pi/2
    (mod pi) contributes exp(i pi/2 PP) = i P x P; both commute with the
    rest. Coefficients within 1e-10 of those values become exactly 0; the
    test is linear in the nonlocal angle.
    """
    red = np.empty(3)
    for i, w in enumerate(omega):
        red[i] = w - round(w / math.pi) * math.pi
    tail = [I2, I2]
    for i, pauli in enumerate((PAULI_X, PAULI_Y, PAULI_Z)):
        if abs(abs(red[i]) - math.pi / 2) < 1e-10:
            tail = [pauli @ tail[0], pauli @ tail[1]]
            red[i] = 0.0
    red[np.abs(red) <= 1e-10] = 0.0
    if np.abs(tail[0] - I2).max() > 1e-12:
        return red, [_u(0, tail[0]), _u(1, tail[1])]
    return red, []


def _middle_sequence(omega: np.ndarray) -> list[GateLike]:
    """<= 2 CNOT realization of exp(i (w1 XX + w2 YY + w3 ZZ)) requiring at
    least one coefficient to vanish mod pi/2.

    Uses CX (e^{iaX} x e^{icZ}) CX = exp(i (a XX + c ZZ)) plus single-qubit
    conjugations rotating the missing axis onto Y.
    """
    red, gates = _reduce_omega(omega)
    live = [i for i in range(3) if red[i] != 0.0]
    if len(live) > 2:
        raise ValueError(f"no vanishing coefficient in {omega}; not two-CNOT realizable")
    if live:
        if 1 not in live:  # XX and ZZ: direct sandwich
            conj = None
            inner = (red[0], red[2])
        elif 2 not in live:  # XX and YY: rotate Z -> Y
            conj = _RX_CONJ
            inner = (red[0], red[1])
        else:  # YY and ZZ: rotate X -> Y
            conj = S_GATE
            inner = (red[1], red[2])
        core = [
            _cx(0, 1),
            _u(0, _exp_ix(inner[0])),
            _u(1, _exp_iz(inner[1])),
            _cx(0, 1),
        ]
        if conj is not None:
            core = [_u(0, conj.conj().T), _u(1, conj.conj().T)] + core + [_u(0, conj), _u(1, conj)]
        gates = core + gates
    return gates


def _three_cnot_core(a: float, b: float, c: float) -> list[GateLike]:
    """exp(i (a XX + b YY + c ZZ)) up to global phase with three CNOTs
    (Vatan & Williams, quant-ph/0308006)."""
    return [
        _u(1, _rz(-math.pi / 2)),
        _cx(1, 0),
        _u(0, _rz(math.pi / 2 - 2 * c)),
        _u(1, _ry(2 * a - math.pi / 2)),
        _cx(0, 1),
        _u(1, _ry(math.pi / 2 - 2 * b)),
        _cx(1, 0),
        _u(0, _rz(math.pi / 2)),
    ]


def _real_imag_split_eigh(a: np.ndarray, factor: float):
    _, basis = np.linalg.eigh(a.real / factor + factor * a.imag)
    return basis.T @ a @ basis, basis


def _ai_kak(u: np.ndarray):
    """u = o1 @ d @ o2 with o1, o2 in SO(4) and d diagonal unitary.

    o1 is a real eigenbasis of the symmetric unitary u u^T. Each row of
    o1^T u is then a unit phase times a real unit row; the phase is read off
    the row itself (row . row = phase^2), which stays stable under degenerate
    eigenvalues of u u^T, where taking square roots of the eigenvalues would
    pick inconsistent branches near the negative real axis.
    """
    delta = u @ u.T
    d2, o1 = _real_imag_split_eigh(delta, math.pi)
    off = d2 - np.diag(np.diag(d2))
    if not np.all(np.abs(off) <= 1e-7 + 1e-5 * np.abs(off)):  # np.allclose's test, atol=1e-7
        _, o1 = _real_imag_split_eigh(delta, 10.0)
    o1[:, 0] = np.linalg.det(o1) * o1[:, 0]
    rows = o1.T @ u
    phases = np.sqrt(np.sum(rows * rows, axis=1))  # unit modulus, any branch
    o2 = (rows.T / phases).T
    if np.abs(o2.imag).max() > 1e-8:
        raise ValueError("orthogonal factor is not real; eigenbasis split failed")
    o2 = o2.real.copy()
    d = np.diag(phases)
    det_o2 = np.linalg.det(o2)
    o2[0] = det_o2 * o2[0]
    d[0, 0] = det_o2 * d[0, 0]
    return o1, d, o2


def _general_magic_kak(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KAK of an arbitrary 4x4 unitary in the magic basis: returns (p, theta, q)
    with M p exp(i theta) q^T M^dag = u up to global phase, p and q in SO(4)
    and theta in (-pi, pi] summing to a multiple of 2 pi."""
    u_su = u / np.linalg.det(u) ** 0.25
    w = MAGIC.conj().T @ u_su @ MAGIC
    o1, d, o2 = _ai_kak(w)
    theta = np.angle(np.diag(d))
    return o1, theta, o2.T


def split_tensor_product(u4: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex]:
    """Split u4 = phase * (A x B) with A, B special unitary."""
    r = u4[:2, :2].copy()
    det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    if abs(det_r) < 0.1:
        r = u4[2:, :2].copy()
        det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    if abs(det_r) < 0.1:
        raise ValueError("matrix is not a tensor product of single-qubit gates")
    r /= np.sqrt(det_r)
    tmp = u4 @ kron2(I2, r.conj().T)
    le = tmp[::2, ::2]
    det_l = le[0, 0] * le[1, 1] - le[0, 1] * le[1, 0]
    le /= np.sqrt(det_l)
    phase = np.trace(kron2(le, r).conj().T @ u4) / 4.0
    if abs(abs(phase) - 1.0) > 1e-9:
        raise ValueError("tensor-product split failed")
    return le, r, phase


def _kak_layers(u: np.ndarray) -> tuple[list[GateLike], np.ndarray, list[GateLike]]:
    """The shared KAK of a 4x4 unitary as (right locals, XX/YY/ZZ
    coefficients, left locals): u = left exp(i omega . PP) right up to
    global phase."""
    u = require_unitary(u, what="synthesis input")
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    p, theta, q = _general_magic_kak(u)
    la, lb, _ = split_tensor_product(MAGIC @ p @ MAGIC.conj().T)
    ra, rb, _ = split_tensor_product(MAGIC @ q.T @ MAGIC.conj().T)
    omega = GAMMA.T @ theta / 4.0
    return [_u(0, ra), _u(1, rb)], omega[1:], [_u(0, la), _u(1, lb)]


def _two_cnot_sequence(u: np.ndarray, kak) -> GateSequence:
    right, omega, left = kak
    try:
        mid = _middle_sequence(omega)
    except ValueError as exc:
        raise ValueError(
            "input is not two-CNOT realizable (no vanishing Pauli-string "
            "coefficient); rewrite with build_u2cx or use synthesize_generic"
        ) from exc
    return _finish_sequence(right + mid + left, u, max_cnots=2)


def _generic_sequence(u: np.ndarray, kak) -> GateSequence:
    right, omega, left = kak
    red, tail = _reduce_omega(omega)
    mid = _three_cnot_core(*omega) if red.any() else tail
    return _finish_sequence(right + mid + left, u, max_cnots=3)


def synthesize_two_cnot(u2cx: np.ndarray) -> GateSequence:
    """Realize a two-CNOT-implementable 4x4 unitary with at most two CNOTs
    and at most eight single-qubit gates.

    Accepts any unitary whose Pauli-string coefficients include a vanishing
    one mod pi/2: members of the U (Z x I) U^dag class (``build_u2cx``
    outputs), real special-orthogonal matrices (the SVDs of real amplitudes)
    and single Pauli-string exponentials. Raises ValueError for gates that
    genuinely need a third CNOT.
    """
    return _two_cnot_sequence(u2cx, _kak_layers(u2cx))


def synthesize_generic(u: np.ndarray) -> GateSequence:
    """Baseline synthesis of an arbitrary 4x4 unitary: no CNOT for a local
    gate, the fixed three-CNOT core otherwise."""
    return _generic_sequence(u, _kak_layers(u))


def _finish_sequence(gates: list[GateLike], source: np.ndarray, max_cnots: int) -> GateSequence:
    merged = _merge_singles(gates)
    ncx = sum(1 for g in merged if isinstance(g, TwoQubitGate))
    if ncx > max_cnots:
        raise ValueError(f"synthesis produced {ncx} CNOTs, budget {max_cnots}")
    nsingle = len(merged) - ncx
    if nsingle > 8:
        raise ValueError(f"synthesis produced {nsingle} single-qubit gates, budget 8")
    seq = GateSequence(gates=tuple(merged), cnot_count=ncx)
    rebuilt = seq.matrix()
    tr = np.trace(rebuilt.conj().T @ source) / 4.0
    if abs(tr) < 1e-12:
        raise ValueError("synthesis reconstruction failed (orthogonal result)")
    err = np.abs(rebuilt * (tr / abs(tr)) - source).max()
    if err > RECON_TOL:
        raise ValueError(f"synthesis reconstruction failed: deviation {err:.3e}")
    return seq


class SynthMode:
    GENERIC3 = "3cx"
    OPTIMIZED2 = "2cx"


def synthesize_gate(gate_matrix: np.ndarray, mode: str) -> tuple[GateSequence, GateSequence]:
    """(emitted, generic) sequences of one preparation gate from one KAK;
    in GENERIC3 mode both are the same object. In OPTIMIZED2 mode the matrix
    must already be an equivalence-class representative (a circuit compiled
    with ``rewrite_2cx=True``); its sequence is built, and fails, first."""
    kak = _kak_layers(gate_matrix)
    if mode != SynthMode.OPTIMIZED2:
        generic = _generic_sequence(gate_matrix, kak)
        return generic, generic
    emitted = _two_cnot_sequence(gate_matrix, kak)
    return emitted, _generic_sequence(gate_matrix, kak)


def synthesize_circuit(circuit: Circuit, mode: str) -> tuple[Circuit, tuple[int, int]]:
    """Expand every two-qubit gate of ``circuit`` into primitives.

    Returns a circuit of OneQubitGate and CNOT-valued TwoQubitGate entries
    that reproduces the input up to global phase, and the generic baseline's
    (CNOT, single-qubit) counts from the same synthesis of each gate. A
    OneQubitGate passes through and counts as one single-qubit gate.
    """
    out: list = []
    g_cnots = g_singles = 0
    for g in circuit.gates:
        if isinstance(g, OneQubitGate):
            out.append(g)
            g_singles += 1
            continue
        seq, generic = synthesize_gate(g.matrix, mode)
        g_cnots += generic.cnot_count
        g_singles += generic.single_qubit_count()
        wires = (g.a, g.b)
        for prim in seq.gates:
            if isinstance(prim, OneQubitGate):
                out.append(OneQubitGate(wires[prim.wire], prim.matrix))
            else:
                out.append(TwoQubitGate(wires[prim.a], wires[prim.b], prim.matrix))
    return replace(circuit, gates=out), (g_cnots, g_singles)


def count_gates(circuit: Circuit, mode: str) -> tuple[int, int, int]:
    """(cnot_total, single_qubit_total, u_depth) after synthesis of every
    two-qubit gate in the given mode."""
    primitive, _ = synthesize_circuit(circuit, mode)
    return primitive.two_qubit_count(), primitive.one_qubit_count(), circuit.u_depth
