"""The gate vocabulary, gate-list circuits and their exact simulation.

A Circuit is the *preparation* object: applying its gates in order to
|0...0> approximates the compiled target. Gates are either bound 4x4
unitaries (TwoQubitGate) or bound 2x2 unitaries (OneQubitGate). The same
two types carry synthesized sequences, whose wires are 0 and 1 of one 4x4.

Wire convention inside a pair's 4x4: the first wire of the ordered pair is
the more significant bit. ``embed`` is the one place that applies it, for
the fused simulator and for rebuilding a synthesized sequence alike.

``simulate`` fuses before it applies, as qsim does (arXiv 2111.02396): each
run of gates on one wire pair, with the single-qubit gates that reach it,
becomes one 4x4, and two consecutive 4x4s on disjoint pairs share a state
pass, not one pass per primitive gate. It owns the one state it updates
and the kernel's two chunk-size work buffers, allocated once per call;
every pass goes through the state chunk by chunk (see ``statevec``). It
returns the state frozen.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .statevec import (
    StateVector,
    _apply_gate_to_amps,
    _check_gate,
    _check_qubit_count,
    _freeze,
    _work_buffers,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class OneQubitGate:
    wire: int
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class TwoQubitGate:
    """A 4x4 unitary bound to the ordered pair (a, b); ``a`` is the more
    significant wire in the gate's own 4x4 basis."""

    a: int
    b: int
    matrix: np.ndarray = field(repr=False)


GateLike = OneQubitGate | TwoQubitGate


def _apply_checked(state: StateVector, wires: tuple[int, ...], matrix: np.ndarray) -> StateVector:
    matrix = _check_gate(state.n, wires, matrix)
    amps = state.amps.copy()
    _apply_gate_to_amps(amps, state.n, wires, matrix, *_work_buffers(state.n))
    return StateVector(n=state.n, amps=_freeze(amps))


def apply_two_qubit(state: StateVector, gate: TwoQubitGate) -> StateVector:
    """Apply a two-qubit gate: left-multiplies the (a, b) block matrix."""
    return _apply_checked(state, (gate.a, gate.b), gate.matrix)


def apply_single_qubit(state: StateVector, wire: int, matrix: np.ndarray) -> StateVector:
    return _apply_checked(state, (wire,), matrix)


@dataclass
class Circuit:
    """Ordered gate list plus depth metadata, applied first-to-last."""

    n: int
    gates: list[GateLike]
    u_depth: int = 0

    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if isinstance(g, TwoQubitGate))

    def one_qubit_count(self) -> int:
        return sum(1 for g in self.gates if isinstance(g, OneQubitGate))


def kron2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Kronecker product of two square matrices, or of two stacks of
    them over leading axes, entry for entry the products ``np.kron`` forms,
    at a fraction of its call overhead."""
    dim = x.shape[-1] * y.shape[-1]
    prod = x[..., :, None, :, None] * y[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], dim, dim)


def embed(gate: GateLike, pair: tuple[int, int]) -> np.ndarray:
    """The 4x4 of ``gate`` on the ordered wire pair ``pair``: a Kronecker
    product with the identity for a single-qubit gate, the gate's own matrix
    on the same pair and its SWAP conjugate on the reversed one."""
    if isinstance(gate, OneQubitGate):
        return kron2(gate.matrix, I2) if gate.wire == pair[0] else kron2(I2, gate.matrix)
    if (gate.b, gate.a) == pair:
        return SWAP @ gate.matrix @ SWAP
    return gate.matrix


def simulate(circuit: Circuit) -> StateVector:
    """Run the circuit on |0...0> with the exact simulator.

    One walk over the gates fuses them: a run of two-qubit gates on one
    wire pair (either orientation) is multiplied into one 4x4 through
    ``embed``. A single-qubit gate on that pair joins it; one on another
    wire waits, per wire, and folds into the next 4x4 that touches its
    wire. A fused 4x4 waits for the next one: on disjoint wires the two
    share a pass as their Kronecker product. Leftovers are applied on their
    own at the end. Every fused matrix and every leftover is checked as
    ``apply_two_qubit`` and ``apply_single_qubit`` check their gates.
    """
    n = circuit.n
    _check_qubit_count(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    work = _work_buffers(n)
    held = []  # the last fused (pair, 4x4), checked, while it waits

    def apply(wires: tuple[int, ...], matrix: np.ndarray) -> None:
        matrix = _check_gate(n, wires, matrix)
        if held and len(wires) == 2 and not set(held[0][0]) & set(wires):
            pair, first = held.pop()
            wires, matrix = pair + wires, kron2(first, matrix)
        elif held:
            _apply_gate_to_amps(amps, n, *held.pop(), *work)
        if len(wires) == 2:
            held.append((wires, matrix))
        else:
            _apply_gate_to_amps(amps, n, wires, matrix, *work)

    waiting: dict[int, np.ndarray] = {}
    pair, fused = None, None
    for g in circuit.gates:
        if isinstance(g, OneQubitGate):
            if pair is not None and g.wire in pair:
                fused = embed(g, pair) @ fused
            else:
                waiting[g.wire] = g.matrix @ waiting.get(g.wire, I2)
            continue
        if pair in ((g.a, g.b), (g.b, g.a)):
            fused = embed(g, pair) @ fused
            continue
        if pair is not None:
            apply(pair, fused)
        pair = (g.a, g.b)
        fused = g.matrix @ kron2(waiting.pop(g.a, I2), waiting.pop(g.b, I2))
    if pair is not None:
        apply(pair, fused)
    for wire, matrix in waiting.items():
        apply((wire,), matrix)
    if held:
        _apply_gate_to_amps(amps, n, *held.pop(), *work)
    return StateVector(n=n, amps=_freeze(amps))
