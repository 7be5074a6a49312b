"""Gate-list circuits and their exact simulation.

A Circuit is the *preparation* object: applying its gates in order to
|0...0> approximates the compiled target. Gates are either bound 4x4
unitaries (TwoQubitGate) or bound 2x2 unitaries (OneQubitGate). The same
two types carry synthesized sequences, whose wires are 0 and 1 of one 4x4.

Wire convention inside a pair's 4x4: the first wire of the ordered pair is
the more significant bit. ``embed`` is the one place that applies it, for
the fused simulator and for rebuilding a synthesized sequence alike.

``simulate`` fuses before it applies, as qsim does (arXiv 2111.02396): each
run of gates on one wire pair, with the single-qubit gates that reach it,
becomes one 4x4, so a synthesized circuit costs one state pass per
disentangling unitary instead of one per primitive gate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .statevec import (
    StateVector,
    TwoQubitGate,
    apply_single_qubit,
    apply_two_qubit,
    zero_state,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class OneQubitGate:
    wire: int
    matrix: np.ndarray = field(repr=False)


GateLike = OneQubitGate | TwoQubitGate


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


def embed(gate: GateLike, pair: tuple[int, int]) -> np.ndarray:
    """The 4x4 of ``gate`` on the ordered wire pair ``pair``: a Kronecker
    product with the identity for a single-qubit gate, the gate's own matrix
    on the same pair and its SWAP conjugate on the reversed one."""
    if isinstance(gate, OneQubitGate):
        return np.kron(gate.matrix, _I2) if gate.wire == pair[0] else np.kron(_I2, gate.matrix)
    if (gate.b, gate.a) == pair:
        return SWAP @ gate.matrix @ SWAP
    return gate.matrix


def simulate(circuit: Circuit) -> StateVector:
    """Run the circuit on |0...0> with the exact simulator.

    One walk over the gates fuses them: a run of two-qubit gates on one
    wire pair (either orientation) is multiplied into one 4x4 through
    ``embed``. A single-qubit gate on that pair joins it; one on another
    wire waits, per wire, and folds into the next 4x4 that touches its
    wire. Leftovers are applied on their own at the end. Every
    fused matrix still goes through the checked ``apply_two_qubit``.
    """
    state = zero_state(circuit.n)
    waiting: dict[int, np.ndarray] = {}
    pair, fused = None, None
    for g in circuit.gates:
        if isinstance(g, OneQubitGate):
            if pair is not None and g.wire in pair:
                fused = embed(g, pair) @ fused
            else:
                waiting[g.wire] = g.matrix @ waiting.get(g.wire, _I2)
            continue
        if pair in ((g.a, g.b), (g.b, g.a)):
            fused = embed(g, pair) @ fused
            continue
        if pair is not None:
            state = apply_two_qubit(state, TwoQubitGate(*pair, fused))
        pair = (g.a, g.b)
        fused = g.matrix @ np.kron(waiting.pop(g.a, _I2), waiting.pop(g.b, _I2))
    if pair is not None:
        state = apply_two_qubit(state, TwoQubitGate(*pair, fused))
    for wire, matrix in waiting.items():
        state = apply_single_qubit(state, wire, matrix)
    return state
