"""Gate-list circuits and their exact simulation.

A Circuit is the *preparation* object: applying its gates in order to
|0...0> approximates the compiled target. Gates are either bound 4x4
unitaries (TwoQubitGate) or bound 2x2 unitaries (OneQubitGate).

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
    scheme: str = ""
    layers: int = 1

    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if isinstance(g, TwoQubitGate))

    def one_qubit_count(self) -> int:
        return sum(1 for g in self.gates if isinstance(g, OneQubitGate))


def simulate(circuit: Circuit) -> StateVector:
    """Run the circuit on |0...0> with the exact simulator.

    One walk over the gates fuses them: a run of two-qubit gates on one
    wire pair (either orientation; the reversed one is conjugated by SWAP)
    is multiplied into one 4x4. A single-qubit gate on that pair joins it;
    one on another wire waits, per wire, and folds into the next 4x4 that
    touches its wire. Leftovers are applied on their own at the end. Every
    fused matrix still goes through the checked ``apply_two_qubit``.
    """
    state = zero_state(circuit.n)
    waiting: dict[int, np.ndarray] = {}
    pair, fused = None, None
    for g in circuit.gates:
        if isinstance(g, OneQubitGate):
            if pair is not None and g.wire in pair:
                op = np.kron(g.matrix, _I2) if g.wire == pair[0] else np.kron(_I2, g.matrix)
                fused = op @ fused
            else:
                waiting[g.wire] = g.matrix @ waiting.get(g.wire, _I2)
            continue
        if pair == (g.b, g.a):
            fused = SWAP @ g.matrix @ SWAP @ fused
            continue
        if pair == (g.a, g.b):
            fused = g.matrix @ fused
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
