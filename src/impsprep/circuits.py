"""Gate-list circuits and their exact simulation.

A Circuit is the *preparation* object: applying its gates in order to
|0...0> approximates the compiled target. Gates are either bound 4x4
unitaries (TwoQubitGate) or bound 2x2 unitaries (OneQubitGate).
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
    """Run the circuit on |0...0> with the exact simulator."""
    state = zero_state(circuit.n)
    for g in circuit.gates:
        if isinstance(g, TwoQubitGate):
            state = apply_two_qubit(state, g)
        else:
            state = apply_single_qubit(state, g.wire, g.matrix)
    return state
