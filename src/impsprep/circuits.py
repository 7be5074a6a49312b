"""The gate vocabulary, gate-list circuits and their exact simulation.

A Circuit is the *preparation* object: applying its gates in order to
|0...0> approximates the compiled target. Gates are either bound 4x4
unitaries (TwoQubitGate) or bound 2x2 unitaries (OneQubitGate). The same
two types carry synthesized sequences, whose wires are 0 and 1 of one 4x4.

Wire convention inside a pair's 4x4: the first wire of the ordered pair is
the more significant bit. ``embed_stack`` is the one place that applies
it, to the fused simulator's factors and, through ``embed``, to the gates
of a synthesized sequence alike.

``simulate`` fuses before it applies, as qsim does (arXiv 2111.02396): each
run of gates on one wire pair, with the single-qubit gates that reach it,
becomes one 4x4, not one pass per primitive gate. The fused 4x4s are
formed as stacked products over the whole circuit, one ``matmul`` per
factor position, checked in one call and handed to the gate kernel in one
call, whose pass rule groups them (see ``statevec``). It owns the one
state it updates and the kernel's two chunk-size work buffers, allocated
once per call. It returns the state frozen.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .statevec import (
    StateVector,
    _apply_gate_to_amps,
    _check_gates,
    _check_qubit_count,
    _freeze,
    _work_buffers,
    kron2,
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
    matrix = _check_gates(state.n, [wires], matrix)
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


def embed(gate: GateLike, pair: tuple[int, int]) -> np.ndarray:
    """The 4x4 of ``gate`` on the ordered wire pair ``pair`` (``embed_stack``)."""
    if isinstance(gate, OneQubitGate):
        return embed_stack(gate.matrix, gate.wire != pair[0])
    return embed_stack(gate.matrix, (gate.b, gate.a) == pair)


# per matrix size, the placement on an ordered pair and on the flipped one
_PLACE = {2: (lambda m: kron2(m, I2), lambda m: kron2(I2, m)), 4: (lambda m: m, lambda m: SWAP @ m @ SWAP)}


def embed_stack(matrices: np.ndarray, flip) -> np.ndarray:
    """The 4x4s on one ordered wire pair of a 2x2 or 4x4 matrix, or of a
    stack of them: a 2x2 on the pair's first wire, or where ``flip`` on its
    second, is a Kronecker product with the identity; a 4x4 on the pair is
    itself, and on the reversed pair, where ``flip``, its SWAP conjugate.
    ``flip`` is one bool or a bool array, one per matrix."""
    place = _PLACE[matrices.shape[-1]]
    if isinstance(flip, bool):
        return place[flip](matrices)
    out = np.empty(matrices.shape[:-2] + (4, 4), dtype=complex)
    for side in (False, True):
        out[flip == side] = place[side](matrices[flip == side])
    return out


def simulate(circuit: Circuit) -> StateVector:
    """Run the circuit on |0...0> with the exact simulator.

    One walk over the gates fuses them: a run of two-qubit gates on one
    wire pair (either orientation) is multiplied into one 4x4 of factors
    placed on that pair by one ``embed_stack`` call per kind (two-qubit,
    single-qubit). A single-qubit gate on that pair joins it; one on another
    wire waits, per wire, and folds into the next 4x4 that touches its
    wire. The walk only records each product's factors: the fused 4x4s are
    then formed as stacked products, one ``matmul`` per factor position
    over every run that has one, in the order a gate-by-gate fold would
    form them (so each gets the bits it gets alone), and checked in one
    ``require_unitary`` call, as are the waiting gates no 4x4 took, which
    are applied on their own at the end. All the fused 4x4s go to the
    kernel in one call, which groups them into passes.
    """
    n = circuit.n
    _check_qubit_count(n)
    singles: list[np.ndarray] = []  # every single-qubit gate's matrix
    chains: dict[int, list[int]] = {}  # per wire, the single-qubit gates that wait for it
    runs: list[tuple] = []  # per fused 4x4: its pair, its two waiting chains and its factors
    factors: list = []  # a two-qubit gate's matrix, or the index of a single-qubit gate on a run's pair
    swapped, first, second = [], [], []  # the factors on a run's reversed pair, its first wire, its second
    for g in circuit.gates:
        if isinstance(g, OneQubitGate):
            if runs and g.wire in runs[-1][0]:
                (first if g.wire == runs[-1][0][0] else second).append(len(factors))
                runs[-1][3].append(len(factors))
                factors.append(len(singles))
            else:
                chains.setdefault(g.wire, []).append(len(singles))
            singles.append(g.matrix)
            continue
        if runs and runs[-1][0] in ((g.a, g.b), (g.b, g.a)):
            if runs[-1][0] != (g.a, g.b):
                swapped.append(len(factors))
            runs[-1][3].append(len(factors))
        else:
            runs.append(((g.a, g.b), chains.pop(g.a, []), chains.pop(g.b, []), [len(factors)]))
        factors.append(g.matrix)
    singles = np.reshape(np.array(singles, dtype=complex), (-1, 2, 2))
    waiting = _products(singles, [chain for run in runs for chain in run[1:3]] + list(chains.values()), I2)
    stack = np.empty((len(factors), 4, 4), dtype=complex)
    own = sorted(set(range(len(factors))).difference(first, second))
    stack[own] = embed_stack(np.reshape(np.array([factors[f] for f in own], dtype=complex), (-1, 4, 4)),
                             np.isin(own, swapped))
    stack[first + second] = embed_stack(singles[[factors[f] for f in first + second]],
                                        np.arange(len(first) + len(second)) >= len(first))
    pairs = [run[0] for run in runs]
    fused = _products(stack, [run[3] for run in runs], kron2(waiting[0:2 * len(runs):2], waiting[1:2 * len(runs):2]))
    fused = _check_gates(n, pairs, fused)
    leftover = _check_gates(n, [(wire,) for wire in chains], waiting[2 * len(runs):])
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    work = _work_buffers(n)
    _apply_gate_to_amps(amps, n, sum(pairs, ()), fused, *work)
    for wire, matrix in zip(chains, leftover):
        _apply_gate_to_amps(amps, n, (wire,), matrix, *work)
    return StateVector(n=n, amps=_freeze(amps))


def _products(factors: np.ndarray, chains: list[list[int]], start: np.ndarray) -> np.ndarray:
    """Per chain of indices into the stack ``factors``, the product
    f_k @ ... @ (f_1 @ start): ``start`` is one matrix for all chains or
    one per chain, and position j of every chain long enough is one
    stacked ``matmul``."""
    out = np.array(np.broadcast_to(start, (len(chains), *start.shape[-2:])))
    for column in itertools.zip_longest(*chains, fillvalue=-1):
        at = np.array(column)
        rows = np.flatnonzero(at >= 0)
        out[rows] = factors[at[rows]] @ out[rows]
    return out
