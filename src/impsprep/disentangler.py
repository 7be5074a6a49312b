"""The iterative SVD disentangling engine.

Each step takes the left singular vectors of the 4 x 2^(n-2) amplitude
block of a qubit pair (``extract_block``'s rows, which ``inverse_extract``
puts back) and applies the inverse left factor, concentrating
the pair's weight on the rows where the source qubit is |0>. Every block's
factor is the eigenbasis of its 4x4 Gram matrix, with one canonical basis
for each cluster of equal eigenvalues (``_factor_gram``); no wide SVD is
taken. Running a schedule executes rounds of such steps and reverses them
into a preparation circuit.

``disentangle_step`` returns the step only. ``run_schedule`` disentangles
a stack of S same-size targets of one kind, all real or all complex, at
once (one benchmark cell's samples), and owns one (S, 2^n) array, the
exact image of every target under all gates applied so far, and the
kernel's two chunk-size work buffers: S state sizes and two chunks however
many steps it runs. It hands each round to the ``statevec`` kernel with
the round's held qubits and a function of Gram matrices; the kernel
decides how the round splits into state passes and how each pair's Gram
matrix is read. The function factors all of a pass's (samples x pairs) in
one stacked ``disentangle_step`` and rewrites a complex stack's in one
stacked ``build_u2cx``. A stack of real targets runs in float64
throughout; its steps are special orthogonal, so two-CNOT as they are, and
none is rewritten. A gate on one pair leaves a disjoint pair's reduced
state as it was, so all of a round's Gram matrices equal the pre-round
state's (or its held slice's) up to round-off; a lone pair's pass is one
step's arithmetic. Every matrix of a stack gets the bits it gets alone, so
a target's circuit does not depend on the stack it is compiled in.

Truncation conventions
----------------------
* PER_ROUND: each round's unitaries are computed from the exact state. Used
  by the hypercube/slot-filled/grid schemes, whose rounds revisit
  already-disentangled qubits to re-squeeze residual weight.
* PER_LAYER: within a layer a disentangled source counts as |0> (for the
  chain this reproduces the canonical sequential MPS sweep exactly). No
  later round of the layer touches it, so that truncation commutes with the
  layer's remaining gates, and steps read their block from the slice of the
  exact state with the layer's earlier sources at |0>. Each layer starts
  from the exact state. Schedules that revisit a source within a layer
  (htn and hen at n >= 4, fig6) are rejected in this mode.

Multiple layers repeat the schedule; later layers see the residual error of
earlier ones. That usually raises the prepared fidelity but does not
guarantee it: with PER_ROUND truncation a second layer can lower it slightly
on random targets (hen at n = 14, mean over 10 samples, seeds 0 and 1). The
tests check that the infidelity does not increase over 1, 2 and 3 layers
only for the f1-f3 and g1-g3 benchmark targets at n = 10.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import gatesynth
from .circuits import Circuit, OneQubitGate, TwoQubitGate
from .circuits import simulate  # noqa: F401  unused; perfbench/tracer.py patches it by name
from .schedules import Schedule
from .statevec import StackError, StateVector, _apply_gate_to_amps, _freeze, _gram, _work_buffers
from .statevec import _check_wires, _raise_first_failure, cluster_bases

PHASE_TOL = 1e-12
# Consecutive Gram eigenvalues closer than CLUSTER_TOL * w0, or chained that
# close to 0, are equal up to round-off (the Gram matrix's own reaches about
# 10 eps w0 at 2^20 columns); a true eigenvalue below it that joins the null
# cluster loses at most its own weight.
CLUSTER_TOL = 1e-12


class TruncationMode(enum.Enum):
    PER_LAYER = "layer"
    PER_ROUND = "round"


@dataclass(frozen=True)
class DisentangleStep:
    """One executed disentangling unitary (the U^-1 of the block SVD)."""

    pair: tuple[int, int]
    unitary: np.ndarray = field(repr=False)
    retained_weight: float
    singular_values: np.ndarray = field(repr=False)


@dataclass
class PreparationResult:
    circuit: Circuit
    final_infidelity: float
    per_round_weights: list[float]
    steps: list[DisentangleStep]


def extract_block(state: StateVector, a: int, b: int, fixed=frozenset()) -> np.ndarray:
    """The read-only 4 x 2^(n-2-k) block of ``state`` on the pair (a, b),
    with the k qubits in ``fixed`` held at |0>: rows (0,0), (0,1), (1,0),
    (1,1), each over the other qubits' bits in ascending order; a view,
    then one copy."""
    _check_wires(state.n, (a, b))
    if a in fixed or b in fixed:
        raise ValueError(f"pair ({a}, {b}) overlaps the qubits held at |0>: {sorted(fixed)}")
    t = state.amps.reshape([2] * state.n)[tuple(0 if q in fixed else slice(None) for q in range(state.n))]
    kept = [q for q in range(state.n) if q not in fixed]
    t = np.moveaxis(t, (kept.index(a), kept.index(b)), (0, 1))
    return _freeze(np.array(t, order="C").reshape(4, -1))


def inverse_extract(rows: np.ndarray, a: int, b: int) -> StateVector:
    """Exact inverse of extract_block on the pair (a, b) with no qubit held:
    a bit permutation of the ``rows``."""
    t = np.moveaxis(rows.reshape([2] * (rows.size.bit_length() - 1)), (0, 1), (a, b))
    return StateVector(n=t.ndim, amps=_freeze(t.reshape(-1).copy()))


def _factor_gram(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 4x4 left factor and the four singular values, scaled to unit sum
    of squares, of the block whose ``_gram`` is ``gram``,
    for each matrix of a (..., 4, 4) stack; each gets the bits it gets alone.

    The left factor of the 4 x m block R is the eigenbasis of its 4x4 Gram
    matrix R R^H (Demmel et al., arXiv 0808.2664), whose eigenvalues
    w0 >= ... >= w3 are the squared singular values; blocks with m < 4
    need no special case. Eigenvalues within CLUSTER_TOL * w0 of their
    neighbours form a cluster, and ``cluster_bases`` gives each cluster its
    canonical basis, so U depends on the block, not on how round-off mixes
    equal eigenvalues. A cluster never spans the kept pair (0, 1) and the
    discarded pair (2, 3), except the round-off cluster chained to 0: every
    split of the null space keeps the same weight. The kept subspace is then
    within 10 eps w0 / (w1 - w2) of the exact one. Column 3 is rescaled so
    det U = 1, which keeps real blocks special orthogonal, hence two-CNOT
    implementable without any rewrite. The singular values of the round-off
    cluster are reported as 0; it holds every one below sqrt(eps) * s0.
    """
    shape = gram.shape[:-2]
    w, v = np.linalg.eigh(gram.reshape(-1, 4, 4))
    w, v = w[:, ::-1], v[:, :, ::-1].conj()
    gaps = w.copy()  # w_i - w_(i+1), and w3 - 0
    gaps[:, :3] -= w[:, 1:]
    small = gaps <= CLUSTER_TOL * w[:, :1]
    keep = np.logical_or.accumulate(~small[:, ::-1], axis=1)[:, ::-1]  # outside the cluster chained to 0
    tied = small[:, :3].copy()
    tied[:, 1] = ~keep[:, 1]  # the kept and discarded pairs share only that cluster
    u = cluster_bases(v, tied)
    u[:, :, 3] *= np.linalg.det(u).conjugate()[:, None]
    s = np.sqrt(np.where(keep, w, 0.0))
    s /= np.sqrt((s[:, None, :] @ s[:, :, None])[:, 0])  # as np.linalg.norm forms it
    return u.reshape(*shape, 4, 4), s.reshape(*shape, 4)


def disentangle_step(state: StateVector, a, b, fixed=frozenset(), gram=None):
    """Factor the (a, b) block as U diag(l) V^H and return the step that
    applies U^-1.

    U comes from ``_factor_gram``, the eigenbasis of the block's 4x4 Gram
    matrix, with canonical bases for its clusters of equal eigenvalues, so
    the result is deterministic under degenerate singular values. With
    ``fixed`` the block is read from the slice of ``state`` where those
    qubits are |0>; the singular values are those of the renormalized block
    either way. A non-finite block entry makes its row's diagonal Gram entry
    non-finite, and raises StackError. The step record holds unitary = U^-1
    and retained_weight = l0^2 + l1^2; the state itself is not transformed.

    The engine passes ``gram``, a (..., P, 4, 4) stack of the Gram matrices
    of P disjoint pairs, in place of ``state`` and ``fixed``, with ``a`` and
    ``b`` the P-tuples of their first and second qubits. One stacked factor
    then gives every matrix the bits it gets alone, and the call returns, in
    place of a step record, the arrays of the unitaries U^-1 (..., P, 4, 4),
    the singular values (..., P, 4) and the retained weights (..., P).
    """
    if gram is None:
        u, lam, weights = disentangle_step(None, (a,), (b,), gram=_gram(extract_block(state, a, b, fixed))[None])
        return DisentangleStep(pair=(a, b), unitary=u[0], retained_weight=float(weights[0]), singular_values=lam[0])
    pairs = list(zip(a, b))
    nonfinite = ~np.isfinite(gram.reshape(-1, 16)[:, ::5])  # the diagonals
    _raise_first_failure([(nonfinite, lambda k: "block matrix of pair ({}, {}) contains non-finite entries"
                           .format(*pairs[k % len(pairs)]))])
    u, lam = _factor_gram(gram)
    # Python floats: numpy's array square rounds unlike its scalar power
    weights = [min(1.0, s0 ** 2 + s1 ** 2) for s0, s1, *_ in lam.reshape(-1, 4).tolist()]
    return u.conj().mT, lam, np.reshape(weights, lam.shape[:-1])


def truncate_and_renormalize(state: StateVector, a: int) -> tuple[StateVector, float]:
    """Zero every amplitude with qubit ``a`` set and rescale to unit norm.

    Returns the new state and the discarded probability mass. Masses are
    accumulated with compensated summation so near-total truncation is
    detected reliably.
    """
    _check_wires(state.n, (a,))
    t = np.array(state.amps, dtype=complex).reshape([2] * state.n)
    moved = np.moveaxis(t, a, 0)
    discarded = math.fsum(np.abs(moved[1]).ravel() ** 2)
    kept = math.fsum(np.abs(moved[0]).ravel() ** 2)
    if kept < 1e-14:
        raise ValueError(f"truncation of qubit {a} would discard (almost) all mass")
    moved[1] = 0.0
    moved[0] /= math.sqrt(kept)
    t.setflags(write=False)
    return StateVector(n=state.n, amps=t.reshape(-1)), float(discarded)


def _absorb_survivor(v0: complex, v1: complex) -> np.ndarray | None:
    """2x2 rotation sending the survivor's residual superposition
    v0|0> + v1|1> onto |0>."""
    nv = math.hypot(abs(v0), abs(v1))
    if nv < 1e-14:
        return None
    r = np.array([[v0.conjugate() / nv, v1.conjugate() / nv], [-v1 / nv, v0 / nv]])
    if np.abs(r - np.eye(2)).max() < PHASE_TOL:
        return None
    return r


def _held_qubits(schedule: Schedule, mode: TruncationMode) -> list[frozenset[int]]:
    """Per round, the qubits held at |0> while its steps are computed: in
    PER_LAYER mode the sources of the layer's earlier rounds, which no later
    round of the layer may touch."""
    held: list[frozenset[int]] = []
    retired: frozenset[int] = frozenset()
    for i, rnd in enumerate(schedule.rounds):
        clash = retired.intersection(q for pair in rnd for q in pair)
        if clash:
            raise ValueError(
                f"per-layer truncation: qubit {min(clash)} is disentangled before round {i} "
                f"of the {schedule.scheme} schedule and used again in it; use per-round truncation"
            )
        held.append(retired)
        if mode is TruncationMode.PER_LAYER:
            retired = retired.union(a for a, _b in rnd)
    return held


def run_schedule(
    targets, schedule: Schedule, layers: int = 1,
    truncation_mode: TruncationMode | None = None, rewrite_2cx: bool = False,
):
    """Disentangle ``targets``, one state or a sequence of same-size states,
    by ``layers`` repetitions of ``schedule`` and return the reversed
    preparation circuit: a PreparationResult for one state, a list of them
    for a sequence.

    A sequence is one stack, and each round, of disjoint pairs, is one
    kernel call (see the module docstring); each target's result is the
    one it gets alone, bit for bit. Truncation follows ``truncation_mode``,
    a TruncationMode or its value, by default the scheme's convention
    (``default_truncation_mode``), as described in the module docstring;
    any other value raises ValueError. The targets are all real (every
    imaginary part exactly 0) or all complex; a sequence of both raises
    ValueError naming the first target of the other kind. A real stack runs
    in float64 and is never rewritten: its special orthogonal steps are
    two-CNOT as they are, so ``rewrite_2cx`` changes nothing. On a complex
    stack ``rewrite_2cx`` replaces each SVD unitary by its
    two-CNOT-implementable equivalence-class representative before it is
    applied; every step keeps the same retained weight (the replacement
    only mixes amplitudes within the kept and discarded halves), downstream
    steps absorb the difference, and exact targets stay exact. On inexact
    targets the two compilations agree to round-off only for one layer with
    PER_LAYER truncation (chain, ttn), where no later step reads a discarded
    half. With PER_ROUND truncation or more layers, later steps read it too,
    with the replacement's factor on it, and the infidelity differs either
    way.

    The final single-qubit rotation aligning the survivor qubit with |0> is
    absorbed explicitly, so the emitted circuit prepares the target from
    |0...0> up to global phase and the truncation error. Its fidelity is
    the squared norm of the two amplitudes that rotation reads.

    A failed check of a step (a non-finite block, the CSD, a unitarity
    check) raises StackError prefixed by where it happened, ``layer {l}
    round {r} pair ({a}, {b}): `` counted from 0, whose ``index`` is the
    failing target's position in the stack.
    """
    stack = [targets] if isinstance(targets, StateVector) else list(targets)
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if not stack:
        raise ValueError("need at least one target")
    n = schedule.n
    real = not stack[0].amps.imag.any()
    for i, target in enumerate(stack):
        if target.n != n:
            raise ValueError(f"schedule is for n = {schedule.n}, target has n = {target.n}")
        if target.amps.imag.any() == real:
            raise ValueError(f"target {i} is {'complex' if real else 'real'} and target 0 is not: "
                             "a stack holds targets of one kind")
    rewrite = rewrite_2cx and not real
    mode = default_truncation_mode(schedule.scheme) if truncation_mode is None else TruncationMode(truncation_mode)
    held = _held_qubits(schedule, mode)
    exact = np.array([target.amps.real if real else target.amps for target in stack])
    count = len(exact)
    work = _work_buffers(n, count, exact.dtype)
    passes = []  # per pass: its pairs, and their (S, P, ...) unitaries, singular values and weights

    def factor(where: str, pairs: list, grams: np.ndarray) -> np.ndarray:
        # the kernel calls this once per pass, with its pairs' Gram matrices
        try:
            unitary, lam, weights = disentangle_step(None, *zip(*pairs), gram=grams)
            if rewrite:
                unitary = gatesynth.build_u2cx(unitary)
        except StackError as exc:
            i, p = divmod(exc.index, len(pairs))
            raise StackError(f"{where} pair {pairs[p]}: {exc}", i) from exc
        passes.append((pairs, unitary, lam, weights.tolist()))
        return unitary

    per_round_weights: list[list[float]] = [[] for _ in stack]
    for layer in range(layers):
        for r, (rnd, fixed) in enumerate(zip(schedule.rounds, held)):
            first = len(passes)
            _apply_gate_to_amps(exact, n, sum(rnd, ()), partial(factor, f"layer {layer} round {r}"), *work, held=fixed)
            for i, weights in enumerate(per_round_weights):
                weights.append(float(np.prod([w for *_, pass_weights in passes[first:] for w in pass_weights[i]])))

    survivor = schedule.survivor()
    results = []
    for i, (amps, weights) in enumerate(zip(exact, per_round_weights)):
        sample_steps = [DisentangleStep(pair, unitary[i, p], pass_weights[i][p], lam[i, p])
                        for group, unitary, lam, pass_weights in passes for p, pair in enumerate(group)]
        v0, v1 = amps[0], amps[1 << (n - 1 - survivor)]
        gates: list = []
        rot = _absorb_survivor(v0, v1)
        if rot is not None:
            gates.append(OneQubitGate(survivor, rot.conj().T))
        gates += [TwoQubitGate(*step.pair, step.unitary.conj().T) for step in reversed(sample_steps)]
        final = float(min(1.0, max(0.0, 1.0 - (abs(v0) ** 2 + abs(v1) ** 2))))
        circuit = Circuit(n=n, gates=gates, u_depth=layers * schedule.u_depth)
        results.append(PreparationResult(circuit, final, weights, sample_steps))
    return results[0] if isinstance(targets, StateVector) else results


def default_truncation_mode(scheme: str) -> TruncationMode:
    """Chain/tree schemes truncate per layer, the denser schemes per round."""
    if scheme in ("chain", "ttn"):
        return TruncationMode.PER_LAYER
    return TruncationMode.PER_ROUND
