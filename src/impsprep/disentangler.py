"""The iterative SVD disentangling engine.

Each step takes the left singular vectors of the 4 x 2^(n-2) amplitude
block of a qubit pair and applies the inverse left factor, concentrating
the pair's weight on the rows where the source qubit is |0>. Every block's
factor is the eigenbasis of its 4x4 Gram matrix, with one canonical basis
for each cluster of equal eigenvalues (``_factor_gram``); no wide SVD is
taken. Running a schedule executes rounds of such steps and reverses them
into a preparation circuit.

``disentangle_step`` returns the step only. ``run_schedule`` owns one
state, the exact image of the target under all gates applied so far, and
the kernel's two chunk-size work buffers: one state size and two chunks
however many steps it runs. It takes each round's pairs two at a time, and
one ``statevec`` kernel pass per group sums one 16x16 Gram over the
chunks it gathers in a read sweep (skipping those outside a held slice),
reads both Gram matrices from it and applies the Kronecker product of the
two gates in an apply sweep. A gate on one pair leaves a disjoint pair's
reduced state as it was, so these Gram matrices equal the pre-round
state's (or its held slice's) up to round-off; a lone pair's pass is one
step's arithmetic.

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
from dataclasses import dataclass, field, replace
from functools import partial, reduce

import numpy as np
from scipy.linalg.blas import zherk

from .circuits import Circuit, OneQubitGate, kron2
from .circuits import simulate  # noqa: F401  unused; perfbench/tracer.py patches it by name
from .schedules import Schedule
from .statevec import StateVector, TwoQubitGate, _apply_gate_to_amps, _work_buffers, extract_block
from .statevec import inverse_extract  # noqa: F401  unused; perfbench/tracer.py patches it by name

PHASE_TOL = 1e-12
# Consecutive Gram eigenvalues closer than CLUSTER_TOL * w0, or chained that
# close to 0, are equal up to round-off (the Gram matrix's own reaches about
# 10 eps w0 at 2^20 columns); a true eigenvalue below it that joins the null
# cluster loses at most its own weight.
CLUSTER_TOL = 1e-12
# Any value below 1/2 still yields a full basis of every cluster; each vector
# then moves at most 1 / BASIS_TOL times as far as its cluster's span.
BASIS_TOL = 0.1


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


def _canonical_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of ``v``'s columns that depends on the
    span only: e0, ..., e3 projected onto it and orthonormalized in order,
    skipping residuals shorter than BASIS_TOL. For one column this fixes
    its phase: its first entry above BASIS_TOL becomes real positive."""
    basis, found = np.zeros((4, v.shape[1]), dtype=complex), 0
    for i, col in enumerate((v @ v.conj().T).T):  # the projection of e_i
        r = col - basis[:, :found] @ basis[i, :found].conj()
        norm = math.sqrt(np.vdot(r, r).real)
        if norm > BASIS_TOL:
            basis[:, found] = r / norm
            found += 1
            if found == basis.shape[1]:
                break
    return basis


def _gram(rows: np.ndarray) -> np.ndarray:
    """conj(R R^H) of the C-contiguous rows R in the lower triangle; unlike a
    sum of dot products, its bytes do not depend on the BLAS thread count."""
    return zherk(1.0, rows.T, trans=2, lower=1)


def _factor_gram(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 4x4 left factor and the four singular values, scaled to unit sum
    of squares, of the block whose ``_gram`` (lower triangle) is ``gram``.

    The left factor of the 4 x m block R is the eigenbasis of its 4x4 Gram
    matrix R R^H (Demmel et al., arXiv 0808.2664), whose eigenvalues
    w0 >= ... >= w3 are the squared singular values; blocks with m < 4
    need no special case. Eigenvalues within CLUSTER_TOL * w0 of their
    neighbours form a cluster, and each cluster gets a canonical basis
    (``_canonical_basis``), so U depends on the block, not on how round-off
    mixes equal eigenvalues. A cluster never spans the kept pair (0, 1) and
    the discarded pair (2, 3), except the round-off cluster chained to 0:
    every split of the null space keeps the same weight. The kept subspace
    is then within 10 eps w0 / (w1 - w2) of the exact one. Column 3 is
    rescaled so det U = 1, which keeps real blocks special orthogonal, hence
    two-CNOT implementable without any rewrite. The singular values of the
    round-off cluster are reported as 0; it holds every one below
    sqrt(eps) * s0.
    """
    w, v = np.linalg.eigh(gram)
    w, v = w[::-1], v[:, ::-1].conj()
    tol = CLUSTER_TOL * w[0]
    gaps = w - np.append(w[1:], 0.0)
    null = 4  # the round-off cluster is w[null:]
    while null > 0 and gaps[null - 1] <= tol:
        null -= 1
    cuts = [0, *(i for i in (1, 2, 3) if gaps[i - 1] > tol or (i == 2 and null > 1)), 4]
    u = np.column_stack([_canonical_basis(v[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:])])
    u[:, 3] *= np.linalg.det(u).conjugate()
    s = np.append(np.sqrt(w[:null]), np.zeros(4 - null))
    return u, s / np.linalg.norm(s)


def _block_svd(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factor of every step, ``_factor_gram``, of the 4 x m ``rows``."""
    return _factor_gram(_gram(rows))


def _pair_grams(chunks, n: int, wires: tuple[int, ...], fixed, spare: np.ndarray) -> list:
    """The Gram matrix of each pair of ``wires`` (one or two pairs), summed
    in chunk order over the kernel's ``(bits, gather)`` ``chunks`` and read
    from the slice with the qubits ``fixed`` at |0>: a chunk that holds one
    of them at 1 is not gathered, and a gathered block's own slice is copied
    into the chunk-size ``spare``. Two pairs' Gram matrices are the partial
    traces of the 16x16 one."""
    rest = [q for q in range(n) if q not in wires]
    gram = None
    for bits, gather in chunks:
        if any(bit and q in fixed for q, bit in zip(rest, bits)):
            continue
        block, free = gather(), rest[len(bits):]
        if fixed.intersection(free):
            t = block.reshape([len(block)] + [2] * len(free))
            t = t[(slice(None), *(0 if q in fixed else slice(None) for q in free))]
            block = spare[: t.size].reshape(len(block), -1)
            np.copyto(block.reshape(t.shape), t)
        part = _gram(block)
        gram = part if gram is None else gram + part
    if len(wires) == 2:
        return [gram]
    t = gram.reshape(4, 4, 4, 4)
    return [np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)]


def disentangle_step(state: StateVector, a: int, b: int, fixed=frozenset(), gram=None) -> DisentangleStep:
    """Factor the (a, b) block as U diag(l) V^H and return the step that
    applies U^-1.

    U comes from ``_factor_gram``, the eigenbasis of the block's 4x4 Gram
    matrix, with canonical bases for its clusters of equal eigenvalues, so
    the result is deterministic under degenerate singular values. With
    ``fixed`` the block is read from the slice of ``state`` where those
    qubits are |0>; the singular values are those of the renormalized block
    either way; a ``gram`` the caller read from that block stands in for
    it. A non-finite block entry makes its row's diagonal Gram entry
    non-finite. The step record holds unitary = U^-1 and retained_weight =
    l0^2 + l1^2; the state itself is not transformed.
    """
    if gram is None:
        gram = _gram(extract_block(state, a, b, fixed).rows)
    if not np.all(np.isfinite(gram.diagonal())):
        raise ValueError(f"block matrix of pair ({a}, {b}) contains non-finite entries")
    u, lam = _factor_gram(gram)
    retained = min(1.0, float(lam[0] ** 2 + lam[1] ** 2))
    return DisentangleStep(pair=(a, b), unitary=u.conj().T, retained_weight=retained, singular_values=lam)


def truncate_and_renormalize(state: StateVector, a: int) -> tuple[StateVector, float]:
    """Zero every amplitude with qubit ``a`` set and rescale to unit norm.

    Returns the new state and the discarded probability mass. Masses are
    accumulated with compensated summation so near-total truncation is
    detected reliably.
    """
    if not 0 <= a < state.n:
        raise ValueError(f"qubit index {a} out of range for n = {state.n}")
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
    target: StateVector, schedule: Schedule, layers: int = 1,
    truncation_mode: TruncationMode = TruncationMode.PER_ROUND, rewrite_2cx: bool = False,
) -> PreparationResult:
    """Disentangle ``target`` by ``layers`` repetitions of ``schedule`` and
    return the reversed preparation circuit.

    A round's pairs are disjoint and taken two to a state pass (see the
    module docstring); truncation follows
    ``truncation_mode`` as described in the module docstring. With
    ``rewrite_2cx`` each SVD unitary is replaced by its two-CNOT-implementable
    equivalence-class representative before being applied; every step keeps
    the same retained weight (the replacement only mixes amplitudes within
    the kept and discarded halves), downstream steps absorb the difference,
    and exact targets stay exact. On inexact targets the two compilations
    agree to round-off only for one layer with PER_LAYER truncation (chain,
    ttn), where no later step reads a discarded half. With PER_ROUND
    truncation or more layers, later steps read it too, with the
    replacement's factor on it, and the infidelity differs either way.

    The final single-qubit rotation aligning the survivor qubit with |0> is
    absorbed explicitly, so the emitted circuit prepares the target from
    |0...0> up to global phase and the truncation error. Its fidelity is
    the squared norm of the two amplitudes that rotation reads.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    schedule.validate()
    if schedule.n != target.n:
        raise ValueError(f"schedule is for n = {schedule.n}, target has n = {target.n}")
    if rewrite_2cx:
        from .gatesynth import build_u2cx

    n = target.n
    held = _held_qubits(schedule, truncation_mode)
    exact = target.amps.copy()
    state = StateVector(n=n, amps=exact)
    work = _work_buffers(n)
    steps: list[DisentangleStep] = []
    per_round_weights: list[float] = []

    def factor(group, fixed, chunks) -> np.ndarray:
        # the kernel calls this with its read sweep, before its apply sweep
        for (a, b), gram in zip(group, _pair_grams(chunks, n, sum(group, ()), fixed, work[1])):
            step = disentangle_step(state, a, b, fixed, gram)
            steps.append(replace(step, unitary=build_u2cx(step.unitary)) if rewrite_2cx else step)
        return reduce(kron2, [step.unitary for step in steps[-len(group):]])

    for _layer in range(layers):
        for rnd, fixed in zip(schedule.rounds, held):
            first = len(steps)
            for i in range(0, len(rnd), 2):
                group = rnd[i:i + 2]
                _apply_gate_to_amps(exact, n, sum(group, ()), partial(factor, group, fixed), *work)
            per_round_weights.append(float(np.prod([s.retained_weight for s in steps[first:]])))

    survivor = schedule.survivor()
    v0, v1 = exact[0], exact[1 << (n - 1 - survivor)]
    gates: list = []
    rot = _absorb_survivor(v0, v1)
    if rot is not None:
        gates.append(OneQubitGate(survivor, rot.conj().T))
    gates += [TwoQubitGate(*step.pair, step.unitary.conj().T) for step in reversed(steps)]

    final = float(min(1.0, max(0.0, 1.0 - (abs(v0) ** 2 + abs(v1) ** 2))))
    circuit = Circuit(n=n, gates=gates, u_depth=layers * schedule.u_depth)
    return PreparationResult(circuit, final, per_round_weights, steps)


def default_truncation_mode(scheme: str) -> TruncationMode:
    """Chain/tree schemes truncate per layer, the denser schemes per round."""
    if scheme in ("chain", "ttn"):
        return TruncationMode.PER_LAYER
    return TruncationMode.PER_ROUND
