"""The iterative SVD disentangling engine.

Each step takes the left singular vectors of the 4 x 2^(n-2) amplitude
block of a qubit pair and applies the inverse left factor, concentrating
the pair's weight on the rows where the source qubit is |0>. Every block's
factor is the eigenbasis of its 4x4 Gram matrix, with one canonical basis
for each cluster of equal eigenvalues (``_factor_gram``); no wide SVD is
taken. Running a schedule executes rounds of such steps and reverses them
into a preparation circuit.

``disentangle_step`` returns the step only. ``run_schedule`` disentangles
a stack of S same-size targets at once, one benchmark cell's samples, and
owns one (S, 2^n) array, the exact image of every target under all gates
applied so far, and the kernel's two chunk-size work buffers: S state sizes
and two chunks however many steps it runs. It takes each round's pairs two
at a time, and one ``statevec`` kernel pass per group sums each sample's
16x16 Gram over the chunks it gathers in a read sweep (skipping those
outside a held slice), reads both pairs' Gram matrices from it, factors
all of them (samples x pairs) in one stacked ``disentangle_step``, rewrites
them in one stacked ``build_u2cx`` and applies each sample's Kronecker
product of the two gates in an apply sweep. A gate on one pair leaves a
disjoint pair's reduced state as it was, so these Gram matrices equal the
pre-round state's (or its held slice's) up to round-off; a lone pair's pass
is one step's arithmetic. Every matrix of a stack gets the bits it gets
alone, so a target's circuit does not depend on the stack it is compiled
in.

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
from functools import partial, reduce

import numpy as np
from scipy.linalg.blas import zherk

from .circuits import Circuit, OneQubitGate, kron2
from .circuits import simulate  # noqa: F401  unused; perfbench/tracer.py patches it by name
from .schedules import Schedule
from .statevec import StackError, StateVector, TwoQubitGate, _apply_gate_to_amps, _work_buffers, extract_block
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


def _norms(r: np.ndarray) -> np.ndarray:
    """sqrt(vdot(x, x).real) of every vector x along the last axis, each
    as ``np.vdot`` forms it alone."""
    return np.sqrt((r.conj()[..., None, :] @ r[..., :, None])[..., 0, 0].real)


def _canonical_bases(v: np.ndarray) -> np.ndarray:
    """For each (4, k) matrix of the stack ``v``, an orthonormal basis of
    the span of its columns that depends on the span only: e0, ..., e3
    projected onto it and orthonormalized in order, skipping residuals
    shorter than BASIS_TOL. For one column this fixes its phase: its first
    entry above BASIS_TOL becomes real positive. Basis vector f is the first
    residual past vector f - 1 that is long enough, so each comes from the
    residuals of all four projections at once, each formed as it is alone."""
    count, _, k = v.shape
    rows = (v @ v.conj().mT).mT  # row i: the projection of e_i
    basis = np.zeros(v.shape, dtype=complex)
    at, usable = np.arange(count), True
    for f in range(k):
        # row i less the vectors so far times their conjugated entries i
        r = rows - (basis[:, None, :, :f] @ basis[:, :, :f, None].conj())[..., 0] if f else rows
        norm = _norms(r)
        pick = ((norm > BASIS_TOL) & usable).argmax(axis=1)
        basis[:, :, f] = r[at, pick] / norm[at, pick, None]
        if f + 1 < k:
            usable = _ROWS > pick[:, None]  # the rows past this vector's
    return basis


def _cluster_tables() -> tuple[np.ndarray, dict[int, np.ndarray], list[set[int]]]:
    """For each of the 16 patterns of round-off gaps (bit 3 - j set when
    w_j - w_(j+1), or w3 - 0 for j = 3, is round-off): the columns outside
    the round-off cluster chained to 0, the columns that open a cluster of
    each size k > 1, and the sizes k > 1 it has. A cluster is a run of
    round-off gaps; the round-off cluster also splits the kept pair (0, 1)
    from the discarded pair (2, 3)."""
    keep = np.zeros((16, 4), dtype=bool)
    opens = {k: np.zeros((16, 4), dtype=bool) for k in (2, 3, 4)}
    sizes = []
    for code in range(16):
        small = [bool(code >> (3 - j) & 1) for j in range(4)]
        null = 4
        while null and small[null - 1]:
            null -= 1
        keep[code, :null] = True
        edges = [0] + [j for j in (1, 2, 3) if not small[j - 1] or (j == 2 and null > 1)] + [4]
        runs = [(lo, hi - lo) for lo, hi in zip(edges, edges[1:]) if hi - lo > 1]
        for lo, k in runs:
            opens[k][code, lo] = True
        sizes.append({k for _, k in runs})
    return keep, opens, sizes


_ROWS = np.arange(4)
_GAP_BITS = np.array([8, 4, 2, 1])
_KEEP, _OPENS, _SIZES = _cluster_tables()


def _gram(rows: np.ndarray) -> np.ndarray:
    """conj(R R^H) of the C-contiguous rows R in the lower triangle; unlike a
    sum of dot products, its bytes do not depend on the BLAS thread count."""
    return zherk(1.0, rows.T, trans=2, lower=1)


def _factor_gram(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 4x4 left factor and the four singular values, scaled to unit sum
    of squares, of the block whose ``_gram`` (lower triangle) is ``gram``,
    for each matrix of a (..., 4, 4) stack; each gets the bits it gets alone.

    The left factor of the 4 x m block R is the eigenbasis of its 4x4 Gram
    matrix R R^H (Demmel et al., arXiv 0808.2664), whose eigenvalues
    w0 >= ... >= w3 are the squared singular values; blocks with m < 4
    need no special case. Eigenvalues within CLUSTER_TOL * w0 of their
    neighbours form a cluster, and each cluster gets a canonical basis
    (``_canonical_bases``), so U depends on the block, not on how round-off
    mixes equal eigenvalues. A cluster never spans the kept pair (0, 1) and
    the discarded pair (2, 3), except the round-off cluster chained to 0:
    every split of the null space keeps the same weight. The kept subspace
    is then within 10 eps w0 / (w1 - w2) of the exact one. Column 3 is
    rescaled so det U = 1, which keeps real blocks special orthogonal, hence
    two-CNOT implementable without any rewrite. The singular values of the
    round-off cluster are reported as 0; it holds every one below
    sqrt(eps) * s0. Each matrix's pattern of round-off gaps picks its
    clusters from ``_cluster_tables``: every column first gets the basis of
    a one-column cluster, and the clusters of each larger size are one stack
    for ``_canonical_bases``.
    """
    shape = gram.shape[:-2]
    w, v = np.linalg.eigh(gram.reshape(-1, 4, 4))
    w, v = w[:, ::-1], v[:, :, ::-1].conj()
    gaps = w.copy()  # w_i - w_(i+1), and w3 - 0
    gaps[:, :3] -= w[:, 1:]
    code = (gaps <= CLUSTER_TOL * w[:, :1]) @ _GAP_BITS
    u = _canonical_bases(v.mT.reshape(-1, 4, 1)).reshape(v.shape).mT
    for k in sorted(set().union(*(_SIZES[c] for c in set(code.tolist())))):
        mat, col = np.nonzero(_OPENS[k][code])
        at = (mat[:, None], slice(None), col[:, None] + _ROWS[:k])
        u[at] = _canonical_bases(v[at].mT).mT
    u[:, :, 3] *= np.linalg.det(u).conjugate()[:, None]
    s = np.sqrt(np.where(_KEEP[code], w, 0.0))
    s /= np.sqrt((s[:, None, :] @ s[:, :, None])[:, 0])  # as np.linalg.norm forms it
    return u.reshape(*shape, 4, 4), s.reshape(*shape, 4)


def _block_svd(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factor of every step, ``_factor_gram``, of the 4 x m ``rows``."""
    return _factor_gram(_gram(rows))


def _pair_grams(chunks, n: int, wires: tuple[int, ...], fixed, spare: np.ndarray, count: int) -> np.ndarray:
    """The Gram matrix of each pair of ``wires`` (one or two pairs) in each
    of ``count`` samples, as a (count, pairs, 4, 4) stack. Each is summed in
    chunk order over the kernel's ``(samples, bits, gather)`` ``chunks`` and
    read from the slice with the qubits ``fixed`` at |0>: a chunk that holds
    one of them at 1 is not gathered, and a gathered block's own slice is
    copied into the chunk-size ``spare``. Two pairs' Gram matrices are the
    partial traces of the 16x16 one."""
    rest = [q for q in range(n) if q not in wires]
    grams = [None] * count
    for samples, bits, gather in chunks:
        if any(bit and q in fixed for q, bit in zip(rest, bits)):
            continue
        blocks, free = gather(), rest[len(bits):]
        if fixed.intersection(free):
            t = blocks.reshape([*blocks.shape[:2]] + [2] * len(free))
            t = t[(slice(None), slice(None), *(0 if q in fixed else slice(None) for q in free))]
            blocks = spare[: t.size].reshape(*blocks.shape[:2], -1)
            np.copyto(blocks.reshape(t.shape), t)
        for i, block in zip(samples, blocks):
            part = _gram(block)
            grams[i] = part if grams[i] is None else grams[i] + part
    gram = np.array(grams)
    if len(wires) == 2:
        return gram[:, None]
    t = gram.reshape(-1, 4, 4, 4, 4)
    return np.stack([np.trace(t, axis1=2, axis2=4), np.trace(t, axis1=1, axis2=3)], axis=1)


def disentangle_step(state: StateVector, a, b, fixed=frozenset(), gram=None):
    """Factor the (a, b) block as U diag(l) V^H and return the step that
    applies U^-1.

    U comes from ``_factor_gram``, the eigenbasis of the block's 4x4 Gram
    matrix, with canonical bases for its clusters of equal eigenvalues, so
    the result is deterministic under degenerate singular values. With
    ``fixed`` the block is read from the slice of ``state`` where those
    qubits are |0>; the singular values are those of the renormalized block
    either way; a ``gram`` the caller read from that block stands in for
    it. A non-finite block entry makes its row's diagonal Gram entry
    non-finite, and raises StackError. The step record holds unitary =
    U^-1 and retained_weight = l0^2 + l1^2; the state itself is not
    transformed.

    ``gram`` may also be a (..., P, 4, 4) stack of the Gram matrices of P
    disjoint pairs, with ``a`` and ``b`` the P-tuples of their first and
    second qubits. One stacked factor then gives every matrix the bits it
    gets alone, and the call returns, in place of a step record, the
    arrays of the unitaries U^-1 (..., P, 4, 4), the singular values
    (..., P, 4) and the retained weights (..., P).
    """
    stacked = gram is not None and gram.ndim > 2
    if gram is None:
        gram = _gram(extract_block(state, a, b, fixed).rows)
    finite = np.isfinite(gram.reshape(-1, 16)[:, ::5])  # the diagonals
    if not finite.all():
        k = int(finite.all(axis=1).argmin())
        pairs = list(zip(a, b)) if stacked else [(a, b)]
        a_k, b_k = pairs[k % len(pairs)]
        raise StackError(f"block matrix of pair ({a_k}, {b_k}) contains non-finite entries", k)
    u, lam = _factor_gram(gram)
    # Python floats: numpy's array square rounds unlike its scalar power
    weights = [min(1.0, s0 ** 2 + s1 ** 2) for s0, s1, *_ in lam.reshape(-1, 4).tolist()]
    if stacked:
        return u.conj().mT, lam, np.reshape(weights, lam.shape[:-1])
    return DisentangleStep(pair=(a, b), unitary=u.conj().T, retained_weight=weights[0], singular_values=lam)


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
    targets, schedule: Schedule, layers: int = 1,
    truncation_mode: TruncationMode = TruncationMode.PER_ROUND, rewrite_2cx: bool = False,
):
    """Disentangle ``targets``, one state or a sequence of same-size states,
    by ``layers`` repetitions of ``schedule`` and return the reversed
    preparation circuit: a PreparationResult for one state, a list of them
    for a sequence.

    A sequence is one stack, and a round's pairs are disjoint and taken two
    to a state pass (see the module docstring); each target's result is the
    one it gets alone, bit for bit. Truncation follows ``truncation_mode``
    as described in the module docstring. With ``rewrite_2cx`` each SVD
    unitary is replaced by its two-CNOT-implementable equivalence-class
    representative before being applied; every step keeps the same retained
    weight (the replacement only mixes amplitudes within the kept and
    discarded halves), downstream steps absorb the difference, and exact
    targets stay exact. On inexact targets the two compilations agree to
    round-off only for one layer with PER_LAYER truncation (chain, ttn),
    where no later step reads a discarded half. With PER_ROUND truncation
    or more layers, later steps read it too, with the replacement's factor
    on it, and the infidelity differs either way.

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
    schedule.validate()
    n = schedule.n
    for target in stack:
        if target.n != n:
            raise ValueError(f"schedule is for n = {schedule.n}, target has n = {target.n}")
    if rewrite_2cx:
        from .gatesynth import build_u2cx

    held = _held_qubits(schedule, truncation_mode)
    exact = np.array([target.amps for target in stack])
    count = len(exact)
    work = _work_buffers(n, count)
    passes = []  # per pass: its pairs, and their (S, P, ...) unitaries, singular values and weights

    def factor(group, fixed, where, chunks) -> np.ndarray:
        # the kernel calls this with its read sweep, before its apply sweep
        grams = _pair_grams(chunks, n, sum(group, ()), fixed, work[1], count)
        try:
            unitary, lam, weights = disentangle_step(None, *zip(*group), fixed, grams)
            if rewrite_2cx:
                unitary = build_u2cx(unitary)
        except StackError as exc:
            i, p = divmod(exc.index, len(group))
            raise StackError(f"{where} pair {group[p]}: {exc}", i) from exc
        passes.append((group, unitary, lam, weights.tolist()))
        return reduce(kron2, unitary.swapaxes(0, 1))

    per_round_weights: list[list[float]] = [[] for _ in stack]
    for layer in range(layers):
        for r, (rnd, fixed) in enumerate(zip(schedule.rounds, held)):
            first, where = len(passes), f"layer {layer} round {r}"
            for i in range(0, len(rnd), 2):
                group = rnd[i:i + 2]
                _apply_gate_to_amps(exact, n, sum(group, ()), partial(factor, group, fixed, where), *work)
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
