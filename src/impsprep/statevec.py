"""Dense statevectors, the gate kernel, fidelity metrics and the rules
several modules share.

Index convention: qubit 0 is the most significant bit of the basis index,
so qubit ``i`` sits at bit position ``n - 1 - i`` of the integer index.
States are value-semantic: every public operation returns a fresh object
whose buffer is read-only. One kernel, ``_apply_gate_to_amps``, applies
every gate on one wire or on an ordered run of pairs, in place, to a
stack of S same-size amplitude vectors its caller owns: per sample one
matrix on all the wires or the (P, 4, 4) stack of the pairs' gates, given
as an array or as a function of the pairs' Gram matrices (``_gram``) that
returns it. The kernel makes every decision of a state pass, by one rule
for every caller: a pass takes the next pair unless it shares a wire with
the pass or, above one chunk (``fits_one_chunk``, n > 16), holds two
pairs. While a sample fits in one chunk each pair's Gram is read alone;
above that a pass's pairs are read together, as one 16x16 Gram and its
partial traces. Within a pass the pairs go two to a GEMM, as the Kronecker
product of their gates. It works chunk by chunk, as qsim blocks for the cache
(arXiv 2111.02396): a chunk of at most ``CHUNK`` amplitudes holds
``CHUNK >> n`` whole samples when a sample fits in one, else one sample's
amplitudes with its most significant non-gate qubits fixed. Each chunk
goes through two chunk-size work buffers that the caller allocates once
(``_work_buffers``) and reuses for every pass, and is one gather, one
stacked ``matmul`` per two pairs and one scatter. The plan of a pass, its
chunk index, is built once per (n, wires, S, ``CHUNK``) and cached
(``_plan``), as is each axis order of a gather (``_order``). No other
module reads the chunk layout. The engine (``disentangler``) and the
simulator (``circuits``) each own one stack (the simulator's of one state)
and one pair of work buffers per call. The rules several modules share
live here too: the stack checks, the gate and qubit-index checks, the
float format, and the canonical bases of eigenvalue clusters
(``cluster_bases``).
"""
from __future__ import annotations

import functools
import itertools
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

UNITARY_TOL = 1e-10
# amplitudes per kernel chunk (1 MiB); at least 16, so that a chunk holds
# every value of four gate wires
CHUNK = 1 << 16
# Any value below 1/2 still yields a full basis of every cluster; each vector
# then moves at most 1 / BASIS_TOL times as far as its cluster's span.
BASIS_TOL = 0.1
_ROWS = np.arange(4)


def _check_qubit_count(n: int) -> None:
    """Dense vectors hold 1 to IMPS_MAX_QUBITS (a positive integer, default 24) qubits."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    cap = os.environ.get("IMPS_MAX_QUBITS", "24")
    if not (cap.isdecimal() and int(cap) > 0):
        raise ValueError(f"IMPS_MAX_QUBITS wants a positive integer, got {cap!r}")
    if n > int(cap):
        raise ValueError(f"{n} qubits exceeds cap of {cap} (set IMPS_MAX_QUBITS to raise)")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector over ``n`` qubits."""

    n: int
    amps: np.ndarray = field(repr=False)


def from_amplitudes(raw) -> StateVector:
    """Build a normalized StateVector from a copy of any complex sequence.

    A vector whose norm reads within 2 eps of 1 is a unit vector up to the
    norm's own round-off and keeps its bits, so a saved state loads as it
    was saved; any other is divided by its norm. A vector whose sum of
    squares overflows, or is below tiny / eps, where squares that fell to
    subnormals or to 0 could cost the norm precision, is first divided by
    the largest magnitude among its real and imaginary parts. Raises
    ValueError for non-power-of-two length, an all-zero vector, non-finite
    entries, or a qubit count above the configured cap.
    """
    amps = np.asarray(raw, dtype=complex).reshape(-1)
    length = amps.size
    if length < 2 or (length & (length - 1)) != 0:
        raise ValueError(f"amplitude length {length} is not a power of two >= 2")
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes contain non-finite values")
    n = length.bit_length() - 1
    _check_qubit_count(n)
    # numpy's pairwise sum, not a BLAS dot: the bytes of the normalized
    # state then do not depend on the BLAS thread count
    with np.errstate(over="ignore"):
        squares = np.sum(amps.real ** 2 + amps.imag ** 2)
    if not np.finfo(float).tiny / np.finfo(float).eps <= squares < np.inf:
        parts = np.ascontiguousarray(amps).view(float)  # re, im, re, im, ...
        peak = np.abs(parts).max()
        if peak == 0.0:
            raise ValueError("cannot normalize an all-zero amplitude vector")
        amps = (parts / peak).view(complex)
        squares = np.sum(amps.real ** 2 + amps.imag ** 2)
    norm = np.sqrt(squares)
    unit = abs(norm - 1.0) <= 2 * np.finfo(float).eps
    return StateVector(n=n, amps=_freeze(amps.copy() if unit else amps / norm))


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    """Random amplitudes: 2^n standard-normal real parts, then 2^n imaginary
    parts, drawn from ``rng`` in that order and normalized. The qubit count
    is checked before anything is drawn."""
    _check_qubit_count(n)
    z = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return from_amplitudes(z)


def _check_wires(n: int, wires: tuple[int, ...]) -> None:
    """Reject ``wires`` unless they are one qubit, or two distinct ones, of ``n``."""
    if len(wires) == 2 and wires[0] == wires[1]:
        raise ValueError(f"qubit indices must differ, got a = b = {wires[0]}")
    for q in wires:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for n = {n}")


class StackError(ValueError):
    """A failed check of matrix ``index`` of a stack, counted over its
    leading axes in C order (0 for a lone matrix)."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _raise_first_failure(checks: list) -> None:
    """Raise StackError for the first matrix of a stack that fails any of
    the (failed, message) ``checks``, with its first failed check's message
    (a callable one is called with the matrix's index); ``failed`` marks the
    failing matrices, or their failing entries as a (count, ...) array."""
    if any(np.count_nonzero(bad) for bad, _ in checks):
        failed = np.array([bad.reshape(len(bad), -1).any(axis=1) for bad, _ in checks])
        k = int(failed.any(axis=0).argmax())
        message = checks[int(failed[:, k].argmax())][1]
        raise StackError(message(k) if callable(message) else message, k)


def _unitarity_check(m: np.ndarray, what: str) -> tuple:
    """The (failed, message) check that each matrix of the square stack
    ``m`` is unitary within UNITARY_TOL, entry by entry of m m^H - I."""
    deviation = np.abs(m @ m.conj().mT - np.eye(m.shape[-1])).reshape(-1, *m.shape[-2:])
    return (~(deviation <= UNITARY_TOL),
            lambda k: f"{what} is not unitary (deviation {deviation[k].max():.3e} > {UNITARY_TOL:.1e})")


def require_unitary(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``m``, a square matrix or a stack of them, as a complex array; a
    matrix that is not unitary within UNITARY_TOL raises StackError, the
    first in the stack that fails."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{what} is not square: {m.shape}")
    _raise_first_failure([_unitarity_check(m, what)])
    return m


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
    residuals of all four projections at once, each formed as it is alone.
    Real columns give a real basis."""
    count, _, k = v.shape
    rows = (v @ v.conj().mT).mT  # row i: the projection of e_i
    basis = np.zeros(v.shape, dtype=v.dtype)
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


def clusters(tied: np.ndarray):
    """The runs of more than one column of a stack of 4x4 matrices whose
    ties (N, 3) join columns j and j + 1: for each size, one index ``at``
    with ``m[at]`` the (count, size, 4) stack of those runs' columns as rows."""
    apart = np.ones((len(tied), 5), dtype=bool)  # entry j: columns j - 1 and j
    apart[:, 1:4] = ~tied
    for k in (2, 3, 4) if tied.any() else ():
        opens = apart[:, :5 - k] & apart[:, k:]
        for j in range(1, k):
            opens &= ~apart[:, j:j + 5 - k]
        mat, col = np.nonzero(opens)
        if len(mat):
            yield mat[:, None], slice(None), col[:, None] + _ROWS[:k]


def cluster_bases(v: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """The canonical eigenbasis of each (4, 4) matrix of the stack ``v``,
    whose columns are eigenvectors and whose ties (N, 3) join columns of
    equal eigenvalues: each run of tied columns, one column included, gets
    the canonical basis of its span (``_canonical_bases``), so the result
    depends on the eigenspaces only. Each matrix gets the bits it gets alone."""
    u = _canonical_bases(v.mT.reshape(-1, 4, 1)).reshape(v.shape).mT
    for at in clusters(tied):
        u[at] = _canonical_bases(v[at].mT).mT
    return u


def _work_buffers(n: int, samples: int = 1, dtype=complex) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's two work buffers for a stack of ``samples`` ``n``-qubit
    states of ``dtype``: one chunk each, ``min(samples * 2^n, CHUNK)`` amplitudes."""
    size = min(samples << n, CHUNK)
    return np.empty(size, dtype=dtype), np.empty(size, dtype=dtype)


def kron2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Kronecker product of two square matrices, or of two stacks of
    them over leading axes, entry for entry the products ``np.kron`` forms,
    at a fraction of its call overhead."""
    dim = x.shape[-1] * y.shape[-1]
    prod = x[..., :, None, :, None] * y[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], dim, dim)


def fits_one_chunk(n: int) -> bool:
    """Whether one ``n``-qubit sample fits in one kernel chunk (2^n <=
    ``CHUNK``, n <= 16): the test by which a kernel pass may hold more than
    two pairs, each read alone, and, as a memory rule, ``benchmark`` stacks
    a cell's samples; a stacked sample keeps its own bits either way."""
    return 1 << n <= CHUNK


@functools.lru_cache(maxsize=256)  # the 144-operation function grid uses 51
def _plan(n: int, wires: tuple[int, ...], count: int, chunk: int):
    """The chunk plan of a kernel pass, built once per (n, wires, stack
    size, chunk size): the chunk's ``lead`` fixed qubits, the most
    significant non-gate ones; the qubits the apply sweep's output holds in
    front after those, the wires for up to four, else (one GEMM per two
    pairs) every other qubit, then the wires; and the chunk index, one
    (sample slice, bits) per chunk."""
    lead = max(0, n + 1 - chunk.bit_length())
    rest = tuple(q for q in range(n) if q not in wires)
    scatter = wires if len(wires) <= 4 else rest[lead:] + wires
    per = max(1, chunk >> n)
    index = [(slice(lo, min(lo + per, count)), bits)
             for lo in range(0, count, per) for bits in itertools.product((0, 1), repeat=lead)]
    return rest[:lead], scatter, index


@functools.lru_cache(maxsize=1024)
def _order(n: int, heads: tuple[int, ...], front: tuple[int, ...]) -> tuple[int, ...]:
    """The axis order of a (S, 2, ..., 2) stack that puts the qubits
    ``heads``, then ``front``, then the others in ascending order after the
    sample axis."""
    others = (q for q in range(n) if q not in heads and q not in front)
    return (0, *(1 + q for q in (*heads, *front, *others)))


def _gram(rows: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """conj(R R^H) = R* R^T of the C-contiguous rows R, or of each of a
    (..., k, m) stack of them, as one matmul with R* written into
    ``scratch`` (any buffer of R's size or larger) or, without it, into a
    new array; a real R is one product R R^T, with no conjugate pass.
    Unlike a sum of dot products, its bytes do not depend on the BLAS
    thread count."""
    conj = None if scratch is None else scratch[: rows.size].reshape(rows.shape)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite block is reported by its Gram
        return (np.conjugate(rows, out=conj) if np.iscomplexobj(rows) else rows) @ rows.mT


def _apply_gate_to_amps(
    amps: np.ndarray, n: int, wires: tuple[int, ...], matrix,
    gathered: np.ndarray, product: np.ndarray, *, held: frozenset[int] = frozenset(),
) -> None:
    """Apply one gate per sample of the (S, 2^n) stack ``amps`` (a 2^n
    vector is one sample) in place, on one wire or on P ordered pairs,
    which may share wires, the first wire of each the more significant bit
    of its gate. ``matrix`` holds per sample one 2^k x 2^k matrix on all k
    ``wires`` (k = 1, 2 or 4) or the (P, 4, 4) stack of the pairs' gates
    (without S for one sample). The pairs go in order into passes
    (``_pass``): a pass takes the next pair unless it shares a wire with
    the pass or, above one chunk (``fits_one_chunk``), holds two pairs.

    A function in place of ``matrix`` is called once per pass with the
    pass's pairs and their (S, P, 4, 4) Gram matrices, ``_gram`` of each
    pair's block (``disentangler.extract_block``'s rows) in the slice with
    the qubits ``held`` at |0>, and returns the pass's gates. Each Gram is
    summed over the chunks in chunk order. While a sample fits in one chunk
    each pair is read as a pass of that pair alone reads it, from the chunk
    gathered with its wires in front, so its bits do not depend on the
    pairs that share its pass. Above one chunk a pass's two pairs are read
    together, from the chunks gathered with their four wires in front
    (skipping those that hold a held qubit at 1): one 16x16 Gram, and both
    pairs' as its partial traces.
    """
    amps = amps.reshape(-1, 1 << n)
    wires = tuple(wires)
    if not callable(matrix) and np.shape(matrix)[-1] == 1 << len(wires):
        return _pass(amps, n, wires, matrix, gathered, product, held)
    count = len(wires) // 2
    size = count if fits_one_chunk(n) else 2
    start = 0
    for p in range(1, count + 1):
        if p == count or p - start == size or set(wires[2 * p:2 * p + 2]) & set(wires[2 * start:2 * p]):
            gates = matrix if callable(matrix) else np.reshape(matrix, (len(amps), -1, 4, 4))[:, start:p]
            _pass(amps, n, wires[2 * start:2 * p], gates, gathered, product, held)
            start = p


def _pass(amps: np.ndarray, n: int, wires: tuple[int, ...], matrix, gathered: np.ndarray,
          product: np.ndarray, held: frozenset[int]) -> None:
    """One state pass of ``_apply_gate_to_amps``: the read sweep when
    ``matrix`` is a function, then the apply sweep.

    A chunk holds ``CHUNK >> n`` whole samples (the last one the rest) or,
    when one sample has more than ``CHUNK`` amplitudes, one sample with its
    ``heads``, the most significant non-gate qubits, the fewest that leave
    ``CHUNK`` amplitudes, at the values ``bits``, the last one fastest;
    chunks run sample by sample, and a chunk holds every value of the wires.
    Each chunk is gathered into the contiguous (s, 2^k, m) work buffer
    ``gathered``, whose columns run over the remaining non-gate qubits in
    ascending order, multiplied through ``product`` and scattered back into
    ``amps``; both chunk-size buffers are overwritten. Two pairs go to one
    GEMM, as the Kronecker product of their gates. One group is one
    ``matmul`` of the block; with more, each GEMM multiplies the transposed
    block, so that its output puts the next group's wires in front, and a
    chunk is gathered and scattered once. The plan (``_plan``) is built
    once per (n, wires, S, ``CHUNK``), each axis order once (``_order``). A
    read copies a block's held slice into ``product``, whose other half (at
    least) takes the conjugate that ``_gram`` needs.

    The apply sweep starts from the chunk the read sweep gathered last if
    that was gathered with all the wires in front, and does not gather it
    again: a one-chunk pass of one pair gathers once. That is why the read
    sweep stays in the pass: gathering that chunk again made
    ``run_schedule`` on one random n=16 state (L=2, two-CNOT rewrite) 4-12%
    slower.
    """
    count = len(amps)
    heads, scatter, index = _plan(n, wires, count, CHUNK)
    t = amps.reshape((count,) + (2,) * n)
    resident = None  # the (chunk, front) that ``gathered`` holds, and its block

    def part(front: tuple[int, ...], i: int) -> np.ndarray:
        samples, bits = index[i]
        return t.transpose(_order(n, heads, front))[(samples, *bits)]

    def gather(i: int, front: tuple[int, ...] = wires) -> np.ndarray:
        nonlocal resident
        chunk = part(front, i)
        view = gathered[: chunk.size]
        np.copyto(view.reshape(chunk.shape), chunk)
        block = view.reshape(len(chunk), 1 << len(front), -1)
        resident = (i, front, block)
        return block

    if callable(matrix):
        pairs = list(zip(wires[::2], wires[1::2]))
        reads = [[pair] for pair in pairs] if fits_one_chunk(n) else [pairs]
        grams = [[None] * count for _ in reads]
        for i, (samples, bits) in enumerate(index):
            if any(bit and q in held for q, bit in zip(heads, bits)):
                continue
            for r, read in enumerate(reads):
                front = sum(read, ())
                blocks = gather(i, front)
                free = [q for q in range(n) if q not in front and q not in heads]
                if held.intersection(free):
                    sliced = blocks.reshape([*blocks.shape[:2]] + [2] * len(free))
                    sliced = sliced[(slice(None), slice(None), *(0 if q in held else slice(None) for q in free))]
                    blocks = product[: sliced.size].reshape(*blocks.shape[:2], -1)
                    np.copyto(blocks.reshape(sliced.shape), sliced)
                for s, gram in zip(range(count)[samples], _gram(blocks, product[product.size - blocks.size:])):
                    grams[r][s] = gram if grams[r][s] is None else grams[r][s] + gram
        per_pair = []
        for read, gram in zip(reads, map(np.array, grams)):
            if len(read) == 1:
                per_pair.append(gram)
            else:
                gram = gram.reshape(-1, 4, 4, 4, 4)
                per_pair += [np.trace(gram, axis1=2, axis2=4), np.trace(gram, axis1=1, axis2=3)]
        matrix = matrix(pairs, np.stack(per_pair, axis=1))
    matrix = np.asarray(matrix)
    if matrix.shape[-1] == 1 << len(wires):
        stack = [matrix.reshape(count, 1 << len(wires), 1 << len(wires))]
    else:
        pairs = matrix.reshape(count, -1, 4, 4)
        stack = [kron2(pairs[:, p], pairs[:, p + 1]) if p + 1 < pairs.shape[1] else pairs[:, p]
                 for p in range(0, pairs.shape[1], 2)]
    start = resident[0] if resident and resident[1] == wires else 0
    for i in (*range(start, len(index)), *range(start)):
        block = resident[2] if resident and resident[:2] == (i, wires) else gather(i)
        samples = index[i][0]
        if len(stack) == 1:
            out = product[: block.size].reshape(block.shape)
            np.matmul(stack[0][samples], block, out=out)
        else:
            buffers = (product, gathered)
            block = block.reshape(len(block), stack[0].shape[-1], -1)
            for g, m in enumerate(stack):
                out = buffers[g % 2][: block.size].reshape(len(block), -1, block.shape[1])
                np.matmul(block.mT, m[samples].mT, out=out)
                if g + 1 < len(stack):
                    block = out.reshape(len(block), stack[g + 1].shape[-1], -1)
        target = part(scatter, i)
        np.copyto(target, out.reshape(target.shape))


def _check_gates(n: int, wires: list[tuple[int, ...]], matrices: np.ndarray) -> np.ndarray:
    """The stack ``matrices`` of one gate per entry of ``wires``, each one
    wire or an ordered pair of distinct wires of an ``n``-qubit state (all
    of one kind), as checked unitaries: one ``require_unitary`` call names
    the first that is not unitary, then the wires are checked in order."""
    if wires:
        matrices = require_unitary(matrices, what=("single-qubit gate", "two-qubit gate")[len(wires[0]) - 1])
    for w in wires:
        _check_wires(n, w)
    return matrices


def fidelity(phi: StateVector, psi: StateVector) -> float:
    if phi.n != psi.n:
        raise ValueError(f"dimension mismatch: {phi.n} vs {psi.n} qubits")
    return float(abs(np.vdot(phi.amps, psi.amps)) ** 2)


def infidelity(phi: StateVector, psi: StateVector) -> float:
    """1 - |<phi|psi>|^2, clipped into [0, 1] against fp round-off."""
    return float(min(1.0, max(0.0, 1.0 - fidelity(phi, psi))))


def _fmt(x: float) -> str:
    return f"{x:.17g}"  # every float an output file holds, locale-independent


def load_amplitudes(path) -> StateVector:
    """Read an amplitude file: one amplitude per line as ``re im``, two
    decimal floats separated by whitespace, qubit 0 the most significant bit
    of the line's index.

    One numpy parse; the (N, 2) float rows are viewed as N complex values,
    exactly complex(float(re), float(im)) per line. Blank lines are skipped.
    Every error, about the file or about its amplitudes, names the file.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty file: reported below
            values = np.loadtxt(path, dtype=float, comments=None, ndmin=2)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read amplitudes ({type(exc).__name__})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if values.size == 0 or values.shape[1] != 2:
        raise ValueError(f"{path}: expected one 're im' pair per line, got shape {values.shape}")
    try:
        return from_amplitudes(values.view(complex).reshape(-1))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
