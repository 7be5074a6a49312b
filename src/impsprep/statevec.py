"""Dense statevector representation, amplitude block extraction and fidelity metrics.

Index convention: qubit 0 is the most significant bit of the basis index,
so qubit ``i`` sits at bit position ``n - 1 - i`` of the integer index.
States are value-semantic: every public operation returns a fresh object
whose buffer is read-only. One kernel, ``_apply_gate_to_amps``, applies
every gate on 1, 2 or 4 wires (two pairs' gates in one pass), in place, to
a stack of S same-size amplitude vectors its caller owns, one matrix per
sample, given as a stack of matrices or as a function of the gathered
blocks that returns it. It works chunk by chunk, as qsim blocks for the
cache (arXiv 2111.02396): a chunk of at most ``CHUNK`` amplitudes holds
``CHUNK >> n`` whole samples when a sample fits in one (n <= 16), else
one sample's amplitudes with its most significant non-gate qubits fixed.
Each chunk goes through two chunk-size work buffers that the caller
allocates once (``_work_buffers``) and reuses for every pass, and is one
gather, one stacked ``matmul`` and one scatter. The engine and the
simulator each own one stack (the simulator's of one state) and one pair
of work buffers per call; ``apply_two_qubit`` and ``apply_single_qubit``
are the checked value-semantic wrappers.
"""
from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

UNITARY_TOL = 1e-10
# amplitudes per kernel chunk (1 MiB); at least 16, so that a chunk holds
# every value of four gate wires
CHUNK = 1 << 16

_DEFAULT_MAX_QUBITS = 24


def _check_qubit_count(n: int) -> None:
    """Dense vectors hold 1 to IMPS_MAX_QUBITS (default 24) qubits."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    cap = int(os.environ.get("IMPS_MAX_QUBITS", _DEFAULT_MAX_QUBITS))
    if n > cap:
        raise ValueError(f"{n} qubits exceeds cap of {cap} (set IMPS_MAX_QUBITS to raise)")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector over ``n`` qubits."""

    n: int
    amps: np.ndarray = field(repr=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class TwoQubitGate:
    """A 4x4 unitary bound to the ordered pair (a, b); ``a`` is the more
    significant wire in the gate's own 4x4 basis."""

    a: int
    b: int
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BlockMatrix:
    """The four amplitude rows C(x, y) of a state on the qubit pair (a, b).

    Row order is (0,0), (0,1), (1,0), (1,1); within a row the remaining
    qubits' bits run in ascending order, so flattening + inverse permuting
    is an exact bijection with the source amplitudes or, for a block
    extracted with k qubits held at |0>, with that slice of them.
    """

    n: int
    a: int
    b: int
    rows: np.ndarray = field(repr=False)  # shape (4, 2**(n-2-k))


def from_amplitudes(raw) -> StateVector:
    """Build a normalized StateVector from any complex sequence.

    Raises ValueError for non-power-of-two length, an all-zero vector,
    non-finite entries, or a qubit count above the configured cap.
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
    norm = np.sqrt(np.sum(amps.real ** 2 + amps.imag ** 2))
    if norm <= 0.0:
        raise ValueError("cannot normalize an all-zero amplitude vector")
    return StateVector(n=n, amps=_freeze(amps / norm))


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    """Random amplitudes: 2^n standard-normal real parts, then 2^n imaginary
    parts, drawn from ``rng`` in that order and normalized. The qubit count
    is checked before anything is drawn."""
    _check_qubit_count(n)
    z = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return from_amplitudes(z)


def basis_state(n: int, k: int) -> StateVector:
    """The computational basis state |k> on ``n`` qubits."""
    _check_qubit_count(n)
    if not 0 <= k < 1 << n:
        raise ValueError(f"basis index {k} out of range for n = {n}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[k] = 1.0
    return StateVector(n=n, amps=_freeze(amps))


def zero_state(n: int) -> StateVector:
    return basis_state(n, 0)


def _check_pair(n: int, a: int, b: int) -> None:
    if a == b:
        raise ValueError(f"qubit indices must differ, got a = b = {a}")
    for q in (a, b):
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for n = {n}")


def extract_block(state: StateVector, a: int, b: int, fixed=frozenset()) -> BlockMatrix:
    """Extract the 4 x 2^(n-2-k) block matrix of ``state`` on the pair (a, b)
    with the k qubits in ``fixed`` held at |0>: a view, then one copy."""
    if state.n < 2:
        raise ValueError("block extraction needs n >= 2")
    _check_pair(state.n, a, b)
    if a in fixed or b in fixed:
        raise ValueError(f"pair ({a}, {b}) overlaps the qubits held at |0>: {sorted(fixed)}")
    t = state.amps.reshape([2] * state.n)[tuple(0 if q in fixed else slice(None) for q in range(state.n))]
    kept = [q for q in range(state.n) if q not in fixed]
    t = np.moveaxis(t, (kept.index(a), kept.index(b)), (0, 1))
    return BlockMatrix(n=state.n, a=a, b=b, rows=_freeze(np.array(t, order="C").reshape(4, -1)))


def inverse_extract(block: BlockMatrix) -> StateVector:
    """Exact inverse of extract_block (bit-permutation bijection)."""
    t = block.rows.reshape([2, 2] + [2] * (block.n - 2))
    t = np.moveaxis(t, (0, 1), (block.a, block.b))
    return StateVector(n=block.n, amps=_freeze(t.reshape(-1).copy()))


class StackError(ValueError):
    """A failed check of matrix ``index`` of a stack, counted over its
    leading axes in C order (0 for a lone matrix)."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def require_unitary(m: np.ndarray, tol: float = UNITARY_TOL, what: str = "matrix") -> np.ndarray:
    """``m``, a square matrix or a stack of them, as a complex array; a
    matrix that is not unitary within ``tol`` raises StackError, the first
    in the stack that fails."""
    m = np.asarray(m, dtype=complex)
    dim = m.shape[-1]
    if m.ndim < 2 or m.shape[-2] != dim:
        raise ValueError(f"{what} is not square: {m.shape}")
    deviation = np.abs(m @ m.conj().mT - np.eye(dim))
    if not deviation.max(initial=0.0) <= tol:
        err = deviation.max(axis=(-2, -1)).reshape(-1)
        k = int((~(err <= tol)).argmax())
        raise StackError(f"{what} is not unitary (deviation {err[k]:.3e} > {tol:.1e})", k)
    return m


def _work_buffers(n: int, samples: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's two work buffers for a stack of ``samples`` ``n``-qubit
    states: one chunk each, ``min(samples * 2^n, CHUNK)`` amplitudes."""
    size = min(samples << n, CHUNK)
    return np.empty(size, dtype=complex), np.empty(size, dtype=complex)


def _apply_gate_to_amps(
    amps: np.ndarray, n: int, wires: tuple[int, ...], matrix,
    gathered: np.ndarray, product: np.ndarray,
) -> None:
    """Apply a 2^k x 2^k matrix to the k = 1, 2 or 4 ``wires`` of each
    sample of the (S, 2^n) stack ``amps`` (a 2^n vector is one sample), in
    place; the first wire is the most significant bit of the matrix's own
    basis. ``matrix`` is the (S, 2^k, 2^k) stack of one matrix per sample
    (one 2^k x 2^k matrix for one sample).

    A chunk holds ``CHUNK >> n`` whole samples (the last one the rest) or,
    when one sample has more than ``CHUNK`` amplitudes, one sample with its
    ``lead`` most significant non-gate qubits, the fewest that leave
    ``CHUNK`` amplitudes, at the values ``bits``, the last one fastest;
    chunks run sample by sample. Its moved
    view is gathered into the contiguous (s, 2^k, m) work buffer
    ``gathered``, whose columns run over the remaining non-gate qubits in
    ascending order, multiplied by its samples' matrices into ``product``
    and scattered back into ``amps``; both chunk-size buffers are
    overwritten. A function in place of ``matrix`` is first called with an
    iterator over every chunk's ``(samples, bits, gather)``, in that order,
    where ``samples`` is the range of its samples; ``gather()`` gathers the
    chunk and returns its block, which the function may not write. It may
    skip chunks and use ``product`` as scratch, and returns the stack of
    matrices. The apply sweep starts from the chunk gathered last, which it
    does not gather again: a one-chunk pass gathers once.
    """
    k = len(wires)
    amps = amps.reshape(-1, 1 << n)
    count = len(amps)
    lead = max(0, n + 1 - CHUNK.bit_length())
    per = max(1, CHUNK >> n)
    heads = itertools.islice((q for q in range(n) if q not in wires), lead)
    moved = np.moveaxis(amps.reshape([count] + [2] * n), [1 + q for q in (*heads, *wires)], range(1, 1 + lead + k))
    index = [(slice(lo, min(lo + per, count)), bits)
             for lo in range(0, count, per) for bits in itertools.product((0, 1), repeat=lead)]
    parts = [moved[(samples, *bits)] for samples, bits in index]
    views = {}  # per sample count: both work buffers in a chunk's moved shape and as (s, 2^k, m) blocks
    for part in parts:
        if len(part) not in views:
            size = part.size
            views[len(part)] = [(b[:size].reshape(part.shape), b[:size].reshape(len(part), 1 << k, -1))
                                for b in (gathered, product)]
    resident = None  # the chunk that ``gathered`` holds

    def gather(i: int) -> np.ndarray:
        nonlocal resident
        (view, block), _ = views[len(parts[i])]
        np.copyto(view, parts[i])
        resident = i
        return block

    if callable(matrix):
        matrix = matrix((range(count)[samples], bits, partial(gather, i)) for i, (samples, bits) in enumerate(index))
    matrix = np.reshape(matrix, (count, 1 << k, 1 << k))
    start = resident or 0
    for i in (*range(start, len(index)), *range(start)):
        if i != resident:
            gather(i)
        (_, block), (scatter, out) = views[len(parts[i])]
        np.matmul(matrix[index[i][0]], block, out=out)
        np.copyto(parts[i], scatter)


def _check_gate(n: int, wires: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a checked unitary on one wire or an ordered pair of
    distinct wires of an ``n``-qubit state."""
    matrix = require_unitary(matrix, what=("single-qubit gate", "two-qubit gate")[len(wires) - 1])
    if len(wires) == 2:
        _check_pair(n, *wires)
    elif not 0 <= wires[0] < n:
        raise ValueError(f"qubit index {wires[0]} out of range for n = {n}")
    return matrix


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


def fidelity(phi: StateVector, psi: StateVector) -> float:
    if phi.n != psi.n:
        raise ValueError(f"dimension mismatch: {phi.n} vs {psi.n} qubits")
    return float(abs(np.vdot(phi.amps, psi.amps)) ** 2)


def infidelity(phi: StateVector, psi: StateVector) -> float:
    """1 - |<phi|psi>|^2, clipped into [0, 1] against fp round-off."""
    return float(min(1.0, max(0.0, 1.0 - fidelity(phi, psi))))


def save_amplitudes(state: StateVector, path) -> None:
    """Write one amplitude per line as ``re im`` (locale-independent)."""
    with open(path, "w", encoding="ascii") as fh:
        for z in state.amps:
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")


def load_amplitudes(path) -> StateVector:
    """Read the ``re im`` per-line format written by save_amplitudes.

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
