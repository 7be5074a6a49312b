"""Dense statevectors, the gate kernel, fidelity metrics and the rules
several modules share.

Index convention: qubit 0 is the most significant bit of the basis index,
so qubit ``i`` sits at bit position ``n - 1 - i`` of the integer index.
States are value-semantic: every public operation returns a fresh object
whose buffer is read-only. One kernel, ``_apply_gate_to_amps``, applies
every gate on 1, 2 or 4 wires (two pairs' gates in one pass), in place, to
a stack of S same-size amplitude vectors its caller owns, one matrix per
sample, given as a stack of matrices or as a function of the gathered
blocks that returns it. It works chunk by chunk, as qsim blocks for the
cache (arXiv 2111.02396): a chunk of at most ``CHUNK`` amplitudes holds
``CHUNK >> n`` whole samples when a sample fits in one (n <= 16), else one
sample's amplitudes with its most significant non-gate qubits fixed. Each
chunk goes through two chunk-size work buffers that the caller allocates
once (``_work_buffers``) and reuses for every pass, and is one gather, one
stacked ``matmul`` and one scatter. The engine (``disentangler``) and the
simulator (``circuits``) each own one stack (the simulator's of one state)
and one pair of work buffers per call. The rules several modules share
live here too: the stack checks, the gate and qubit-index checks, the
float format, and the canonical bases of eigenvalue clusters
(``cluster_bases``).
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
    does not gather again: a one-chunk pass gathers once. That is why the
    function form stays: gathering that chunk again made ``run_schedule``
    on one random n=16 state (L=2, two-CNOT rewrite) 4-12% slower.
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
    _check_wires(n, wires)
    return matrix


def fidelity(phi: StateVector, psi: StateVector) -> float:
    if phi.n != psi.n:
        raise ValueError(f"dimension mismatch: {phi.n} vs {psi.n} qubits")
    return float(abs(np.vdot(phi.amps, psi.amps)) ** 2)


def infidelity(phi: StateVector, psi: StateVector) -> float:
    """1 - |<phi|psi>|^2, clipped into [0, 1] against fp round-off."""
    return float(min(1.0, max(0.0, 1.0 - fidelity(phi, psi))))


def _fmt(x: float) -> str:
    return f"{x:.17g}"  # every float an output file holds, locale-independent


def save_amplitudes(state: StateVector, path) -> None:
    """Write one amplitude per line as ``re im`` (locale-independent)."""
    with open(path, "w", encoding="ascii") as fh:
        for z in state.amps:
            fh.write(f"{_fmt(z.real)} {_fmt(z.imag)}\n")


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
