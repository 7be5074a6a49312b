"""Dense statevector representation, amplitude block extraction and fidelity metrics.

Index convention: qubit 0 is the most significant bit of the basis index,
so qubit ``i`` sits at bit position ``n - 1 - i`` of the integer index.
States are value-semantic: every public operation returns a fresh object
whose buffer is read-only. One kernel, ``_apply_gate_to_amps``, applies
every gate to amplitudes; it only reads its input and returns a fresh
buffer, so the engine shares arrays instead of copying them.
``apply_two_qubit`` and ``apply_single_qubit`` are its checked wrappers.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

UNITARY_TOL = 1e-10

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


def require_unitary(m: np.ndarray, tol: float = UNITARY_TOL, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    if m.shape != (dim, dim):
        raise ValueError(f"{what} is not square: {m.shape}")
    err = np.abs(m @ m.conj().T - np.eye(dim)).max()
    if err > tol:
        raise ValueError(f"{what} is not unitary (deviation {err:.3e} > {tol:.1e})")
    return m


def _apply_gate_to_amps(amps: np.ndarray, n: int, wires: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    """Apply the 2^k x 2^k ``matrix`` to the k = 1 or 2 ``wires`` of ``amps``.

    The first wire is the most significant bit of the matrix's own basis.
    ``amps`` is only read; the result is one fresh buffer.
    """
    front = tuple(range(len(wires)))
    t = np.moveaxis(amps.reshape([2] * n), wires, front).reshape(1 << len(wires), -1)
    t = matrix @ t
    return np.moveaxis(t.reshape([2] * n), front, wires).reshape(-1)


def apply_two_qubit(state: StateVector, gate: TwoQubitGate) -> StateVector:
    """Apply a two-qubit gate: left-multiplies the (a, b) block matrix."""
    matrix = require_unitary(gate.matrix, what="two-qubit gate")
    _check_pair(state.n, gate.a, gate.b)
    amps = _apply_gate_to_amps(state.amps, state.n, (gate.a, gate.b), matrix)
    return StateVector(n=state.n, amps=_freeze(amps))


def apply_single_qubit(state: StateVector, wire: int, matrix: np.ndarray) -> StateVector:
    matrix = require_unitary(matrix, what="single-qubit gate")
    if not 0 <= wire < state.n:
        raise ValueError(f"qubit index {wire} out of range for n = {state.n}")
    amps = _apply_gate_to_amps(state.amps, state.n, (wire,), matrix)
    return StateVector(n=state.n, amps=_freeze(amps))


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
