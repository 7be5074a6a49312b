"""Independent checks for the compile benchmark.

Nothing here imports ``impsprep``: the benchmark compares the program's
outputs with computations made apart from it.

* ``parse_qasm`` / ``simulate``: a numpy simulator of the ``u3``/``cx``
  dialect that ``impsprep compile`` emits (qubit 0 is the most significant
  bit of the basis index).
* ``cx_count`` / ``cx_depth``: CNOT count and CNOT depth read from the text.
* ``mps_infidelity``: infidelity of the bond-dimension-``chi`` MPS reached by
  a left-to-right truncated-SVD sweep of the target.
* ``catalog_target`` / ``random_samples``: the paper's function and
  financial targets, and the random-amplitude sampling law, evaluated here.
* ``schedule_shape``: U-depth and pair count of each scheme, from the
  schemes' definitions.
"""
from __future__ import annotations

import math
import re

import numpy as np

_U3 = re.compile(r"u3\(([^,]+),([^,]+),([^)]+)\)\s*q\[(\d+)\];")
_CX = re.compile(r"cx\s*q\[(\d+)\],\s*q\[(\d+)\];")
_QREG = re.compile(r"qreg\s+q\[(\d+)\];")


def parse_qasm(text: str) -> tuple[int, list[tuple]]:
    """Qubit count and gate list ``("u3", q, theta, phi, lam)`` / ``("cx", c, t)``."""
    n = None
    gates: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("//", "OPENQASM", "include")):
            continue
        if m := _QREG.fullmatch(line):
            n = int(m.group(1))
            continue
        if m := _U3.fullmatch(line):
            q = int(m.group(4))
            gate, wires = ("u3", q, float(m.group(1)), float(m.group(2)), float(m.group(3))), (q,)
        elif m := _CX.fullmatch(line):
            gate = ("cx", int(m.group(1)), int(m.group(2)))
            wires = gate[1:]
        else:
            raise ValueError(f"line {lineno}: not in the u3/cx dialect: {line!r}")
        if n is None or not all(0 <= q < n for q in wires) or len(set(wires)) != len(wires):
            raise ValueError(f"line {lineno}: bad qubits for qreg q[{n}]: {line!r}")
        gates.append(gate)
    if n is None:
        raise ValueError("no qreg declaration")
    return n, gates


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


def _apply_1q(psi: np.ndarray, n: int, q: int, m: np.ndarray) -> None:
    v = psi.reshape(1 << q, 2, -1)
    a, b = v[:, 0, :].copy(), v[:, 1, :].copy()
    v[:, 0, :] = m[0, 0] * a + m[0, 1] * b
    v[:, 1, :] = m[1, 0] * a + m[1, 1] * b


def _apply_cx(psi: np.ndarray, n: int, c: int, t: int) -> None:
    index = [slice(None)] * n
    index[c] = 1
    sub = psi.reshape([2] * n)[tuple(index)]  # view on the control-set half
    axis = t if t < c else t - 1
    sub[...] = np.flip(sub, axis=axis).copy()


def simulate(n: int, gates: list[tuple]) -> np.ndarray:
    """Apply ``gates`` to |0...0>; runs of u3 on one wire are fused first."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    pending: dict[int, np.ndarray] = {}

    def flush(q: int) -> None:
        if q in pending:
            _apply_1q(psi, n, q, pending.pop(q))

    for g in gates:
        if g[0] == "u3":
            q = g[1]
            pending[q] = u3(*g[2:]) @ pending.get(q, np.eye(2))
        else:
            flush(g[1])
            flush(g[2])
            _apply_cx(psi, n, g[1], g[2])
    for q in list(pending):
        flush(q)
    return psi


def infidelity(prepared: np.ndarray, target: np.ndarray) -> float:
    """1 - |<target|prepared>|^2 for normalized vectors, clipped to [0, 1]."""
    t = target / np.linalg.norm(target)
    p = prepared / np.linalg.norm(prepared)
    return float(min(1.0, max(0.0, 1.0 - abs(np.vdot(t, p)) ** 2)))


def cx_count(gates: list[tuple]) -> int:
    return sum(1 for g in gates if g[0] == "cx")


def cx_depth(n: int, gates: list[tuple]) -> int:
    """Depth of the CNOT layers when each CNOT runs as early as its wires allow."""
    depth = [0] * n
    for g in gates:
        if g[0] == "cx":
            d = max(depth[g[1]], depth[g[2]]) + 1
            depth[g[1]] = depth[g[2]] = d
    return max(depth, default=0)


def mps_infidelity(target: np.ndarray, chi: int = 2) -> float:
    """Infidelity of the bond-dimension-``chi`` MPS reached by a left-to-right
    truncated-SVD sweep over qubits 0, 1, ..., n-1."""
    psi = np.asarray(target, dtype=complex)
    n = psi.size.bit_length() - 1
    acc = np.ones((1, 1), dtype=complex)  # left isometries contracted so far
    rest = psi.reshape(1, -1)
    for _ in range(n - 1):
        bond = rest.shape[0]
        u, s, vh = np.linalg.svd(rest.reshape(bond * 2, -1), full_matrices=False)
        k = min(chi, s.size)
        acc = (acc @ u[:, :k].reshape(bond, 2 * k)).reshape(-1, k)
        rest = s[:k, None] * vh[:k]
    return infidelity((acc @ rest).reshape(-1), psi)


_FUNCTIONS = {
    "f1": (lambda x: x * (np.exp(0.68 * x) + np.exp(-2.0 * x) - 0.7) * np.sin(24.0 * x), (0.0, 1.0)),
    "f2": (lambda x: (x**2 - 0.8 * x + 0.04) * np.exp(-1.3 * x) * np.cos(7.2 * x - 1.6), (0.0, 1.0)),
    "f3": (lambda x: (x + np.sin(13.0 * x) + np.exp(-6.4 * x)) * np.sin(2.8 * x + 14.3), (0.0, 1.0)),
    "g1": (lambda x: np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi), (-5.0, 5.0)),
    "g2": (lambda x: np.exp(-(np.log(x) ** 2) / 2.0) / (x * math.sqrt(2.0 * math.pi)), (0.01, 8.0)),
    "g3": (lambda x: 1.0 / (math.pi * (x**2 + 1.0)), (-8.0, 8.0)),
}

CATALOG = tuple(_FUNCTIONS)


def catalog_target(name: str, n: int) -> np.ndarray:
    """The named function sampled at 2^n evenly spaced points of its domain,
    both ends included, normalized as amplitudes."""
    f, (lo, hi) = _FUNCTIONS[name]
    vals = f(np.linspace(lo, hi, 1 << n)).astype(complex)
    return vals / np.linalg.norm(vals)


def ghz(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = psi[-1] = 2**-0.5
    return psi


def w_state(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[[1 << i for i in range(n)]] = n**-0.5
    return psi


def random_samples(n: int, seed: int, samples: int) -> list[np.ndarray]:
    """The random-target law: one ``numpy.random.default_rng(seed)`` stream;
    per sample, 2^n standard-normal real parts, then 2^n imaginary parts;
    normalized."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        z = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        out.append(z / np.linalg.norm(z))
    return out


def schedule_shape(scheme: str, n: int) -> tuple[int, int]:
    """(U-depth, number of pairs) of one layer of ``scheme`` on n qubits."""
    if scheme == "chain":  # (0,1), (1,2), ... one pair per round
        return n - 1, n - 1
    if scheme == "ttn":  # binary tree: every pair retires one qubit
        return math.ceil(math.log2(n)), n - 1
    if scheme == "htn":  # round k pairs every x < n with bit k set to x ^ 2^k
        bits = (n - 1).bit_length()
        return bits, sum(bin(x).count("1") for x in range(n))
    if scheme == "hen":  # chain round t plus every second neighbour pair above t
        return n - 1, sum((n - t) // 2 for t in range(n - 1))
    raise ValueError(f"no shape known for scheme {scheme!r}")
