"""Minimal OpenQASM-2 dialect: ``u3`` and ``cx`` statements only.

Emission is byte-deterministic for a fixed circuit; per-gate global phases
are dropped (u3 has no phase slot), so a parsed circuit reproduces the
original state up to global phase. Header metadata travels in ``// key: value``
comment lines.

Per-gate work is done once per circuit where its bits allow: ``parse`` forms
every ``u3`` matrix in one stacked ``u3_matrix`` call, and ``emit`` tests all
two-qubit gates against CNOT at once. ``emit`` still reads each gate's angles
with the scalar ``u3_angles``: numpy's array ``arctan2`` rounds unlike
``math.atan2`` and moved the last digit of every emitted file.
"""
from __future__ import annotations

import cmath
import math
import re

import numpy as np

from .circuits import CNOT, Circuit, OneQubitGate, TwoQubitGate
from .statevec import _check_wires, _fmt

_U3_RE = re.compile(
    r"u3\s*\(\s*([^,]+)\s*,\s*([^,]+)\s*,\s*([^)]+)\s*\)\s*q\[(\d+)\]\s*;"
)
_CX_RE = re.compile(r"cx\s*q\[(\d+)\]\s*,\s*q\[(\d+)\]\s*;")
_QREG_RE = re.compile(r"qreg\s+q\[(\d+)\]\s*;")
_PREAMBLE_RE = re.compile(r'OPENQASM\s+2\.0\s*;|include\s+"qelib1\.inc"\s*;')
_HEADER_RE = re.compile(r"//\s*([\w.-]+)\s*:\s*(.*)")


def u3_matrix(theta, phi, lam) -> np.ndarray:
    """The 2x2 matrix u3(theta, phi, lam), or for arrays of angles the
    (..., 2, 2) stack of one per entry of their broadcast shape."""
    theta, phi, lam = np.broadcast_arrays(theta, phi, lam)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    m = np.empty(theta.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = c
    m[..., 0, 1] = -np.exp(1j * lam) * s
    m[..., 1, 0] = np.exp(1j * phi) * s
    m[..., 1, 1] = np.exp(1j * (phi + lam)) * c
    return m


def u3_angles(m: np.ndarray) -> tuple[float, float, float]:
    """Angles with u3(theta, phi, lam) = m up to global phase.

    phi + lam fixes the phase of m[1, 1] relative to m[0, 0]. It is read from
    the diagonal when the diagonal is the larger pair: the phase of a small
    off-diagonal entry is mostly round-off (about eps / |m[1, 0]| radians),
    which is harmless in the small entries it sets but not in m[1, 1].
    """
    a00, a01, a10, a11 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    theta = 2.0 * math.atan2(abs(a10), abs(a00))
    if abs(a00) < 1e-12:  # theta = pi column
        phi = cmath.phase(a10)
        lam = cmath.phase(-a01)
    elif abs(a10) < 1e-12:  # theta = 0
        phi = 0.0
        lam = cmath.phase(a11) - cmath.phase(a00)
    else:
        ref = cmath.phase(a00)
        phi = cmath.phase(a10) - ref
        if abs(a00) >= abs(a10):
            lam = cmath.phase(a11) - cmath.phase(a10)
        else:
            lam = cmath.phase(-a01) - ref
    return theta, phi, lam


def emit(circuit: Circuit, header: dict | None = None) -> str:
    """Serialize a primitive circuit (single-qubit gates and CNOTs only); a
    header key or value that holds a line break raises ValueError."""
    lines = []
    for key, value in (header or {}).items():
        lines.append(f"// {key}: {value}")
        if lines[-1].splitlines() != lines[-1:]:
            raise ValueError(f"header entry {key!r} holds a line break")
    lines.append("OPENQASM 2.0;")
    lines.append('include "qelib1.inc";')
    lines.append(f"qreg q[{circuit.n}];")
    pairs = [g.matrix for g in circuit.gates if isinstance(g, TwoQubitGate)]
    if pairs and np.abs(np.array(pairs) - CNOT).max() > 1e-9:
        raise ValueError("circuit contains a non-CNOT two-qubit gate; synthesize before emitting")
    for g in circuit.gates:
        if isinstance(g, OneQubitGate):
            th, ph, lm = u3_angles(g.matrix)
            lines.append(f"u3({_fmt(th)},{_fmt(ph)},{_fmt(lm)}) q[{g.wire}];")
        else:
            lines.append(f"cx q[{g.a}],q[{g.b}];")
    return "\n".join(lines) + "\n"


def parse(text: str) -> tuple[Circuit, dict]:
    """Parse the dialect, one whole line a statement, into a primitive circuit and its
    header dict: one ``qreg`` of at least one qubit before every gate, whose
    wires are its qubits, and finite ``u3`` angles."""
    header: dict[str, str] = {}
    gates: list = []  # a gate, or the wire of a u3 whose matrix is formed at the end
    u3s, angles = [], []  # per u3: its index in ``gates``, and its three angles
    n = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            m = _HEADER_RE.match(line)
            if m:
                header[m.group(1)] = m.group(2).strip()
            continue
        # the forms exclude each other; the gates, the most frequent, are tried first
        u3 = _U3_RE.fullmatch(line)
        cx = None if u3 else _CX_RE.fullmatch(line)
        if not (u3 or cx) and _PREAMBLE_RE.fullmatch(line):
            continue
        qreg = None if u3 or cx else _QREG_RE.fullmatch(line)
        try:
            if qreg and n is None:
                n = int(qreg.group(1))
                if n < 1:
                    raise ValueError(f"a register of {n} qubits")
            elif qreg or not (u3 or cx):
                raise ValueError("a second qreg declaration" if qreg else f"cannot parse {line!r}")
            elif n is None:
                raise ValueError("a gate before the qreg declaration")
            else:
                wires = (int(u3.group(4)),) if u3 else (int(cx.group(1)), int(cx.group(2)))
                _check_wires(n, wires)
                if u3:
                    angles.append([float(a) for a in u3.group(1, 2, 3)])
                    if not all(map(math.isfinite, angles[-1])):
                        raise ValueError(f"u3 angles must be finite, got {line!r}")
                    u3s.append(len(gates))
                gates.append(wires[0] if u3 else TwoQubitGate(*wires, CNOT))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ValueError("missing qreg declaration")
    for i, matrix in zip(u3s, u3_matrix(*np.reshape(angles, (-1, 3)).T)):
        gates[i] = OneQubitGate(gates[i], matrix)
    return Circuit(n=n, gates=gates), header
