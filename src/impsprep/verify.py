"""Self-check suites behind the ``verify`` CLI verb.

Each check re-derives an invariant from scratch (fuzzing with a seeded RNG)
and reports pass/fail; Quick keeps states small, Full pushes sizes and fuzz
counts up. The ``corrupt`` hook is a negative control: it feeds a
deliberately broken unitary through the synthesis check and tilts one
block factor's kept subspace by 100 times the bound its check allows.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import disentangler, gatesynth, qasm, schedules, statevec, targets
from .circuits import TwoQubitGate, apply_two_qubit, simulate
from .disentangler import extract_block, inverse_extract, run_schedule
from .statevec import random_state


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _check_block_roundtrip(n_max: int, fuzz: int, rng, corrupt=False):
    for n in range(2, min(n_max, 6) + 1):
        state = random_state(n, rng)
        for a, b in itertools.permutations(range(n), 2):
            rows = extract_block(state, a, b)
            back = inverse_extract(rows, a, b)
            if np.abs(back.amps - state.amps).max() != 0.0:
                return f"roundtrip not exact for n={n}, pair=({a},{b})"
            swapped = extract_block(state, b, a)
            if np.abs(swapped - rows[[0, 2, 1, 3]]).max() != 0.0:
                return f"row-swap relation broken for n={n}, pair=({a},{b})"
    return None


def _check_gate_inverse(n_max: int, fuzz: int, rng, corrupt=False):
    for _ in range(fuzz):
        n = int(rng.integers(2, n_max + 1))
        state = random_state(n, rng)
        a, b = rng.choice(n, size=2, replace=False)
        u = haar_unitary(4, rng)
        fwd = apply_two_qubit(state, TwoQubitGate(int(a), int(b), u))
        drift = abs(np.linalg.norm(fwd.amps) - 1.0)
        if drift > 1e-12:
            return f"norm drift {drift:.2e}"
        back = apply_two_qubit(fwd, TwoQubitGate(int(a), int(b), u.conj().T))
        if np.abs(back.amps - state.amps).max() > 1e-12:
            return "U then U-dagger does not restore the state"
    return None


def _check_schedule_structure(n_max: int, fuzz: int, rng, corrupt=False):
    for n in range(2, 65):
        gens = {name: make(n) for name, make in schedules.SCHEMES.items()}
        for name, sched in gens.items():
            distinct = set(sched.sources())
            if len(distinct) != n - 1:
                return f"{name}({n}): {len(distinct)} distinct sources, wanted {n - 1}"
        logdepth = math.ceil(math.log2(n))
        if gens["ttn"].u_depth != logdepth or gens["htn"].u_depth != logdepth:
            return f"tree/hypercube depth at n={n} is not ceil(log2 n)"
        if gens["chain"].u_depth != n - 1 or gens["hen"].u_depth != n - 1:
            return f"chain/slot-filled depth at n={n} is not n-1"
        if gens["hen"].step_count() < gens["chain"].step_count():
            return f"slot-filled schedule has fewer gates than the chain at n={n}"
    for rows, cols in ((1, 8), (2, 2), (3, 4), (4, 4), (5, 3)):
        sched = schedules.grid_schedule(rows, cols)
        for rnd in sched.rounds:
            for a, b in rnd:
                ra, ca = divmod(a, cols)
                rb, cb = divmod(b, cols)
                if abs(ra - rb) + abs(ca - cb) != 1:
                    return f"grid {rows}x{cols}: pair ({a},{b}) not adjacent"
        if sched.u_depth > math.ceil(rows / 2) + math.ceil(cols / 2) + 2:
            return f"grid {rows}x{cols}: depth {sched.u_depth} too large"
    return None


def _check_rank2_exactness(n_max: int, fuzz: int, rng, corrupt=False):
    n = min(n_max, 8)
    for spec_kind in ("ghz", "w", "cos", "linear"):
        target = targets.discretize(targets.make_spec(spec_kind, n))
        for sched in (schedules.chain_schedule(n), schedules.ttn_schedule(n), schedules.htn_schedule(n)):
            res = run_schedule(target, sched, 1)
            if res.final_infidelity > 1e-9:
                return (
                    f"{spec_kind}({n}) via {sched.scheme}: "
                    f"infidelity {res.final_infidelity:.2e}"
                )
    return None


def _check_retained_weight_bound(n_max: int, fuzz: int, rng, corrupt=False):
    for _ in range(fuzz):
        n = int(rng.integers(2, n_max + 1))
        state = random_state(n, rng)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        step = disentangler.disentangle_step(state, a, b)
        lam = np.sort(step.singular_values)[::-1]
        bottom = lam[2] ** 2 + lam[3] ** 2
        if step.retained_weight < bottom - 1e-12:
            return "kept mass is below the bottom singular pair"
        if step.retained_weight > 1.0 + 1e-12 or step.retained_weight < 0.0:
            return "retained weight outside [0, 1]"
    return None


def _check_block_svd(n_max: int, fuzz: int, rng, corrupt=False):
    """Near-degenerate blocks R = u diag(sqrt(w)) V^H: the kept subspace of
    the block factor within 10 eps w0 / (w1 - w2) of u's first two columns,
    and its retained weight within 1e-12 of (w0 + w1) / sum(w)."""
    for trial in range(fuzz):
        width = 1 << int(rng.integers(2, n_max - 1))
        w = np.sort(rng.uniform(0.05, 1.0, size=4))[::-1]
        k = int(rng.integers(3))  # near-degenerate pair: kept, boundary or discarded
        w[k + 1] = w[k] - w[0] * 10.0 ** -rng.uniform(3.0, 12.0)
        w = np.sort(w)[::-1]
        v, _ = np.linalg.qr(rng.normal(size=(width, 4)) + 1j * rng.normal(size=(width, 4)))
        u_ref = haar_unitary(4, rng)
        u, lam = disentangler._factor_gram(disentangler._gram((u_ref * np.sqrt(w)) @ v.conj().T))
        bound = 10 * np.finfo(float).eps * w[0] / (w[1] - w[2])
        if corrupt and trial == fuzz // 2:
            c, s = math.cos(100 * bound), math.sin(100 * bound)  # tilt the kept subspace
            u = u @ np.array([[c, 0, -s, 0], [0, 1, 0, 0], [s, 0, c, 0], [0, 0, 0, 1]])
        kept = u[:, :2] @ u[:, :2].conj().T
        err = np.abs(kept - u_ref[:, :2] @ u_ref[:, :2].conj().T).max()
        if err > bound:
            return f"kept subspace off by {err:.2e} > {bound:.2e} (width {width}, Gram eigenvalues {w})"
        weight_err = abs(lam[0] ** 2 + lam[1] ** 2 - (w[0] + w[1]) / w.sum())
        if weight_err > 1e-12:
            return f"retained weight off by {weight_err:.2e} (width {width})"
    return None


def _check_synthesis(n_max: int, fuzz: int, rng, corrupt=False):
    zi = np.kron(np.array([[1, 0], [0, -1]], dtype=complex), np.eye(2))
    for trial in range(fuzz):
        u = haar_unitary(4, rng)
        if corrupt and trial == fuzz // 2:
            u = u * 1.02  # deliberately non-unitary
        k = u @ zi @ u.conj().T
        try:
            seq, _ = gatesynth.synthesize_gate(k, gatesynth.SynthMode.OPTIMIZED2)
        except ValueError as exc:
            return f"two-CNOT synthesis rejected input: {exc}"
        if seq.cnot_count > 2:
            return f"two-CNOT synthesis used {seq.cnot_count} CNOTs"
        gen, _ = gatesynth.synthesize_gate(haar_unitary(4, rng), gatesynth.SynthMode.GENERIC3)
        if gen.cnot_count > 3:
            return f"generic synthesis used {gen.cnot_count} CNOTs"
        # near-local gate: a nonlocal angle from 1e-4 down to 1e-9 still needs three
        eps = (1e-4, 1e-5, 4e-7, 1e-8, 1e-9)[trial % 5]
        xx = np.kron(gatesynth.PAULI_X, gatesynth.PAULI_X)
        near = math.cos(eps) * np.eye(4) + 1j * math.sin(eps) * xx
        near = np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ near
        near = near @ np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        gen, _ = gatesynth.synthesize_gate(near, gatesynth.SynthMode.GENERIC3)
        if gen.cnot_count != 3:
            return f"generic synthesis used {gen.cnot_count} CNOTs at nonlocal angle {eps:g}"
    return None


def _check_weight_preserving_rewrite(n_max: int, fuzz: int, rng, corrupt=False):
    for _ in range(fuzz):
        n = int(rng.integers(2, n_max + 1))
        state = random_state(n, rng)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        step = disentangler.disentangle_step(state, a, b)
        rewritten = gatesynth.build_u2cx(step.unitary)
        moved = rewritten @ extract_block(state, a, b)
        kept = float(np.linalg.norm(moved[:2]) ** 2)
        if abs(kept - step.retained_weight) > 1e-10:
            return f"rewrite changed retained weight by {abs(kept - step.retained_weight):.2e}"
    return None


def _check_ring_bounds(n_max: int, fuzz: int, rng, corrupt=False):
    n = min(n_max, 8)
    kinds = ("exp", "cos", "linear", "f1", "f2")
    for kf in kinds:
        for kg in kinds:
            f = targets.make_spec(kf, n, domain=(0.0, 1.0))
            g = targets.make_spec(kg, n, domain=(0.0, 1.0))
            rep = targets.verify_ring_bounds(f, g)
            if not (rep.additive_ok and rep.multiplicative_ok):
                return f"ring bound violated for ({kf}, {kg}): {rep}"
    return None


def _check_end_to_end(n_max: int, fuzz: int, rng, corrupt=False):
    n = min(n_max, 6)
    target = random_state(n, rng)
    sched = schedules.htn_schedule(n)
    res = run_schedule(target, sched, 1, rewrite_2cx=True)
    prim, _ = gatesynth.synthesize_circuit(res.circuit, gatesynth.SynthMode.OPTIMIZED2)
    text = qasm.emit(prim, {"scheme": "htn"})
    parsed, _ = qasm.parse(text)
    prepared = simulate(parsed)
    err = abs(statevec.infidelity(prepared, target) - res.final_infidelity)
    if err > 1e-8:
        return f"re-simulated infidelity differs by {err:.2e}"
    return None


CHECKS = [
    ("block-extraction-bijection", _check_block_roundtrip),
    ("gate-application-inverse", _check_gate_inverse),
    ("schedule-structure", _check_schedule_structure),
    ("rank2-exact-preparation", _check_rank2_exactness),
    ("retained-weight-bound", _check_retained_weight_bound),
    ("block-svd", _check_block_svd),
    ("gate-synthesis", _check_synthesis),
    ("weight-preserving-rewrite", _check_weight_preserving_rewrite),
    ("ring-rank-bounds", _check_ring_bounds),
    ("qasm-end-to-end", _check_end_to_end),
]


def run_checks(level: str = "quick", seed: int = 0, corrupt: bool = False) -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    n_max, fuzz = (6, 100) if level == "quick" else (12, 1000)
    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        try:
            detail = fn(n_max, fuzz, rng, corrupt=corrupt)
        except Exception as exc:  # a crash is a failure, not an abort
            detail = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        results.append(CheckResult(name=name, ok=detail is None, detail=detail or "", seconds=dt))
    return results
