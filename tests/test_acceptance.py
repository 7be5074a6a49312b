"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single [PASS]/[FAIL] summary line (visible with -s or in
captured output on failure). Compiled circuits from the preparation criteria
are collected so the final end-to-end criterion can re-parse and re-simulate
every emitted artifact.
"""
import math
import time

import numpy as np
import pytest

from impsprep import disentangler, gatesynth, qasm, schedules, statevec, targets
from impsprep.circuits import simulate
from impsprep.disentangler import (
    TruncationMode,
    default_truncation_mode,
    disentangle_step,
    run_schedule,
)
from impsprep.gatesynth import (
    GAMMA,
    SynthMode,
    _general_magic_kak,
    build_u2cx,
    synthesize_circuit,
    synthesize_gate,
)

from conftest import random_state, sequence_matrix
from test_disentangler import canonical_mps_reference

RESULTS = []


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    RESULTS.append((num, ok))
    assert ok, line


# compilations shared between the preparation criteria and criterion 10
EMITTED = []


def compile_and_record(label, target, schedule, layers, mode):
    res = run_schedule(target, schedule, layers, mode, rewrite_2cx=True)
    EMITTED.append((label, target, res))
    return res


@pytest.fixture(scope="module")
def disentangling_instances():
    """1000 seeded random disentangling unitaries with their source blocks."""
    rng = np.random.default_rng(20240901)
    instances = []
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        state = random_state(n, rng)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        step = disentangle_step(state, a, b)
        instances.append((state, a, b, step))
    return instances


def test_criterion_1_rank2_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 12):
        for kind in ("ghz", "w", "cos", "linear"):
            target = targets.discretize(targets.make_spec(kind, n))
            for build in (schedules.htn_schedule, schedules.ttn_schedule):
                sched = build(n)
                assert sched.u_depth == math.ceil(math.log2(n))
                mode = default_truncation_mode(sched.scheme)
                res = compile_and_record(f"c1-{kind}-{sched.scheme}-n{n}",
                                         target, sched, 1, mode)
                worst = max(worst, res.final_infidelity)
    dt = time.perf_counter() - t0
    report(1, "rank-2 targets prepare exactly in one tree/hypercube layer",
           worst < 1e-9 and dt < 10.0, f"worst infidelity {worst:.1e}, {dt:.1f}s")


def test_criterion_2_rank1_one_round():
    t0 = time.perf_counter()
    worst = 0.0
    worst_discard = 0.0
    n = 8
    target = targets.discretize(targets.make_spec("exp", n))
    for build in (schedules.chain_schedule, schedules.ttn_schedule,
                  schedules.htn_schedule, schedules.hen_schedule):
        sched = build(n)
        res = compile_and_record(f"c2-exp-{sched.scheme}", target, sched, 1,
                                 default_truncation_mode(sched.scheme))
        worst = max(worst, res.final_infidelity)
        # exactness holds from the very first round: no step discards weight
        worst_discard = max(worst_discard, max(1.0 - s.retained_weight for s in res.steps))
    dt = time.perf_counter() - t0
    report(2, "rank-1 exponential targets disentangle exactly from round one",
           worst < 1e-9 and worst_discard < 1e-12 and dt < 1.0,
           f"worst infidelity {worst:.1e}, worst discard {worst_discard:.1e}, {dt:.2f}s")


def test_criterion_3_two_cnot_synthesis(disentangling_instances):
    t0 = time.perf_counter()
    opt_total = 0
    gen_total = 0
    ok = True
    for state, a, b, step in disentangling_instances:
        rewritten = build_u2cx(step.unitary)
        seq = synthesize_gate(rewritten, SynthMode.OPTIMIZED2)[0]
        rebuilt = sequence_matrix(seq)
        tr = np.trace(rebuilt.conj().T @ rewritten) / 4.0
        err = np.abs(rebuilt * (tr / abs(tr)) - rewritten).max()
        ok &= seq.cnot_count <= 2 and err < 1e-9
        opt_total += seq.cnot_count
        gen_total += synthesize_gate(step.unitary, SynthMode.GENERIC3)[0].cnot_count
    dt = time.perf_counter() - t0
    ratio_ok = opt_total * 3 == gen_total * 2
    report(3, "two-CNOT synthesis succeeds on 1000 rewritten unitaries at 2/3 CNOT cost",
           ok and ratio_ok and dt < 60.0,
           f"optimized {opt_total} vs generic {gen_total} CNOTs, {dt:.1f}s")


def test_criterion_4_kak_invariants(disentangling_instances):
    def mod_pi(v):
        return min(abs(np.angle(np.exp(1j * v))), abs(np.angle(np.exp(1j * (v + np.pi)))))

    ok = True
    for state, a, b, step in disentangling_instances:
        # the KAK that synthesis runs on every gate
        _p, theta, _q, _ = _general_magic_kak(build_u2cx(step.unitary))
        omega = GAMMA.T @ theta / 4.0
        fwd = np.sort(np.angle(np.exp(1j * theta)))
        bwd = np.sort(np.angle(np.exp(-1j * theta)))
        ok &= bool(np.abs(np.exp(1j * fwd) - np.exp(1j * bwd)).max() < 1e-9)
        ok &= mod_pi(omega[0]) < 1e-9
        ok &= min(mod_pi(w) for w in omega[1:]) < 1e-9
    report(4, "KAK angle multiset negation-closed with the vanishing-omega pattern", ok)


def test_criterion_5_schedule_depths():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 65):
        ok &= schedules.chain_schedule(n).u_depth == n - 1
        ok &= schedules.hen_schedule(n).u_depth == n - 1
        log_d = math.ceil(math.log2(n))
        ok &= schedules.ttn_schedule(n).u_depth == log_d
        ok &= schedules.htn_schedule(n).u_depth == log_d
    ok &= schedules.fig6_schedule().u_depth == 5
    grid = schedules.grid_schedule(3, 4)
    ok &= grid.u_depth <= 7
    for rnd in grid.rounds:
        for a, b in rnd:
            ra, ca = divmod(a, 4)
            rb, cb = divmod(b, 4)
            ok &= abs(ra - rb) + abs(ca - cb) == 1
    dt = time.perf_counter() - t0
    report(5, "U-depth accounting for all generators", ok and dt < 1.0, f"{dt:.2f}s")


def test_criterion_6_monotone_layering():
    t0 = time.perf_counter()
    ok = True
    worst_jump = 0.0
    builders = (schedules.chain_schedule, schedules.ttn_schedule,
                schedules.htn_schedule, schedules.hen_schedule)
    for kind in ("f1", "f2", "f3", "g1", "g2", "g3"):
        target = targets.discretize(targets.make_spec(kind, 10))
        for build in builders:
            sched = build(10)
            mode = default_truncation_mode(sched.scheme)
            infids = []
            for layers in (1, 2, 3):
                res = compile_and_record(f"c6-{kind}-{sched.scheme}-L{layers}",
                                         target, sched, layers, mode)
                infids.append(res.final_infidelity)
            for lo, hi in ((1, 0), (2, 1)):
                jump = infids[lo] - infids[hi]
                worst_jump = max(worst_jump, jump)
                ok &= jump <= 1e-9
    dt = time.perf_counter() - t0
    report(6, "infidelity non-increasing over 1, 2, 3 layers for all benchmarks",
           ok and dt < 300.0, f"worst increase {worst_jump:.1e}, {dt:.0f}s")


def test_criterion_7_weight_preserving_rewrite():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        state = random_state(n, rng)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        step = disentangle_step(state, a, b)
        rewritten = build_u2cx(step.unitary)
        rows = disentangler.extract_block(state, a, b)
        kept = float(np.linalg.norm((rewritten @ rows)[:2]) ** 2)
        worst = max(worst, abs(kept - step.retained_weight))
    report(7, "equivalence-class rewrite preserves the retained weight",
           worst < 1e-10, f"worst deviation {worst:.1e}")


def test_criterion_8_ring_bounds():
    from test_targets import brute_force_rank_profile

    t0 = time.perf_counter()
    ok = True
    kinds = ("exp", "cos", "linear", "f1", "f2")
    for kf in kinds:
        for kg in kinds:
            f = targets.make_spec(kf, 10, domain=(0.0, 1.0))
            g = targets.make_spec(kg, 10, domain=(0.0, 1.0))
            rep = targets.verify_ring_bounds(f, g, tol=1e-10)
            ok &= rep.additive_ok and rep.multiplicative_ok
            # spot-check the library rank against the brute-force oracle
            state = targets.discretize(f)
            oracle = max(brute_force_rank_profile(state.amps, 10, 1e-10))
            ok &= targets.mps_rank(state, 1e-10).chi == oracle
    dt = time.perf_counter() - t0
    report(8, "Schmidt-rank ring bounds hold for all function pairs",
           ok and dt < 30.0, f"{dt:.1f}s")


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        target = random_state(n, rng)
        res = run_schedule(target, schedules.chain_schedule(n), 1, TruncationMode.PER_LAYER)
        ref = canonical_mps_reference(target)
        worst = max(worst, abs(res.final_infidelity - ref))
    report(9, "chain compilation matches the independent sequential reference",
           worst < 1e-12, f"worst difference {worst:.1e}")


def test_criterion_10_end_to_end_qasm(tmp_path):
    assert EMITTED, "preparation criteria must run first"
    worst = 0.0
    for label, target, res in EMITTED:
        prim, _ = synthesize_circuit(res.circuit, SynthMode.OPTIMIZED2)
        path = tmp_path / f"{label}.qasm"
        path.write_text(qasm.emit(prim, {"label": label, "infidelity": res.final_infidelity}))
        parsed, header = qasm.parse(path.read_text())
        prepared = simulate(parsed)
        err = abs(statevec.infidelity(prepared, target) - res.final_infidelity)
        worst = max(worst, err)
    report(10, f"all {len(EMITTED)} emitted circuits re-simulate to their reports",
           worst < 1e-8, f"worst deviation {worst:.1e}")
