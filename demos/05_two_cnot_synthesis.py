"""From a disentangling unitary to two CNOTs: the equivalence-class rewrite,
the magic-basis KAK, and the one-third CNOT saving.

Run:  python demos/05_two_cnot_synthesis.py
"""
import numpy as np

from impsprep import (
    OneQubitGate,
    build_u2cx,
    count_gates,
    disentangle_step,
    from_amplitudes,
    run_schedule,
    synthesize_generic,
    synthesize_two_cnot,
    ttn_schedule,
)
from impsprep.gatesynth import GAMMA, SynthMode, _general_magic_kak

np.set_printoptions(precision=4, suppress=True, linewidth=120)
rng = np.random.default_rng(1)

# A disentangling unitary from a random complex 4-qubit state.
state = from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
step = disentangle_step(state, 1, 3)
u_inv = step.unitary

# Its cosine-sine decomposition splits it into block-diagonal factors around
# a real middle [[C, S], [S, -C]]; build_u2cx cancels the outer factors
# against the inner ones, which yields the two-CNOT representative of its
# equivalence class. The cosines C survive the rewrite: they are the
# singular values of u_inv's top-left 2x2 and the eigenvalues of the
# representative's.
gate = build_u2cx(u_inv)
print("CSD cosines:", np.linalg.svd(u_inv[:2, :2], compute_uv=False))
print("representative's top-left eigenvalues:", np.linalg.eigvalsh(gate[:2, :2])[::-1])
print("representative is Hermitian:", np.abs(gate - gate.conj().T).max() < 1e-12)
print("eigenvalues:", np.round(np.sort(np.linalg.eigvals(gate).real), 6))

# One magic-basis KAK, the one synthesis runs on every gate, serves both
# synthesis modes. For the representative its angles pair up as
# (a, -a, b, -b) and the Pauli-string coefficients have omega_0 = 0 with one
# of the other three vanishing (mod pi), which is exactly the two-CNOT
# condition.
_p, theta, _q = _general_magic_kak(gate)
print("\ntheta:", theta)
print("omega:", GAMMA.T @ theta / 4.0)

seq = synthesize_two_cnot(gate)
print(f"\nsynthesized with {seq.cnot_count} CNOTs and "
      f"{seq.single_qubit_count()} single-qubit gates:")
for g in seq.gates:
    if isinstance(g, OneQubitGate):
        print(f"  single-qubit gate on wire {g.wire}")
    else:
        print(f"  CNOT with control {g.a}, target {g.b}")

# The generic baseline factors the raw unitary with the same KAK and puts a
# fixed three-CNOT core between the same kind of outer local gates.
generic = synthesize_generic(u_inv)
print(f"\ngeneric baseline for the raw unitary: {generic.cnot_count} CNOTs")

# Over a full compilation the rewrite saves one third of the CNOTs.
target = from_amplitudes(rng.normal(size=256) + 1j * rng.normal(size=256))
res = run_schedule(target, ttn_schedule(8), 1, rewrite_2cx=True)
opt = count_gates(res.circuit, SynthMode.OPTIMIZED2)
gen = count_gates(res.circuit, SynthMode.GENERIC3)
print(f"\n8-qubit tree compilation: {opt[0]} CNOTs optimized vs "
      f"{gen[0]} generic ({opt[0] / gen[0]:.3f} of baseline)")
