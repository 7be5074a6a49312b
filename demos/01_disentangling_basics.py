"""Walk through one disentangling step: block matrices, the SVD, truncation.

Run:  python demos/01_disentangling_basics.py
"""
import numpy as np

from impsprep import (
    TwoQubitGate,
    apply_two_qubit,
    disentangle_step,
    extract_block,
    from_amplitudes,
    infidelity,
    truncate_and_renormalize,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)

# A Bell pair plus a spectator qubit: (|00> + |11>)/sqrt(2) (x) |0>
amps = np.zeros(8)
amps[0b000] = 1.0
amps[0b110] = 1.0
state = from_amplitudes(amps)
print("state:", np.round(state.amps, 4))

# The block matrix on the pair (0, 1): row (x, y) holds the amplitudes where
# qubit 0 is x and qubit 1 is y. For the Bell pair only rows (0,0) and (1,1)
# are populated.
print("\nblock matrix on (0, 1):")
print(extract_block(state, 0, 1))

# One step: SVD the block; the step's unitary is the inverse left factor.
# Applying it leaves qubit 0 exactly on |0>, since the pair is rank-1 here
# (a single nonzero singular value).
step = disentangle_step(state, 0, 1)
after = apply_two_qubit(state, TwoQubitGate(0, 1, step.unitary))
print("\nsingular values:", np.round(step.singular_values, 6))
print("retained weight (top two):", step.retained_weight)
print("state after the step:", np.round(after.amps, 4))

# Truncation zeroes the (empty) qubit-0 = 1 half and renormalizes.
truncated, discarded = truncate_and_renormalize(after, 0)
print("\ndiscarded mass:", discarded)

# Now a genuinely hard pair: a random 4-qubit state, whose 4x4 block has
# full rank. The retained weight drops below 1 and truncation discards the
# two smallest singular directions.
rng = np.random.default_rng(0)
messy = from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
step = disentangle_step(messy, 0, 1)
after = apply_two_qubit(messy, TwoQubitGate(0, 1, step.unitary))
print("\nrandom 4-qubit state: singular values", np.round(step.singular_values, 4))
print("retained weight:", round(step.retained_weight, 6))
truncated, discarded = truncate_and_renormalize(after, 0)
print("discarded mass:", round(discarded, 6))
print("(truncation error is what the extra layers of a schedule clean up;"
      " the disentangled state is intentionally far from the input:",
      f"infidelity {infidelity(truncated, messy):.3f})")
