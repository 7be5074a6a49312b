"""Compare the parallel disentangling schedules and their U-depths.

Run:  python demos/02_schedules_and_depth.py
"""
import json

from impsprep import (
    chain_schedule,
    fig6_schedule,
    graph_contraction_schedule,
    grid_schedule,
    hen_schedule,
    htn_schedule,
    ttn_schedule,
)
from impsprep.schedules import topology_from_json

print("scheme     n   U-depth   gates   (chain depth = n-1, trees = ceil(log2 n))")
for n in (8, 12, 16, 32, 64):
    for sched in (chain_schedule(n), ttn_schedule(n), htn_schedule(n), hen_schedule(n)):
        print(f"{sched.scheme:8s} {n:3d}   {sched.u_depth:5d}   {sched.step_count():5d}")
    print()

# The hypercube scheme at n = 8: each round clears one binary digit on every
# index that has it set, so it runs 12 gates in the tree's 3 rounds.
print("hypercube rounds at n = 8:")
for i, rnd in enumerate(htn_schedule(8).rounds):
    print(f"  round {i}: {rnd}")

print("\ntree rounds at n = 8 (7 gates in the same depth):")
for i, rnd in enumerate(ttn_schedule(8).rounds):
    print(f"  round {i}: {rnd}")

# Slot filling: the chain schedule leaves most qubits idle each round; the
# filled variant packs extra nearest-neighbour squeezes at the same depth.
print("\nslot-filled chain at n = 6:")
for i, rnd in enumerate(hen_schedule(6).rounds):
    print(f"  round {i}: {rnd}")

# Grid chips contract from the outside in: depth ~ (rows + cols) / 2.
grid = grid_schedule(3, 4)
print(f"\n3x4 grid: U-depth {grid.u_depth} vs chain depth {12 - 1}")
for i, rnd in enumerate(grid.rounds):
    print(f"  round {i}: {rnd}")

# The fixed 12-qubit grid scheme; its rounds reuse sources (cyclic layers).
print(f"\nfixed 12-qubit grid scheme: U-depth {fig6_schedule().u_depth} per layer")

# Any connected coupling graph works: rounds are maximal matchings of the
# progressively contracted graph. The graph is given as the topology JSON
# that `impsprep compile --scheme graph --graph FILE.json` reads.
text = json.dumps({"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]})
print(f"\ntopology JSON: {text}")
sched = graph_contraction_schedule(topology_from_json(text))
print(f"6-qubit ring contraction: U-depth {sched.u_depth}")
for i, rnd in enumerate(sched.rounds):
    print(f"  round {i}: {rnd}")
