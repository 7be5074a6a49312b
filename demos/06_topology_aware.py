"""Compile onto hardware topologies: grid chips, the fixed 12-qubit scheme,
and arbitrary coupling graphs; emit the circuit as OpenQASM text.

Run:  python demos/06_topology_aware.py
"""
from impsprep import (
    TopologyGraph,
    TruncationMode,
    chain_schedule,
    discretize,
    fig6_schedule,
    graph_contraction_schedule,
    grid_schedule,
    infidelity,
    make_spec,
    run_schedule,
    simulate,
    synthesize_circuit,
)
from impsprep import qasm
from impsprep.gatesynth import SynthMode

n = 12
target = discretize(make_spec("g1", n))

# A 3x4 grid chip: the generated contraction needs U-depth 4 where the
# traditional chain sweep needs 11.
for sched, layers in ((grid_schedule(3, 4), 1), (fig6_schedule(), 1),
                      (fig6_schedule(), 2), (chain_schedule(n), 1)):
    res = run_schedule(target, sched, layers, TruncationMode.PER_ROUND)
    print(f"{sched.scheme:9s} layers={layers}:  u_depth {res.circuit.u_depth:2d}  "
          f"infidelity {res.final_infidelity:.3e}")

# Any connected coupling graph: here a 2x3 ladder described as an edge list.
ladder = TopologyGraph.from_edge_list(
    6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
)
sched = graph_contraction_schedule(ladder)
small = discretize(make_spec("g3", 6))
res = run_schedule(small, sched, 1, rewrite_2cx=True)
print(f"\nladder graph: u_depth {res.circuit.u_depth}, "
      f"infidelity {res.final_infidelity:.3e}")

# Synthesize to u3/cx primitives and emit the portable text format.
prim, _generic_counts = synthesize_circuit(res.circuit, SynthMode.OPTIMIZED2)
text = qasm.emit(prim, {"scheme": "graph", "n": 6,
                        "infidelity": f"{res.final_infidelity:.17g}"})
print("\nfirst lines of the emitted circuit:")
print("\n".join(text.splitlines()[:8]))

# The file round-trips through the parser and re-simulates to the report.
parsed, header = qasm.parse(text)
err = abs(infidelity(simulate(parsed), small) - res.final_infidelity)
print(f"\nre-simulated deviation from the report: {err:.2e}")
