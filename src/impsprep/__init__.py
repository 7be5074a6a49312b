"""impsprep: compile amplitude vectors into shallow two-qubit-gate circuits.

The pipeline disentangles a target statevector pair by pair, each step's
unitary the eigenbasis of its block's 4x4 Gram matrix, schedules the pairs
in parallel rounds (chain, tree, hypercube, slot-filled chain, grid, or a
contraction of an arbitrary coupling graph), under the two-CNOT synthesis
mode rewrites a complex target's unitaries into two-CNOT representatives (a
real target runs in float64, its unitaries two-CNOT as they are), and
verifies the reversed preparation circuit against an exact simulator.
"""

from .circuits import CNOT, Circuit, OneQubitGate, TwoQubitGate, apply_single_qubit, apply_two_qubit, simulate
from .disentangler import (
    DisentangleStep,
    PreparationResult,
    TruncationMode,
    default_truncation_mode,
    disentangle_step,
    extract_block,
    inverse_extract,
    run_schedule,
    truncate_and_renormalize,
)
from .gatesynth import (
    GateSequence,
    SynthMode,
    build_u2cx,
    count_gates,
    synthesize_circuit,
    synthesize_gate,
)
from .schedules import (
    Schedule,
    TopologyGraph,
    chain_schedule,
    fig6_schedule,
    graph_contraction_schedule,
    grid_schedule,
    hen_schedule,
    htn_schedule,
    ttn_schedule,
)
from .statevec import (
    StateVector,
    fidelity,
    from_amplitudes,
    infidelity,
    load_amplitudes,
)
from .targets import (
    RankProfile,
    RingBoundReport,
    TargetSpec,
    discretize,
    make_spec,
    mps_rank,
    verify_ring_bounds,
)

__version__ = "0.1.0"
