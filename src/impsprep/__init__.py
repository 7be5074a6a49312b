"""impsprep: compile amplitude vectors into shallow two-qubit-gate circuits.

The pipeline disentangles a target statevector pair-by-pair with block SVDs,
schedules the pairs in parallel rounds (chain, tree, hypercube, slot-filled
chain, grid, or a contraction of an arbitrary coupling graph), rewrites every
two-qubit unitary into a two-CNOT-implementable representative, and verifies
the reversed preparation circuit against an exact simulator.
"""

from .circuits import CNOT, Circuit, OneQubitGate, simulate
from .disentangler import (
    DisentangleStep,
    PreparationResult,
    TruncationMode,
    default_truncation_mode,
    disentangle_step,
    run_schedule,
    truncate_and_renormalize,
)
from .gatesynth import (
    GateSequence,
    SynthMode,
    build_u2cx,
    count_gates,
    synthesize_circuit,
    synthesize_generic,
    synthesize_two_cnot,
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
    BlockMatrix,
    StateVector,
    TwoQubitGate,
    apply_single_qubit,
    apply_two_qubit,
    extract_block,
    fidelity,
    from_amplitudes,
    infidelity,
    inverse_extract,
    load_amplitudes,
    save_amplitudes,
    zero_state,
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
