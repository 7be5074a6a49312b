"""Rank-2 targets (GHZ, W, cosine, linear) prepare exactly in one layer of
logarithmic depth; exponentials are rank-1 and exact everywhere.

Run:  python demos/03_exact_rank2_preparation.py
"""
from impsprep import (
    discretize,
    htn_schedule,
    make_spec,
    mps_rank,
    run_schedule,
    ttn_schedule,
    verify_ring_bounds,
)

n = 12
print(f"target         chi   bond dims at n = {n}")
for kind in ("ghz", "w", "cos", "linear", "exp", "f1"):
    state = discretize(make_spec(kind, n))
    prof = mps_rank(state)
    print(f"{kind:10s}   {prof.chi:3d}   {prof.bond_dims}")

print("\nsingle-layer preparation at depth ceil(log2 n) = 4:")
for kind in ("ghz", "w", "cos", "linear"):
    state = discretize(make_spec(kind, n))
    for sched in (ttn_schedule(n), htn_schedule(n)):
        res = run_schedule(state, sched, 1)
        print(f"  {kind:8s} via {sched.scheme}: infidelity {res.final_infidelity:.2e}, "
              f"u_depth {res.circuit.u_depth}")

# The rank-1 exponential disentangles exactly at every single step.
state = discretize(make_spec("exp", n))
res = run_schedule(state, htn_schedule(n), 1)
print(f"\nexp target: infidelity {res.final_infidelity:.2e}, "
      f"worst step discard {max(1 - s.retained_weight for s in res.steps):.2e}")

# Rank arithmetic: sums and products of low-rank functions stay low-rank.
rep = verify_ring_bounds(make_spec("cos", 10, domain=(0.0, 1.0)),
                         make_spec("linear", 10, domain=(0.0, 1.0)))
print(f"\nring bounds, cos vs linear: chi_f={rep.chi_f} chi_g={rep.chi_g} "
      f"chi_sum={rep.chi_sum} (<= {rep.chi_f + rep.chi_g}) "
      f"chi_prod={rep.chi_prod} (<= {rep.chi_f * rep.chi_g})")
