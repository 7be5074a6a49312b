"""Benchmark the four schemes on the six standard functions/distributions and
show that fidelity improves as layers (U-depth) increase.

Run:  python demos/04_function_benchmarks.py
"""
from impsprep import (
    chain_schedule,
    discretize,
    hen_schedule,
    htn_schedule,
    make_spec,
    run_schedule,
    ttn_schedule,
)

n = 10
builders = {
    "chain": chain_schedule,
    "ttn": ttn_schedule,
    "htn": htn_schedule,
    "hen": hen_schedule,
}

print(f"single-layer infidelity at n = {n} (lower is better):")
print(f"{'target':8s}" + "".join(f"{name:>12s}" for name in builders))
for kind in ("f1", "f2", "f3", "g1", "g2", "g3"):
    state = discretize(make_spec(kind, n))
    cells = []
    for name, build in builders.items():
        sched = build(n)
        res = run_schedule(state, sched, 1)
        cells.append(f"{res.final_infidelity:12.2e}")
    print(f"{kind:8s}" + "".join(cells))

print("\nlayering (three layers of the hypercube scheme on f1):")
state = discretize(make_spec("f1", n))
for layers in (1, 2, 3):
    res = run_schedule(state, htn_schedule(n), layers)
    print(f"  layers {layers}: u_depth {res.circuit.u_depth:2d}  "
          f"infidelity {res.final_infidelity:.3e}")

print("\nsame comparison for the depth-matched chain variants on f1:")
for name in ("chain", "hen"):
    for layers in (1, 2):
        sched = builders[name](n)
        res = run_schedule(state, sched, layers)
        print(f"  {name:5s} layers {layers}: u_depth {res.circuit.u_depth:2d}  "
              f"infidelity {res.final_infidelity:.3e}")

print("\n(The CLI produces the same sweeps as CSV: "
      "impsprep benchmark --targets f1,f2 --schemes chain,htn --n-list 10 "
      "--layers-list 1,2 --n 10 --plotdata --out bench_out)")
