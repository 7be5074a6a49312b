"""Compile benchmark for impsprep.

    python3 perfbench/run.py --workload large-state --seed 1 --seconds 20 --trace 0

Runs one workload in this process through the program's own entry point,
``impsprep.cli.main``, in a fixed number of whole passes over the workload's
operations (as many as take about ``--seconds`` on the reference machine,
and at least two), checks every output against the independent
computations in ``checker.py``, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
layers are wrapped by ``tracer.py`` and the metrics are per layer. See
README.md for the workloads, seeds and reference figures.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is loaded: at most two, and no more
# than the cores this process may run on.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"

SCHEMES = ("chain", "ttn", "htn", "hen")
WARMUP = ["compile", "--target", "f1", "--scheme", "hen", "--n", "8", "--layers", "2"]
SETUP_REPEATS = 7
UNWRAPPED_WARN = 0.05  # share of traced wall time outside every wrapped layer
INFIDELITY_TOL = 1e-8  # own re-simulation vs report.json
MPS_REL_TOL = 1e-9  # chain L=1 vs the MPS reference
MONOTONE_TOL = 1e-12  # L=2 may not be worse than L=1
# Seconds one pass of each workload takes on the reference machine (README).
# A run makes max(MIN_PASSES, seconds // PASS_SECONDS) passes, so the
# operations it attempts depend on --seconds only, never on the machine's
# speed, and every operation is timed at least twice.
PASS_SECONDS = {"large-state": 17.0, "function-grid": 6.0, "random-sweep": 9.0}
MIN_PASSES = 2
# random-sweep's (scheme, L) cells. htn and hen run at L=1 only: their L=2
# cells are worse than L=1 on some seeds (the FOUND line in CHANGES.md), and
# an outcome that depends on the seed cannot be kept in a workload.
RANDOM_CELLS = (("chain", 1), ("chain", 2), ("ttn", 1), ("ttn", 2), ("htn", 1), ("hen", 1))

# Run in a fresh interpreter: import the program and make one warm-up compile.
SETUP_CHILD = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import impsprep.cli
with contextlib.redirect_stdout(io.StringIO()):
    impsprep.cli.main(sys.argv[3:] + ["--out", sys.argv[2]])
print(time.perf_counter() - t0)
"""


@dataclass
class Op:
    """One call of ``impsprep.cli.main``: a compile, or a benchmark cell."""

    target: str  # catalog name, "random" or "large"
    scheme: str
    layers: int
    n: int
    argv: list
    out: Path
    samples: int = 1

    @property
    def pairs(self) -> int:
        """Two-qubit disentangling unitaries in one compiled circuit."""
        return self.layers * checker.schedule_shape(self.scheme, self.n)[1]


@dataclass
class Measured:
    """What the checks read from one successful operation."""

    infidelity: float
    vs_mps: float  # infidelity / bond-dimension-2 MPS infidelity of the same target
    cnots: int  # in one emitted circuit
    pairs: int  # two-qubit unitaries in that circuit


@dataclass
class Result:
    op: Op
    seconds: float
    error: str | None
    output: dict | None = None  # report.json, or the results.csv rows
    qasm: str | None = None
    measured: Measured | None = None  # set once the checks have read the output


def large_state(seed: int, work: Path):
    """Random dense amplitudes at n=18, compiled with chain, htn and hen at L=2."""
    n = 18
    (target,) = checker.random_samples(n, seed, 1)
    path = work / "large.amps"
    np.savetxt(path, np.column_stack([target.real, target.imag]), fmt="%.17g")
    ops = [
        Op("large", s, 2, n, _compile_argv(str(path), s, 2, n, seed), work / f"large_{s}")
        for s in ("chain", "htn", "hen")
    ]
    return ops, {"large": target}


def function_grid(seed: int, work: Path):
    """The catalog f1..f3, g1..g3 x four schemes x L in {1, 2} at n=12."""
    n = 12
    ops = [
        Op(t, s, layers, n, _compile_argv(t, s, layers, n, seed), work / f"{t}_{s}_{layers}")
        for t in checker.CATALOG
        for s in SCHEMES
        for layers in (1, 2)
    ]
    return ops, {t: checker.catalog_target(t, n) for t in checker.CATALOG}


def random_sweep(seed: int, work: Path):
    """One ``benchmark --targets random --samples 10 --n-list 14`` per cell of
    ``RANDOM_CELLS``."""
    n, samples = 14, 10
    ops = [
        Op(
            "random", s, layers, n,
            ["benchmark", "--targets", "random", "--schemes", s, "--n-list", str(n),
             "--layers-list", str(layers), "--samples", str(samples), "--n", str(n),
             "--seed", str(seed)],
            work / f"random_{s}_{layers}", samples,
        )
        for s, layers in RANDOM_CELLS
    ]
    return ops, {"random": checker.random_samples(n, seed, samples)}


WORKLOADS = {"large-state": large_state, "function-grid": function_grid, "random-sweep": random_sweep}


def _compile_argv(target: str, scheme: str, layers: int, n: int, seed: int) -> list:
    return ["compile", "--target", target, "--scheme", scheme, "--n", str(n),
            "--layers", str(layers), "--seed", str(seed)]


def import_program():
    """Import ``impsprep`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "impsprep" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import impsprep
    import impsprep.cli

    if Path(impsprep.__file__).resolve().parent != SRC / "impsprep":
        raise SystemExit(f"perfbench: imported impsprep from {impsprep.__file__}, not {SRC}")
    return impsprep


def measure_setup(work: Path) -> float:
    """Median over fresh interpreters of importing impsprep plus one warm-up compile."""
    times = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(work / f"setup{i}"), *WARMUP],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_op(cli, op: Op, scope=None) -> Result:
    """Time one call of ``cli.main``; ``scope`` wraps the call (a trace span)."""
    shutil.rmtree(op.out, ignore_errors=True)
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), scope or contextlib.nullcontext():
            cli.main(op.argv + ["--out", str(op.out)])
    except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    result = Result(op, seconds, error)
    if error is None:
        if op.target == "random":
            with open(op.out / "results.csv", newline="") as fh:
                result.output = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        else:
            result.output = json.loads((op.out / "report.json").read_text())
            result.qasm = (op.out / "circuit.qasm").read_text()
    return result


def run_passes(ops: list, passes: int, rng: random.Random, run_one) -> list:
    """``passes`` whole passes over ``ops``, each in a seeded order."""
    results: list = []
    for _ in range(passes):
        order = list(ops)
        rng.shuffle(order)
        results += [run_one(op) for op in order]
    return results


def _median_ok(results: list) -> float:
    """Median wall time of the successful operations."""
    return statistics.median(r.seconds for r in results if r.error is None)


class Checks:
    """Checks every successful operation; records problems instead of raising."""

    def __init__(self, targets: dict):
        self.targets = targets
        self.problems: list = []
        self._mps: dict = {}
        self._sim: dict = {}  # qasm text -> (infidelity vs target, cx count, cx depth)

    def expect(self, ok: bool, res: Result, what: str) -> None:
        if not ok:
            op = res.op
            self.problems.append(f"{op.target} {op.scheme} L={op.layers}: {what}")

    def mps(self, target: str) -> float:
        """Bond-dimension-2 MPS infidelity; the mean over samples for random."""
        if target not in self._mps:
            states = self.targets[target]
            states = states if isinstance(states, list) else [states]
            self._mps[target] = float(np.mean([checker.mps_infidelity(s) for s in states]))
        return self._mps[target]

    def check(self, res: Result) -> Measured:
        op = res.op
        depth, _ = checker.schedule_shape(op.scheme, op.n)
        mps = self.mps(op.target)
        if op.target == "random":
            self.expect(len(res.output) == 1, res, f"results.csv has {len(res.output)} rows")
            row = res.output[0]
            infid, cnots = float(row["infidelity"]), int(row["cnot_2cx"])
            generic, u_depth = int(row["cnot_3cx"]), int(row["u_depth"])
        else:
            rep = res.output
            infid, cnots = rep["infidelity"], rep["cnot_count"]
            generic, u_depth = rep["cnot_count_generic"], rep["u_depth"]
            if res.qasm not in self._sim:
                n, gates = checker.parse_qasm(res.qasm)
                prepared = checker.simulate(n, gates)
                self._sim[res.qasm] = (
                    checker.infidelity(prepared, self.targets[op.target]),
                    checker.cx_count(gates),
                    checker.cx_depth(n, gates),
                )
            sim_infid, cx_lines, cx_depth = self._sim[res.qasm]
            self.expect(abs(sim_infid - infid) <= INFIDELITY_TOL, res,
                        f"re-simulated infidelity {sim_infid:.12e} vs reported {infid:.12e}")
            self.expect(cx_lines == cnots, res, f"{cx_lines} cx lines vs cnot_count {cnots}")
            self.expect(cx_depth <= 2 * u_depth, res, f"CNOT depth {cx_depth} > 2 x u_depth {u_depth}")
        self.expect(cnots <= 2 * op.pairs, res, f"{cnots} CNOTs > 2 x {op.pairs} unitaries")
        self.expect(generic <= 3 * op.pairs, res, f"{generic} generic CNOTs > 3 x {op.pairs} unitaries")
        self.expect(u_depth == op.layers * depth, res, f"u_depth {u_depth} != {op.layers} x {depth}")
        if op.scheme == "chain" and op.layers == 1:
            self.expect(abs(infid - mps) <= MPS_REL_TOL * mps, res,
                        f"chain L=1 infidelity {infid:.15e} vs MPS reference {mps:.15e}")
        return Measured(infid, infid / mps, cnots, op.pairs)

    def monotone(self, ok: list) -> None:
        """L=2 is no worse than L=1 wherever both compiled."""
        by_cell: dict = {}
        for res in ok:
            by_cell.setdefault((res.op.target, res.op.scheme, res.op.layers), []).append(res.measured.infidelity)
        for (target, scheme, layers), l2 in by_cell.items():
            l1 = by_cell.get((target, scheme, 1))
            if layers == 2 and l1:
                worst, best = max(l2), min(l1)
                if worst > best + MONOTONE_TOL:
                    self.problems.append(f"{target} {scheme}: L=2 infidelity {worst:.15e} > L=1 {best:.15e}")


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    impsprep = import_program()
    cli = impsprep.cli
    rundir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    work = rundir / "work"
    work.mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup(work)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(WARMUP + ["--out", str(work / "warmup")])
        ops, targets = WORKLOADS[args.workload](args.seed, work)
        passes = max(MIN_PASSES, int(args.seconds // PASS_SECONDS[args.workload]))
        rng = random.Random(args.seed)
        if args.trace:
            # Each operation runs untraced, then traced, so that drift in the
            # machine's speed cancels out of the overhead.
            tracer = Tracer(impsprep)
            plain: list = []

            def run_both(op: Op) -> Result:
                plain.append(run_op(cli, op))
                with tracer.installed():
                    return run_op(cli, op, tracer.op(len(plain) - 1))

            traced = run_passes(ops, passes, rng, run_both)
            results = plain + traced
        else:
            results = run_passes(ops, passes, rng, lambda op: run_op(cli, op))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        ok = [r for r in results if r.error is None]
        if not ok:
            raise SystemExit("perfbench: no operation succeeded")
        checks = Checks(targets)
        for r in ok:
            try:
                r.measured = checks.check(r)
            except (ValueError, KeyError, IndexError) as exc:  # malformed output
                checks.expect(False, r, f"unreadable output: {exc}")
        measured = [r.measured for r in ok if r.measured]
        checks.monotone([r for r in ok if r.measured])

        if args.trace:
            tracer.write(rundir / "trace.jsonl")
            metrics = tracer.metrics(len(traced), sum(r.seconds for r in traced))
            # paired: each operation's traced time against its own untraced time
            both = [(p.seconds, t.seconds) for p, t in zip(plain, traced) if p.error is None and t.error is None]
            overhead = sum(t for _, t in both) / sum(p for p, _ in both) - 1.0
            metrics["trace.overhead_share"] = (overhead, "1")
            if metrics["trace.unwrapped_share"][0] > UNWRAPPED_WARN:
                print(f"perfbench: warning: {metrics['trace.unwrapped_share'][0]:.1%} of the traced wall "
                      "time is outside every wrapped layer; a wrapped call site may have moved")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "compile_s": (_median_ok(results), "s"),
                "unitaries_per_s": (
                    sum(r.op.pairs * r.op.samples for r in ok) / sum(r.seconds for r in results), "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
                "cx_per_unitary": (sum(m.cnots for m in measured) / sum(m.pairs for m in measured), "1"),
                "infidelity_vs_mps": (math.exp(statistics.fmean(math.log(m.vs_mps) for m in measured)), "1"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if r.error is not None]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"blas={blas_name()} threads={BLAS_THREADS} numpy={np.__version__}")
    print(f"operations: attempted {len(results)}, failed {len(failed)}, "
          f"passes {passes}")
    for cell in sorted({(r.op.target, r.op.scheme, r.op.layers, r.error) for r in failed}):
        print("  failed: {} {} L={}: {}".format(*cell))
    for problem in checks.problems:
        print(f"  CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
