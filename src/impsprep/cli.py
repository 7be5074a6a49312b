"""Command-line front end: compile targets to circuits, run scheme
benchmarks, and inspect Schmidt ranks.

Every ``--target`` value goes through ``targets.resolve``; the scheme names
are ``schedules.SCHEMES`` plus grid, fig6 and graph, which take their shape
from flags. Outputs are deterministic for a fixed configuration and seed;
the one wall-clock time is report.json's ``wall_time``, from target
resolution through the re-simulation check, never in hashed artifacts
(circuit.qasm, results.csv). ``--out`` is created only when a file is
written to it, and refused before any work when it, or the nearest
directory above it that exists, is not a directory.

``compile`` runs its one target through ``run_schedule`` and
``gatesynth.synthesize_circuit`` as a stack of one. ``benchmark`` makes the
same two calls per cell: for all of a cell's samples as one stack while one
state fits in one kernel chunk (2^n <= ``statevec.CHUNK``, n <= 16), and
one sample at a time above that, where a stack would hold S more state
sizes for little gain. Every sample gets the circuit it gets alone, so the
rows do not depend on the stack. A failed cell names its sample, then the
step's layer, round and pair or the gate's index and wires.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from urllib.parse import quote

import numpy as np

from . import gatesynth, qasm, schedules, statevec, targets
from .circuits import simulate
from .disentangler import TruncationMode, _held_qubits, default_truncation_mode, run_schedule
from .gatesynth import SynthMode
from .statevec import StackError, _fmt

CSV_SCHEMA_VERSION = 1

SCHEME_CHOICES = (*schedules.SCHEMES, "grid", "fig6", "graph")


def build_schedule(scheme: str, n: int, args, flag: str = "--n") -> schedules.Schedule:
    """The ``scheme`` schedule on ``n`` qubits; a shape of another size names ``flag``."""
    if scheme in schedules.SCHEMES:
        return schedules.SCHEMES[scheme](n)
    if scheme == "fig6":
        if n != 12:
            raise SystemExit(f"fig6 has 12 qubits, {flag} was {n}")
        return schedules.fig6_schedule()
    if scheme == "grid":
        rows, cols = args.grid_rows, args.grid_cols
        if rows is None or cols is None:
            raise SystemExit("grid scheme needs --grid-rows and --grid-cols")
        if rows * cols != n:
            raise SystemExit(f"grid {rows}x{cols} has {rows * cols} qubits, {flag} was {n}")
        return schedules.grid_schedule(rows, cols)
    if scheme == "graph":
        if args.graph is None:
            raise SystemExit("graph scheme needs --graph FILE.json")
        try:
            g = schedules.topology_from_json(Path(args.graph).read_text())
        except OSError as exc:
            raise SystemExit(f"--graph {args.graph}: cannot read: {exc.strerror or exc}")
        except ValueError as exc:
            raise SystemExit(f"--graph {args.graph}: {exc}")
        if g.n != n:
            raise SystemExit(f"graph has {g.n} vertices, {flag} was {n}")
        return schedules.graph_contraction_schedule(g)
    raise SystemExit(f"unknown scheme {scheme!r}; known: {', '.join(SCHEME_CHOICES)}")


def _truncation(args, schedule: schedules.Schedule) -> TruncationMode:
    """``--trunc`` if given, else the scheme's convention; a mode that
    ``schedule`` cannot run under raises ValueError naming the clash."""
    mode = TruncationMode(args.trunc) if args.trunc else default_truncation_mode(schedule.scheme)
    _held_qubits(schedule, mode)
    return mode


def _out_dir(text: str) -> Path:
    """``--out``, refused before any work unless the nearest path that
    exists, itself or one above it, is a directory."""
    out = Path(text)
    nearest = next((p for p in (out, *out.parents) if p.exists()), out)
    if not nearest.is_dir():
        raise SystemExit(f"--out {text}: {nearest} is not a directory")
    return out


@contextlib.contextmanager
def _written(out: Path, name: str):
    """The text file ``name`` under ``out`` open for writing, its
    directories made; an OSError ends the run naming ``--out``."""
    try:
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        with open(out / name, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise SystemExit(f"--out {out}: cannot write {out / name}: {exc.strerror or exc}")


def _revalidate(qasm_path: Path, target_state, reported_infidelity: float) -> None:
    parsed, _header = qasm.parse(qasm_path.read_text())
    prepared = simulate(parsed)
    err = abs(statevec.infidelity(prepared, target_state) - reported_infidelity)
    if err > 1e-8:
        raise SystemExit(
            f"self-check failed: re-simulated {qasm_path} deviates by {err:.2e}"
        )


def _parse_list(flag: str, text: str, item=str) -> list:
    """Non-empty comma-separated values of ``flag``; errors name the flag."""
    try:
        values = [item(x) for x in text.split(",") if x]
    except ValueError:
        raise SystemExit(f"{flag} wants comma-separated integers, got {text!r}")
    if not values:
        raise SystemExit(f"{flag} needs at least one value")
    return values


def _sizes(flag: str, text: str) -> list[int]:
    """The qubit counts ``flag`` gives in ``text``, each from 2 to the qubit
    cap; errors name the flag."""
    sizes = _parse_list(flag, text, int)
    if min(sizes) < 2:
        raise SystemExit(f"{flag} values must be >= 2, got {text!r}")
    for n in sizes:
        try:
            statevec._check_qubit_count(n)
        except ValueError as exc:
            raise SystemExit(f"{flag}: {exc}")
    return sizes


def cmd_compile(args) -> int:
    t0 = time.perf_counter()
    if args.layers < 1:
        raise SystemExit(f"--layers must be >= 1, got {args.layers}")
    (n,) = _sizes("--n", str(args.n))
    out = _out_dir(args.out)
    rng = np.random.default_rng(args.seed)
    label, state, domain = targets.resolve(args.target, n, rng)
    schedule = build_schedule(args.scheme, n, args)
    trunc = _truncation(args, schedule)
    (result,) = run_schedule([state], schedule, args.layers, trunc, rewrite_2cx=args.synth == SynthMode.OPTIMIZED2)
    ((primitive, (cnots_3cx, singles_3cx)),) = gatesynth.synthesize_circuit([result.circuit], args.synth)
    # the QASM header's entries, in its order, then report.json's own
    header = {"scheme": schedule.scheme, "target": label, "n": n, "layers": args.layers,
              "truncation": trunc.value, "synth": args.synth, "seed": args.seed}
    report = {
        **header, "u_depth": result.circuit.u_depth, "infidelity": result.final_infidelity,
        "cnot_count": primitive.two_qubit_count(), "single_qubit_count": primitive.one_qubit_count(),
        "cnot_count_generic": cnots_3cx, "single_qubit_count_generic": singles_3cx, "domain": domain,
        "retained_weights": [float(w) for w in result.per_round_weights], "csv_schema_version": CSV_SCHEMA_VERSION,
    }
    text = qasm.emit(primitive, {**header, "infidelity": _fmt(result.final_infidelity)})
    with _written(out, "circuit.qasm") as fh:
        fh.write(text)
    _revalidate(out / "circuit.qasm", state, result.final_infidelity)
    report["wall_time"] = time.perf_counter() - t0
    with _written(out, "report.json") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"{schedule.scheme} n={n} layers={args.layers} u_depth={result.circuit.u_depth} "
        f"infidelity={result.final_infidelity:.3e} cnots={report['cnot_count']}"
    )
    return 0


def cmd_benchmark(args) -> int:
    if args.samples < 1:
        raise SystemExit(f"--samples must be >= 1, got {args.samples}")
    target_names = _parse_list("--targets", args.targets)
    scheme_names = _parse_list("--schemes", args.schemes)
    # the sizes come from --n-list, or from --n without it; a size error names that flag
    n_flag, n_text = ("--n", str(args.n)) if args.n_list is None else ("--n-list", args.n_list)
    n_list = _sizes(n_flag, n_text)
    layers_list = _parse_list("--layers-list", args.layers_list, int)
    if min(layers_list) < 1:
        raise SystemExit(f"--layers-list values must be >= 1, got {args.layers_list!r}")
    two_cx = args.synth == SynthMode.OPTIMIZED2
    out = _out_dir(args.out)
    # before the first cell, every schedule is built with its truncation and every
    # amplitude file is read once and checked against every size, so a bad name, a
    # truncation clash or a file of another size stops the sweep before it writes anything
    built = {n: [] for n in n_list}
    for n in n_list:
        for name in scheme_names:
            schedule = build_schedule(name, n, args, n_flag)
            built[n].append((name, schedule, _truncation(args, schedule)))
    files = {t: targets.load_amplitude_file(t, n_list, n_flag) for t in target_names if targets.is_amplitude_file(t)}
    rows = []  # one per cell, at least one; a row's keys are the CSV columns, in order
    for n in n_list:
        resolved = []
        for tname in target_names:
            # one fresh generator per (n, target): every cell sees the same samples
            rng = np.random.default_rng(args.seed)
            first = files.get(tname) or targets.resolve(tname, n, rng)
            more = args.samples - 1 if first[0] == "random" else 0
            resolved.append((tname, [first, *(targets.resolve(tname, n, rng) for _ in range(more))]))
        for tname, samples in resolved:
            # one stack while a state fits in one kernel chunk, one sample at a time above that
            per = len(samples) if 1 << n <= statevec.CHUNK else 1
            for scheme_name, schedule, trunc in built[n]:
                for layers in layers_list:
                    results, synthesized = [], []
                    try:
                        for lo in range(0, len(samples), per):
                            group = [state for _, state, _ in samples[lo:lo + per]]
                            results += run_schedule(group, schedule, layers, trunc, rewrite_2cx=two_cx)
                            synthesized += gatesynth.synthesize_circuit([r.circuit for r in results[lo:]], args.synth)
                    except Exception as exc:
                        where = f"sample {lo + exc.index}: " if isinstance(exc, StackError) and len(samples) > 1 else ""
                        raise SystemExit(
                            f"benchmark cell failed: target={tname} scheme={scheme_name} "
                            f"n={n} layers={layers}: {where}{exc}"
                        )
                    (primitive, (cnots_3cx, singles_3cx)), domain = synthesized[0], samples[0][2]
                    rows.append(
                        {
                            "target": tname,
                            "scheme": scheme_name,
                            "n": n,
                            "layers": layers,
                            "truncation": trunc.value,
                            "u_depth": results[0].circuit.u_depth,
                            "infidelity": _fmt(float(np.mean([r.final_infidelity for r in results]))),
                            "cnot_2cx": primitive.two_qubit_count() if two_cx else "",
                            "single_qubit_2cx": primitive.one_qubit_count() if two_cx else "",
                            "cnot_3cx": cnots_3cx,
                            "single_qubit_3cx": singles_3cx,
                            "min_retained_weight": _fmt(min(min(r.per_round_weights) for r in results)),
                            "domain_lo": "" if domain is None else _fmt(domain[0]),
                            "domain_hi": "" if domain is None else _fmt(domain[1]),
                            "seed": args.seed,
                        }
                    )
                    if samples[0][0] != "random" and args.plotdata:
                        ((_, state, _),) = samples
                        # percent-encoded, so no entry writes outside plotdata/ or onto another's file
                        name = f"plotdata/{quote(tname, safe='')}_{scheme_name}_n{n}_L{layers}.csv"
                        _write_plotdata(out, name, state, simulate(primitive))
    with _written(out, "results.csv") as fh:
        fh.write(f"# impsprep benchmark results, schema v{CSV_SCHEMA_VERSION}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out / 'results.csv'}")
    return 0


def _write_plotdata(out: Path, name: str, target_state, prepared_state) -> None:
    # align the prepared state's global phase with the target before plotting;
    # numpy's sum, unlike a BLAS dot, gives the same bytes at any thread count
    overlap = np.sum(prepared_state.amps.conj() * target_state.amps)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    aligned = prepared_state.amps * phase
    with _written(out, name) as fh:
        fh.write("index,target_re,target_im,prepared_re,prepared_im\n")
        for i, (t, p) in enumerate(zip(target_state.amps, aligned)):
            fh.write(f"{i},{_fmt(t.real)},{_fmt(t.imag)},{_fmt(p.real)},{_fmt(p.imag)}\n")


def cmd_rank(args) -> int:
    (n,) = _sizes("--n", str(args.n))
    if args.ring:
        kinds = args.ring.split(",")
        if len(kinds) != 2:
            raise SystemExit("--ring wants two comma-separated function kinds")
        if (args.domain_lo is None) != (args.domain_hi is None):
            raise SystemExit("--domain-lo and --domain-hi must be given together")
        domain = (args.domain_lo, args.domain_hi) if args.domain_lo is not None else (0.0, 1.0)
        f = targets.make_spec(kinds[0], n, domain=domain)
        g = targets.make_spec(kinds[1], n, domain=domain)
        rep = targets.verify_ring_bounds(f, g, tol=args.tol)
        print(json.dumps(asdict(rep), indent=2))
        return 0 if rep.additive_ok and rep.multiplicative_ok else 1
    rng = np.random.default_rng(args.seed)
    label, state, _ = targets.resolve(args.target, n, rng)
    profile = targets.mps_rank(state, tol=args.tol)
    print(f"target {label}: chi = {profile.chi}")
    print("bond dims:", " ".join(str(d) for d in profile.bond_dims))
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"wants a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="impsprep",
        description="Compile amplitude vectors into shallow two-qubit-gate circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n_default=None, n_help="qubit count"):
        p.add_argument("--n", type=int, required=n_default is None, default=n_default, help=n_help)
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--grid-rows", type=int, default=None)
        p.add_argument("--grid-cols", type=int, default=None)
        p.add_argument("--graph", default=None, help="topology JSON for --scheme graph")
        p.add_argument("--trunc", choices=[m.value for m in TruncationMode], default=None,
                       help="truncation mode (default: per scheme convention); 'layer' "
                       "rejects schedules that revisit a qubit within a layer (htn, hen, fig6)")
        p.add_argument("--synth", choices=(SynthMode.OPTIMIZED2, SynthMode.GENERIC3),
                       default=SynthMode.OPTIMIZED2)

    p_compile = sub.add_parser("compile", help="compile one target into circuit.qasm + report.json")
    add_common(p_compile)
    p_compile.add_argument("--target", required=True, help=targets.TARGET_VALUES)
    p_compile.add_argument("--scheme", choices=SCHEME_CHOICES, required=True)
    p_compile.add_argument("--layers", type=int, default=1)
    p_compile.add_argument("--out", default=".")
    p_compile.set_defaults(func=cmd_compile)

    p_bench = sub.add_parser("benchmark", help="sweep targets x schemes x sizes x layers")
    add_common(p_bench, n_default=8, n_help="qubit count when --n-list is not given (default 8)")
    p_bench.add_argument("--targets", default="f1,f2,f3,g1,g2,g3")
    p_bench.add_argument("--schemes", default="chain,ttn,htn,hen")
    p_bench.add_argument("--n-list", default=None, help="comma-separated qubit counts (default: --n)")
    p_bench.add_argument("--layers-list", default="1")
    p_bench.add_argument("--samples", type=int, default=10,
                         help="averaging count for --targets random")
    p_bench.add_argument("--plotdata", action="store_true",
                         help="emit per-index target/prepared curve files")
    p_bench.add_argument("--out", default="benchmark_out")
    p_bench.set_defaults(func=cmd_benchmark)

    p_rank = sub.add_parser("rank", help="Schmidt ranks and ring bounds")
    p_rank.add_argument("--target", default="ghz")
    p_rank.add_argument("--n", type=int, required=True)
    p_rank.add_argument("--tol", type=float, default=1e-10)
    p_rank.add_argument("--seed", type=_seed, default=0)
    p_rank.add_argument("--ring", default=None, help="two function kinds, e.g. cos,linear")
    p_rank.add_argument("--domain-lo", type=float, default=None)
    p_rank.add_argument("--domain-hi", type=float, default=None)
    p_rank.set_defaults(func=cmd_rank)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
