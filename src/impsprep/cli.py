"""Command-line front end: compile targets to circuits, run scheme
benchmarks, self-verify, and inspect Schmidt ranks.

Every ``--target`` value goes through ``targets.resolve``; the scheme names
are ``schedules.SCHEMES`` plus grid, fig6 and graph, which take their shape
from flags. Outputs are deterministic for a fixed configuration and seed;
the one wall-clock time is report.json's ``wall_time``, from target
resolution through the re-simulation check, never in hashed artifacts
(circuit.qasm, results.csv). ``--out`` is created only when a file is
written to it, and refused before any work when it, or the nearest
directory above it that exists, is not a directory.

``compile_one`` compiles a cell's samples: as one stack (one
``run_schedule`` and one ``synthesize_circuit`` batch) while one state fits
in one kernel chunk (2^n <= ``statevec.CHUNK``, n <= 16), and one at a time
above that, where a stack would hold S more state sizes for little gain.
``compile`` passes its one target, ``benchmark`` all of a cell's samples.
Every sample gets the circuit it gets alone, so the rows do not depend on
the stack. A failed cell names its sample, then the step's layer, round and
pair or the gate's index and wires.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from urllib.parse import quote

import numpy as np

from . import gatesynth, qasm, schedules, statevec, targets
from .circuits import Circuit, simulate
from .disentangler import TruncationMode, _held_qubits, default_truncation_mode, run_schedule
from .gatesynth import SynthMode
from .statevec import StackError, _fmt
from .verify import run_checks

CSV_SCHEMA_VERSION = 1

SCHEME_CHOICES = (*schedules.SCHEMES, "grid", "fig6", "graph")


@dataclass
class SynthesisReport:
    """One compilation record; serialized to report.json and CSV rows."""

    scheme: str
    target: str
    n: int
    layers: int
    u_depth: int
    infidelity: float
    cnot_count: int
    single_qubit_count: int
    cnot_count_generic: int
    single_qubit_count_generic: int
    truncation: str
    synth: str
    seed: int
    domain: tuple[float, float] | None
    retained_weights: list[float] = field(default_factory=list)
    wall_time: float = 0.0

    def to_json(self) -> str:
        payload = asdict(self)
        payload["csv_schema_version"] = CSV_SCHEMA_VERSION
        return json.dumps(payload, indent=2, sort_keys=True)


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


def compile_one(
    samples: list,
    schedule: schedules.Schedule,
    layers: int,
    trunc: TruncationMode,
    synth: str,
    seed: int,
) -> list[tuple[SynthesisReport, Circuit]]:
    """Compile the ``(label, state, domain)`` ``samples`` of one cell and
    return each sample's report and primitive circuit, in order.

    While a state fits in one kernel chunk (2^n <= ``statevec.CHUNK``,
    n <= 16) the samples are one stack: one ``run_schedule`` and one
    ``synthesize_circuit`` batch for all of them. Above that they go one at
    a time: a stack holds a working copy of every sample, S state sizes
    next to the caller's, and once a state spans several chunks the kernel's
    passes dominate and stacking gains little (the README's design notes
    give the measurement). A failed check of a step or a gate is prefixed
    by ``sample {i}: `` among more than one sample.
    """
    rewrite = synth == SynthMode.OPTIMIZED2
    per = len(samples) if 1 << schedule.n <= statevec.CHUNK else 1
    compiled = []
    for lo in range(0, len(samples), per):
        group = samples[lo:lo + per]
        try:
            results = run_schedule([state for _, state, _ in group], schedule, layers, trunc, rewrite_2cx=rewrite)
            synthesized = gatesynth.synthesize_circuit([result.circuit for result in results], synth)
        except StackError as exc:
            if len(samples) == 1:
                raise
            raise ValueError(f"sample {lo + exc.index}: {exc}") from exc
        for (label, _, domain), result, (primitive, (g_cnots, g_singles)) in zip(group, results, synthesized):
            report = SynthesisReport(
                scheme=schedule.scheme,
                target=label,
                n=schedule.n,
                layers=layers,
                u_depth=result.circuit.u_depth,
                infidelity=result.final_infidelity,
                cnot_count=primitive.two_qubit_count(),
                single_qubit_count=primitive.one_qubit_count(),
                cnot_count_generic=g_cnots,
                single_qubit_count_generic=g_singles,
                truncation=trunc.value,
                synth=synth,
                seed=seed,
                domain=domain,
                retained_weights=[float(w) for w in result.per_round_weights],
            )
            compiled.append((report, primitive))
    return compiled


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


def cmd_compile(args) -> int:
    t0 = time.perf_counter()
    if args.layers < 1:
        raise SystemExit(f"--layers must be >= 1, got {args.layers}")
    out = _out_dir(args.out)
    rng = np.random.default_rng(args.seed)
    sample = targets.resolve(args.target, args.n, rng)
    schedule = build_schedule(args.scheme, args.n, args)
    trunc = _truncation(args, schedule)
    ((report, primitive),) = compile_one([sample], schedule, args.layers, trunc, args.synth, args.seed)
    header = {key: getattr(report, key) for key in ("scheme", "target", "n", "layers", "truncation", "synth", "seed")}
    header["infidelity"] = _fmt(report.infidelity)
    text = qasm.emit(primitive, header)
    with _written(out, "circuit.qasm") as fh:
        fh.write(text)
    _revalidate(out / "circuit.qasm", sample[1], report.infidelity)
    report.wall_time = time.perf_counter() - t0
    with _written(out, "report.json") as fh:
        fh.write(report.to_json() + "\n")
    print(
        f"{report.scheme} n={report.n} layers={report.layers} "
        f"u_depth={report.u_depth} infidelity={report.infidelity:.3e} "
        f"cnots={report.cnot_count}"
    )
    return 0


def _parse_list(flag: str, text: str, item=str) -> list:
    """Non-empty comma-separated values of ``flag``; errors name the flag."""
    try:
        values = [item(x) for x in text.split(",") if x]
    except ValueError:
        raise SystemExit(f"{flag} wants comma-separated integers, got {text!r}")
    if not values:
        raise SystemExit(f"{flag} needs at least one value")
    return values


def cmd_benchmark(args) -> int:
    if args.samples < 1:
        raise SystemExit(f"--samples must be >= 1, got {args.samples}")
    target_names = _parse_list("--targets", args.targets)
    scheme_names = _parse_list("--schemes", args.schemes)
    # the sizes come from --n-list, or from --n without it; a size error names that flag
    n_flag, n_text = ("--n", str(args.n)) if args.n_list is None else ("--n-list", args.n_list)
    n_list = _parse_list(n_flag, n_text, int)
    layers_list = _parse_list("--layers-list", args.layers_list, int)
    if min(layers_list) < 1:
        raise SystemExit(f"--layers-list values must be >= 1, got {args.layers_list!r}")
    if min(n_list) < 2:
        raise SystemExit(f"{n_flag} values must be >= 2, got {n_text!r}")
    for n in n_list:
        try:
            statevec._check_qubit_count(n)
        except ValueError as exc:
            raise SystemExit(f"{n_flag}: {exc}")
    two_cx = args.synth == SynthMode.OPTIMIZED2
    out = _out_dir(args.out)
    # every schedule with its truncation, and each size's targets, exist before
    # that size's first cell, so a bad name or a truncation clash stops the
    # sweep before it writes anything
    built = {n: [] for n in n_list}
    for n in n_list:
        for name in scheme_names:
            schedule = build_schedule(name, n, args, n_flag)
            built[n].append((name, schedule, _truncation(args, schedule)))
    rows = []  # one per cell, at least one; a row's keys are the CSV columns, in order
    for n in n_list:
        resolved = []
        for tname in target_names:
            # one fresh generator per (n, target): every cell sees the same samples
            rng = np.random.default_rng(args.seed)
            count = args.samples if tname == "random" else 1
            resolved.append((tname, [targets.resolve(tname, n, rng, n_flag) for _ in range(count)]))
        for tname, samples in resolved:
            for scheme_name, schedule, trunc in built[n]:
                for layers in layers_list:
                    try:
                        compiled = compile_one(samples, schedule, layers, trunc, args.synth, args.seed)
                    except Exception as exc:
                        raise SystemExit(
                            f"benchmark cell failed: target={tname} scheme={scheme_name} "
                            f"n={n} layers={layers}: {exc}"
                        )
                    reports = [report for report, _ in compiled]
                    rep = reports[0]
                    min_weight = min(min(r.retained_weights) for r in reports)
                    rows.append(
                        {
                            "target": tname,
                            "scheme": scheme_name,
                            "n": n,
                            "layers": layers,
                            "truncation": trunc.value,
                            "u_depth": rep.u_depth,
                            "infidelity": _fmt(float(np.mean([r.infidelity for r in reports]))),
                            "cnot_2cx": rep.cnot_count if two_cx else "",
                            "single_qubit_2cx": rep.single_qubit_count if two_cx else "",
                            "cnot_3cx": rep.cnot_count_generic,
                            "single_qubit_3cx": rep.single_qubit_count_generic,
                            "min_retained_weight": _fmt(min_weight),
                            "domain_lo": "" if rep.domain is None else _fmt(rep.domain[0]),
                            "domain_hi": "" if rep.domain is None else _fmt(rep.domain[1]),
                            "seed": args.seed,
                        }
                    )
                    if tname != "random" and args.plotdata:
                        ((_, state, _),), ((_, primitive),) = samples, compiled
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


def cmd_verify(args) -> int:
    results = run_checks(level=args.level, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "pass" if r.ok else "FAIL"
        line = f"[{status}] {r.name:<{width}}  ({r.seconds:.2f}s)"
        if not r.ok:
            line += f"  {r.detail}"
            failed += 1
        print(line)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_rank(args) -> int:
    if args.ring:
        kinds = args.ring.split(",")
        if len(kinds) != 2:
            raise SystemExit("--ring wants two comma-separated function kinds")
        if (args.domain_lo is None) != (args.domain_hi is None):
            raise SystemExit("--domain-lo and --domain-hi must be given together")
        domain = (args.domain_lo, args.domain_hi) if args.domain_lo is not None else (0.0, 1.0)
        f = targets.make_spec(kinds[0], args.n, domain=domain)
        g = targets.make_spec(kinds[1], args.n, domain=domain)
        rep = targets.verify_ring_bounds(f, g, tol=args.tol)
        print(json.dumps(asdict(rep), indent=2))
        return 0 if rep.additive_ok and rep.multiplicative_ok else 1
    rng = np.random.default_rng(args.seed)
    label, state, _ = targets.resolve(args.target, args.n, rng)
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

    p_verify = sub.add_parser("verify", help="run the invariant self-checks")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.set_defaults(func=cmd_verify)

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
