"""Write and compare the artifact trees of a fixed set of CLI runs.

    PYTHONPATH=src python tools/artifacts.py write OUT
    python tools/artifacts.py compare A B
    python tools/artifacts.py drift A B
    python tools/artifacts.py fidelity A B

``write`` runs every cell of ``cells()`` through ``impsprep.cli.main`` in a
new directory OUT, with ``impsprep`` imported from wherever ``PYTHONPATH``
points; writing the same cells from two checkouts and comparing the trees
shows whether a change moved any output. Every cell has its own directory
holding what the command wrote, its printed output (``stdout.txt``) and, when
it exits with a message or a nonzero code, ``exit.txt``. Paths given to the
program are relative to OUT, so they read the same in every tree. The BLAS
thread count is whatever the environment sets (``OPENBLAS_NUM_THREADS``).

``compare`` lists every file that differs between two trees or exists in
only one of them, ignoring the ``wall_time`` line of each report.json, and
exits 1 on any difference. ``drift`` compares the trees numerically, for a
change that may move results by round-off: CNOT counts and ``u_depth`` must
be equal, and infidelities (and retained weights) must agree within
``REL_TOL`` relative or ``EXACT_TOL`` absolute. It lists single-qubit count
changes and files that differ only as text (``circuit.qasm``, printed
output, plot data), and exits 1 on a violation. ``fidelity`` judges a
change meant to move results: per directory group of cells (``grid/2cx``,
``shaped/3cx``, ``large``, ...) it prints how many cells' infidelities fell,
rose or stayed within ``REL_TOL``, the geometric mean of the ratio new/old
over the cells above ``EXACT_TOL`` on both sides, and the summed CNOT
counts, and exits 0. Nothing here is timed.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

FUNCTIONS = ("f1", "f2", "f3", "g1", "g2", "g3")
SCHEMES = ("chain", "ttn", "htn", "hen")
# (file under OUT, qubits, seed) of the seeded random amplitude inputs
AMPS = {"large": ("inputs/large.amps", 18, 18), "small": ("inputs/small.amps", 10, 10)}
RING = "inputs/ring12.json"  # a 12-qubit ring topology for --scheme graph
# the schemes that take their shape from flags, and chain with the other truncation
SHAPED = {
    "grid": ("grid", "--grid-rows", "3", "--grid-cols", "4"),
    "fig6": ("fig6",),
    "graph": ("graph", "--graph", RING),
    "chain_round": ("chain", "--trunc", "round"),
}
WALL_TIME = re.compile(rb'^ *"wall_time": [^\n]*\n', re.M)
# drift: relative tolerance on float results, and the absolute one that
# covers exact targets, whose infidelities are round-off
REL_TOL, EXACT_TOL = 1e-9, 1e-14
FLOATS = {"infidelity", "retained_weights", "min_retained_weight"}
SINGLES = {"single_qubit_count", "single_qubit_count_generic", "single_qubit_2cx", "single_qubit_3cx"}


def _compile(target: str, scheme: str, n: int, layers: int) -> list:
    return ["compile", "--target", target, "--scheme", scheme, "--n", str(n), "--layers", str(layers)]


def cells():
    """(directory under OUT, argv without --out) of every cell."""
    for synth in ("2cx", "3cx"):
        for t in FUNCTIONS:
            for s in SCHEMES:
                for layers in (1, 2):
                    yield f"grid/{synth}/{t}_{s}_L{layers}", _compile(t, s, 12, layers) + ["--synth", synth]
            for name, (s, *flags) in SHAPED.items():
                yield f"shaped/{synth}/{t}_{name}_L2", _compile(t, s, 12, 2) + flags + ["--synth", synth]
    for s in ("chain", "htn", "hen"):
        yield f"large/{s}", _compile(AMPS["large"][0], s, 18, 2)
    for s in SCHEMES:
        yield f"sweep/{s}", ["benchmark", "--targets", "random", "--samples", "10", "--n-list", "14",
                             "--layers-list", "1,2", "--seed", "0", "--schemes", s]
    # a benchmark cell per stack regime: its samples in one kernel chunk
    # (n=12), one sample per chunk (n=16), one sample at a time (n=17)
    for n, samples, s in ((12, 10, "ttn"), (16, 3, "htn"), (17, 2, "chain")):
        yield f"stack/n{n}_{s}", ["benchmark", "--targets", "random", "--samples", str(samples),
                                  "--n-list", str(n), "--layers-list", "1,2", "--seed", "0", "--schemes", s]
    yield "plotdata", ["benchmark", "--targets", "f1,g2", "--schemes", "chain,htn", "--n-list", "6,8",
                       "--layers-list", "1,2", "--plotdata"]
    # a random draw in any case averages --samples and plots nothing; a state records no domain
    yield "labels", ["benchmark", "--targets", "Random,ghz,w", "--samples", "3", "--schemes", "chain",
                     "--n-list", "6", "--plotdata"]
    n10 = {t: t for t in ("exp", "cos", "linear", "ghz", "w", "random")} | {"amps": AMPS["small"][0]}
    for name, t in n10.items():
        for s in ("chain", "htn"):
            yield f"n10/{name}_{s}", _compile(t, s, 10, 2)
    yield "rank/g1", ["rank", "--target", "g1", "--n", "10"]
    yield "rank/ring", ["rank", "--ring", "cos,linear", "--n", "8"]


def write(out: Path) -> int:
    import impsprep.cli

    print(f"impsprep from {Path(impsprep.cli.__file__).parent}")
    out.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for path, n, seed in AMPS.values():
            rng = np.random.default_rng(seed)
            # unnormalized: the program normalizes on load, and a BLAS norm
            # here would make the file depend on the thread count
            z = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            np.savetxt(path, np.column_stack([z.real, z.imag]), fmt="%.17g")
        Path(RING).write_text(json.dumps({"n": 12, "edges": [[i, (i + 1) % 12] for i in range(12)]}) + "\n")
        for cell, argv in cells():
            Path(cell).mkdir(parents=True)
            if argv[0] != "rank":
                argv = argv + ["--out", cell]
            printed = io.StringIO()
            try:
                with contextlib.redirect_stdout(printed):
                    rc = impsprep.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            Path(cell, "stdout.txt").write_text(printed.getvalue())
            if rc:
                Path(cell, "exit.txt").write_text(f"{rc}\n")
    finally:
        os.chdir(cwd)
    print(f"wrote {len(list(cells()))} cells to {out}")
    return 0


def _files(root: Path) -> set:
    if not root.is_dir():
        raise SystemExit(f"{root}: not a directory")
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    return WALL_TIME.sub(b"", data) if path.name == "report.json" else data


def compare(a: Path, b: Path) -> int:
    in_a, in_b = _files(a), _files(b)
    problems = [f"only in {a}: {f}" for f in sorted(in_a - in_b)]
    problems += [f"only in {b}: {f}" for f in sorted(in_b - in_a)]
    both = sorted(in_a & in_b)
    problems += [f"differs: {f}" for f in both if _content(a / f) != _content(b / f)]
    for line in problems:
        print(line)
    print(f"{len(both)} files in both trees, {len(problems)} differences")
    return 1 if problems else 0


def _records(path: Path) -> list:
    """The report.json object or the results.csv rows of ``path``."""
    if path.name == "report.json":
        return [json.loads(path.read_text())]
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _relative_gap(u: float, v: float) -> float:
    """0 within EXACT_TOL, else |u - v| relative to the larger magnitude (NaN stays NaN)."""
    gap = abs(u - v)
    return 0.0 if gap <= EXACT_TOL else gap / max(abs(u), abs(v))


def _drift(name: str, key: str, x, y, out: dict) -> None:
    """Sort one field's change into ``out``: violations, single-qubit count
    changes and the largest relative float drift."""
    if key == "wall_time" or x == y:
        return
    if key in SINGLES:
        out["singles"].append(f"{name}: {key} {x} -> {y}")
        return
    if key not in FLOATS:
        out["violations"].append(f"{name}: {key} {x} != {y}")
        return
    x, y = (x, y) if isinstance(x, list) else ([x], [y])
    if not isinstance(y, list) or len(x) != len(y):
        out["violations"].append(f"{name}: {key} {x} != {y}")
        return
    for u, v in zip(map(float, x), map(float, y)):
        rel = _relative_gap(u, v)
        if rel > out["worst"][0]:
            out["worst"] = (rel, f"{name}: {key}")
        if not rel <= REL_TOL:  # NaN too
            out["violations"].append(f"{name}: {key} {u!r} vs {v!r} (relative {rel:.1e})")


def drift(a: Path, b: Path) -> int:
    in_a, in_b = _files(a), _files(b)
    out = {"violations": [f"only in {a}: {f}" for f in sorted(in_a - in_b)]
           + [f"only in {b}: {f}" for f in sorted(in_b - in_a)],
           "singles": [], "text": [], "worst": (0.0, "")}
    both = sorted(in_a & in_b)
    for f in both:
        if _content(a / f) == _content(b / f):
            continue
        if Path(f).name not in ("report.json", "results.csv"):
            (out["violations"] if Path(f).name == "exit.txt" else out["text"]).append(f)
            continue
        rows_a, rows_b = _records(a / f), _records(b / f)
        if len(rows_a) != len(rows_b) or any(r.keys() != s.keys() for r, s in zip(rows_a, rows_b)):
            out["violations"].append(f"{f}: different rows or fields")
            continue
        for i, (r, s) in enumerate(zip(rows_a, rows_b)):
            for key in r:
                _drift(f if f.endswith(".json") else f"{f} row {i + 1}", key, r[key], s[key], out)
    for kind, label in (("violations", "violation"), ("singles", "single-qubit"), ("text", "text only")):
        for line in out[kind]:
            print(f"{label}: {line}")
    print(f"{len(both)} files in both trees: {len(out['violations'])} violations, "
          f"{len(out['singles'])} single-qubit count changes, {len(out['text'])} text-only differences; "
          f"largest relative drift {out['worst'][0]:.1e} {out['worst'][1]}".rstrip())
    return 1 if out["violations"] else 0


def fidelity(a: Path, b: Path) -> int:
    groups: dict = {}  # per group: the (old, new) infidelity and CNOT count of each cell
    for f in sorted(_files(a) & _files(b)):
        if Path(f).name not in ("report.json", "results.csv"):
            continue
        cell = Path(f).parent
        group = groups.setdefault((cell.parent if cell.parent.name else cell).as_posix(), [])
        for r, s in zip(_records(a / f), _records(b / f)):
            group.append([(float(x["infidelity"]), int(x.get("cnot_count", x.get("cnot_2cx")))) for x in (r, s)])
    for name, cells in groups.items():
        moved = [(x, y) for (x, _), (y, _) in cells if not _relative_gap(x, y) <= REL_TOL]
        logs = [np.log(y / x) for (x, _), (y, _) in cells if min(x, y) > EXACT_TOL]
        ratio = f"{np.exp(np.mean(logs)):.3f}" if logs else "-"
        lower = sum(y < x for x, y in moved)
        print(f"{name}: {len(cells)} cells, {lower} lower, {len(moved) - lower} higher, "
              f"{len(cells) - len(moved)} same; geometric-mean ratio {ratio} over {len(logs)} cells; "
              f"CNOTs {sum(c for (_, c), _ in cells)} -> {sum(c for _, (_, c) in cells)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write", help="run every cell into a new directory").add_argument("out", type=Path)
    for name, text in (("compare", "list the files that differ between two trees"),
                       ("drift", "check that two trees agree up to round-off"),
                       ("fidelity", "count the cells whose infidelity fell, rose or stayed")):
        p_two = sub.add_parser(name, help=text)
        p_two.add_argument("a", type=Path)
        p_two.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.out.resolve())
    return {"compare": compare, "drift": drift, "fidelity": fidelity}[args.command](args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
