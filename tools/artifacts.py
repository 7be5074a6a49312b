"""Write and compare the artifact trees of a fixed set of CLI runs.

    PYTHONPATH=src python tools/artifacts.py write OUT
    python tools/artifacts.py compare A B

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
exits 1 on any difference. Nothing here is timed.
"""
from __future__ import annotations

import argparse
import contextlib
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
    yield "plotdata", ["benchmark", "--targets", "f1,g2", "--schemes", "chain,htn", "--n-list", "6,8",
                       "--layers-list", "1,2", "--plotdata"]
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write", help="run every cell into a new directory").add_argument("out", type=Path)
    p_compare = sub.add_parser("compare", help="list the files that differ between two trees")
    p_compare.add_argument("a", type=Path)
    p_compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.out.resolve())
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
