"""``tools/artifacts.py compare``: two artifact trees are equal when every
file matches byte for byte, except the wall_time line of report.json."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"
_spec = importlib.util.spec_from_file_location("artifacts", TOOL)
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)

REPORT = '{\n  "infidelity": %s,\n  "u_depth": 3,\n  "wall_time": %s\n}\n'


def _tree(root: Path) -> Path:
    (root / "cell").mkdir(parents=True)
    (root / "cell" / "report.json").write_text(REPORT % ("0.25", "0.5"))
    (root / "cell" / "circuit.qasm").write_text("cx q[0],q[1];\n")
    return root


@pytest.mark.parametrize("name,body,rc,line", [
    ("report.json", REPORT % ("0.25", "7.125"), 0, "2 files in both trees, 0 differences"),
    ("report.json", REPORT % ("0.26", "0.5"), 1, "differs: cell/report.json"),
    ("extra.csv", "", 1, "only in {b}: cell/extra.csv"),
])
def test_compare(tmp_path, capsys, name, body, rc, line):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "cell" / name).write_text(body)
    assert artifacts.main(["compare", str(a), str(b)]) == rc
    assert line.format(b=b) in capsys.readouterr().out.splitlines()


def test_cells_cover_every_scheme_the_cli_accepts():
    from impsprep import cli

    schemes = {argv[argv.index("--scheme") + 1] for _, argv in artifacts.cells() if "--scheme" in argv}
    assert schemes == set(cli.SCHEME_CHOICES)


def test_compare_rejects_a_missing_tree(tmp_path):
    with pytest.raises(SystemExit, match="not a directory"):
        artifacts.main(["compare", str(_tree(tmp_path / "a")), str(tmp_path / "missing")])


def _drift_tree(root: Path, changes: dict) -> Path:
    """A report.json, its circuit.qasm and a results.csv, with ``changes``
    to the report's fields, the QASM text or the CSV row."""
    changes = dict(changes)
    qasm = changes.pop("qasm", "cx q[0],q[1];\n")
    rows = changes.pop("rows", ("2.5e-4", "10"))
    report = {"cnot_count": 10, "infidelity": 2.5e-4, "single_qubit_count": 30, "u_depth": 3, "wall_time": 0.5}
    (root / "cell").mkdir(parents=True)
    (root / "cell" / "report.json").write_text(json.dumps(report | changes, indent=2, sort_keys=True) + "\n")
    (root / "cell" / "circuit.qasm").write_text(qasm)
    (root / "sweep").mkdir()
    (root / "sweep" / "results.csv").write_text("# schema\ninfidelity,cnot_2cx\n%s,%s\n" % rows)
    return root


@pytest.mark.parametrize("before,after,rc,line", [
    # round-off: within 1e-9 relative, and within 1e-14 absolute on an exact target
    ({}, {"infidelity": 2.5e-4 * (1 + 1e-10), "wall_time": 9.0}, 0, None),
    ({"infidelity": 0.0}, {"infidelity": 2.2e-16}, 0, None),
    ({}, {"infidelity": 2.6e-4}, 1, "violation: cell/report.json: infidelity 0.00025 vs 0.00026"),
    ({}, {"cnot_count": 12}, 1, "violation: cell/report.json: cnot_count 10 != 12"),
    ({}, {"u_depth": 4}, 1, "violation: cell/report.json: u_depth 3 != 4"),
    ({}, {"single_qubit_count": 31, "qasm": "cx q[1],q[0];\n"}, 0,
     "single-qubit: cell/report.json: single_qubit_count 30 -> 31"),
    ({}, {"qasm": "cx q[1],q[0];\n"}, 0, "text only: cell/circuit.qasm"),
    ({}, {"rows": ("2.5e-4", "11")}, 1, "violation: sweep/results.csv row 1: cnot_2cx 10 != 11"),
], ids=["round-off", "exact", "infidelity", "cnots", "depth", "singles", "qasm", "csv"])
def test_drift(tmp_path, capsys, before, after, rc, line):
    a, b = (_drift_tree(tmp_path / side, changes) for side, changes in (("a", before), ("b", after)))
    assert artifacts.main(["drift", str(a), str(b)]) == rc
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith(f"3 files in both trees: {rc} violations")
    assert line is None or any(x.startswith(line) for x in out), out


def test_fidelity(tmp_path, capsys):
    # per group: cells lower, higher and the same within REL_TOL, the
    # geometric-mean ratio over cells above EXACT_TOL, and the summed CNOTs
    cells = {"grid/2cx/down": (4e-4, 1e-4, 12, 10), "grid/2cx/up": (1e-4, 2e-4, 10, 10),
             "grid/2cx/same": (3e-4, 3e-4 * (1 + 1e-10), 8, 8), "n10/exact": (0.0, 2e-16, 6, 6)}
    for side in (0, 1):
        for cell, values in cells.items():
            (tmp_path / str(side) / cell).mkdir(parents=True)
            report = {"cnot_count": values[2 + side], "infidelity": values[side]}
            (tmp_path / str(side) / cell / "report.json").write_text(json.dumps(report))
    assert artifacts.main(["fidelity", str(tmp_path / "0"), str(tmp_path / "1")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "grid/2cx: 3 cells, 1 lower, 1 higher, 1 same; geometric-mean ratio 0.794 over 3 cells; CNOTs 30 -> 28",
        "n10: 1 cells, 0 lower, 0 higher, 1 same; geometric-mean ratio - over 0 cells; CNOTs 6 -> 6",
    ]
