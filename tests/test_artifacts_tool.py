"""``tools/artifacts.py compare``: two artifact trees are equal when every
file matches byte for byte, except the wall_time line of report.json."""
import importlib.util
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


def test_compare_rejects_a_missing_tree(tmp_path):
    with pytest.raises(SystemExit, match="not a directory"):
        artifacts.main(["compare", str(_tree(tmp_path / "a")), str(tmp_path / "missing")])
