"""``perfbench/engine_only.py`` runs the engine alone over the function grid,
calling ``run_schedule`` with one state; it must keep running."""
import math
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "engine_only.py"


def test_engine_only_reports_a_finite_figure():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    match = re.fullmatch(r"infidelity_vs_mps over all 48 cells: (\S+)\n", proc.stdout)
    assert match, proc.stdout
    value = float(match.group(1))
    assert math.isfinite(value) and value > 0
