"""Quick tests of the benchmark's independent checker.

    python3 -m pytest perfbench -q
"""
import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from impsprep import cli, schedules  # noqa: E402

GHZ3 = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
u3(1.5707963267948966,0,3.141592653589793) q[0];
cx q[0],q[1];
cx q[1],q[2];
"""


def compile_qasm(tmp_path, target, n, scheme="chain", layers=1) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["compile", "--target", target, "--scheme", scheme, "--n", str(n),
                  "--layers", str(layers), "--out", str(tmp_path)])
    return (tmp_path / "circuit.qasm").read_text()


def test_hand_written_ghz_is_exact():
    n, gates = checker.parse_qasm(GHZ3)
    assert checker.infidelity(checker.simulate(n, gates), checker.ghz(3)) < 1e-15
    assert checker.cx_count(gates) == 2
    assert checker.cx_depth(n, gates) == 2


def test_cx_depth_runs_disjoint_cnots_in_parallel():
    gates = [("cx", 0, 1), ("cx", 2, 3), ("u3", 1, 0.1, 0.2, 0.3), ("cx", 1, 2)]
    assert checker.cx_depth(4, gates) == 2


@pytest.mark.parametrize("target, state", [("ghz", checker.ghz), ("w", checker.w_state)])
@pytest.mark.parametrize("scheme", ["chain", "htn"])
def test_compiled_rank2_states_have_zero_infidelity(tmp_path, target, state, scheme):
    n, gates = checker.parse_qasm(compile_qasm(tmp_path, target, 6, scheme))
    assert checker.infidelity(checker.simulate(n, gates), state(6)) < 1e-10
    assert checker.mps_infidelity(state(6)) < 1e-12


def test_corrupted_u3_angle_fails_the_check(tmp_path):
    text = compile_qasm(tmp_path, "w", 6)
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("u3("))
    theta, rest = lines[i][3:].split(",", 1)
    lines[i] = f"u3({float(theta) + 0.3},{rest}"
    n, gates = checker.parse_qasm("\n".join(lines))
    assert checker.infidelity(checker.simulate(n, gates), checker.w_state(6)) > 1e-3


def test_parse_rejects_text_outside_the_dialect():
    with pytest.raises(ValueError):
        checker.parse_qasm(GHZ3.replace("cx q[1],q[2];", "cz q[1],q[2];"))
    with pytest.raises(ValueError):
        checker.parse_qasm(GHZ3.replace("cx q[1],q[2];", "cx q[1],q[3];"))


def test_chain_single_layer_matches_the_mps_reference(tmp_path):
    text = compile_qasm(tmp_path, "f1", 8)
    reported = float(next(line for line in text.splitlines() if line.startswith("// infidelity:")).split(":")[1])
    reference = checker.mps_infidelity(checker.catalog_target("f1", 8))
    assert reference > 1e-6
    assert math.isclose(reported, reference, rel_tol=1e-9)


def test_random_samples_follow_the_documented_law():
    (z,) = checker.random_samples(3, 7, 1)
    rng = np.random.default_rng(7)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    np.testing.assert_allclose(z, raw / np.linalg.norm(raw))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 14, 18])
@pytest.mark.parametrize("scheme", ["chain", "ttn", "htn", "hen"])
def test_schedule_shape_matches_the_schemes(n, scheme):
    schedule = getattr(schedules, f"{scheme}_schedule")(n)
    assert checker.schedule_shape(scheme, n) == (schedule.u_depth, schedule.step_count())
