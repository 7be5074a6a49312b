import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from impsprep import cli, disentangler, gatesynth, qasm, schedules, statevec, targets
from impsprep.circuits import simulate


def run_cli(args):
    return cli.main(args)


class TestCompile:
    def test_ghz_htn_is_exact(self, tmp_path):
        rc = run_cli([
            "compile", "--target", "ghz", "--scheme", "htn", "--n", "8",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["infidelity"] < 1e-10
        assert report["u_depth"] == 3

    def test_chain_depth_is_n_minus_one(self, tmp_path):
        run_cli([
            "compile", "--target", "f1", "--scheme", "chain", "--n", "10",
            "--out", str(tmp_path),
        ])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["u_depth"] == 9

    def test_fig6_two_layers_depth_ten(self, tmp_path):
        run_cli([
            "compile", "--target", "f1", "--scheme", "fig6", "--n", "12",
            "--layers", "2", "--out", str(tmp_path),
        ])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["u_depth"] == 10

    def test_qasm_simulates_to_reported_infidelity(self, tmp_path):
        run_cli([
            "compile", "--target", "g1", "--scheme", "ttn", "--n", "6",
            "--out", str(tmp_path),
        ])
        report = json.loads((tmp_path / "report.json").read_text())
        circ, header = qasm.parse((tmp_path / "circuit.qasm").read_text())
        target = targets.discretize(targets.make_spec("g1", 6))
        prepared = simulate(circ)
        assert abs(statevec.infidelity(prepared, target) - report["infidelity"]) < 1e-8
        assert header["scheme"] == "ttn"

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            run_cli([
                "compile", "--target", "f2", "--scheme", "hen", "--n", "6",
                "--seed", "7", "--out", str(d),
            ])
            outs.append(hashlib.sha256((d / "circuit.qasm").read_bytes()).hexdigest())
        assert outs[0] == outs[1]

    def test_random_target_seeded(self, tmp_path):
        for sub in ("a", "b"):
            run_cli([
                "compile", "--target", "random", "--scheme", "chain", "--n", "4",
                "--seed", "3", "--out", str(tmp_path / sub),
            ])
        qa = (tmp_path / "a" / "circuit.qasm").read_bytes()
        qb = (tmp_path / "b" / "circuit.qasm").read_bytes()
        assert qa == qb

    @pytest.mark.parametrize("argv,artifact", [
        (["compile", "--target", "random", "--n", "14", "--scheme", "chain", "--layers", "2",
          "--seed", "3"], "circuit.qasm"),
        (["benchmark", "--targets", "f1", "--schemes", "chain", "--n", "16", "--plotdata"],
         "plotdata/f1_chain_n16_L1.csv"),
    ], ids=["compile", "plotdata"])
    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path, argv, artifact):
        # dense states at n = 14 and 16 reach the threaded BLAS paths
        src = Path(cli.__file__).resolve().parents[1]
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src))
            env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
            subprocess.run([sys.executable, "-m", "impsprep.cli", *argv, "--out", str(tmp_path / threads)],
                           env=env, check=True, capture_output=True, timeout=120)
        assert (tmp_path / "1" / artifact).read_bytes() == (tmp_path / "2" / artifact).read_bytes()

    def test_grid_scheme_needs_dimensions(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli([
                "compile", "--target", "f1", "--scheme", "grid", "--n", "12",
                "--out", str(tmp_path),
            ])

    def test_grid_scheme(self, tmp_path):
        run_cli([
            "compile", "--target", "f1", "--scheme", "grid", "--n", "12",
            "--grid-rows", "3", "--grid-cols", "4", "--out", str(tmp_path),
        ])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["u_depth"] <= 7

    def test_graph_scheme(self, tmp_path):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}))
        run_cli([
            "compile", "--target", "g3", "--scheme", "graph", "--n", "5",
            "--graph", str(topo), "--out", str(tmp_path),
        ])
        assert (tmp_path / "circuit.qasm").exists()

    def test_synth_3cx_mode(self, tmp_path):
        run_cli([
            "compile", "--target", "f3", "--scheme", "chain", "--n", "5",
            "--synth", "3cx", "--out", str(tmp_path),
        ])
        report = json.loads((tmp_path / "report.json").read_text())
        # chain(5) has 4 two-qubit gates: generic baseline counts 3 each
        assert report["cnot_count_generic"] == 12

    @pytest.mark.parametrize("synth,calls", [("3cx", 7), ("2cx", 7)])
    def test_synthesizes_each_unitary_once_per_mode(self, tmp_path, monkeypatch, synth, calls):
        # chain(8) has 7 unitaries; one synthesize_gate batch holds them all,
        # and one KAK over that batch (one per unitary) gives both the
        # emitted sequences and the generic counts
        seen = {"synthesize_gate": [], "_kak_layers": []}
        for name in seen:
            original = getattr(gatesynth, name)

            def counting(*args, _name=name, _original=original):
                seen[_name].append(len(args[0]))
                return _original(*args)

            monkeypatch.setattr(gatesynth, name, counting)
        run_cli([
            "compile", "--target", "f1", "--scheme", "chain", "--n", "8",
            "--synth", synth, "--out", str(tmp_path),
        ])
        assert seen == {"synthesize_gate": [calls], "_kak_layers": [calls]}
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["cnot_count_generic"] == 21

    def test_synth_none_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli([
                "compile", "--target", "f1", "--scheme", "chain", "--n", "4",
                "--synth", "none", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2

    def test_random_target_over_cap_fails_with_cap_message(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IMPS_MAX_QUBITS", "6")
        with pytest.raises(SystemExit, match="7 qubits exceeds cap of 6"):
            run_cli([
                "compile", "--target", "random", "--scheme", "chain", "--n", "7",
                "--out", str(tmp_path),
            ])

    @pytest.mark.parametrize("argv", [
        ["compile", "--target", "f1", "--scheme", "chain"],
        ["compile", "--target", "ghz", "--scheme", "chain"],
        ["rank", "--target", "f1"],
    ])
    def test_named_target_over_cap_fails_before_allocating(self, tmp_path, monkeypatch, argv):
        # the cap message must come before any 2^n buffer: building one fails here
        def refuse_states(fn, size):
            def wrapper(*args, **kwargs):
                assert size(*args) < 1 << 7, "a 2^n buffer was built before the qubit cap check"
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setenv("IMPS_MAX_QUBITS", "6")
        np = targets.np
        monkeypatch.setattr(np, "linspace", refuse_states(np.linspace, lambda lo, hi, num=50: num))
        monkeypatch.setattr(np, "zeros", refuse_states(np.zeros, lambda shape, *a: np.prod(shape)))
        out = ["--out", str(tmp_path)] if argv[0] == "compile" else []
        with pytest.raises(SystemExit, match="7 qubits exceeds cap of 6"):
            run_cli(argv + ["--n", "7"] + out)

    def test_per_layer_truncation_on_revisiting_schedule_fails(self, tmp_path):
        with pytest.raises(SystemExit, match=r"qubit 1 is disentangled before round 1 .*htn"):
            run_cli([
                "compile", "--target", "f1", "--scheme", "htn", "--n", "8",
                "--trunc", "layer", "--out", str(tmp_path),
            ])

    @pytest.mark.parametrize("target,scheme,n", [
        ("f2", "htn", 16),  # two-CNOT route near degenerate KAK angles
        ("g2", "htn", 16),  # generic count on a nearly local gate
        ("f1", "htn", 12),
    ])
    def test_compiles_at_real_sizes(self, tmp_path, target, scheme, n):
        rc = run_cli([
            "compile", "--target", target, "--scheme", scheme, "--n", str(n),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["cnot_count"] <= 2 * report["cnot_count_generic"] / 3

    def test_function_grid_compiles_at_n12(self, tmp_path):
        # every cell of the paper's function grid (f1-g3 x 4 schemes x L = 1,
        # 2) compiles in 2cx mode at n = 12, where the CLI re-validates the
        # emitted QASM, and exits 0
        failed = []
        for target in ("f1", "f2", "f3", "g1", "g2", "g3"):
            for scheme in ("chain", "ttn", "htn", "hen"):
                for layers in ("1", "2"):
                    out = tmp_path / f"{target}-{scheme}-{layers}"
                    argv = ["compile", "--target", target, "--scheme", scheme, "--n", "12",
                            "--layers", layers, "--synth", "2cx", "--out", str(out)]
                    try:
                        rc = run_cli(argv)
                    except SystemExit as exc:
                        rc = exc.code
                    if rc != 0:
                        failed.append((target, scheme, layers, rc))
        assert failed == []

    @pytest.mark.parametrize("target,n,steps", [("f1", 12, 72), ("random", 14, 98)])
    def test_block_factors_take_no_wide_svd(self, tmp_path, monkeypatch, target, n, steps):
        # every step factors its block through one 4x4 Gram matrix, also the
        # rank-deficient blocks of the function targets; a pass factors its
        # one or two pairs' matrices as one stack
        grams, svds = [], []
        factor_gram, plain_svd = disentangler._factor_gram, np.linalg.svd

        def counting_factor(gram):
            grams.append(gram.shape)
            return factor_gram(gram)

        def counting_svd(a, *args, **kwargs):
            svds.append(np.shape(a))
            return plain_svd(a, *args, **kwargs)

        monkeypatch.setattr(disentangler, "_factor_gram", counting_factor)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rc = run_cli([
            "compile", "--target", target, "--n", str(n), "--scheme", "hen",
            "--layers", "2", "--out", str(tmp_path),
        ])  # _revalidate raises SystemExit if the QASM does not re-simulate
        assert rc == 0
        assert {shape[-2:] for shape in grams} == {(4, 4)}
        assert sum(int(np.prod(shape[:-2])) for shape in grams) == steps
        assert svds == []

    def test_amps_file_target(self, tmp_path, rng):
        state = statevec.from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
        path = tmp_path / "target.amps"
        statevec.save_amplitudes(state, path)
        run_cli([
            "compile", "--target", str(path), "--scheme", "ttn", "--n", "4",
            "--out", str(tmp_path),
        ])
        assert (tmp_path / "report.json").exists()

    def test_wall_time_covers_the_revalidation(self, tmp_path, monkeypatch):
        revalidate = cli._revalidate

        def slow_revalidate(*args):
            time.sleep(0.2)
            return revalidate(*args)

        monkeypatch.setattr(cli, "_revalidate", slow_revalidate)
        run_cli([
            "compile", "--target", "f1", "--scheme", "chain", "--n", "4",
            "--out", str(tmp_path),
        ])
        assert json.loads((tmp_path / "report.json").read_text())["wall_time"] >= 0.2


class TestBenchmark:
    def test_row_count_and_schema(self, tmp_path):
        run_cli([
            "benchmark", "--targets", "f1,g1", "--schemes", "chain,htn",
            "--n-list", "6", "--layers-list", "1,2", "--n", "6",
            "--out", str(tmp_path),
        ])
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# impsprep benchmark results")
        header = lines[1].split(",")
        assert header[:4] == ["target", "scheme", "n", "layers"]
        assert len(lines) == 2 + 2 * 2 * 2  # comment + header + rows
        assert not (tmp_path / "plotdata").exists()

    def test_sweep_with_near_local_gates_completes(self, tmp_path):
        run_cli([
            "benchmark", "--targets", "f1,f2,g1", "--schemes", "chain,htn",
            "--n-list", "10", "--n", "10", "--out", str(tmp_path),
        ])
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 6

    def test_deterministic_csv(self, tmp_path):
        digests = []
        for sub in ("x", "y"):
            d = tmp_path / sub
            run_cli([
                "benchmark", "--targets", "f2", "--schemes", "ttn",
                "--n-list", "5", "--layers-list", "1", "--n", "5",
                "--seed", "11", "--out", str(d),
            ])
            digests.append(hashlib.sha256((d / "results.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_random_target_averages_samples(self, tmp_path):
        run_cli([
            "benchmark", "--targets", "random", "--schemes", "chain,ttn",
            "--n-list", "4", "--layers-list", "1", "--samples", "10",
            "--n", "4", "--out", str(tmp_path),
        ])
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 2  # one averaged row per scheme

    def test_synth_comparison_columns_show_one_third_saving(self, tmp_path):
        run_cli([
            "benchmark", "--targets", "random", "--schemes", "chain",
            "--n-list", "5", "--layers-list", "1", "--samples", "1",
            "--n", "5", "--out", str(tmp_path),
        ])
        lines = (tmp_path / "results.csv").read_text().splitlines()
        row = next(csv.DictReader(lines[1:]))
        assert int(row["cnot_2cx"]) * 3 == int(row["cnot_3cx"]) * 2

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_rejected(self, tmp_path, samples):
        with pytest.raises(SystemExit, match="--samples"):
            run_cli([
                "benchmark", "--targets", "random", "--samples", samples,
                "--n", "4", "--n-list", "4", "--schemes", "chain",
                "--out", str(tmp_path),
            ])

    @pytest.mark.parametrize("flag,value", [
        ("--n-list", "x"), ("--layers-list", "1,y"), ("--n-list", ","),
        ("--targets", ""), ("--schemes", ""), ("--layers-list", ""),
    ])
    def test_bad_list_flag_named(self, tmp_path, flag, value):
        args = {"--targets": "f1", "--schemes": "chain", "--n-list": "4", "--layers-list": "1"}
        args[flag] = value
        with pytest.raises(SystemExit, match=flag):
            run_cli(["benchmark", "--n", "4", "--out", str(tmp_path / "out")]
                    + [x for kv in args.items() for x in kv])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,n", [(["--n", "6"], 6), ([], 8), (["--n", "6", "--n-list", "5"], 5)])
    def test_n_is_the_default_n_list(self, tmp_path, argv, n):
        run_cli(["benchmark", "--targets", "f1", "--schemes", "chain", "--out", str(tmp_path)] + argv)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert [row["n"] for row in rows] == [str(n)]

    def test_each_target_resolved_once(self, tmp_path, monkeypatch):
        # 4 cells per target: f1 is discretized once, and the 3 random samples
        # are drawn once, not again for every cell
        calls = []
        for module, name in ((statevec, "random_state"), (targets, "discretize")):
            def counting(*args, _f=getattr(module, name), _name=name):
                calls.append(_name)
                return _f(*args)

            monkeypatch.setattr(module, name, counting)
        run_cli([
            "benchmark", "--targets", "f1,random", "--samples", "3", "--schemes", "chain,htn",
            "--layers-list", "1,2", "--n", "6", "--out", str(tmp_path),
        ])
        assert sorted(calls) == ["discretize"] + ["random_state"] * 3
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 2 + 8

    def test_min_retained_weight_over_every_sample(self, tmp_path):
        # seed 1: the smallest weight is in sample 1, so reading sample 0 fails
        run_cli([
            "benchmark", "--targets", "random", "--schemes", "chain", "--n-list", "6",
            "--layers-list", "2", "--samples", "3", "--seed", "1", "--out", str(tmp_path),
        ])
        lines = (tmp_path / "results.csv").read_text().splitlines()
        row = next(csv.DictReader(lines[1:]))
        schedule = schedules.chain_schedule(6)
        rng = np.random.default_rng(1)
        per_sample = []
        for _ in range(3):
            state = statevec.random_state(6, rng)
            ((report, _),) = cli.compile_one(
                [("random", state, None)], schedule, 2, disentangler.TruncationMode.PER_LAYER,
                gatesynth.SynthMode.OPTIMIZED2, 1,
            )
            per_sample.append(min(report.retained_weights))
        assert row["min_retained_weight"] == cli._fmt(min(per_sample))
        assert min(per_sample) < per_sample[0]

    def test_plotdata_emission(self, tmp_path):
        run_cli([
            "benchmark", "--targets", "g1", "--schemes", "htn",
            "--n-list", "5", "--layers-list", "1", "--n", "5",
            "--plotdata", "--out", str(tmp_path),
        ])
        files = list((tmp_path / "plotdata").glob("*.csv"))
        assert len(files) == 1
        body = files[0].read_text().splitlines()
        assert body[0] == "index,target_re,target_im,prepared_re,prepared_im"
        assert len(body) == 1 + 32


class TestVerify:
    def test_quick_passes(self, capsys):
        rc = run_cli(["verify", "--level", "quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[pass]" in out and "[FAIL]" not in out

    def test_corruption_hook_fails_named_invariant(self):
        from impsprep.verify import run_checks

        results = run_checks(level="quick", corrupt=True)
        failing = [r for r in results if not r.ok]
        assert any(r.name == "gate-synthesis" for r in failing)


    def test_corruption_hook_fails_block_svd_check(self):
        from impsprep.verify import run_checks

        results = {r.name: r for r in run_checks(level="quick", corrupt=True)}
        assert not results["block-svd"].ok
        assert "kept subspace" in results["block-svd"].detail


class TestRank:
    def test_ghz_rank(self, capsys):
        rc = run_cli(["rank", "--target", "ghz", "--n", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chi = 2" in out

    def test_ring_mode(self, capsys):
        rc = run_cli(["rank", "--ring", "cos,linear", "--n", "8"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["additive_ok"] and payload["multiplicative_ok"]


class TestBadInputs:
    """Unreadable, incomplete or inconsistent inputs end in a message naming
    the file, flag or value, not in a traceback, and write nothing."""

    @pytest.mark.parametrize("argv,named", [
        (["compile", "--target", "missing.amps", "--scheme", "chain", "--n", "4"], "missing.amps"),
        (["rank", "--target", "missing.amps", "--n", "4"], "missing.amps"),
        (["compile", "--target", "f1", "--scheme", "graph", "--n", "3", "--graph", "missing.json"],
         "--graph missing.json"),
        (["rank", "--ring", "cos,linear", "--n", "6", "--domain-lo", "0"], "--domain-lo and --domain-hi"),
        (["rank", "--ring", "cos,linear", "--n", "6", "--domain-hi", "2"], "--domain-lo and --domain-hi"),
        (["rank", "--ring", "cos", "--n", "6"], "--ring wants two"),
        (["compile", "--target", "f1", "--scheme", "fig6", "--n", "8"], "fig6 scheme is fixed at n = 12"),
        (["compile", "--target", "f1", "--scheme", "grid", "--n", "10", "--grid-rows", "3", "--grid-cols", "4"],
         "grid 3x4 has 12 qubits, --n was 10"),
        (["compile", "--target", "f1", "--scheme", "graph", "--n", "4"], "graph scheme needs --graph"),
        (["compile", "--target", "Nope", "--scheme", "chain", "--n", "4"], "unknown target 'Nope'"),
        (["benchmark", "--targets", "f1", "--schemes", "nope", "--n", "4"], "unknown scheme 'nope'"),
        (["benchmark", "--targets", "nope", "--schemes", "chain", "--n", "4"], "unknown target 'nope'"),
        (["benchmark", "--targets", "f1,nope", "--schemes", "chain", "--n", "4", "--plotdata"],
         "unknown target 'nope'"),
        (["benchmark", "--targets", "f1", "--schemes", "chain,fig6", "--n", "4", "--plotdata"],
         "fig6 scheme is fixed at n = 12"),
        (["benchmark", "--targets", "f1", "--schemes", "chain", "--n", "4", "--layers-list", "1,0",
          "--plotdata"], "--layers-list values must be >= 1, got '1,0'"),
        (["compile", "--target", "f1", "--scheme", "chain", "--n", "4", "--layers", "0"],
         "--layers must be >= 1, got 0"),
        (["benchmark", "--targets", "f1", "--schemes", "chain", "--n-list", "4,30", "--plotdata"],
         "--n-list: 30 qubits exceeds cap of 24"),
        (["benchmark", "--targets", "f1", "--schemes", "chain", "--n-list", "4,1", "--plotdata"],
         "--n-list values must be >= 2, got '4,1'"),
    ])
    def test_named_in_the_exit_message(self, tmp_path, monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run_cli(argv + (["--out", "out"] if argv[0] != "rank" else []))
        assert isinstance(info.value.code, str) and named in info.value.code
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body,reason", [
        ("nan 0\n1 0\n0 0\n0 0\n", "amplitudes contain non-finite values"),
        ("0 0\n0 0\n0 0\n0 0\n", "cannot normalize an all-zero amplitude vector"),
        ("1 0\n1 0\n1 0\n", "amplitude length 3 is not a power of two >= 2"),
    ], ids=["nan", "zero", "length3"])
    @pytest.mark.parametrize("argv", [
        ["compile", "--target", "bad.amps", "--scheme", "chain", "--n", "2", "--out", "out"],
        ["rank", "--target", "bad.amps", "--n", "2"],
        ["benchmark", "--targets", "bad.amps", "--schemes", "chain", "--n", "2", "--out", "out"],
    ], ids=["compile", "rank", "benchmark"])
    def test_amplitude_file_content_names_the_file(self, tmp_path, monkeypatch, body, reason, argv):
        monkeypatch.chdir(tmp_path)
        Path("bad.amps").write_text(body)
        with pytest.raises(SystemExit) as info:
            run_cli(argv)
        assert info.value.code == f"error: bad.amps: {reason}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload,key", [({"n": 3}, "edges"), ({"edges": []}, "n"), (3, "n")])
    def test_graph_file_without_a_key(self, tmp_path, payload, key):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match=f"--graph .*topo.json: topology JSON has no '{key}' key"):
            run_cli([
                "compile", "--target", "f1", "--scheme", "graph", "--n", "3",
                "--graph", str(topo), "--out", str(tmp_path),
            ])

    @pytest.mark.parametrize("payload,n,named", [
        ({"n": 3, "edges": 5}, 3, "edges must be a list of [u, v] pairs, got 5"),
        ({"n": None, "edges": [[0, 1], [1, 2]]}, 3, "n must be an integer, got None"),
        ({"n": 3, "edges": [[0, 1], [1, "a"]]}, 3, "edge [1, 'a'] is not a pair of integers"),
        ({"n": 3, "edges": [[0]]}, 3, "edge [0] is not a pair of integers"),
        ({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}, 3, "graph has 5 vertices, --n was 3"),
    ])
    def test_graph_file_with_a_bad_shape(self, tmp_path, payload, n, named):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match=re.escape(named)):
            run_cli([
                "compile", "--target", "f1", "--scheme", "graph", "--n", str(n),
                "--graph", str(topo), "--out", str(tmp_path / "out"),
            ])
        assert not (tmp_path / "out").exists()

    def test_revalidation_deviation_writes_no_report(self, tmp_path, monkeypatch):
        emit = qasm.emit
        monkeypatch.setattr(qasm, "emit", lambda *args: emit(*args) + "u3(0.5,0,0) q[0];\n")
        with pytest.raises(SystemExit, match="self-check failed: re-simulated .*circuit.qasm deviates"):
            run_cli([
                "compile", "--target", "f1", "--scheme", "chain", "--n", "4",
                "--out", str(tmp_path),
            ])
        assert not (tmp_path / "report.json").exists()

    def test_failed_benchmark_cell_writes_no_results(self, tmp_path, monkeypatch):
        def failing(*args):
            raise RuntimeError("no synthesis")

        monkeypatch.setattr(gatesynth, "synthesize_gate", failing)
        with pytest.raises(SystemExit, match="benchmark cell failed: target=f1 scheme=chain n=4 layers=1: "
                                             "no synthesis"):
            run_cli([
                "benchmark", "--targets", "f1", "--schemes", "chain", "--n", "4",
                "--out", str(tmp_path / "out"),
            ])
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("chunk,fail_at", [(statevec.CHUNK, 3 * (5 + 2) + 3), (1 << 5, 2 * 10 + 5 + 2 + 1)],
                             ids=["stacked", "one-at-a-time"])
    def test_benchmark_abort_names_the_failing_sample_and_step(self, tmp_path, monkeypatch, chunk, fail_at):
        # the CSD of sample 2 of 3 fails in layer 1, round 2 of the cell.
        # Stacked, each pass of chain(6) factors one pair of three samples;
        # with 2^6 amplitudes above one chunk the samples go one at a time,
        # 10 passes each
        calls = []
        uncsd = gatesynth._UNCSD

        def failing(*args, **kwargs):
            out = uncsd(*args, **kwargs)
            calls.append(None)
            return (*out[:-1], 7) if len(calls) == fail_at else out

        monkeypatch.setattr(gatesynth, "_UNCSD", failing)
        monkeypatch.setattr(statevec, "CHUNK", chunk)
        with pytest.raises(SystemExit) as exc:
            run_cli([
                "benchmark", "--targets", "random", "--samples", "3", "--schemes", "chain",
                "--n", "6", "--layers-list", "2", "--out", str(tmp_path / "out"),
            ])
        assert str(exc.value.code) == (
            "benchmark cell failed: target=random scheme=chain n=6 layers=2: "
            "sample 2: layer 1 round 2 pair (2, 3): CSD failed: zuncsd info 7")
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_benchmark_abort_names_the_failing_gate(self, tmp_path, monkeypatch):
        # gate 2 of the compiled 2cx circuit becomes a generic unitary, which
        # no two-CNOT sequence realizes
        compiled = []

        def with_generic_gate(*args, **kwargs):
            (result,) = results = disentangler.run_schedule(*args, **kwargs)
            g = result.circuit.gates[2]
            u = np.linalg.qr(np.arange(16).reshape(4, 4) + 1j * np.eye(4))[0]
            result.circuit.gates[2] = statevec.TwoQubitGate(g.a, g.b, u)
            compiled.append((g.a, g.b))
            return results

        monkeypatch.setattr(cli, "run_schedule", with_generic_gate)
        with pytest.raises(SystemExit) as exc:
            run_cli([
                "benchmark", "--targets", "f1", "--schemes", "chain", "--n", "4",
                "--out", str(tmp_path / "out"),
            ])
        a, b = compiled[0]
        assert str(exc.value.code).startswith(
            f"benchmark cell failed: target=f1 scheme=chain n=4 layers=1: gate 2 on ({a}, {b}): "
            "input is not two-CNOT realizable")
