import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from impsprep import circuits, cli, disentangler, gatesynth, qasm, schedules, statevec, targets
from impsprep.circuits import simulate

from conftest import break_csd


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
        ["rank", "--ring", "cos,linear"],
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

    def test_function_grid_compiles_at_n12(self, tmp_path, monkeypatch):
        # every cell of the paper's function grid (f1-g3 x 4 schemes x L = 1,
        # 2) compiles in 2cx mode at n = 12, where the CLI re-validates the
        # emitted QASM, and exits 0, with at most two CNOTs per unitary
        synthesize_gate, cnots = gatesynth.synthesize_gate, []

        def counting(u, mode):
            sequences = synthesize_gate(u, mode)
            cnots.extend(seq.cnot_count for seq, _ in sequences)
            return sequences

        monkeypatch.setattr(gatesynth, "synthesize_gate", counting)
        failed = []
        for target in ("f1", "f2", "f3", "g1", "g2", "g3"):
            for scheme in ("chain", "ttn", "htn", "hen"):
                for layers in ("1", "2"):
                    out = tmp_path / f"{target}-{scheme}-{layers}"
                    argv = ["compile", "--target", target, "--scheme", scheme, "--n", "12",
                            "--layers", layers, "--synth", "2cx", "--out", str(out)]
                    cnots.clear()
                    try:
                        rc = run_cli(argv)
                    except SystemExit as exc:
                        rc = exc.code
                    if rc != 0 or not cnots or max(cnots) > 2:
                        failed.append((target, scheme, layers, rc, max(cnots, default=None)))
        assert failed == []

    def test_real_amps_file_compiles_as_its_named_target(self, tmp_path, monkeypatch):
        # being real is read from the amplitudes, not from the target's name:
        # f1 saved with its column of zero imaginary parts loads with its own
        # bits and compiles to the named target's circuit and infidelity,
        # and is never rewritten
        target = targets.discretize(targets.make_spec("f1", 12))
        path = tmp_path / "f1.amps"
        statevec.save_amplitudes(target, path)
        assert np.array_equal(statevec.load_amplitudes(path).amps, target.amps)
        build_u2cx, rewritten = gatesynth.build_u2cx, []
        monkeypatch.setattr(gatesynth, "build_u2cx", lambda u: rewritten.append(u) or build_u2cx(u))
        outputs = []
        for name, value in (("named", "f1"), ("file", str(path))):
            run_cli(["compile", "--target", value, "--scheme", "htn", "--n", "12", "--layers", "2",
                     "--synth", "2cx", "--out", str(tmp_path / name)])
            body = [line for line in (tmp_path / name / "circuit.qasm").read_text().splitlines()
                    if not line.startswith("//")]
            outputs.append((body, json.loads((tmp_path / name / "report.json").read_text())["infidelity"]))
        assert outputs[0] == outputs[1] and rewritten == []

    def test_compile_loads_no_scipy(self, tmp_path):
        # scipy's import cost more than the compile itself at these sizes
        script = (
            "import sys\n"
            "import impsprep.cli\n"
            "rc = impsprep.cli.main(sys.argv[1:])\n"
            "print(rc, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, "compile", "--target", "f1", "--scheme", "hen", "--n", "8",
             "--layers", "2", "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(src)), check=True, capture_output=True, text=True, timeout=120)
        assert proc.stdout.split("\n")[-2] == "0 []"

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
        assert [shape for shape in svds if shape[-1] > 4] == []  # the CSD's SVDs are of 2x2 blocks

    def test_amps_file_target(self, tmp_path, rng):
        state = statevec.from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
        path = tmp_path / "target.amps"
        statevec.save_amplitudes(state, path)
        run_cli([
            "compile", "--target", str(path), "--scheme", "ttn", "--n", "4",
            "--out", str(tmp_path),
        ])
        assert (tmp_path / "report.json").exists()

    def test_huge_amps_file_compiles_as_its_scaled_copy(self, tmp_path):
        # the sum of squares of 1e308 overflows: the file still loads as the
        # unit vector it points along and compiles to its scaled copy's circuit
        bodies = []
        for name, entry in (("huge", "1e308"), ("scaled", "1")):
            path = tmp_path / f"{name}.amps"
            path.write_text(f"{entry} 0\n{entry} 0\n0 0\n0 0\n")
            out = tmp_path / name
            assert run_cli(["compile", "--target", str(path), "--scheme", "chain", "--n", "2", "--out", str(out)]) == 0
            assert json.loads((out / "report.json").read_text())["infidelity"] < 1e-12
            bodies.append([line for line in (out / "circuit.qasm").read_text().splitlines()
                           if not line.startswith("//")])
        assert bodies[0] == bodies[1]

    def test_report_and_header_keys(self, tmp_path):
        run_cli(["compile", "--target", "g1", "--scheme", "chain", "--n", "4", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert list(report) == [
            "cnot_count", "cnot_count_generic", "csv_schema_version", "domain", "infidelity", "layers", "n",
            "retained_weights", "scheme", "seed", "single_qubit_count", "single_qubit_count_generic", "synth",
            "target", "truncation", "u_depth", "wall_time",
        ]
        assert report["domain"] == [-5.0, 5.0]
        _, header = qasm.parse((tmp_path / "circuit.qasm").read_text())
        assert list(header) == ["scheme", "target", "n", "layers", "truncation", "synth", "seed", "infidelity"]

    def test_a_state_target_records_no_domain(self, tmp_path):
        run_cli(["compile", "--target", "ghz", "--scheme", "chain", "--n", "4", "--out", str(tmp_path)])
        assert json.loads((tmp_path / "report.json").read_text())["domain"] is None
        run_cli(["benchmark", "--targets", "ghz,w", "--schemes", "chain", "--n", "4", "--out", str(tmp_path)])
        rows = list(csv.DictReader((tmp_path / "results.csv").read_text().splitlines()[1:]))
        assert [(row["target"], row["domain_lo"], row["domain_hi"]) for row in rows] == [("ghz", "", ""), ("w", "", "")]

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
        assert lines[1].split(",") == [
            "target", "scheme", "n", "layers", "truncation", "u_depth", "infidelity", "cnot_2cx",
            "single_qubit_2cx", "cnot_3cx", "single_qubit_3cx", "min_retained_weight", "domain_lo",
            "domain_hi", "seed",
        ]
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

    @pytest.mark.parametrize("entry", ["Random", " random"])
    def test_random_in_any_case_averages_samples_and_plots_nothing(self, tmp_path, entry):
        rows = []
        for i, name in enumerate((entry, "random")):
            out = tmp_path / str(i)
            run_cli(["benchmark", "--targets", name, "--samples", "3", "--schemes", "chain", "--n", "4",
                     "--plotdata", "--out", str(out)])
            rows += csv.DictReader((out / "results.csv").read_text().splitlines()[1:])
            assert not (out / "plotdata").exists()
        assert [row.pop("target") for row in rows] == [entry, "random"]
        assert rows[0] == rows[1]

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
            result = disentangler.run_schedule(state, schedule, 2, disentangler.TruncationMode.PER_LAYER, rewrite_2cx=True)
            per_sample.append(min(result.per_round_weights))
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

    def test_plotdata_of_amplitude_files_stays_under_out(self, tmp_path, monkeypatch, rng):
        # an entry with a path keeps its file under --out/plotdata/, and two
        # entries that name files alike (t.amps two directories apart) write two files
        cwd = tmp_path / "a" / "b"
        cwd.mkdir(parents=True)
        monkeypatch.chdir(cwd)
        far, near = statevec.random_state(4, rng), statevec.random_state(4, rng)
        statevec.save_amplitudes(far, tmp_path / "t.amps")
        statevec.save_amplitudes(near, cwd / "t.amps")
        before = set(tmp_path.rglob("*"))
        run_cli(["benchmark", "--targets", "../../t.amps,t.amps,f1", "--schemes", "chain", "--n-list", "4",
                 "--plotdata", "--out", "out"])
        made = {path.relative_to(cwd).as_posix() for path in set(tmp_path.rglob("*")) - before if path.is_file()}
        assert made == {"out/results.csv", "out/plotdata/..%2F..%2Ft.amps_chain_n4_L1.csv",
                        "out/plotdata/t.amps_chain_n4_L1.csv", "out/plotdata/f1_chain_n4_L1.csv"}
        for name, state in [("..%2F..%2Ft.amps", far), ("t.amps", near)]:
            rows = Path(f"out/plotdata/{name}_chain_n4_L1.csv").read_text().splitlines()[1:]
            assert [float(row.split(",")[1]) for row in rows] == pytest.approx(state.amps.real, abs=1e-15)


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

    def test_an_overflowing_ring_fails_without_a_warning(self):
        # exp(1000) overflows: the message names the non-finite function, and no numpy warning precedes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as info:
                run_cli(["rank", "--ring", "exp,exp", "--n", "4", "--domain-lo", "0", "--domain-hi", "1000"])
        assert info.value.code == "error: exp(1,1) is non-finite on (0.0, 1000.0)"


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
        (["rank", "--ring", "cos,linear", "--n", "6", "--domain-lo", "1", "--domain-hi", "0"],
         "error: empty domain (1.0, 0.0)"),
        (["compile", "--target", "f1", "--scheme", "fig6", "--n", "8"], "fig6 has 12 qubits, --n was 8"),
        (["compile", "--target", "f1", "--scheme", "grid", "--n", "10", "--grid-rows", "3", "--grid-cols", "4"],
         "grid 3x4 has 12 qubits, --n was 10"),
        (["compile", "--target", "f1", "--scheme", "graph", "--n", "4"], "graph scheme needs --graph"),
        (["compile", "--target", "Nope", "--scheme", "chain", "--n", "4"], "unknown target 'Nope'"),
        (["benchmark", "--targets", "f1", "--schemes", "nope", "--n", "4"], "unknown scheme 'nope'"),
        (["benchmark", "--targets", "nope", "--schemes", "chain", "--n", "4"], "unknown target 'nope'"),
        (["benchmark", "--targets", "f1,nope", "--schemes", "chain", "--n", "4", "--plotdata"],
         "unknown target 'nope'"),
        (["benchmark", "--targets", "f1", "--schemes", "chain,fig6", "--n", "4", "--plotdata"],
         "fig6 has 12 qubits, --n was 4"),
        (["benchmark", "--targets", "f1", "--schemes", "chain", "--n", "4", "--layers-list", "1,0",
          "--plotdata"], "--layers-list values must be >= 1, got '1,0'"),
        (["compile", "--target", "f1", "--scheme", "chain", "--n", "4", "--layers", "0"],
         "--layers must be >= 1, got 0"),
        (["benchmark", "--targets", "f1", "--schemes", "chain", "--n-list", "4,30", "--plotdata"],
         "--n-list: 30 qubits exceeds cap of 24"),
        (["benchmark", "--targets", "f1", "--schemes", "chain", "--n-list", "4,1", "--plotdata"],
         "--n-list values must be >= 2, got '4,1'"),
        (["benchmark", "--targets", "f1", "--schemes", "grid", "--grid-rows", "3", "--grid-cols", "4",
          "--n-list", "12,16"], "grid 3x4 has 12 qubits, --n-list was 16"),
        (["benchmark", "--targets", "f1", "--schemes", "grid", "--grid-rows", "3", "--grid-cols", "4",
          "--n", "8"], "grid 3x4 has 12 qubits, --n was 8"),
        (["benchmark", "--targets", "f1", "--schemes", "chain", "--n", "1"], "--n values must be >= 2, got '1'"),
        (["benchmark", "--targets", "f1", "--schemes", "chain,htn", "--trunc", "layer", "--n-list", "6",
          "--plotdata"], "qubit 1 is disentangled before round 1 of the htn schedule"),
        (["benchmark", "--targets", "f1", "--schemes", "fig6", "--n-list", "8"], "fig6 has 12 qubits, --n-list was 8"),
        (["benchmark", "--targets", "three.amps", "--schemes", "chain", "--n-list", "4"],
         "three.amps holds 3 qubits, --n-list was 4"),
        (["benchmark", "--targets", "three.amps", "--schemes", "chain", "--n", "4"],
         "three.amps holds 3 qubits, --n was 4"),
        (["benchmark", "--targets", "three.amps", "--schemes", "chain", "--n-list", "3,4", "--plotdata"],
         "three.amps holds 3 qubits, --n-list was 4"),
        (["compile", "--target", "random", "--scheme", "chain", "--n", "0"], "--n values must be >= 2, got '0'"),
        (["compile", "--target", "f1", "--scheme", "chain", "--n", "1"], "--n values must be >= 2, got '1'"),
        (["compile", "--target", "f1", "--scheme", "chain", "--n", "25"], "--n: 25 qubits exceeds cap of 24"),
        (["rank", "--target", "f1", "--n", "0"], "--n values must be >= 2, got '0'"),
        (["rank", "--target", "ghz", "--n", "30"], "--n: 30 qubits exceeds cap of 24"),
        (["rank", "--ring", "cos,linear", "--n", "1"], "--n values must be >= 2, got '1'"),
    ])
    def test_named_in_the_exit_message(self, tmp_path, monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)
        statevec.save_amplitudes(statevec.from_amplitudes(np.ones(8)), "three.amps")
        with pytest.raises(SystemExit) as info:
            run_cli(argv + (["--out", "out"] if argv[0] != "rank" else []))
        assert isinstance(info.value.code, str) and named in info.value.code
        assert not (tmp_path / "out").exists()

    def test_a_line_break_in_the_target_name_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        name = "t\nu3(0,0,0) q[0];.amps"
        statevec.save_amplitudes(statevec.from_amplitudes([1, 0, 0, 0]), name)
        with pytest.raises(SystemExit) as info:
            run_cli(["compile", "--target", name, "--scheme", "chain", "--n", "2", "--out", "out"])
        assert info.value.code == "error: header entry 'target' holds a line break"
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
        ({"n": 3, "edges": [[0, 1], [1, 1], [1, 2]]}, 3, "topo.json: self-loop at vertex 1"),
        ({"n": 3, "edges": [[0, 1], [1, 3]]}, 3, "topo.json: edge (1, 3) out of range for n = 3"),
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

    def test_a_benchmark_graph_of_another_size_names_n_list(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("topo.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        with pytest.raises(SystemExit) as info:
            run_cli(["benchmark", "--targets", "f1", "--schemes", "graph", "--graph", "topo.json",
                     "--n-list", "3,4", "--out", "out"])
        assert info.value.code == "graph has 3 vertices, --n-list was 4"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    @pytest.mark.parametrize("argv", [
        ["compile", "--target", "f1", "--scheme", "chain", "--n", "4"],
        ["benchmark", "--targets", "f1", "--schemes", "chain", "--n", "4"],
        ["benchmark", "--targets", "f1", "--schemes", "chain", "--n", "4", "--plotdata"],
    ], ids=["compile", "benchmark", "plotdata"])
    def test_out_that_is_or_lies_under_a_file(self, tmp_path, monkeypatch, argv, out):
        # refused before any work: nothing is compiled, made or overwritten
        def no_work(*args):
            raise AssertionError("compiled before --out was checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_schedule", no_work)
        Path("afile").write_text("kept\n")
        with pytest.raises(SystemExit) as info:
            run_cli(argv + ["--out", out])
        assert info.value.code == f"--out {out}: afile is not a directory"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert Path("afile").read_text() == "kept\n"

    def test_unwritable_file_under_out_names_the_flag(self, tmp_path, monkeypatch):
        # --out is a directory, but the plot data's own directory is a file
        monkeypatch.chdir(tmp_path)
        Path("out").mkdir()
        Path("out/plotdata").write_text("")
        with pytest.raises(SystemExit) as info:
            run_cli(["benchmark", "--targets", "f1", "--schemes", "chain", "--n", "4", "--plotdata", "--out", "out"])
        assert info.value.code.startswith("--out out: cannot write out/plotdata/f1_chain_n4_L1.csv: ")
        assert not Path("out/results.csv").exists()

    @pytest.mark.parametrize("cap", ["abc", "0", "-3", "4.5", ""])
    @pytest.mark.parametrize("argv", [
        ["compile", "--target", "f1", "--scheme", "chain", "--n", "4", "--out", "out"],
        ["benchmark", "--targets", "f1", "--schemes", "chain", "--n", "4", "--out", "out"],
    ], ids=["compile", "benchmark"])
    def test_qubit_cap_that_is_not_a_positive_integer(self, tmp_path, monkeypatch, argv, cap):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("IMPS_MAX_QUBITS", cap)
        with pytest.raises(SystemExit) as info:
            run_cli(argv)
        assert info.value.code.endswith(f"IMPS_MAX_QUBITS wants a positive integer, got {cap!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", [1, -3])
    def test_graph_file_with_too_few_vertices(self, tmp_path, n):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"n": n, "edges": []}))
        with pytest.raises(SystemExit) as info:
            run_cli([
                "compile", "--target", "f1", "--scheme", "graph", "--n", "4",
                "--graph", str(topo), "--out", str(tmp_path / "out"),
            ])
        assert info.value.code == f"--graph {topo}: need at least 2 vertices, got n = {n}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["compile", "--target", "f1", "--scheme", "chain", "--n", "4", "--out", "out"],
        ["benchmark", "--targets", "random", "--schemes", "chain", "--n", "4", "--out", "out"],
        ["rank", "--target", "random", "--n", "4"],
    ], ids=["compile", "benchmark", "rank"])
    def test_negative_seed_names_the_flag(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run_cli(argv + ["--seed", "-1"])
        assert info.value.code == 2
        assert "argument --seed: wants a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [["rank", "--n", "4"], ["rank", "--ring", "cos,linear", "--n", "4"]],
                             ids=["rank", "ring"])
    def test_tol_not_positive_finite(self, argv, tol):
        with pytest.raises(SystemExit) as info:
            run_cli(argv + ["--tol", tol])
        assert info.value.code == f"error: tol must be a positive finite number, got {float(tol)}"

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
        cosines = break_csd(monkeypatch, fail_at)
        monkeypatch.setattr(statevec, "CHUNK", chunk)
        with pytest.raises(SystemExit) as exc:
            run_cli([
                "benchmark", "--targets", "random", "--samples", "3", "--schemes", "chain",
                "--n", "6", "--layers-list", "2", "--out", str(tmp_path / "out"),
            ])
        (c0, c1), = cosines
        assert re.fullmatch(re.escape(
            "benchmark cell failed: target=random scheme=chain n=6 layers=2: "
            "sample 2: layer 1 round 2 pair (2, 3): CSD reassembly failed: deviation ")
            + r"\d\.\d{3}e[+-]\d\d" + re.escape(f" (cosines {c0:.2g}, {c1:.2g})"), str(exc.value.code))
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_benchmark_abort_names_the_failing_gate(self, tmp_path, monkeypatch):
        # gate 2 of the compiled 2cx circuit becomes a generic unitary, which
        # no two-CNOT sequence realizes
        compiled = []

        def with_generic_gate(*args, **kwargs):
            (result,) = results = disentangler.run_schedule(*args, **kwargs)
            g = result.circuit.gates[2]
            u = np.linalg.qr(np.arange(16).reshape(4, 4) + 1j * np.eye(4))[0]
            result.circuit.gates[2] = circuits.TwoQubitGate(g.a, g.b, u)
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


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples() -> list[list[str]]:
    """The arguments of every ``impsprep ...`` line in README's bash blocks,
    a line ending in a backslash joined with the next."""
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("impsprep ")]


def test_readme_cli_examples_parse():
    # each example with --help appended: argparse exits 0 only once every
    # verb, flag and choice before it parses
    examples = readme_cli_examples()
    assert len(examples) >= 5
    codes = []
    for argv in examples:
        with pytest.raises(SystemExit) as info:
            run_cli(argv + ["--help"])
        codes.append((" ".join(argv), info.value.code))
    assert [example for example, code in codes if code != 0] == []
