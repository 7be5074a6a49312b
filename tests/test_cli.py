import hashlib
import json

import pytest

from impsprep import cli, gatesynth, qasm, statevec, targets
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
        # chain(8) has 7 unitaries; one KAK per unitary gives both the
        # emitted sequence and the generic counts
        seen = {"synthesize_gate": 0, "_kak_layers": 0}
        for name in seen:
            original = getattr(gatesynth, name)

            def counting(*args, _name=name, _original=original):
                seen[_name] += 1
                return _original(*args)

            monkeypatch.setattr(gatesynth, name, counting)
        run_cli([
            "compile", "--target", "f1", "--scheme", "chain", "--n", "8",
            "--synth", synth, "--out", str(tmp_path),
        ])
        assert seen == {"synthesize_gate": calls, "_kak_layers": calls}
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

    def test_amps_file_target(self, tmp_path, rng):
        state = statevec.from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
        path = tmp_path / "target.amps"
        statevec.save_amplitudes(state, path)
        run_cli([
            "compile", "--target", str(path), "--scheme", "ttn", "--n", "4",
            "--out", str(tmp_path),
        ])
        assert (tmp_path / "report.json").exists()


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
        import csv as csvmod

        lines = (tmp_path / "results.csv").read_text().splitlines()
        row = next(csvmod.DictReader(lines[1:]))
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
