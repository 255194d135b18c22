"""Tests for the command-line interface."""

import json

from repro.accounting import loads_report
from repro.circuits import dot_product_circuit, dumps as dump_circuit
from repro.cli import main


class TestTable1Command:
    def test_prints_all_cells(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "1093/1093" in out     # the f=20% headline cell
        assert out.count("⊥") >= 8    # the infeasible cells


class TestPlanCommand:
    def test_feasible_cell(self, capsys):
        assert main(["plan", "20000", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "1,093" in out or "1093" in out

    def test_infeasible_cell(self, capsys):
        assert main(["plan", "1000", "0.25"]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_conservative_flag(self, capsys):
        assert main(["plan", "5000", "0.1", "--conservative"]) == 0
        out = capsys.readouterr().out
        assert "0.08" in out  # the stricter gap


class TestRunCommand:
    def test_run_circuit_file(self, tmp_path, capsys):
        circuit_path = tmp_path / "circuit.json"
        circuit_path.write_text(dump_circuit(dot_product_circuit(2)))
        inputs_path = tmp_path / "inputs.json"
        inputs_path.write_text(json.dumps({"alice": [3, 4], "bob": [5, 6]}))
        report_path = tmp_path / "report.json"
        code = main([
            "run", "--circuit", str(circuit_path),
            "--inputs", str(inputs_path),
            "--n", "4", "--epsilon", "0.2", "--seed", "1",
            "--report", str(report_path),
        ])
        assert code == 0
        outputs = json.loads(capsys.readouterr().out)
        assert outputs == {"alice": [39]}
        report = loads_report(report_path.read_text())
        assert report["parameters"]["n"] == 4
        assert "trace" not in report

    def test_missing_file_is_an_error(self, capsys):
        assert main(["run", "--circuit", "/nope.json", "--inputs", "/nope2.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_inputs_shape(self, tmp_path, capsys):
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(dump_circuit(dot_product_circuit(2)))
        inputs_path = tmp_path / "i.json"
        inputs_path.write_text("[1, 2, 3]")
        assert main([
            "run", "--circuit", str(circuit_path), "--inputs", str(inputs_path)
        ]) == 1


class TestDemoCommand:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--n", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "'alice': [112]" in out  # 2·7 + 3·11 + 5·13


class TestTraceCommand:
    def test_traced_run_writes_spans_and_counters(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "trace", "--width", "2", "--n", "4", "--epsilon", "0.2",
            "--seed", "1", "--report", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "online.mul" in out
        assert "recoveries/gate" in out
        report = loads_report(report_path.read_text())
        assert report["parameters"]["n"] == 4
        per_phase = report["trace"]["counters_by_phase"]
        assert per_phase["online.mul"]["reencrypt.recovery"] > 0
        assert per_phase["offline"]["paillier.encrypt"] > 0
        assert {s["kind"] for s in report["trace"]["spans"]} >= {"phase", "round"}

    def test_circuit_requires_inputs(self, tmp_path, capsys):
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(dump_circuit(dot_product_circuit(2)))
        assert main(["trace", "--circuit", str(circuit_path)]) == 1
        assert "--inputs" in capsys.readouterr().err

    def test_bad_inputs_shape_rejected_like_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.core.run_mpc", None)  # must not be reached
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(dump_circuit(dot_product_circuit(2)))
        inputs_path = tmp_path / "i.json"
        inputs_path.write_text("[1, 2, 3]")
        files = ["--circuit", str(circuit_path), "--inputs", str(inputs_path)]
        assert main(["run", *files]) == 1
        message = capsys.readouterr().err
        assert "inputs file must map client names" in message
        assert main(["trace", *files]) == 1
        assert capsys.readouterr().err == message


class TestExtrapolateCommand:
    """``repro cost --extrapolate``: Table 1 rows, plus one at --n/--epsilon."""

    ARGS = ["cost", "--extrapolate", "--skip-measured"]

    def test_factor_reported(self, capsys):
        assert main(self.ARGS) == 0
        table1 = capsys.readouterr().out.splitlines()
        assert [row.split()[-1] for row in table1[-3:]] == ["28", "4,645", "1,093"]
        assert main([*self.ARGS, "--n", "20000", "--epsilon", "0.05"]) == 0
        extended = capsys.readouterr().out.splitlines()
        assert extended[:-1] == table1
        # k = ⌊n·ε⌋ = 1000 gates per batch, so the 1000× regime.
        assert extended[-1].split()[:2] == ["20,000", "1,000"]  # C, f blank
        assert extended[-1].split()[-1] == "1,000"

    def test_bad_epsilon_is_an_error(self, capsys):
        assert main([*self.ARGS, "--n", "100", "--epsilon", "0.9"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestServiceCommands:
    def test_announce_submit_serve_chain(self, tmp_path, capsys):
        # announce: write the epoch-0 announcement a detached client needs.
        ann_path = tmp_path / "ann.bin"
        assert main([
            "announce", "--workload", "auction", "--levels", "4",
            "--seed", "42", "--out", str(ann_path),
        ]) == 0
        assert "announcement" in capsys.readouterr().out

        # submit: build one out-of-process submission against that file.
        subs = tmp_path / "subs"
        subs.mkdir()
        assert main([
            "submit", "--announce", str(ann_path), "--client-id", "ext-001",
            "--value", "3", "--seed", "9", "--out", str(subs / "ext-001.bin"),
        ]) == 0
        assert "ext-001" in capsys.readouterr().out

        # serve: same seed reproduces the same epoch key, so the detached
        # submission lands alongside the simulated clients.
        report_path = tmp_path / "serve.json"
        check_path = tmp_path / "ann-check.bin"
        assert main([
            "serve", "--workload", "auction", "--levels", "4",
            "--seed", "42", "--clients", "5", "--epochs", "1",
            "--submissions", str(subs), "--announce-out", str(check_path),
            "--json", str(report_path),
        ]) == 0
        assert check_path.read_bytes() == ann_path.read_bytes()
        row = json.loads(report_path.read_text())["epochs"][0]
        assert row["population"] == 6          # 5 simulated + 1 file
        assert row["rejections"] == {}
        assert len(row["reshare_contributors"]) == 5
        assert row["decoded"]["winner_count"] >= 1

    def test_submit_rejects_non_announcement(self, tmp_path, capsys):
        from repro.wire import WireCodec

        bad = tmp_path / "bad.bin"
        bad.write_bytes(WireCodec().encode(123))
        assert main([
            "submit", "--announce", str(bad), "--client-id", "x",
            "--value", "1", "--out", str(tmp_path / "out.bin"),
        ]) == 1
        assert "not an epoch announcement" in capsys.readouterr().err

    def test_submit_missing_announcement_is_an_error(self, tmp_path, capsys):
        assert main([
            "submit", "--announce", str(tmp_path / "nope.bin"),
            "--client-id", "x", "--value", "1",
            "--out", str(tmp_path / "out.bin"),
        ]) == 1
        assert "error" in capsys.readouterr().err
