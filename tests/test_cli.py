"""The experiment CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (["table1"], ["table2"], ["table2", "--model-check"],
                     ["table3"], ["overhead"], ["roam", "--clock", "hw64"],
                     ["flood", "--rate", "1.0"],
                     ["attest", "--scheme", "hmac-sha1"],
                     ["metrics", "--rounds", "3"],
                     ["bench", "fleet", "--json"],
                     ["bench", "all", "--out", "."]):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attest", "--scheme", "rot13"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "0.092" in out and "170.907" in out
        assert "754.032" in out   # 512 KB default

    def test_table1_custom_memory(self, capsys):
        assert main(["table1", "--ram-kb", "64"]) == 0
        assert "attestation of 64 KB" in capsys.readouterr().out

    def test_table2_model_check(self, capsys):
        assert main(["table2", "--model-check"]) == 0
        out = capsys.readouterr().out
        assert "delay, reorder, replay" in out

    def test_table2_model_check_strict(self, capsys):
        assert main(["table2", "--model-check", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "unrestricted adversary" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "5528" in out and "116" in out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "6038" in out and "5.76" in out

    def test_attest_round(self, capsys):
        assert main(["attest", "--ram-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "trusted=True" in out

    def test_flood_quick(self, capsys):
        assert main(["flood", "--rate", "0.2", "--duration", "10",
                     "--ram-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "ecdsa-secp160r1" in out

    def test_modelcheck_table(self, capsys):
        assert main(["modelcheck"]) == 0
        out = capsys.readouterr().out
        assert "timestamp+monotonic" in out
        # The monotonic row holds every property.
        row = [line for line in out.splitlines()
               if line.startswith("timestamp+monotonic")][0]
        assert "FAILS" not in row

    def test_swatt_topology(self, capsys):
        assert main(["swatt", "--trials", "3",
                     "--iterations", "2000"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out and "wan" in out

    def test_report_aggregation(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "alpha.txt").write_text("table A\n")
        (results / "beta.txt").write_text("table B\n")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "## alpha" in out and "table B" in out

    def test_report_to_file(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "alpha.txt").write_text("table A\n")
        output = tmp_path / "report.md"
        assert main(["report", "--results-dir", str(results),
                     "--output", str(output)]) == 0
        assert "table A" in output.read_text()

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", "--results-dir",
                     str(tmp_path / "nope")]) == 1

    def test_attest_json(self, capsys):
        import json
        assert main(["attest", "--ram-kb", "8", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"]["trusted"] is True
        assert summary["device"]["profile"] == "roam-hardened"
        assert summary["stats"]["accepted"] == 1
        assert 0 < summary["energy"]["consumed_mj"] < 100

    def test_metrics_to_stdout(self, capsys):
        import json
        assert main(["metrics", "--rounds", "1", "--ram-kb", "8"]) == 0
        captured = capsys.readouterr()
        assert "# OK: registry matches ProverStats" in captured.err
        # stdout carries trace JSONL followed by the registry dump.
        assert '"kind": "request-accepted"' in captured.out
        dump_start = captured.out.index('{\n  "metrics"')
        dump = json.loads(captured.out[dump_start:])
        assert dump["schema"] == "repro.obs.registry/v1"

    @pytest.fixture
    def small_fleet(self, monkeypatch):
        """``repro bench`` takes no sizing flags; tests shrink the fleet
        declaration itself."""
        import functools

        from repro.perf import fleet
        monkeypatch.setattr(fleet, "run", functools.partial(
            fleet.run, fleet_size=8, ram_kb=64, sweeps=1, workers=2,
            equivalence_size=4))

    def test_fleet_bench_json(self, capsys, tmp_path, small_fleet):
        import json

        from repro.perf import bench
        code = main(["bench", "fleet", "--json", "--out", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert bench.validate(report) == []
        assert report["bench"] == "fleet"
        assert report["host"]["cpus"] >= 1
        assert report["equivalence"]["identical"] is True
        assert code == (0 if all(gate["passed"]
                                 for gate in report["gates"]) else 1)
        assert json.loads((tmp_path / "BENCH_fleet.json").read_text()) \
            == report

    def test_fleet_gate_below_2x_fails_the_command(self, capsys, tmp_path,
                                                   small_fleet, monkeypatch):
        """A fleet whose sharded engine sweeps slower than 2x the
        sequential path exits non-zero; the report still records the
        failing gate."""
        import json
        import time

        from repro.perf import fleet
        sweep = fleet.FleetEngine.sweep

        def slow_sweep(self, **kwargs):
            time.sleep(0.2)
            return sweep(self, **kwargs)

        monkeypatch.setattr(fleet.FleetEngine, "sweep", slow_sweep)
        assert main(["bench", "fleet", "--json",
                     "--out", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        gate = {entry["name"]: entry for entry in report["gates"]}
        assert gate["sweep_speedup"]["threshold"] == 2.0
        assert gate["sweep_speedup"]["value"] < 2.0
        assert gate["sweep_speedup"]["passed"] is False
        assert report["equivalence"]["identical"] is True

    def test_metrics_to_files(self, tmp_path):
        """Both exports validate against their schemas and carry the
        protocol's core events and metrics."""
        import json

        from repro.obs import validate_jsonl_trace, validate_registry_dump
        trace = tmp_path / "trace.jsonl"
        registry = tmp_path / "registry.json"
        assert main(["metrics", "--rounds", "2", "--ram-kb", "8",
                     "--trace-out", str(trace),
                     "--registry-out", str(registry)]) == 0
        assert validate_jsonl_trace(trace.read_text()) == []
        dump = json.loads(registry.read_text())
        assert validate_registry_dump(dump) == []
        kinds = {json.loads(line)["kind"]
                 for line in trace.read_text().splitlines() if line}
        assert {"request-received", "request-accepted",
                "measurement-start", "measurement-end",
                "channel-send"} <= kinds
        names = {metric["name"] for metric in dump["metrics"]}
        assert {"prover.requests.received", "prover.requests.accepted",
                "prover.attestation_cycles", "cpu.cycles",
                "channel.sent"} <= names

    @pytest.mark.parametrize("command, flag, stale", [
        ("lint", "--waivers",
         [{"rule": "DET002", "path": "src/repro/gone.py",
           "reason": "waives nothing"}]),
        ("taint", "--policy",
         {"policy_sinks": [{"kind": "blob-store",
                            "path": "src/repro/gone.py",
                            "reason": "matches no sink"}]}),
    ], ids=["lint", "taint"])
    def test_stale_entry_fails_unless_allowed(self, tmp_path, command,
                                              flag, stale):
        """A waiver or policy entry matching nothing fails the command;
        ``--allow-stale`` is the only escape."""
        import json
        module = tmp_path / "src" / "repro" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text("VALUE = 1\n")
        (tmp_path / "stale.json").write_text(json.dumps(stale))
        argv = [command, "--root", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv + [flag, "stale.json"]) == 1
        assert main(argv + [flag, "stale.json", "--allow-stale"]) == 0

    @pytest.mark.parametrize("command", ["lint", "taint", "analyze"])
    @pytest.mark.parametrize("root", ["missing", "empty"])
    def test_scan_of_nothing_fails(self, capsys, tmp_path, command, root):
        """A root that does not exist, or holds no Python file, is a
        configuration error naming the path, not a vacuous pass."""
        path = tmp_path / root
        if root == "empty":
            (path / "src" / "repro").mkdir(parents=True)
        assert main([command, "--root", str(path)]) == 1
        assert str(path) in capsys.readouterr().err
