"""Tier-1 wiring for ``scripts/bench_schema_check.py``.

Every checked-in ``BENCH_*.json`` artefact must validate against the
one ``repro.perf.bench/v1`` envelope in one pass, and an artefact in
any other format must fail loudly -- a new benchmark cannot land a
report format CI never looks at.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "bench_schema_check.py"
ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}


def run_check(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, env=ENV)


class TestBenchSchemaCheck:
    def test_all_checked_in_artifacts_validate(self):
        proc = run_check()
        assert proc.returncode == 0, proc.stderr
        assert "bench-schema-check: OK" in proc.stderr

    def test_every_artifact_is_covered(self):
        """The one-pass run must see every BENCH_*.json at the root."""
        proc = run_check()
        for path in sorted(REPO.glob("BENCH_*.json")):
            assert path.name in proc.stderr

    def test_unknown_artifact_fails(self, tmp_path):
        rogue = tmp_path / "BENCH_rogue.json"
        rogue.write_text(json.dumps({"schema": "repro.perf.rogue/v1"}))
        proc = run_check(str(rogue))
        assert proc.returncode == 1
        assert "bench.schema: 'repro.perf.rogue/v1' not in allowed" \
            in proc.stderr

    def test_corrupt_artifact_fails(self, tmp_path):
        broken = tmp_path / "BENCH_snapshot.json"
        broken.write_text("{not json\n")
        proc = run_check(str(broken))
        assert proc.returncode == 1
        assert "unreadable" in proc.stderr

    def test_schema_violation_fails(self, tmp_path):
        source = json.loads((REPO / "BENCH_snapshot.json").read_text())
        del source["gates"]
        mutated = tmp_path / "BENCH_snapshot.json"
        mutated.write_text(json.dumps(source))
        proc = run_check(str(mutated))
        assert proc.returncode == 1
        assert "missing required key 'gates'" in proc.stderr

    def test_missing_host_cpus_fails(self, tmp_path):
        source = json.loads((REPO / "BENCH_fleet.json").read_text())
        del source["host"]["cpus"]
        mutated = tmp_path / "BENCH_fleet.json"
        mutated.write_text(json.dumps(source))
        proc = run_check(str(mutated))
        assert proc.returncode == 1
        assert "bench.host: missing required key 'cpus'" in proc.stderr

    def test_gate_without_threshold_fails(self, tmp_path):
        source = json.loads((REPO / "BENCH_incremental.json").read_text())
        del source["gates"][0]["threshold"]
        mutated = tmp_path / "BENCH_incremental.json"
        mutated.write_text(json.dumps(source))
        proc = run_check(str(mutated))
        assert proc.returncode == 1
        assert "bench.gates[0]: missing required key 'threshold'" \
            in proc.stderr
