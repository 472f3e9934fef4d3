"""The perf regression gate (``benchmarks/check_perf_regression.py``).

CI runs the gate after the benchmark suite; these tests feed it
hand-written artifacts so its verdicts are checked without timing
anything: the substrate speedup tolerance, and the campaign-pool bars
that apply only on hosts with at least two CPUs.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_perf_regression", ROOT / "benchmarks" / "check_perf_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
FLOOR = gate.CAMPAIGN_WALL_SPEEDUP_FLOOR
CEILING = gate.CAMPAIGN_CPU_RATIO_CEILING


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


def _campaign_artifact(tmp_path, *, cpus=2, wall_speedup=1.3, cpu_ratio=1.2):
    return _write(tmp_path / "BENCH_campaign.json", {
        "version": 1,
        "available_cpus": cpus,
        "repetitions": 3,
        "jobs": {"1": {"wall_s": 2.6, "cpu_s": 2.5},
                 "2": {"wall_s": 2.0, "cpu_s": 3.0}},
        "wall_speedup": wall_speedup,
        "cpu_ratio": cpu_ratio,
    })


class TestCampaignGate:
    def test_within_both_bars_passes(self, tmp_path, capsys):
        assert gate.check_campaign(_campaign_artifact(tmp_path)) == 0
        assert "within its bars" in capsys.readouterr().out

    @pytest.mark.parametrize("wall_speedup,cpu_ratio", [
        (FLOOR, CEILING),
        (FLOOR + 0.5, 1.0),
    ])
    def test_bars_are_inclusive(self, tmp_path, wall_speedup, cpu_ratio):
        artifact = _campaign_artifact(tmp_path, wall_speedup=wall_speedup,
                                      cpu_ratio=cpu_ratio)
        assert gate.check_campaign(artifact) == 0

    def test_wall_speedup_below_floor_fails(self, tmp_path, capsys):
        artifact = _campaign_artifact(tmp_path, wall_speedup=FLOOR - 0.01)
        assert gate.check_campaign(artifact) == 1
        captured = capsys.readouterr()
        assert "wall speedup" in captured.err
        assert "CPU of jobs=1" not in captured.err

    def test_cpu_ratio_above_ceiling_fails(self, tmp_path, capsys):
        artifact = _campaign_artifact(tmp_path, cpu_ratio=CEILING + 0.01)
        assert gate.check_campaign(artifact) == 1
        captured = capsys.readouterr()
        assert "CPU of jobs=1" in captured.err
        assert "wall speedup" not in captured.err

    def test_both_regressions_are_reported(self, tmp_path, capsys):
        artifact = _campaign_artifact(tmp_path, wall_speedup=0.7, cpu_ratio=2.5)
        assert gate.check_campaign(artifact) == 1
        err = capsys.readouterr().err
        assert "wall speedup 0.70x" in err
        assert "2.50x the CPU" in err

    def test_single_cpu_host_skips_the_bars(self, tmp_path, capsys):
        artifact = _campaign_artifact(tmp_path, cpus=1, wall_speedup=0.5,
                                      cpu_ratio=3.0)
        assert gate.check_campaign(artifact) == 0
        assert "bars skipped: single CPU" in capsys.readouterr().out

    def test_every_side_is_reported(self, tmp_path, capsys):
        gate.check_campaign(_campaign_artifact(tmp_path))
        out = capsys.readouterr().out
        assert "jobs=1" in out and "jobs=2" in out

    def test_missing_artifact_fails(self, tmp_path, capsys):
        assert gate.check_campaign(tmp_path / "absent.json") == 1
        assert "test_campaign_scaling.py" in capsys.readouterr().err


class TestSubstrateGate:
    BASELINE = {"paths": {
        "cut_enumeration": {"speedup": 4.0},
        "informational": {"overhead_fraction": 0.01},
    }}

    def _check(self, tmp_path, current, tolerance=0.25):
        artifact = _write(tmp_path / "artifact.json", {"paths": current})
        baseline = _write(tmp_path / "baseline.json", self.BASELINE)
        return gate.check(artifact, baseline, tolerance)

    def test_speedup_within_tolerance_passes(self, tmp_path):
        assert self._check(tmp_path, {"cut_enumeration": {"speedup": 3.0}}) == 0

    def test_speedup_below_tolerance_fails(self, tmp_path, capsys):
        assert self._check(tmp_path, {"cut_enumeration": {"speedup": 2.9}}) == 1
        assert "cut_enumeration" in capsys.readouterr().err

    def test_path_missing_from_artifact_fails(self, tmp_path, capsys):
        assert self._check(tmp_path, {}) == 1
        assert "missing from artifact" in capsys.readouterr().err

    def test_entries_without_a_speedup_are_not_gated(self, tmp_path):
        current = {"cut_enumeration": {"speedup": 4.0}}
        assert self._check(tmp_path, current) == 0


def test_main_fails_when_only_the_campaign_gate_fails(tmp_path, monkeypatch):
    baseline = _write(tmp_path / "baseline.json",
                      {"paths": {"cut_enumeration": {"speedup": 4.0}}})
    artifact = _write(tmp_path / "artifact.json",
                      {"paths": {"cut_enumeration": {"speedup": 4.0}}})
    campaign = _campaign_artifact(tmp_path, wall_speedup=0.5)
    monkeypatch.setattr("sys.argv", [
        "check_perf_regression.py", "--artifact", str(artifact),
        "--baseline", str(baseline), "--campaign-artifact", str(campaign)])
    assert gate.main() == 1
