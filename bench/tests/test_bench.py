"""Self-test of the benchmark at toy size.

Run from the repository root:  python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_reports_every_metric(tmp_path, name, trace):
    record = run.run(name, 7, 0, trace, ROOT, tmp_path, toy=True)
    assert record["failures"] == []
    line = run.summary_line(record)
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert line["metrics"]["trace.coverage"]["value"] >= 0.9
        assert record["notes"]["untraced_call_sites"] == "none"
        assert record["notes"]["counter_hooks_failed"] == "none"
    else:
        assert record["metrics"]["error_rate"]["value"] == 0.0


def test_corrupted_report_counts_as_failure(tmp_path):
    fixture = workloads.build("coded-design", 0, tmp_path, toy=True)
    out = tmp_path / "out"
    out.mkdir()
    command = workloads.WORKLOADS["coded-design"].script(fixture, out)[0]
    assert run.spawn(command.args, run.program_env(ROOT), tmp_path).code == 0
    verifier = run.Verifier([command], out)
    verifier.record(command, None)
    assert verifier.failures == []

    report_path = out / command.outputs[0]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["model"]["coefficients"][0]["coef"] += 1.0
    report_path.write_text(json.dumps(report), encoding="utf-8")
    verifier.record(command, None)  # a later pass that differs from the first
    assert len(verifier.failures) == 1
    fresh = run.Verifier([command], out)
    fresh.record(command, None)  # a first pass that fails the oracle
    assert len(fresh.failures) == 1


def test_peak_rss_is_the_command_own(tmp_path):
    # A child's ru_maxrss also counts the peak of the process it was
    # started from; the launcher keeps this process's memory out of it.
    ballast = bytearray(150 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    sample = run.spawn(["--help"], run.program_env(ROOT), tmp_path)
    assert sample.code == 0
    assert 10 < sample.rss_mb < 150


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "coded-design", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
