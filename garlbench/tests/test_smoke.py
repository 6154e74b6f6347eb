"""Seconds-long runs of every workload through the real command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ["garlbench/run.py"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["train-k1", "train-k8", "serve-http"])
def test_workload_smoke(workload):
    from garlbench.run import END_TO_END

    result = _result(_run("--workload", workload, "--seed", "0",
                          "--seconds", "1", "--trace", "0"))
    assert set(result["metrics"]) == set(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        if not name.endswith("_p99_ms"):  # a 1 s run has no supported p99
            assert metric["value"] > 0, name


def test_traced_train_smoke_matches_untraced_digest():
    from garlbench.layers import PER_LAYER

    proc = _run("--workload", "train-k1", "--seed", "0", "--seconds", "1",
                "--trace", "1")
    result = _result(proc)
    assert set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["mc_gcn.forward_calls"]["value"] > 0
    assert result["metrics"]["engine.batches"]["value"] == 0
    record = json.loads(proc.stdout[:proc.stdout.rindex("\n{")])
    traced = [c for c in record["checks"] if c["check"].startswith("traced")]
    assert traced and all(c["ok"] for c in traced)


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(ROOT / "garlbench", tmp_path / "garlbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "train-k1", "--seed", "0", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
