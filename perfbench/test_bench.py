"""Tests for the benchmark itself.

Every workload runs at a tiny size, untraced and traced, and must report
every metric BENCHMARK.json declares, with its unit. Run with

    python3 -m pytest perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    env = json.loads(lines[-2])["environment"]
    for key in ("nproc", "blas", "blas_threads", "numpy", "scipy", "python", "git_commit"):
        assert key in env
    assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sim1-exact", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _trial(**overrides):
    from sslogit.experiments import RunResult, TrialRecord

    records = []
    for method in workloads.METHODS:
        fields = dict(trial=0, seed=7, method=method, pe_percent=12.5, gamma1=0.3,
                      gamma2=0.0, log10_lambda=-1.5, gic=10.0, converged=True)
        fields.update(overrides.get(method, {}))
        records.append(TrialRecord(**fields))
    return RunResult("sim", 7, 1, workloads.METHODS, records, [])


@pytest.mark.parametrize("bad, message", [
    ({"pe_percent": 100.5}, "outside [0, 100]"),
    ({"gamma1": 0.35}, "off the grid"),
    ({"log10_lambda": -1.25}, "off the grid"),
    ({"log10_lambda": 3.0}, "off the grid"),
    ({"pe_percent": None, "error": "singular Hessian"}, "trial failed"),
])
def test_replication_check_flags_bad_records(bad, message):
    assert workloads.Replication.check(_trial()) == []
    errors = workloads.Replication.check(_trial(sslrcs=bad))
    assert len(errors) == 1 and message in errors[0]


def test_cli_check_flags_bad_predictions(tmp_path):
    wl = workloads.CliFitPredict(0, workloads.TINY)
    n = workloads.TINY.cli_predict
    rows = ["probability,label"] + ["0.75,1"] * (n - 1) + ["0.25,1"]
    path = tmp_path / "pred.csv"
    path.write_text("\n".join(rows) + "\n")
    out = workloads.CliOutput(0, 0, tmp_path / "model.json", path)
    assert wl.check(out) == ["label differs from probability > 0.5"]
    path.write_text("\n".join(rows[:-1]) + "\n")
    assert wl.check(out) == [f"{n - 1} output rows for {n} inputs"]
    assert wl.check(workloads.CliOutput(2, None, path, path)) == [
        "exit codes fit=2 predict=None"
    ]
