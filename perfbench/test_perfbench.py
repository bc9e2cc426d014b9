"""Tests of the benchmark itself, on tiny inputs (``--tiny``), a few seconds each."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_audit", "tuning_session", "service_closed_loop", "sharded_sweep")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1.5", "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert "failed_ratio: 0.0000" in done.stdout
    assert "output check: PASS" in done.stdout


def test_traced_run_reports_every_layer_metric():
    done = _run("--workload", "sharded_sweep", "--seed", "3", "--seconds", "2", "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert metrics["executor.shards"]["value"] > 0 and metrics["executor.wait_s"]["value"] > 0
    assert metrics["service.sessions_created"]["value"] == 0
    assert "trace.overhead" in done.stdout


#: Runs a command as a child subreaper, so that any process the command leaves
#: behind is re-parented here, and reports whether one was.
_ORPHAN_PROBE = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
subprocess.run(sys.argv[1:], check=True, capture_output=True)
try:
    os.waitpid(-1, os.WNOHANG)
    print("left a process behind")
except ChildProcessError:
    print("no process left")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
def test_no_process_outlives_a_run():
    # sharded_sweep starts worker processes and multiprocessing's resource
    # tracker, which ends only after the run's interpreter has exited.
    command = [sys.executable, "-c", _ORPHAN_PROBE, sys.executable, "perfbench/run.py",
               "--workload", "sharded_sweep", "--seed", "3", "--seconds", "1", "--trace", "0",
               "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "no process left"


def test_same_seed_gives_the_same_requests():
    args = ("--workload", "service_closed_loop", "--seconds", "4", "--dry-run", "--tiny")
    first = _run(*args, "--seed", "5")
    second = _run(*args, "--seed", "5")
    other = _run(*args, "--seed", "6")
    assert first.returncode == 0, first.stderr
    assert '"new_query"' in first.stdout
    assert first.stdout == second.stdout
    assert first.stdout != other.stdout


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "cold_audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_restores_every_wrapped_name():
    from perfbench.tracing import ACCUMULATED, COUNTED, SPANNED, Tracer, _resolve

    entries = [(path, attribute) for path, attribute, _ in (*SPANNED, *ACCUMULATED, *COUNTED)]
    before = {entry: vars(_resolve(entry[0]))[entry[1]] for entry in entries}
    parallel = _resolve("repro.core.engine.parallel")
    real_time = parallel.time
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(_resolve(p))[a] is not before[(p, a)] for p, a in entries)
        assert parallel.time is not real_time
    finally:
        tracer.uninstall()
    assert all(vars(_resolve(p))[a] is before[(p, a)] for p, a in entries)
    assert parallel.time is real_time
