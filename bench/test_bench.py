"""Smoke test of the benchmark itself: ``pytest bench/``.

Runs every workload at ``--scale 0.02`` (a fiftieth of the measured
time), traced and untraced, and checks the contract the driver relies
on.  Not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from oracle import Oracle
from run import BENCH, OUT, ROOT, WORKLOAD_NAMES, load_spec, verdict
from workloads import Request


def _run(*args: str, cwd: str = ROOT):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return done, time.perf_counter() - start


def _digest(stdout: str) -> str:
    return re.search(r"request_digest (\w+)", stdout).group(1)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_contract(workload):
    spec = load_spec()
    digests = {}
    for seed, trace in ((1, "0"), (1, "1"), (2, "1")):
        done, seconds = _run("--workload", workload, "--seed", str(seed), "--scale", "0.02", "--trace", trace)
        assert done.returncode == 0, done.stderr
        assert seconds < 20.0
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }
        digests[seed, trace] = _digest(done.stdout)
    assert digests[1, "0"] == digests[1, "1"]
    assert digests[1, "1"] != digests[2, "1"]


def test_refuses_to_run_without_the_program():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done, _ = _run("--workload", "warm_repeat", "--scale", "0.02", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_oracle_rejects_wrong_counts():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    bell = Request("static", "", 1000, num_qubits=2, ops=(("h", (0,), ()), ("cnot", (0, 1), ())))
    oracle = Oracle()
    assert oracle.check(bell, {"00": 500, "11": 500}) is None
    assert "probability 0" in oracle.check(bell, {"00": 500, "01": 500})
    assert "TVD" in oracle.check(bell, {"00": 900, "11": 100})
    assert "sum to" in oracle.check(bell, {"00": 10})


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    slower = [v * 1.2 for v in parent]
    faster = [v * 0.8 for v in parent]
    noisy = [50.0, 150.0, 100.0, 80.0, 120.0]
    assert verdict(parent, slower, list(zip(parent, slower)), True, 0.1) == "worse"
    assert verdict(parent, faster, list(zip(parent, faster)), True, 0.1) == "better"
    assert verdict(parent, parent, list(zip(parent, parent)), True, 0.1) == "same"
    assert verdict(parent, noisy, [], True, 0.1) == "unresolved"
