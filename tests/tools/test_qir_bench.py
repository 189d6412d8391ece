"""End-to-end tests for the qir-bench CLI (run / diff / check)."""

import json
import os

import pytest

from repro.obs.snapshot import SCHEMA_VERSION, BenchSnapshot
from repro.tools.qir_bench import load_budgets
from repro.tools.qir_bench import main as bench_main
from repro.tools.qir_opt import main as opt_main
from repro.workloads.qir_programs import bell_qir


@pytest.fixture
def snapshot_file(tmp_path):
    """A real (fast) suite run written to disk."""
    path = str(tmp_path / "a.json")
    code = bench_main(
        ["run", "-o", path, "--repeats", "2", "--shots", "10",
         "--examples-dir", str(tmp_path / "missing")]
    )
    assert code == 0
    return path


# Every budgets-file gate holds on these values, on any host.
PASSING_GATES = {
    "runtime.scheduler.batched_speedup": 1.5,
    "runtime.scheduler.process_speedup": 1.6,
    "runtime.scheduler.queue_imbalance": (1.2, {"contiguous_imbalance": 2.5}),
    "runtime.plan.disk_warm_speedup": 2.0,
    "runtime.fusion.speedup": 3.0,
    "runtime.plan.dist_warm_speedup": 9.0,
}


def _write_snapshot(path, values) -> str:
    """A hand-built snapshot: ``name -> value`` or ``name -> (value, metadata)``."""
    snapshot = BenchSnapshot(group="qir-bench")
    for name, value in values.items():
        value, metadata = value if isinstance(value, tuple) else (value, {})
        snapshot.record(name, value, "ratio", direction="higher", metadata=metadata)
    snapshot.write_json(str(path))
    return str(path)


@pytest.fixture
def passing_snapshot(tmp_path):
    return _write_snapshot(tmp_path / "passing.json", PASSING_GATES)


class TestRun:
    def test_writes_schema_versioned_snapshot(self, snapshot_file, capsys):
        payload = json.loads(open(snapshot_file).read())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["group"] == "qir-bench"
        assert "python" in payload["environment"]
        # The snapshot joins against ledger rows via its own run id.
        from repro.obs.runctx import is_run_id

        assert is_run_id(payload["environment"]["run_id"])
        names = [r["name"] for r in payload["records"]]
        # All three suites contributed.
        assert any(n.startswith("parse.") for n in names)
        assert any(n.startswith("passes.o1.") for n in names)
        assert any(n.startswith("passes.unroll.") for n in names)
        assert any(n.startswith("runtime.ex5.") for n in names)
        # Median-of-k spread and units on every timing record.
        for record in payload["records"]:
            assert record["unit"]
            if record["name"].endswith(".seconds"):
                assert record["k"] == 2
                assert record["min"] <= record["median"] <= record["max"]

    def test_records_fastpath_speedup_ratio(self, snapshot_file):
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["runtime.ex5.ghz10.fastpath_speedup"]
        assert record["unit"] == "ratio"
        assert record["direction"] == "higher"
        assert record["value"] > 1.0  # sampling beats per-shot re-interpretation

    def test_records_scheduler_speedups(self, snapshot_file):
        # Acceptance: the default run (one deferred-measurement evolution)
        # beats per-shot serial interpretation on the non-Clifford
        # reset-chain workload.
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        batched = by_name["runtime.scheduler.batched_speedup"]
        assert batched["unit"] == "ratio"
        assert batched["direction"] == "higher"
        assert batched["value"] > 1.0
        assert by_name["runtime.scheduler.serial_shots_per_second"]["value"] > 0

    def test_records_worker_imbalance(self, snapshot_file):
        # The work-stealing evidence: slowest / median worker busy time
        # from a real traced process run; 1.0 means perfectly balanced.
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["runtime.scheduler.worker_imbalance"]
        assert record["unit"] == "ratio"
        assert record["direction"] == "lower"
        assert record["value"] >= 1.0
        assert record["metadata"]["workers"] >= 2

    def test_records_queue_imbalance_with_contiguous_baseline(
        self, snapshot_file
    ):
        # The queue's case on the uneven (fault-retry skew) workload: the
        # record is the queue arm, and the contiguous arm it replaced
        # rides in the metadata so diffs can hold the improvement.
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["runtime.scheduler.queue_imbalance"]
        assert record["unit"] == "ratio"
        assert record["direction"] == "lower"
        assert record["value"] >= 1.0
        assert record["metadata"]["contiguous_imbalance"] >= 1.0
        assert "uneven" in record["metadata"]["workload"]
        # Effective dispatch configuration is stamped into the
        # environment block alongside the run id.
        assert int(payload["environment"]["scheduler_jobs"]) >= 2
        assert payload["environment"]["chunk_sizing"] == "guided"

    def test_records_trace_analyze_seconds(self, snapshot_file):
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["obs.trace.analyze_seconds"]
        assert record["unit"] == "seconds"
        assert record["direction"] == "lower"
        assert record["k"] == 2
        assert record["value"] > 0
        assert record["metadata"]["spans"] > 0

    def test_records_process_speedup(self, snapshot_file):
        # Presence and shape only: the >1.0 win needs a multi-core
        # machine and is enforced by the CI regression gate, not here.
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        record = by_name["runtime.scheduler.process_speedup"]
        assert record["unit"] == "ratio"
        assert record["direction"] == "higher"
        assert record["value"] > 0
        assert record["metadata"]["jobs"] >= 2

    def test_records_plan_cache_warm_speedup(self, snapshot_file):
        payload = json.loads(open(snapshot_file).read())
        by_name = {r["name"]: r for r in payload["records"]}
        warm = by_name["runtime.plan.disk_warm_speedup"]
        assert warm["unit"] == "ratio"
        assert warm["direction"] == "higher"
        assert warm["metadata"]["pipeline"] == "unroll"
        # Deserialization skips parse+verify+passes+analysis, so the warm
        # path wins even on a loaded single-core machine.
        assert warm["value"] > 1.0
        assert by_name["runtime.plan.cold_compile_seconds"]["value"] > 0
        assert by_name["runtime.plan.disk_warm_seconds"]["value"] > 0

    def test_examples_dir_parsed_when_present(self, tmp_path, capsys):
        (tmp_path / "bell.ll").write_text(bell_qir("static"))
        out = str(tmp_path / "snap.json")
        assert bench_main(
            ["run", "-o", out, "--repeats", "1", "--suite", "parse",
             "--examples-dir", str(tmp_path)]
        ) == 0
        names = [r["name"] for r in json.loads(open(out).read())["records"]]
        assert "parse.example_bell.seconds" in names
        assert "parse.example_bell.tokens_per_second" in names

    def test_stdout_when_no_output_file(self, capsys):
        assert bench_main(
            ["run", "--repeats", "1", "--suite", "passes",
             "--examples-dir", "does-not-exist"]
        ) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["schema_version"] == SCHEMA_VERSION
        assert "qir-bench run" in captured.err

    def test_unknown_suite_rejected(self, capsys):
        assert bench_main(["run", "--suite", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err


class TestDiff:
    def test_self_diff_passes_with_table(self, snapshot_file, capsys):
        assert bench_main(["diff", snapshot_file, snapshot_file]) == 0
        err = capsys.readouterr().err
        assert "qir-bench diff" in err
        assert "-> PASS" in err

    def test_regression_exits_4_with_table(self, snapshot_file, tmp_path, capsys):
        payload = json.loads(open(snapshot_file).read())
        for record in payload["records"]:
            if record["name"] == "passes.unroll.counted_loop16.seconds":
                record["value"] *= 3
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(payload))
        assert bench_main(
            ["diff", snapshot_file, str(worse), "--threshold", "0.25"]
        ) == 4
        err = capsys.readouterr().err
        assert "regression" in err
        assert "passes.unroll.counted_loop16.seconds" in err

    def test_json_on_request(self, snapshot_file, capsys):
        assert bench_main(["diff", snapshot_file, snapshot_file, "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["passed"] is True
        assert payload["exit_code"] == 0

    def test_record_threshold_override_rescues_noisy_record(
        self, tmp_path, capsys
    ):
        # worker_imbalance carries a 0.5 threshold in the budgets file, so
        # a 40% move the wrong way passes; the same move on an unlisted
        # record fails at the global 0.25.
        noisy = "runtime.scheduler.worker_imbalance"
        assert load_budgets()["record_thresholds"][noisy] == 0.5
        base = {noisy: 1.0, "passes.o1.counted_loop16.seconds": 1.0}
        baseline = _write_snapshot(tmp_path / "base.json", base)
        listed = _write_snapshot(tmp_path / "listed.json", {**base, noisy: 0.6})
        unlisted = _write_snapshot(
            tmp_path / "unlisted.json",
            {**base, "passes.o1.counted_loop16.seconds": 0.6},
        )
        assert bench_main(["diff", baseline, listed]) == 0
        assert bench_main(["diff", baseline, unlisted]) == 4

    @pytest.mark.parametrize("payload", [
        [1],
        {"schema_version": 1, "records": [1]},
        {"schema_version": 1, "records": None},
        {"schema_version": 1,
         "records": [{"name": "a", "value": 1.0, "metadata": [1]}]},
        {"schema_version": 1, "records": [{"name": "a", "value": float("nan")}]},
    ], ids=["list", "int_record", "null_records", "list_metadata", "nan_value"])
    def test_malformed_snapshot_is_usage_error(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        good = _write_snapshot(tmp_path / "good.json", {"a": 1.0})
        assert bench_main(["diff", good, str(path)]) == 2
        assert bench_main(["diff", str(path), good]) == 2
        assert "error" in capsys.readouterr().err

    def test_unreadable_snapshot_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert bench_main(["diff", missing, missing]) == 2
        assert "error" in capsys.readouterr().err

    def test_legacy_unversioned_json_rejected(self, tmp_path, capsys):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"group": "obs", "records": []}))
        assert bench_main(["diff", str(legacy), str(legacy)]) == 2
        assert "schema_version" in capsys.readouterr().err


class TestCheck:
    def test_default_budgets_pass(self, passing_snapshot, capsys):
        assert bench_main(["check", "--strict", "--snapshot", passing_snapshot]) == 0
        assert "PASS" in capsys.readouterr().err

    def test_seeded_bust_fails_strict(self, passing_snapshot, capsys):
        assert bench_main(
            ["check", "--strict", "--snapshot", passing_snapshot,
             "--budget", "loop-unroll=0.0"]
        ) == 4
        err = capsys.readouterr().err
        assert "budget bust" in err
        assert "loop-unroll" in err
        assert "FAIL" in err

    def test_seeded_bust_warns_without_strict(self, passing_snapshot, capsys):
        assert bench_main(
            ["check", "--snapshot", passing_snapshot, "--budget", "loop-unroll=0.0"]
        ) == 0
        assert "WARN" in capsys.readouterr().err

    def test_pipeline_selection(self, passing_snapshot, capsys):
        # A loop-unroll bust cannot fire in the o1 pipeline (no such pass).
        assert bench_main(
            ["check", "--strict", "--snapshot", passing_snapshot,
             "--pipeline", "o1", "--budget", "loop-unroll=0.0"]
        ) == 0

    def test_bad_budget_spec_is_usage_error(self, passing_snapshot, capsys):
        assert bench_main(
            ["check", "--snapshot", passing_snapshot, "--budget", "nonsense"]
        ) == 2

    def test_snapshot_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["check", "--strict"])
        assert exit_info.value.code == 2

    def test_unloadable_snapshot_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"schema_version": 1, "records": '
            '[{"name": "runtime.fusion.speedup", "value": NaN}]}'
        )
        assert bench_main(["check", "--strict", "--snapshot", str(path)]) == 2
        assert "finite" in capsys.readouterr().err


def _without(name):
    return {k: v for k, v in PASSING_GATES.items() if k != name}


# One row per gate boundary: (changed records, host CPUs, exit code).  The
# verdicts match the regression-gate scripts the budgets file replaced.
GATE_CASES = {
    "all_pass": ({}, 2, 0),
    "batched_at_1": ({"runtime.scheduler.batched_speedup": 1.0}, 2, 4),
    "batched_above_1": ({"runtime.scheduler.batched_speedup": 1.001}, 2, 0),
    "process_at_1_2cpu": ({"runtime.scheduler.process_speedup": 1.0}, 2, 4),
    "process_at_1_1cpu_skips": (
        {"runtime.scheduler.process_speedup": 1.0}, 1, 0),
    "process_above_1": ({"runtime.scheduler.process_speedup": 1.001}, 2, 0),
    "queue_at_floor": (
        {"runtime.scheduler.queue_imbalance": (1.5, {"contiguous_imbalance": 1.0})},
        2, 0),
    "queue_above_floor": (
        {"runtime.scheduler.queue_imbalance": (1.51, {"contiguous_imbalance": 1.0})},
        2, 4),
    "queue_under_scaled_contiguous": (
        {"runtime.scheduler.queue_imbalance": (2.2, {"contiguous_imbalance": 2.5})},
        2, 0),
    "queue_over_scaled_contiguous": (
        {"runtime.scheduler.queue_imbalance": (2.3, {"contiguous_imbalance": 2.5})},
        2, 4),
    "queue_missing_contiguous": (
        {"runtime.scheduler.queue_imbalance": (1.0, {})}, 2, 4),
    "queue_nan_contiguous": (
        {"runtime.scheduler.queue_imbalance": (1.0, {"contiguous_imbalance": float("nan")})},
        2, 4),
    "disk_warm_at_1": ({"runtime.plan.disk_warm_speedup": 1.0}, 2, 4),
    "fusion_at_1": ({"runtime.fusion.speedup": 1.0}, 2, 4),
    "dist_warm_at_5": ({"runtime.plan.dist_warm_speedup": 5.0}, 2, 4),
    "dist_warm_above_5": ({"runtime.plan.dist_warm_speedup": 5.01}, 2, 0),
}


class TestBudgetGates:
    @pytest.mark.parametrize(
        "changes, cpus, expected", list(GATE_CASES.values()), ids=list(GATE_CASES)
    )
    def test_gate_boundaries(
        self, tmp_path, monkeypatch, capsys, changes, cpus, expected
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        path = _write_snapshot(tmp_path / "s.json", {**PASSING_GATES, **changes})
        assert bench_main(["check", "--strict", "--snapshot", path]) == expected
        err = capsys.readouterr().err
        assert ("gate FAIL" in err) == (expected == 4)

    @pytest.mark.parametrize("missing", sorted(PASSING_GATES))
    def test_missing_record_fails(self, tmp_path, monkeypatch, capsys, missing):
        # Missing beats the CPU skip: the old script also failed first.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        path = _write_snapshot(tmp_path / "s.json", _without(missing))
        assert bench_main(["check", "--strict", "--snapshot", path]) == 4
        assert f"missing record {missing}" in capsys.readouterr().err

    def test_budgets_file_holds_every_threshold(self):
        budgets = load_budgets()
        gates = {g["record"]: g for g in budgets["gates"]}
        assert gates["runtime.scheduler.batched_speedup"]["above"] == 1.0
        process = gates["runtime.scheduler.process_speedup"]
        assert (process["above"], process["min_cpus"]) == (1.0, 2)
        queue = gates["runtime.scheduler.queue_imbalance"]
        assert (queue["at_most"], queue["metadata_scale"]) == (1.5, 0.9)
        assert queue["at_most_metadata"] == "contiguous_imbalance"
        assert gates["runtime.plan.disk_warm_speedup"]["above"] == 1.0
        assert gates["runtime.fusion.speedup"]["above"] == 1.0
        assert gates["runtime.plan.dist_warm_speedup"]["above"] == 5.0
        assert budgets["record_thresholds"] == {
            name: 0.5 for name in (
                "runtime.scheduler.process_speedup",
                "runtime.scheduler.worker_imbalance",
                "runtime.scheduler.queue_imbalance",
                "runtime.fusion.speedup",
                "runtime.plan.dist_warm_speedup",
            )
        }

    def test_real_snapshot_records_every_gated_name(self, snapshot_file):
        # Every gate names a record the suite really writes, so a rename
        # cannot leave a gate failing on "missing record" forever.
        names = {r.name for r in BenchSnapshot.load(snapshot_file).records}
        for gate in load_budgets()["gates"]:
            assert gate["record"] in names

    def test_ratio_records_carry_both_arms_spread(self, snapshot_file):
        by_name = BenchSnapshot.load(snapshot_file).by_name()
        for name in (
            "runtime.ex5.ghz10.fastpath_speedup",
            "runtime.fusion.speedup",
            "runtime.plan.dist_warm_speedup",
            "runtime.scheduler.batched_speedup",
            "runtime.scheduler.process_speedup",
            "runtime.scheduler.recovery_overhead",
            "runtime.plan.disk_warm_speedup",
        ):
            record = by_name[name]
            assert record.k == 2
            for arm in ("baseline", "candidate"):
                spread = record.metadata[arm]
                assert spread["min"] <= spread["median"] <= spread["max"]


class TestQirOptBudgetSurface:
    def test_seeded_bust_warns_in_profile_output(self, tmp_path, capsys):
        from repro.workloads.qir_programs import counted_loop_qir

        path = tmp_path / "loop.ll"
        path.write_text(counted_loop_qir(4))
        assert opt_main(
            [str(path), "--pipeline", "unroll", "--profile",
             "--budget", "loop-unroll=0.0", "-o", str(tmp_path / "out.ll")]
        ) == 0
        err = capsys.readouterr().err
        assert "qir-opt: warning: budget bust" in err
        assert "-- budget busts --" in err  # the --profile table section
        assert "loop-unroll" in err

    def test_no_warning_within_budget(self, tmp_path, capsys):
        from repro.workloads.qir_programs import counted_loop_qir

        path = tmp_path / "loop.ll"
        path.write_text(counted_loop_qir(4))
        assert opt_main(
            [str(path), "--pipeline", "unroll", "--profile",
             "-o", str(tmp_path / "out.ll")]
        ) == 0
        err = capsys.readouterr().err
        assert "budget bust" not in err

    def test_bad_budget_spec_rejected(self, tmp_path, capsys):
        from repro.workloads.qir_programs import counted_loop_qir

        path = tmp_path / "loop.ll"
        path.write_text(counted_loop_qir(4))
        assert opt_main([str(path), "--budget", "bad-spec"]) == 1
        assert "invalid budget spec" in capsys.readouterr().err
