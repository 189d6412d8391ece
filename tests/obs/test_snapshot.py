"""BenchSnapshot: schema versioning, median-of-k and A/B measurement,
round-trips, and fail-closed loading."""

import json

import pytest

from repro.obs.snapshot import (
    SCHEMA_VERSION,
    ArmComparison,
    BenchRecord,
    BenchSnapshot,
    TimingStats,
    environment_fingerprint,
    measure,
    measure_arms,
)


class TestTimingStats:
    def test_min_median_max(self):
        stats = TimingStats((0.5, 0.1, 0.3))
        assert stats.min == 0.1
        assert stats.median == 0.3
        assert stats.max == 0.5
        assert stats.k == 3

    def test_even_sample_median(self):
        stats = TimingStats((0.1, 0.2, 0.3, 0.4))
        assert stats.median == pytest.approx(0.25)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimingStats(())


class TestMeasure:
    def test_median_of_k_with_warmup(self):
        calls = []
        # A fake monotonic clock advancing 1.0 per reading: every timed
        # call therefore measures exactly 1.0s, deterministically.
        ticks = iter(range(100))

        stats = measure(
            lambda: calls.append(1),
            repeats=5,
            warmup=2,
            clock=lambda: float(next(ticks)),
        )
        assert len(calls) == 7  # 2 warmup + 5 timed
        assert stats.k == 5
        assert stats.min == stats.median == stats.max == 1.0

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)

    def test_real_clock_nonnegative(self):
        stats = measure(lambda: sum(range(100)), repeats=5)
        assert stats.k == 5
        assert stats.min >= 0.0
        assert stats.min <= stats.median <= stats.max


class TestMeasureArms:
    def test_baseline_block_then_candidate_block(self):
        calls = []
        ticks = iter(range(100))
        arms = measure_arms(
            lambda: calls.append("b"),
            lambda: calls.append("c"),
            repeats=3,
            warmup=1,
            shots=10,
            clock=lambda: float(next(ticks)),
        )
        assert calls == ["b"] * 4 + ["c"] * 4
        assert arms.baseline.k == arms.candidate.k == 3
        assert arms.speedup == 1.0
        assert arms.baseline_shots_per_second == 10.0

    def test_speedup_and_spread(self):
        arms = ArmComparison(
            TimingStats((0.4, 0.2, 0.3)), TimingStats((0.1, 0.05, 0.2)), shots=10
        )
        assert arms.speedup == pytest.approx(3.0)
        assert arms.candidate_shots_per_second == pytest.approx(100.0)
        assert arms.spread() == {
            "baseline": {"min": 0.2, "median": 0.3, "max": 0.4},
            "candidate": {"min": 0.05, "median": 0.1, "max": 0.2},
        }


@pytest.mark.parametrize(
    "baseline, candidate, speedup, baseline_rate, candidate_rate",
    [
        (0.1, 0.0, None, 80.0, 0.0),  # candidate below clock resolution
        (0.0, 0.1, 0.0, 0.0, 80.0),  # baseline below clock resolution
    ],
    ids=["zero_candidate", "zero_baseline"],
)
def test_zero_duration_arm_comparison_reports_none_not_inf(
    baseline, candidate, speedup, baseline_rate, candidate_rate
):
    arms = ArmComparison(
        TimingStats((baseline,)), TimingStats((candidate,)), shots=8
    )
    assert arms.speedup == speedup
    assert arms.baseline_shots_per_second == baseline_rate
    assert arms.candidate_shots_per_second == candidate_rate


class TestBenchRecord:
    def test_from_stats_carries_spread(self):
        record = BenchRecord.from_stats(
            "parse.x.seconds", TimingStats((0.2, 0.1, 0.3)), unit="seconds",
            tokens=42,
        )
        assert record.value == 0.2  # the median is the headline
        assert (record.min, record.median, record.max) == (0.1, 0.2, 0.3)
        assert record.k == 3
        assert record.metadata == {"tokens": 42}

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            BenchRecord("x", 1.0, "seconds", direction="sideways")

    def test_dict_roundtrip(self):
        record = BenchRecord(
            "runtime.speedup", 24.5, "ratio", direction="higher", k=5,
            min=20.0, median=24.5, max=30.0, metadata={"shots": 200},
        )
        clone = BenchRecord.from_dict(record.to_dict())
        assert clone == record

    def test_from_dict_requires_name_and_value(self):
        with pytest.raises(ValueError, match="missing name/value"):
            BenchRecord.from_dict({"unit": "seconds"})

    @pytest.mark.parametrize("payload", [
        1,
        ["name", "value"],
        {"name": "x", "value": float("nan")},
        {"name": "x", "value": float("inf")},
        {"name": "x", "value": "fast"},
        {"name": "x", "value": None},
        {"name": "x", "value": True},
        {"name": "x", "value": 1.0, "max": float("nan")},
        {"name": "x", "value": 1.0, "k": 0},
        {"name": "x", "value": 1.0, "k": "5"},
        {"name": "x", "value": 1.0, "metadata": [1, 2]},
        {"name": "x", "value": 1.0, "metadata": [["shots", 1]]},
    ], ids=[
        "int", "list", "nan", "inf", "string_value", "null_value",
        "bool_value", "nan_max", "zero_k", "string_k", "list_metadata",
        "pairs_metadata",
    ])
    def test_from_dict_rejects_malformed_records(self, payload):
        with pytest.raises(ValueError):
            BenchRecord.from_dict(payload)


class TestBenchSnapshot:
    def test_schema_version_stamped_and_roundtrips(self, tmp_path):
        snapshot = BenchSnapshot(group="qir-bench")
        snapshot.record("a.seconds", 0.5, "seconds")
        path = str(tmp_path / "snap.json")
        snapshot.write_json(path)

        raw = json.loads(open(path).read())
        assert raw["schema_version"] == SCHEMA_VERSION
        assert raw["group"] == "qir-bench"
        assert "python" in raw["environment"]

        loaded = BenchSnapshot.load(path)
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.by_name()["a.seconds"].value == 0.5
        assert loaded.by_name()["a.seconds"].unit == "seconds"

    def test_records_sorted_in_json(self, tmp_path):
        snapshot = BenchSnapshot(group="g")
        snapshot.record("z", 1.0, "seconds")
        snapshot.record("a", 2.0, "seconds")
        names = [r["name"] for r in snapshot.to_dict()["records"]]
        assert names == ["a", "z"]

    def test_rejects_unversioned_payload(self):
        with pytest.raises(ValueError, match="schema_version"):
            BenchSnapshot.from_dict({"group": "obs", "records": []})

    def test_rejects_future_schema(self):
        with pytest.raises(ValueError, match="newer than supported"):
            BenchSnapshot.from_dict(
                {"schema_version": SCHEMA_VERSION + 1, "records": []}
            )

    @pytest.mark.parametrize("payload", [
        [1],
        "records",
        {"schema_version": "1", "records": []},
        {"schema_version": [1], "records": []},
        {"schema_version": SCHEMA_VERSION, "records": None},
        {"schema_version": SCHEMA_VERSION, "records": {"a": 1}},
        {"schema_version": SCHEMA_VERSION, "records": [1]},
        {"schema_version": SCHEMA_VERSION, "records": [], "environment": [1]},
        {"schema_version": SCHEMA_VERSION,
         "records": [{"name": "a", "value": 1.0, "metadata": [1]}]},
        {"schema_version": SCHEMA_VERSION,
         "records": [{"name": "a", "value": float("nan")}]},
    ], ids=[
        "list", "string", "string_version", "list_version", "null_records",
        "dict_records", "int_record", "list_environment", "list_metadata",
        "nan_value",
    ])
    def test_rejects_malformed_payload(self, payload):
        with pytest.raises(ValueError):
            BenchSnapshot.from_dict(payload)

    def test_nan_literal_in_json_fails_to_load(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"schema_version": 1, "records": [{"name": "a", "value": NaN}]}'
        )
        with pytest.raises(ValueError, match="finite"):
            BenchSnapshot.load(str(path))

    def test_every_record_has_a_unit(self, tmp_path):
        snapshot = BenchSnapshot(group="g")
        snapshot.record("a", 1.0, "shots/sec", direction="higher")
        snapshot.add(BenchRecord.from_stats("b", TimingStats((0.1,))))
        for record in snapshot.to_dict()["records"]:
            assert record["unit"]


class TestEnvironmentFingerprint:
    def test_identity_fields_present(self):
        env = environment_fingerprint()
        assert set(env) >= {"python", "implementation", "platform", "machine"}
        assert env["numpy"] is not None
