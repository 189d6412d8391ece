"""Tests for the deferred-measurement sampling fast path."""

import pytest

from repro.qir import AdaptiveProfile, SimpleModule
from repro.runtime import QirRuntime
from repro.runtime.results import RESULT_ONE
from repro.runtime.sampling_fastpath import FastPathUnsupported, SharedStreamResults
from repro.runtime.values import IntPtr
from repro.sim import NoiseModel
from repro.sim.sampling import ZERO_COLUMN, counts_to_probabilities, total_variation_distance
from repro.workloads.qec import teleportation_qir
from repro.workloads.qir_programs import bell_qir, ghz_qir


class TestApplicability:
    def test_base_profile_static_uses_fast_path(self):
        result = QirRuntime(seed=1).run_shots(bell_qir("static"), shots=100)
        assert result.used_fast_path

    def test_dynamic_addressing_uses_fast_path(self):
        # release-after-measure is tolerated (skipped, not reset)
        result = QirRuntime(seed=1).run_shots(bell_qir("dynamic"), shots=100)
        assert result.used_fast_path

    def test_adaptive_feedback_falls_back(self):
        result = QirRuntime(seed=2).run_shots(teleportation_qir(), shots=50)
        assert not result.used_fast_path
        assert all(bits[0] == "0" for bits in result.counts)

    def test_gate_after_measurement_falls_back(self):
        sm = SimpleModule("t", 1, 2)
        sm.qis.h(0)
        sm.qis.mz(0, 0)
        sm.qis.x(0)  # touches a measured qubit
        sm.qis.mz(0, 1)
        result = QirRuntime(seed=3).run_shots(sm.ir(), shots=50)
        assert not result.used_fast_path
        # semantics: second measurement is the flip of the first
        assert set(result.counts) <= {"01", "10"}

    def test_remeasurement_falls_back(self):
        sm = SimpleModule("t", 1, 2)
        sm.qis.h(0)
        sm.qis.mz(0, 0)
        sm.qis.mz(0, 1)
        result = QirRuntime(seed=4).run_shots(sm.ir(), shots=50)
        assert not result.used_fast_path
        assert set(result.counts) <= {"00", "11"}  # repeated outcome agrees

    def test_reset_after_measurement_falls_back(self):
        sm = SimpleModule("t", 2, 2)
        sm.qis.h(0)
        sm.qis.mz(0, 0)
        sm.qis.reset(0)
        sm.qis.mz(1, 1)
        assert not QirRuntime(seed=5).run_shots(sm.ir(), shots=20).used_fast_path

    def test_reset_of_superposed_qubit_declines(self):
        # One shared evolution cannot reset an entangled qubit: each shot's
        # collapse is random.  Collapsing once for all shots gave
        # {"1": 1000} where the per-shot loop gives about 50/50.
        sm = SimpleModule("t", 2, 1)
        sm.qis.h(0)
        sm.qis.cnot(0, 1)
        sm.qis.reset(0)
        sm.qis.mz(1, 0)
        self._assert_declines_and_matches_per_shot(sm.ir())

    def test_release_of_superposed_qubit_declines(self):
        text = """
define void @main() #0 {
entry:
  %a = call ptr @__quantum__rt__qubit_allocate()
  %b = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %a)
  call void @__quantum__qis__cnot__body(ptr %a, ptr %b)
  call void @__quantum__rt__qubit_release(ptr %a)
  call void @__quantum__qis__mz__body(ptr %b, ptr writeonly null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}

declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__rt__qubit_release(ptr)
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)

attributes #0 = { "entry_point" "required_num_results"="1" }
"""
        self._assert_declines_and_matches_per_shot(text)

    @staticmethod
    def _assert_declines_and_matches_per_shot(text):
        with pytest.raises(FastPathUnsupported, match="superposed"):
            QirRuntime(seed=1).run_shots(text, shots=10, sampling="require")
        for seed in (1, 2, 3):
            auto = QirRuntime(seed=seed).run_shots(text, shots=1000)
            never = QirRuntime(seed=seed).run_shots(text, shots=1000, sampling="never")
            assert not auto.used_fast_path
            assert auto.counts == never.counts
            assert set(never.counts) == {"0", "1"}

    def test_noise_disables_fast_path(self):
        result = QirRuntime(
            seed=6, noise=NoiseModel(depolarizing_1q=0.05)
        ).run_shots(bell_qir("static"), shots=50)
        assert not result.used_fast_path

    def test_stabilizer_backend_disables_fast_path(self):
        result = QirRuntime(seed=7, backend="stabilizer").run_shots(
            bell_qir("static"), shots=50
        )
        assert not result.used_fast_path

    def test_sampling_never(self):
        result = QirRuntime(seed=8).run_shots(
            bell_qir("static"), shots=50, sampling="never"
        )
        assert not result.used_fast_path

    def test_sampling_require_raises_on_feedback(self):
        with pytest.raises(FastPathUnsupported):
            QirRuntime(seed=9).run_shots(
                teleportation_qir(), shots=10, sampling="require"
            )

    def test_unknown_sampling_mode(self):
        with pytest.raises(ValueError):
            QirRuntime().run_shots(bell_qir("static"), shots=1, sampling="maybe")


class TestCorrectness:
    def test_matches_per_shot_distribution(self):
        text = ghz_qir(5, "static")
        fast = counts_to_probabilities(
            QirRuntime(seed=10).run_shots(text, shots=3000, sampling="require").counts
        )
        slow = counts_to_probabilities(
            QirRuntime(seed=11).run_shots(text, shots=3000, sampling="never").counts
        )
        assert set(fast) == set(slow) == {"00000", "11111"}
        assert total_variation_distance(fast, slow) < 0.05

    def test_partial_measurement(self):
        sm = SimpleModule("t", 3, 2)
        sm.qis.x(2)
        sm.qis.h(0)
        sm.qis.mz(2, 1)
        sm.qis.mz(0, 0)
        result = QirRuntime(seed=12).run_shots(sm.ir(), shots=80, sampling="require")
        assert set(result.counts) <= {"10", "11"}

    def test_sparse_result_indices(self):
        sm = SimpleModule("t", 2, 4)
        sm.qis.x(0)
        sm.qis.mz(0, 3)  # only result 3 written
        result = QirRuntime(seed=13).run_shots(sm.ir(), shots=10, sampling="require")
        assert result.counts == {"1000": 10}

    @pytest.mark.parametrize(
        "addresses, expected",
        [((0, -1), {"1": 10}), ((0, -3), {"1": 10}), ((-1, 0), {"0": 10}), ((-2, -2), {"": 10})],
    )
    def test_negative_result_address_is_not_rendered(self, addresses, expected):
        # Like the per-shot path, the fast path drops result addresses
        # below zero instead of failing on them.
        sm = SimpleModule("t", 2, 2)
        sm.qis.x(0)
        sm.qis.mz(0, 0)
        sm.qis.mz(1, 1)
        text = sm.ir()
        for written, address in zip(("null", "inttoptr (i64 1 to ptr)"), addresses):
            text = text.replace(f"writeonly {written})", f"writeonly inttoptr (i64 {address} to ptr))")
        fast = QirRuntime(seed=16).run_shots(text, shots=10, sampling="require")
        slow = QirRuntime(seed=16).run_shots(text, shots=10, sampling="never")
        assert fast.used_fast_path
        assert fast.counts == slow.counts == expected

    def test_no_measurements(self):
        sm = SimpleModule("t", 1, 0)
        sm.qis.h(0)
        result = QirRuntime(seed=14).run_shots(sm.ir(), shots=10, sampling="require")
        assert result.counts == {"": 10}

    def test_seeded_reproducibility(self):
        a = QirRuntime(seed=15).run_shots(bell_qir("static"), shots=200).counts
        b = QirRuntime(seed=15).run_shots(bell_qir("static"), shots=200).counts
        assert a == b


class TestSharedStreamResults:
    def test_dynamic_result_declines_at_the_first_m_call(self):
        with pytest.raises(FastPathUnsupported, match="dynamic"):
            SharedStreamResults().new_dynamic(0)

    def test_reading_a_written_result_declines(self):
        store = SharedStreamResults()
        store.write(IntPtr(1), 4)
        with pytest.raises(FastPathUnsupported, match="feeds back"):
            store.read(IntPtr(1))
        assert store.read(RESULT_ONE) == 1

    def test_records_snapshot_the_measurement_at_record_time(self):
        store = SharedStreamResults()
        store.read_default(IntPtr(0))  # before any write: constant 0
        store.write(IntPtr(0), "first")
        store.read_default(IntPtr(0))
        store.write(IntPtr(0), "second")
        store.read_default(IntPtr(0))
        store.read_default(RESULT_ONE)
        assert store.values == ["first", "second"]
        assert store.columns() == [~1, 1, 0, ZERO_COLUMN]

    def test_without_records_the_final_table_is_rendered(self):
        store = SharedStreamResults()
        store.write(IntPtr(2), "a")
        store.write(IntPtr(0), "b")
        store.write(IntPtr(2), "c")
        assert store.columns() == [2, ZERO_COLUMN, 1]
