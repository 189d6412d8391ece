"""Tests for the deferred-measurement sampling fast path."""

import copy
import itertools
import math
import random

import pytest

from repro.qir import AdaptiveProfile, SimpleModule
from repro.runtime import QirRuntime, compile_plan
from repro.runtime.results import RESULT_ONE
from repro.runtime.sampling_fastpath import (
    MAX_DEFERRED_QUBITS,
    FastPathUnsupported,
    SharedStreamResults,
)
from repro.runtime.values import IntPtr
from repro.sim import NoiseModel, StatevectorSimulator
from repro.sim.sampling import ZERO_COLUMN, counts_to_probabilities, total_variation_distance
from repro.workloads.qec import teleportation_qir
from repro.workloads.qir_programs import bell_qir, ghz_qir, reset_chain_qir


def captured_probabilities(plan):
    """The plan's captured distribution, summed per bitstring."""
    probabilities = {}
    for bits, prob in plan.distribution.entries:
        probabilities[bits] = probabilities.get(bits, 0.0) + prob
    return probabilities


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

    # A program without feedback is sampled from one evolution whatever
    # it does mid-circuit: each test checks the captured distribution
    # against the exact one, and the per-shot loop against its support.

    def test_gate_after_measurement_is_sampled(self):
        sm = SimpleModule("t", 1, 2)
        sm.qis.h(0)
        sm.qis.mz(0, 0)
        sm.qis.x(0)  # touches a measured qubit
        sm.qis.mz(0, 1)
        # semantics: second measurement is the flip of the first
        self._assert_sampled_exactly(sm.ir(), {"01": 0.5, "10": 0.5})

    def test_remeasurement_is_sampled(self):
        sm = SimpleModule("t", 1, 2)
        sm.qis.h(0)
        sm.qis.mz(0, 0)
        sm.qis.mz(0, 1)
        # repeated outcome agrees
        self._assert_sampled_exactly(sm.ir(), {"00": 0.5, "11": 0.5})

    def test_reset_after_measurement_is_sampled(self):
        sm = SimpleModule("t", 2, 3)
        sm.qis.h(0)
        sm.qis.mz(0, 0)
        sm.qis.reset(0)
        sm.qis.mz(1, 1)
        sm.qis.mz(0, 2)  # the reset qubit reads 0 again
        self._assert_sampled_exactly(sm.ir(), {"000": 0.5, "001": 0.5})

    def test_reset_of_superposed_qubit_is_sampled(self):
        # A reset of an entangled qubit moves it to a fresh wire; the old
        # one is marginalised.  Collapsing once for all shots gave
        # {"1": 1000} where the per-shot loop gives about 50/50.
        sm = SimpleModule("t", 2, 1)
        sm.qis.h(0)
        sm.qis.cnot(0, 1)
        sm.qis.reset(0)
        sm.qis.mz(1, 0)
        self._assert_sampled_exactly(sm.ir(), {"0": 0.5, "1": 0.5})
        sm = SimpleModule("t", 1, 1)
        sm.qis.h(0)
        sm.qis.reset(0)
        sm.qis.h(0)
        sm.qis.mz(0, 0)
        self._assert_sampled_exactly(sm.ir(), {"0": 0.5, "1": 0.5})

    def test_release_of_superposed_qubit_is_sampled(self):
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
        self._assert_sampled_exactly(text, {"0": 0.5, "1": 0.5})

    @staticmethod
    def _assert_sampled_exactly(text, expected):
        plan = compile_plan(text)
        QirRuntime(seed=1).run_shots(plan, shots=10, sampling="require")
        assert captured_probabilities(plan) == pytest.approx(expected)
        never = QirRuntime(seed=1).run_shots(text, shots=1000, sampling="never")
        assert not never.used_fast_path
        assert set(never.counts) == set(expected)

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


class TestDeferredWires:
    """Mid-circuit measurement and reset grow the register by one wire
    each, up to MAX_DEFERRED_QUBITS and max_qubits."""

    def test_reset_chain_goes_warm_with_its_exact_distribution(self):
        # Every round resets each qubit, so only the last round's ry
        # angles decide the final result table: independent bits with
        # P(1) = sin^2(theta / 2), highest address leftmost.
        n, rounds, angle = 3, 3, 0.7
        plan = compile_plan(reset_chain_qir(n, rounds, angle))
        result = QirRuntime(seed=1).run_shots(plan, shots=80)
        assert result.used_fast_path and plan.distribution is not None
        p1 = [math.sin((angle * rounds + 0.1 * i) / 2) ** 2 for i in range(n)]
        expected = {}
        for outcome in itertools.product("01", repeat=n):
            bits = "".join(outcome)
            expected[bits] = math.prod(
                p1[i] if bits[n - 1 - i] == "1" else 1 - p1[i] for i in range(n)
            )
        assert captured_probabilities(plan) == pytest.approx(expected)
        warm = QirRuntime(seed=1).run_shots(plan, shots=80)
        assert warm.distribution_served and warm.counts == result.counts

    def test_register_fills_the_cap_exactly(self):
        # 4 qubits x 3 rounds is 12 wires: within the cap, so cached.
        assert MAX_DEFERRED_QUBITS == 12
        plan = compile_plan(reset_chain_qir(4, 3))
        QirRuntime(seed=1).run_shots(plan, shots=10, sampling="require")
        assert plan.distribution is not None

    @pytest.mark.parametrize(
        "text, options, reason",
        [
            (reset_chain_qir(5, 3), {}, "12 qubits"),
            (reset_chain_qir(3, 3), {"max_qubits": 5}, "max_qubits"),
        ],
        ids=["past_cap", "past_max_qubits"],
    )
    def test_growth_past_a_limit_declines(self, text, options, reason):
        with pytest.raises(FastPathUnsupported, match=reason):
            QirRuntime(seed=1, **options).run_shots(text, shots=10, sampling="require")
        for program in (text, compile_plan(text)):
            auto = QirRuntime(seed=2, **options).run_shots(program, shots=40)
            never = QirRuntime(seed=2, **options).run_shots(
                program, shots=40, sampling="never"
            )
            assert not auto.used_fast_path
            assert auto.counts == never.counts


def _random_reuse_program(seed, num_qubits=3, length=14):
    """A seeded feedback-free program: gates, mid-circuit measurements
    (each into a fresh result) and resets, on qubits that are reused."""
    rng = random.Random(seed)
    ops = []
    for _ in range(length):
        kind = rng.choice(["h", "ry", "x", "cnot", "cnot", "mz", "reset"])
        qubits = rng.sample(range(num_qubits), 2 if kind == "cnot" else 1)
        params = (round(rng.uniform(0.1, 3.0), 3),) if kind == "ry" else ()
        ops.append((kind, qubits, params))
    ops += [("mz", [q], ()) for q in range(num_qubits)]
    return ops


def _exact_distribution(ops, num_qubits):
    """Branch on every measurement and reset outcome by postselection:
    the per-shot semantics, with each branch carrying its probability."""
    distribution = {}

    def walk(sim, index, outcomes, weight):
        if index == len(ops):
            bits = "".join(str(b) for b in reversed(outcomes))
            distribution[bits] = distribution.get(bits, 0.0) + weight
            return
        kind, qubits, params = ops[index]
        if kind not in ("mz", "reset"):
            sim.apply_gate(kind, qubits, params)
            walk(sim, index + 1, outcomes, weight)
            return
        p1 = sim.probability_of_one(qubits[0])
        for outcome, p in ((0, 1.0 - p1), (1, p1)):
            if p < 1e-12:
                continue
            branch = copy.deepcopy(sim)
            branch.postselect(qubits[0], outcome)
            if kind == "mz":
                walk(branch, index + 1, outcomes + [outcome], weight * p)
            else:
                if outcome:
                    branch.apply_gate("x", qubits)
                walk(branch, index + 1, outcomes, weight * p)

    walk(StatevectorSimulator(num_qubits), 0, [], 1.0)
    return distribution


@pytest.mark.parametrize("seed", range(12))
def test_deferred_wires_match_branching_per_shot_semantics(seed):
    ops = _random_reuse_program(seed)
    results = sum(kind == "mz" for kind, _, _ in ops)
    sm = SimpleModule("reuse", 3, results)
    written = 0
    for kind, qubits, params in ops:
        if kind == "mz":
            sm.qis.mz(qubits[0], written)
            written += 1
        elif kind == "reset":
            sm.qis.reset(qubits[0])
        else:
            sm.qis.gate(kind, qubits, params)
    plan = compile_plan(sm.ir())
    QirRuntime(seed=seed).run_shots(plan, shots=10, sampling="require")
    expected = _exact_distribution(ops, 3)
    captured = {k: v for k, v in captured_probabilities(plan).items() if v > 1e-12}
    assert captured == pytest.approx({k: v for k, v in expected.items() if v > 1e-12})


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
