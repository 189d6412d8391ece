"""Failure-path coverage for the resilience layer (fault injection,
per-shot retry/backoff, backend fallback, partial-result recovery)."""

import numpy as np
import pytest

from repro.llvmir import parse_assembly
from repro.resilience import (
    PERSISTENT,
    BackendLevel,
    FallbackChain,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    program_is_clifford,
)
from repro.runtime import QirRuntime, TrapError, execute, run_shots
from repro.runtime.errors import (
    ERROR_CODES,
    BackendFaultError,
    QirRuntimeError,
    StepLimitExceeded,
)
from repro.workloads.qir_programs import bell_qir, ghz_qir

T_GATE_PROGRAM = """
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__t__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__t__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
attributes #0 = { "entry_point" "required_num_qubits"="1" }
"""

NO_GATE_PROGRAM = """
define void @main() #0 {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  ret void
}
declare void @__quantum__qis__mz__body(ptr, ptr)
attributes #0 = { "entry_point" "required_num_qubits"="2" }
"""


class TestFaultPlan:
    def test_explicit_poisoning_is_exact(self):
        plan = FaultPlan.poison([3, 7, 11])
        assert plan.poisoned_shots(20) == frozenset({3, 7, 11})

    def test_random_poisoning_is_deterministic(self):
        plan = FaultPlan.random(probability=0.05, seed=42)
        first = plan.poisoned_shots(2000)
        second = plan.poisoned_shots(2000)
        assert first == second
        assert 40 <= len(first) <= 160  # ~5% of 2000

    def test_different_seeds_give_different_sets(self):
        a = FaultPlan.random(probability=0.05, seed=1).poisoned_shots(2000)
        b = FaultPlan.random(probability=0.05, seed=2).poisoned_shots(2000)
        assert a != b

    def test_rule_parse_round_trip(self):
        rule = FaultRule.parse("gate,p=0.5,failures=2,shots=1:2,class=backend,backend=statevector")
        assert rule.site == "gate"
        assert rule.probability == 0.5
        assert rule.failures == 2
        assert rule.shots == frozenset({1, 2})
        assert rule.error == "backend"
        assert rule.backend == "statevector"

    def test_rule_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultRule.parse("gate,hyperdrive=1")
        with pytest.raises(ValueError):
            FaultRule.parse("gate,p=2.0")
        with pytest.raises(ValueError):
            FaultRule(site="gate", error="meltdown")


class TestPartialResults:
    def test_poisoned_shots_return_partial_results(self):
        """Acceptance: 3 of 1000 poisoned, no retries -> 997 + 3 records."""
        plan = FaultPlan.poison([7, 123, 999], site="gate")
        result = run_shots(
            bell_qir("static"), shots=1000, seed=1,
            fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        assert result.total_shots == 1000
        assert result.successful_shots == 997
        assert sum(result.counts.values()) == 997
        assert sorted(f.shot for f in result.failed_shots) == [7, 123, 999]
        assert result.per_error_counts == {BackendFaultError.code: 3}
        assert not result.degraded

    def test_transient_faults_recovered_by_retry(self):
        """Acceptance: transient faults + max_attempts=3 -> all 1000 succeed."""
        plan = FaultPlan.poison([7, 123, 999], site="gate", failures=2)
        result = run_shots(
            bell_qir("static"), shots=1000, seed=1,
            fault_plan=plan, retry=RetryPolicy(max_attempts=3),
        )
        assert result.successful_shots == 1000
        assert not result.failed_shots
        assert result.retried_shots == 3

    def test_retry_exhaustion_records_attempts(self):
        plan = FaultPlan.poison([2], site="measure", failures=5)
        result = run_shots(
            bell_qir("static"), shots=5, seed=3,
            fault_plan=plan, retry=RetryPolicy(max_attempts=3),
        )
        assert result.successful_shots == 4
        (failure,) = result.failed_shots
        assert failure.shot == 2
        assert failure.attempts == 3

    def test_trap_fails_fast_despite_retries(self):
        plan = FaultPlan.poison([1], site="gate", error="trap")
        result = run_shots(
            bell_qir("static"), shots=3, seed=3,
            fault_plan=plan, retry=RetryPolicy(max_attempts=4),
        )
        (failure,) = result.failed_shots
        assert failure.code == TrapError.code
        assert failure.attempts == 1  # deterministic: never retried

    def test_step_limit_in_shot_k_keeps_earlier_shots(self):
        """Regression: a timeout in shot k must not lose shots 0..k-1."""
        plan = FaultPlan(rules=(FaultRule(site="timeout", shots=frozenset({5}),
                                          error="timeout", param=2),))
        result = run_shots(
            bell_qir("static"), shots=10, seed=4,
            fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        assert result.successful_shots == 9
        (failure,) = result.failed_shots
        assert failure.shot == 5
        assert failure.code == StepLimitExceeded.code

    def test_retry_codes_override_makes_timeout_retryable(self):
        plan = FaultPlan(rules=(FaultRule(site="timeout", shots=frozenset({5}),
                                          error="timeout", param=2, failures=1),))
        policy = RetryPolicy(max_attempts=2,
                             retry_codes=frozenset({StepLimitExceeded.code}))
        result = run_shots(
            bell_qir("static"), shots=10, seed=4, fault_plan=plan, retry=policy,
        )
        assert result.successful_shots == 10
        assert result.retried_shots == 1

    def test_allocation_fault_site(self):
        plan = FaultPlan.poison([0], site="allocate", error="alloc")
        result = run_shots(
            ghz_qir(2, addressing="dynamic"), shots=3, seed=5,
            fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        assert result.successful_shots == 2
        assert result.failed_shots[0].code == "QIR011"

    def test_intrinsic_site_poisons_runtime_calls(self):
        plan = FaultPlan(rules=(FaultRule(
            site="intrinsic:__quantum__rt__result_record_output",
            shots=frozenset({1}),
        ),))
        result = run_shots(
            bell_qir("static"), shots=4, seed=6,
            fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        assert result.successful_shots == 3
        assert result.failed_shots[0].shot == 1

    def test_silent_output_corruption_flips_bits(self):
        # Deterministic |00> program: corruption flips result bit 0 of every
        # shot, so the histogram moves wholesale from "00" to "01".
        clean = run_shots(NO_GATE_PROGRAM, shots=20, seed=7, sampling="never")
        assert clean.counts == {"00": 20}
        plan = FaultPlan(rules=(FaultRule(site="corrupt_output", error="corrupt"),))
        corrupted = run_shots(
            NO_GATE_PROGRAM, shots=20, seed=7, fault_plan=plan,
        )
        assert corrupted.counts == {"01": 20}
        assert corrupted.successful_shots == 20  # silent: no failure records

    def test_collect_failures_without_plan_catches_real_traps(self):
        trap = """
        define void @main() #0 {
        entry:
          call void @__quantum__rt__fail(ptr null)
          ret void
        }
        declare void @__quantum__rt__fail(ptr)
        attributes #0 = { "entry_point" }
        """
        result = run_shots(trap, shots=4, seed=1, collect_failures=True)
        assert result.successful_shots == 0
        assert len(result.failed_shots) == 4
        assert result.probabilities() == {}

    def test_default_run_shots_still_raises(self):
        trap = """
        define void @main() #0 {
        entry:
          call void @__quantum__rt__fail(ptr null)
          ret void
        }
        declare void @__quantum__rt__fail(ptr)
        attributes #0 = { "entry_point" }
        """
        with pytest.raises(TrapError):
            run_shots(trap, shots=4, seed=1, sampling="never")


class TestFallback:
    def test_program_is_clifford_classification(self):
        assert program_is_clifford(parse_assembly(ghz_qir(3)))
        assert not program_is_clifford(parse_assembly(T_GATE_PROGRAM))

    def test_clifford_fallback_preserves_distribution(self):
        ghz = ghz_qir(3)
        plan = FaultPlan(rules=(FaultRule(site="gate", backend="statevector"),))
        chain = FallbackChain(["statevector", "stabilizer"], demote_after=1)
        degraded = run_shots(
            ghz, shots=400, seed=2, fault_plan=plan, fallback=chain,
            retry=RetryPolicy(max_attempts=2),
        )
        clean = run_shots(ghz, shots=400, seed=2)
        assert degraded.degraded
        assert degraded.successful_shots == 400
        assert degraded.backend_shot_counts == {"stabilizer": 400}
        assert set(degraded.counts) == {"000", "111"} == set(clean.counts)
        for key in ("000", "111"):
            assert abs(degraded.probabilities()[key] - clean.probabilities()[key]) < 0.15
        assert len(degraded.fallback_history) == 1

    def test_non_clifford_program_never_demotes_to_stabilizer(self):
        plan = FaultPlan(rules=(FaultRule(site="gate", backend="statevector"),))
        chain = FallbackChain(["statevector", "stabilizer"], demote_after=1)
        result = run_shots(
            T_GATE_PROGRAM, shots=5, seed=2, fault_plan=plan, fallback=chain,
            retry=RetryPolicy(max_attempts=2),
        )
        assert result.successful_shots == 0
        assert len(result.failed_shots) == 5
        assert not result.degraded

    def test_noisy_backend_demotes_to_clean(self):
        from repro.sim import NoiseModel

        plan = FaultPlan(rules=(FaultRule(site="gate", only_noisy=True),))
        chain = FallbackChain.default("statevector", noisy=True, demote_after=1)
        runtime = QirRuntime(seed=3, noise=NoiseModel(depolarizing_1q=0.01))
        result = runtime.run_shots(
            bell_qir("static"), shots=30, fault_plan=plan, fallback=chain,
            retry=RetryPolicy(max_attempts=2),
        )
        assert result.degraded
        assert result.successful_shots == 30
        assert result.backend_shot_counts == {"statevector": 30}

    def test_traps_do_not_demote(self):
        chain = FallbackChain(["statevector", "stabilizer"], demote_after=1)
        chain.set_program_is_clifford(True)
        assert chain.note_failure(TrapError("boom")) is False
        assert not chain.degraded

    def test_chain_default_shape(self):
        chain = FallbackChain.default("statevector", noisy=True)
        assert [l.label for l in chain.levels] == [
            "statevector+noise", "statevector", "stabilizer",
        ]
        assert FallbackChain.default("stabilizer").levels == [
            BackendLevel("stabilizer", noisy=False)
        ]


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1,
                             backoff_factor=2.0, backoff_max=0.3)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)  # capped
        assert policy.backoff(4) == pytest.approx(0.3)

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.1, jitter=0.5)
        a = policy.backoff(1, np.random.default_rng(9))
        b = policy.backoff(1, np.random.default_rng(9))
        assert a == b
        assert 0.1 <= a <= 0.15

    def test_class_based_retryability(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(BackendFaultError("x"), 1)
        assert not policy.should_retry(TrapError("x"), 1)
        assert not policy.should_retry(BackendFaultError("x"), 3)  # exhausted
        blocked = RetryPolicy(max_attempts=3,
                              no_retry_codes=frozenset({BackendFaultError.code}))
        assert not blocked.should_retry(BackendFaultError("x"), 1)

    def test_backoff_actually_sleeps_between_attempts(self):
        slept = []
        policy = RetryPolicy(max_attempts=2, backoff_base=0.05, sleep=slept.append)
        plan = FaultPlan.poison([0], site="gate", failures=1)
        result = run_shots(
            bell_qir("static"), shots=1, seed=1, fault_plan=plan, retry=policy,
        )
        assert result.successful_shots == 1
        assert slept == [pytest.approx(0.05)]

    def test_backoff_jitter_survives_fallback_demotion(self):
        """Regression: the jitter stream is one per *shot*, not one per
        ``attempt_shot`` invocation.

        The task re-invokes ``attempt_shot`` after every fallback
        demotion; the old code built a fresh generator from the same
        reserved seed on each invocation, so post-demotion delays
        replayed the pre-demotion draws.  The delay sequence must be the
        pure function of ``(root, shot)``: consecutive draws from one
        stream seeded at the reserved backoff key.
        """
        from repro.llvmir import parse_assembly as parse
        from repro.obs.observer import NULL_OBSERVER
        from repro.runtime.shots import (
            _BACKOFF_KEY,
            ChainGuard,
            ShotExecutor,
            ShotTask,
            shot_sequence,
        )

        root = np.random.SeedSequence(42)
        delays = []
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.25, backoff_max=10.0,
            jitter=1.0, sleep=delays.append,
        )
        # Fails for the first four global attempts regardless of backend:
        # three on statevector (two waits), then one on the stabilizer
        # rung after the demotion (one more wait), then recovers.
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule(site="gate", failures=4),))
        )
        chain = FallbackChain(["statevector", "stabilizer"], demote_after=1)
        chain.set_program_is_clifford(True)
        task = ShotTask(
            executor=ShotExecutor(
                "statevector", None, 1_000_000, 26, True, NULL_OBSERVER
            ),
            module=parse(ghz_qir(3)), entry=None, shots=1, root=root,
            policy=policy, injector=injector, chain=ChainGuard(chain),
            keep_stats=False, resilient=True, timed=False,
        )
        outcome = task.run_one(0)

        assert outcome.succeeded
        assert outcome.backend_label == "stabilizer"
        rng = np.random.default_rng(shot_sequence(root, 0, _BACKOFF_KEY))
        expected = [policy.backoff(1, rng), policy.backoff(2, rng),
                    policy.backoff(1, rng)]
        assert delays == pytest.approx(expected)
        # The third wait continues the stream -- with the old per-call
        # generator it would have replayed the first draw exactly.
        assert delays[2] != pytest.approx(delays[0])


class TestErrorsAndResults:
    def test_error_codes_are_stable(self):
        from repro.runtime.errors import (
            PoolStartupError,
            SchedulerExhaustedError,
            WorkerCrashError,
            WorkerTimeoutError,
        )

        assert ERROR_CODES["QIR001"] is TrapError
        assert ERROR_CODES["QIR002"] is StepLimitExceeded
        assert ERROR_CODES["QIR010"] is BackendFaultError
        assert ERROR_CODES["QIR020"] is WorkerCrashError
        assert ERROR_CODES["QIR021"] is WorkerTimeoutError
        assert ERROR_CODES["QIR022"] is PoolStartupError
        assert ERROR_CODES["QIR023"] is SchedulerExhaustedError
        # Infra codes are retryable when a retry could plausibly succeed.
        assert WorkerCrashError.retryable and WorkerTimeoutError.retryable
        assert not PoolStartupError.retryable
        assert not SchedulerExhaustedError.retryable
        assert len(ERROR_CODES) == 12

    def test_trap_carries_context(self):
        src = """
        define void @main() #0 {
        entry:
          unreachable
        }
        attributes #0 = { "entry_point" }
        """
        with pytest.raises(TrapError) as excinfo:
            execute(src)
        context = excinfo.value.context
        assert context is not None
        assert context.function == "main"
        assert context.block == "entry"
        assert "[QIR001]" in excinfo.value.describe()

    def test_division_trap_context_names_instruction(self):
        src = """
        define i64 @main() #0 {
        entry:
          %x = sdiv i64 1, 0
          ret i64 %x
        }
        attributes #0 = { "entry_point" }
        """
        with pytest.raises(TrapError) as excinfo:
            execute(src)
        context = excinfo.value.context
        assert context.function == "main"
        assert "BinaryInst" in context.instruction

    def test_intrinsic_error_context_names_call(self):
        src = """
        define void @main() #0 {
        entry:
          call void @__quantum__rt__bogus(ptr null)
          ret void
        }
        declare void @__quantum__rt__bogus(ptr)
        attributes #0 = { "entry_point" }
        """
        with pytest.raises(QirRuntimeError) as excinfo:
            execute(src)
        assert "call @__quantum__rt__bogus" in str(excinfo.value.context)

    def test_counts_keys_are_sorted(self):
        result = run_shots(bell_qir("static"), shots=200, seed=1, sampling="never")
        assert list(result.counts) == sorted(result.counts)
        fast = run_shots(bell_qir("static"), shots=200, seed=1)
        assert list(fast.counts) == sorted(fast.counts)

    def test_probabilities_use_successful_denominator(self):
        plan = FaultPlan.poison([0, 1], site="gate")
        result = run_shots(
            bell_qir("static"), shots=10, seed=1,
            fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        assert result.total_shots == 10
        assert result.successful_shots == 8
        assert sum(result.probabilities().values()) == pytest.approx(1.0)

    def test_failure_report_renders(self):
        plan = FaultPlan.poison([1], site="gate")
        result = run_shots(
            bell_qir("static"), shots=3, seed=1,
            fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        report = result.failure_report()
        assert "FAIL\tshot=1" in report
        assert "code=QIR010" in report
        clean = run_shots(bell_qir("static"), shots=3, seed=1)
        assert clean.failure_report() == ""

    def test_injector_stats_count_fired_faults(self):
        plan = FaultPlan.poison([0, 1], site="gate", failures=1)
        injector = FaultInjector(plan)
        ctx = injector.context(0)
        ctx.begin_attempt(0, "statevector")
        with pytest.raises(BackendFaultError):
            ctx.check("gate")
        ctx.begin_attempt(1, "statevector")
        ctx.check("gate")  # transient fault spent -> no raise
        assert injector.stats.faults_raised == 1
        assert injector.context(2).is_inert

    def test_persistent_constant_exported(self):
        assert FaultRule(site="gate").failures == PERSISTENT
