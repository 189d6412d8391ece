"""The execute phase: placement from ``jobs``, determinism, and resilience
semantics across placements (serial / process)."""

import json
import re

import numpy as np
import pytest

from repro.obs.observer import Observer
from repro.resilience import (
    FallbackChain,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from repro.runtime import (
    ProcessScheduler,
    QirRuntime,
    QirSession,
    QubitAllocationError,
    SerialScheduler,
    compile_plan,
    get_scheduler,
    run_shots,
)
from repro.runtime.errors import BackendFaultError
from repro.sim import NoiseModel
from repro.tools.qir_run import main as run_main
from repro.workloads.qec import teleportation_qir
from repro.workloads.qir_programs import bell_qir, ghz_qir, qft_qir, reset_chain_qir

FEEDBACK_PROGRAM = """
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %b = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %b, label %flip, label %exit

flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %exit

exit:
  call void @__quantum__qis__mz__body(ptr null, ptr inttoptr (i64 1 to ptr))
  ret void
}
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="2" }
"""

#: A Clifford program with a mid-circuit reset whose plan has a fused
#: schedule: the stabilizer backend can run it.
CLIFFORD_RESET_PROGRAM = """
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__reset__body(ptr null)
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr inttoptr (i64 1 to ptr))
  ret void
}
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__reset__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="2" }
"""


def counts_for(text, *, seed=123, shots=200, jobs=1, **kwargs):
    rt = QirRuntime(seed=seed)
    return rt.run_shots(text, shots=shots, jobs=jobs, **kwargs)


class TestGetScheduler:
    def test_resolves_each_name(self):
        # jobs is the placement: one job in-thread, more in processes.
        assert isinstance(get_scheduler(), SerialScheduler)
        assert isinstance(get_scheduler(1), SerialScheduler)
        assert isinstance(get_scheduler(4), ProcessScheduler)

    def test_unknown_name_raises(self):
        # Placement comes from jobs alone: no surface takes a scheduler
        # name any more.
        with pytest.raises(TypeError, match="scheduler"):
            QirRuntime(scheduler="process")
        with pytest.raises(TypeError, match="scheduler"):
            QirRuntime().run_shots(bell_qir("static"), shots=4, scheduler="serial")

    def test_pool_option_with_one_job_raises(self):
        with pytest.raises(ValueError, match="needs jobs > 1"):
            get_scheduler(1, chunk_shots=4)

    def test_nonpositive_jobs_raises(self):
        with pytest.raises(ValueError):
            get_scheduler(0)

    def test_runtime_validates_defaults_eagerly(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            QirRuntime(jobs=0)


class TestCrossSchedulerDeterminism:
    """Acceptance: same seed -> identical counts on every scheduler."""

    @pytest.mark.parametrize(
        "text",
        [bell_qir("static"), qft_qir(3), reset_chain_qir(2, rounds=2)],
        ids=["bell", "qft3", "reset_chain"],
    )
    def test_counts_are_identical_across_schedulers(self, text):
        serial = counts_for(text, sampling="never")
        process = counts_for(text, jobs=2, sampling="never")
        fused = counts_for(compile_plan(text), sampling="never")
        assert serial.counts == process.counts == fused.counts
        assert sum(serial.counts.values()) == 200

    def test_rejected_fastpath_attempt_does_not_shift_seeds(self):
        # Under sampling="auto" the runtime *attempts* the fast path on
        # this program and gets rejected (it feeds back on a measurement)
        # before the per-shot loop runs.  The attempt must not consume
        # from the runtime's seed stream, or the tiers would diverge.
        text = teleportation_qir(0.7)
        auto_serial = counts_for(text)
        never_serial = counts_for(text, sampling="never")
        planned = counts_for(compile_plan(text))
        assert not planned.used_fast_path and planned.scheduler == "serial"
        assert auto_serial.counts == never_serial.counts == planned.counts

    def test_result_reports_the_scheduler_that_ran(self):
        text = teleportation_qir(0.7)
        assert counts_for(text).scheduler == "serial"
        assert counts_for(text, jobs=2).scheduler == "process"
        # The fast path is per run: it serves a sampleable program
        # in-thread whatever jobs says, and starts no pool.
        sampled = counts_for(compile_plan(reset_chain_qir(2, rounds=2)), jobs=2)
        assert sampled.used_fast_path and sampled.scheduler == "serial"
        assert sampled.supervision is None

    def test_module_level_wrapper_accepts_scheduler(self):
        result = run_shots(
            bell_qir("static"), shots=50, seed=5, jobs=2, sampling="never",
        )
        assert sum(result.counts.values()) == 50


# The path selection rule, row by row, on a reset chain:
# (program, QirRuntime options, run_shots options) -> the tier or
# placement that serves the run, and whether the run is clean
# (statevector, no noise).  A reset chain has no feedback, so the fast
# path serves it from any input, and in-thread whatever ``jobs`` says;
# a clean per-shot run's counts must equal the serial
# one-shot-at-a-time run of the same seed.
CHAIN = reset_chain_qir(2, rounds=2)
SELECTION = {
    "raw_text": ("text", {}, {}, "fastpath", True),
    "no_fusion": ("module", {}, {}, "fastpath", True),
    "feedback": ("feedback", {}, {}, "serial", True),
    "sampling_never": ("plan", {}, {"sampling": "never"}, "serial", True),
    "process_jobs2": ("plan", {}, {"jobs": 2}, "fastpath", True),
    "keep_stats": ("plan", {}, {"keep_stats": True}, "serial", True),
    "retry": ("plan", {}, {"retry": RetryPolicy(max_attempts=2)}, "serial", True),
    "noise": ("plan", {"noise": NoiseModel(depolarizing_1q=0.05)}, {}, "serial", False),
    "stabilizer": ("clifford", {"backend": "stabilizer"}, {}, "serial", False),
    "one_shot": ("plan", {}, {"shots": 1}, "fastpath", True),
}


@pytest.mark.parametrize("row", sorted(SELECTION))
def test_path_selection_rule(row):
    source, runtime_options, run_options, label, clean = SELECTION[row]
    text = {
        "feedback": FEEDBACK_PROGRAM, "clifford": CLIFFORD_RESET_PROGRAM,
    }.get(source, CHAIN)
    program = {
        "text": text, "module": compile_plan(text).module,
    }.get(source) or compile_plan(text)
    run_options = {"shots": 60, **run_options}
    result = QirRuntime(seed=4, **runtime_options).run_shots(program, **run_options)
    assert sum(result.counts.values()) == run_options["shots"]
    if label == "fastpath":
        assert result.used_fast_path and result.scheduler == "serial"
        return
    assert result.scheduler == label
    assert not result.used_fast_path
    if clean:
        reference = QirRuntime(seed=4).run_shots(
            text, shots=run_options["shots"], sampling="never"
        )
        assert result.counts == reference.counts


class TestProcessScheduler:
    """Tentpole: worker processes over serialized plans, bit-identical to
    serial for a fixed seed."""

    def test_get_scheduler_resolves_process(self):
        sched = get_scheduler(4)
        assert isinstance(sched, ProcessScheduler)
        assert sched.jobs == 4

    @pytest.mark.parametrize(
        "text",
        [bell_qir("static"), qft_qir(3), reset_chain_qir(2, rounds=2)],
        ids=["bell", "qft3", "reset_chain"],
    )
    def test_counts_are_identical_to_serial(self, text):
        serial = counts_for(text, shots=60, sampling="never")
        process = counts_for(text, shots=60, jobs=3, sampling="never")
        assert serial.counts == process.counts
        assert sum(process.counts.values()) == 60
        assert process.scheduler == "process"

    def test_fastpath_still_wins_under_auto_sampling(self):
        # The fast path is per-run, not per-shot: when it applies, no pool
        # is spawned and every scheduler produces the same counts.
        auto = counts_for(bell_qir("static"), shots=60, jobs=3)
        serial = counts_for(bell_qir("static"), shots=60)
        assert auto.used_fast_path
        assert auto.counts == serial.counts

    def test_one_job_degrades_to_serial_loop(self):
        # jobs=1 is the in-thread loop: no pool starts, and the result
        # reports the serial loop it actually ran.
        one = counts_for(bell_qir("static"), shots=30, jobs=1, sampling="never")
        many = counts_for(bell_qir("static"), shots=30, jobs=2, sampling="never")
        assert one.counts == many.counts
        assert one.scheduler == "serial"
        assert one.supervision is None
        assert many.scheduler == "process"
        assert get_scheduler(1).jobs == 1

    def test_plan_bytes_are_built_only_for_a_pool_run(self, monkeypatch):
        from repro.runtime.plan import ExecutionPlan

        encodes = []
        original = ExecutionPlan.to_bytes
        monkeypatch.setattr(
            ExecutionPlan, "to_bytes",
            lambda plan: encodes.append(plan) or original(plan),
        )
        plan = compile_plan(reset_chain_qir(2, rounds=2))
        counts_for(plan, shots=1, jobs=2, sampling="never")
        counts_for(plan, shots=8, jobs=1, sampling="never")
        assert encodes == []
        assert counts_for(plan, shots=8, jobs=2, sampling="never").scheduler == "process"
        assert len(encodes) == 1

    def test_single_shot_degrades_to_serial(self):
        result = counts_for(
            bell_qir("static"), shots=1, jobs=4, sampling="never"
        )
        assert result.scheduler == "serial"
        assert sum(result.counts.values()) == 1

    def test_missing_plan_bytes_raises(self):
        import numpy as np

        from repro.obs.observer import NULL_OBSERVER
        from repro.resilience.fallback import BackendLevel
        from repro.runtime import ProcessScheduler
        from repro.runtime.shots import ChainGuard, ShotExecutor, ShotTask

        task = ShotTask(
            executor=ShotExecutor(
                "statevector", None, 1000, 4, True, NULL_OBSERVER
            ),
            module=None, entry=None, shots=8,
            root=np.random.SeedSequence(1),
            policy=RetryPolicy(max_attempts=1), injector=None,
            chain=ChainGuard(
                FallbackChain([BackendLevel("statevector", noisy=True)])
            ),
            keep_stats=False, resilient=False, timed=False,
        )
        with pytest.raises(ValueError, match="plan_bytes"):
            ProcessScheduler(jobs=2).run(task)

    def test_spawn_start_method_matches_fork_counts(self):
        # Drive the scheduler directly so the test controls start_method
        # (the public API always uses the platform default).  Two rows: a
        # clean task, and a resilient one whose pickled retry policy,
        # fault plan and fallback chain must rebuild the same per-shot
        # faults, retries and demotion in every worker.
        from repro.obs.observer import NULL_OBSERVER
        from repro.resilience import FaultInjector
        from repro.resilience.fallback import BackendLevel
        from repro.runtime import ProcessScheduler, compile_plan
        from repro.runtime.schedulers import build_shots_result
        from repro.runtime.shots import ChainGuard, ShotExecutor, ShotTask

        plan = compile_plan(bell_qir("static"))
        shots = 24

        def task_for(resilient):
            if resilient:
                policy = RetryPolicy(max_attempts=3)
                injector = FaultInjector(FaultPlan(rules=(
                    # Transient: a poisoned shot succeeds on its third try.
                    FaultRule(site="gate", probability=0.3, failures=2),
                    # The last shot exhausts its retries on the statevector
                    # and demotes its chain; being last, it shifts no other
                    # shot's rung, so counts stay comparable to serial.
                    FaultRule(
                        site="gate", shots=frozenset({shots - 1}),
                        backend="statevector",
                    ),
                ), seed=5))
                chain = FallbackChain(["statevector", "stabilizer"], demote_after=1)
                chain.set_program_is_clifford(True)
            else:
                policy = RetryPolicy(max_attempts=1)
                injector = None
                chain = FallbackChain([BackendLevel("statevector", noisy=True)])
            return ShotTask(
                executor=ShotExecutor(
                    "statevector", None, 1_000_000, 4, True, NULL_OBSERVER
                ),
                module=plan.module, entry=plan.entry, shots=shots,
                root=np.random.SeedSequence(11),
                policy=policy, injector=injector, chain=ChainGuard(chain),
                keep_stats=False, resilient=resilient, timed=False,
                plan_bytes=plan.to_bytes(),
            )

        def run_on(sched, resilient):
            task = task_for(resilient)
            return build_shots_result(task, sched.run(task), sched.name)

        for resilient in (False, True):
            spawn = run_on(ProcessScheduler(jobs=2, start_method="spawn"), resilient)
            fork = run_on(ProcessScheduler(jobs=2, start_method="fork"), resilient)
            serial = run_on(SerialScheduler(), resilient)
            assert spawn.counts == fork.counts == serial.counts
            assert sum(spawn.counts.values()) == shots
            assert spawn.fallback_history == fork.fallback_history
            assert spawn.degraded == fork.degraded == resilient
            assert bool(spawn.fallback_history) == resilient
            assert (spawn.retried_shots > 0) == resilient

    def test_pool_that_breaks_during_submission_requeues_the_wave(
        self, monkeypatch
    ):
        # A worker dying while the supervisor is still submitting a wave
        # makes submit() raise BrokenProcessPool.  That loses the wave --
        # every chunk of it is requeued -- it is not a failed pool start.
        from concurrent.futures.process import BrokenProcessPool

        submits = []
        new_pool = ProcessScheduler._new_pool

        def flaky_pool(self, workers):
            pool = new_pool(self, workers)
            submit = pool.submit

            def flaky_submit(*args, **kwargs):
                submits.append(1)
                if len(submits) == 2:
                    raise BrokenProcessPool("A child process terminated abruptly")
                return submit(*args, **kwargs)

            pool.submit = flaky_submit
            return pool

        monkeypatch.setattr(ProcessScheduler, "_new_pool", flaky_pool)
        program = reset_chain_qir(2, rounds=2)
        result = counts_for(program, shots=24, jobs=2, sampling="never")
        serial = counts_for(program, shots=24, sampling="never")
        assert result.counts == serial.counts
        assert result.scheduler == "process"
        supervision = result.supervision
        assert supervision.redispatches >= 1
        assert supervision.failed_rounds == 1
        assert supervision.state == "degraded"

    def test_process_chunk_metrics_and_worker_spans(self):
        from repro.runtime import guided_chunks

        observer = Observer()
        rt = QirRuntime(seed=3, observer=observer)
        rt.run_shots(
            bell_qir("static"), shots=20,
            jobs=2, sampling="never",
        )
        expected_chunks = len(guided_chunks(20, 2))
        assert observer.metrics.value(
            "runtime.scheduler.process_chunks"
        ) == expected_chunks
        assert observer.metrics.value(
            "scheduler.queue.chunks"
        ) == expected_chunks
        assert observer.metrics.value(
            "runtime.scheduler.runs{scheduler=process}"
        ) == 1
        workers = [
            e for e in observer.tracer.events if e["name"] == "process.worker"
        ]
        assert len(workers) == expected_chunks
        # Many chunks, at most `jobs` workers: pids map to stable tids.
        assert {e["tid"] for e in workers} <= {1, 2}
        # Every shot appears in exactly one chunk tag, and each span
        # carries the queue-dispatch tags the trace analytics read.
        covered = []
        for event in workers:
            lo, hi = event["args"]["chunk"].split("..")
            covered.extend(range(int(lo), int(hi) + 1))
            assert event["args"]["round"] == 0
            assert "steal" in event["args"]
        assert sorted(covered) == list(range(20))

    def test_fail_fast_raises_first_shot_error(self):
        from repro.runtime.errors import StepLimitExceeded

        rt = QirRuntime(seed=1, step_limit=3)
        with pytest.raises(StepLimitExceeded):
            rt.run_shots(
                bell_qir("static"), shots=20,
                jobs=3, sampling="never",
            )


class TestProcessResilience:
    """Resilience semantics across process boundaries."""

    def test_poisoned_shots_fail_identically_to_serial(self):
        plan = FaultPlan.poison([3, 9, 17], site="gate")
        kwargs = dict(
            shots=40, fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        process = QirRuntime(seed=1).run_shots(
            bell_qir("static"), jobs=4, **kwargs
        )
        serial = QirRuntime(seed=1).run_shots(bell_qir("static"), **kwargs)

        assert sorted(f.shot for f in process.failed_shots) == [3, 9, 17]
        assert process.per_error_counts == {BackendFaultError.code: 3}
        assert process.successful_shots == 37
        assert sum(process.counts.values()) == 37
        assert process.counts == serial.counts
        assert not process.degraded

    def test_transient_faults_recovered_by_retry(self):
        plan = FaultPlan.poison([2, 11, 23], site="gate", failures=1)
        result = QirRuntime(seed=1).run_shots(
            bell_qir("static"), shots=40,
            jobs=4,
            fault_plan=plan, retry=RetryPolicy(max_attempts=3),
        )
        assert result.successful_shots == 40
        assert not result.failed_shots
        assert result.retried_shots == 3

    def test_no_double_counting_under_concurrency(self):
        plan = FaultPlan.random(probability=0.2, seed=5, site="gate")
        kwargs = dict(
            shots=100, fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        result = QirRuntime(seed=7).run_shots(
            bell_qir("static"), jobs=3, **kwargs
        )
        serial = QirRuntime(seed=7).run_shots(bell_qir("static"), **kwargs)
        assert result.successful_shots + len(result.failed_shots) == 100
        assert sum(result.counts.values()) == result.successful_shots
        assert sum(result.per_error_counts.values()) == len(result.failed_shots)
        assert result.counts == serial.counts

    def test_counts_keys_stay_sorted(self):
        result = QirRuntime(seed=4).run_shots(
            qft_qir(3), shots=150, jobs=3, sampling="never"
        )
        assert list(result.counts) == sorted(result.counts)

    def test_fault_tallies_merge_from_workers(self):
        observer = Observer()
        plan = FaultPlan.poison([2, 11, 23], site="gate", failures=1)
        rt = QirRuntime(seed=1, observer=observer)
        rt.run_shots(
            bell_qir("static"), shots=40,
            jobs=4,
            fault_plan=plan, retry=RetryPolicy(max_attempts=3),
        )
        assert observer.metrics.value("resilience.faults_injected") == 3

    def test_per_chunk_fallback_merges_degraded_flag_and_history(self):
        # Documented divergence: every dispatched chunk demotes its own
        # chain clone (clones cannot persist across chunks -- which
        # backend serves a shot's attempt 0 must be a pure function of
        # shot index, not of which process happened to pull the chunk),
        # so the merged run is degraded and carries one history entry
        # per chunk.
        from repro.runtime import guided_chunks

        plan = FaultPlan(rules=(FaultRule(site="gate", backend="statevector"),))
        chain = FallbackChain(["statevector", "stabilizer"], demote_after=1)
        result = QirRuntime(seed=2).run_shots(
            ghz_qir(3), shots=30,
            jobs=3,
            fault_plan=plan, fallback=chain, retry=RetryPolicy(max_attempts=2),
        )
        assert result.degraded
        assert result.successful_shots == 30
        # Every chunk's chain clone demoted once.
        assert len(result.fallback_history) == len(guided_chunks(30, 3))
        assert all("stabilizer" in entry for entry in result.fallback_history)
        assert result.backend_shot_counts.get("stabilizer", 0) >= 27


class TestMergeStability:
    """Satellite: ShotsResult merging must not depend on completion order."""

    def _task_and_outcomes(self):
        import numpy as np

        from repro.obs.observer import NULL_OBSERVER
        from repro.resilience.fallback import BackendLevel
        from repro.resilience.report import ShotFailure
        from repro.runtime.errors import BackendFaultError, TrapError
        from repro.runtime.shots import (
            ChainGuard,
            ShotExecutor,
            ShotOutcome,
            ShotTask,
        )

        task = ShotTask(
            executor=ShotExecutor(
                "statevector", None, 1000, 4, True, NULL_OBSERVER
            ),
            module=None, entry=None, shots=12,
            root=np.random.SeedSequence(0),
            policy=RetryPolicy(max_attempts=1), injector=None,
            chain=ChainGuard(
                FallbackChain([BackendLevel("statevector", noisy=True)])
            ),
            keep_stats=False, resilient=True, timed=False,
        )
        outcomes = []
        for shot in range(12):
            if shot in (2, 5, 9):
                error = (
                    TrapError("boom") if shot == 5 else BackendFaultError("io")
                )
                outcomes.append(
                    ShotOutcome(
                        shot=shot, backend_label="statevector", attempts=1,
                        failure=ShotFailure.from_error(
                            shot, error, 1, "statevector"
                        ),
                    )
                )
            else:
                outcomes.append(
                    ShotOutcome(
                        shot=shot,
                        bitstring="11" if shot % 3 else "00",
                        backend_label="statevector",
                        attempts=2 if shot == 7 else 1,
                    )
                )
        return task, outcomes

    def test_shuffled_outcomes_merge_identically(self):
        import random

        from repro.runtime.schedulers import build_shots_result

        task, outcomes = self._task_and_outcomes()
        reference = build_shots_result(task, list(outcomes), "process")
        for round_seed in range(8):
            shuffled = list(outcomes)
            random.Random(round_seed).shuffle(shuffled)
            result = build_shots_result(task, shuffled, "process")
            assert result.counts == reference.counts
            assert result.per_error_counts == reference.per_error_counts
            assert [f.shot for f in result.failed_shots] == [
                f.shot for f in reference.failed_shots
            ]
            assert result.degraded == reference.degraded
            assert result.backend_shot_counts == reference.backend_shot_counts
            assert result.retried_shots == reference.retried_shots

    def test_failed_shot_records_come_back_in_shot_order(self):
        import random

        from repro.runtime.schedulers import build_shots_result

        task, outcomes = self._task_and_outcomes()
        random.Random(99).shuffle(outcomes)
        result = build_shots_result(task, outcomes, "process")
        assert [f.shot for f in result.failed_shots] == [2, 5, 9]


# The one option rule, row by row: (jobs, worker_timeout,
# max_worker_failures, chunk_shots), shots -> an error substring, or the
# placement that runs and its worker count.  Every row goes through the
# library (get_scheduler, then run_shots) and through qir-run, on a
# feedback program so no tier serves it ahead of the placement.  A row's
# id leads with the placement that runs (for an error row, the one its
# jobs implies): a one-shot run asks for a pool and runs in-thread.
NOT_POOLED = "needs jobs > 1"
OPTION_RULE = [
    ((0, None, None, None), 8, "jobs must be >= 1"),
    ((1, 1.0, None, None), 8, "worker_timeout " + NOT_POOLED),
    ((1, None, 3, None), 8, "max_worker_failures " + NOT_POOLED),
    ((1, None, None, 4), 8, "chunk_shots " + NOT_POOLED),
    ((1, -1.0, None, None), 8, "worker_timeout " + NOT_POOLED),
    ((1, 2.5, 5, 4), 8, "worker_timeout " + NOT_POOLED),
    ((2, 0.0, None, None), 8, "worker_timeout must be > 0"),
    ((2, None, 0, None), 8, "max_worker_failures must be >= 1"),
    ((2, None, None, 0), 8, "chunk_shots must be >= 1"),
    ((1, None, None, None), 8, ("serial", 1)),
    ((2, None, None, None), 8, ("process", 2)),
    ((2, None, None, None), 1, ("serial", 2)),
    ((4, None, None, None), 8, ("process", 4)),
    ((2, 30.0, 4, 3), 8, ("process", 2)),
]


def _cli_flags(jobs, worker_timeout, max_worker_failures, chunk_shots):
    flags = ["--jobs", str(jobs)]
    for flag, value in (
        ("--worker-timeout", worker_timeout),
        ("--max-worker-failures", max_worker_failures),
        ("--chunk-shots", chunk_shots),
    ):
        if value is not None:
            flags += [flag, str(value)]
    return flags


def _option_id(row, expected):
    if isinstance(expected, str):
        placement = "process" if row[0] > 1 else "serial"
    else:
        placement = expected[0]
    return "-".join([placement] + [str(v) for v in row])


@pytest.mark.parametrize(
    "options, shots, expected", OPTION_RULE,
    ids=[_option_id(row, expected) for row, _, expected in OPTION_RULE],
)
def test_option_rule_is_shared_by_library_and_cli(
    options, shots, expected, tmp_path, capsys
):
    jobs, worker_timeout, max_worker_failures, chunk_shots = options
    knobs = dict(
        worker_timeout=worker_timeout,
        max_worker_failures=max_worker_failures,
        chunk_shots=chunk_shots,
    )
    program = tmp_path / "feedback.ll"
    program.write_text(FEEDBACK_PROGRAM)
    metrics = tmp_path / "m.json"
    code = run_main([
        str(program), "--shots", str(shots), "--seed", "3",
        "--metrics", str(metrics), *_cli_flags(*options),
    ])
    err = capsys.readouterr().err

    if isinstance(expected, str):
        with pytest.raises(ValueError, match=re.escape(expected)):
            get_scheduler(jobs, **knobs)
        with pytest.raises(ValueError, match=re.escape(expected)):
            run_shots(FEEDBACK_PROGRAM, shots=shots, seed=3, jobs=jobs, **knobs)
        assert code == 2
        assert err.startswith("qir-run: error: ") and expected in err
        return

    placement, workers = expected
    assert get_scheduler(jobs, **knobs).jobs == workers
    result = run_shots(
        FEEDBACK_PROGRAM, shots=shots, seed=3, jobs=jobs, **knobs
    )
    assert result.scheduler == placement
    assert code == 0
    written = json.loads(metrics.read_text())
    if shots == 1:
        # qir-run runs a lone shot as one in-thread execute: no shot
        # loop to count and no pool started.
        assert not any(
            k.startswith(("runtime.scheduler.", "runtime.shots."))
            for k in written["counters"]
        )
        return
    assert written["counters"][f"runtime.scheduler.runs{{scheduler={placement}}}"] == 1
    (info,) = [k for k in written["gauges"] if k.startswith("run.info{")]
    assert f"jobs={workers}," in info
    assert f"scheduler={placement}" in info


@pytest.mark.parametrize("flag", ["--scheduler", "--no-fusion", "--no-dist-cache"])
def test_deleted_path_flags_are_unknown_arguments(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_main(["program.ll", flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("placement, jobs", [
    ("serial", 1), ("batched", 1), ("process", 2),
])
@pytest.mark.parametrize("sampling", ["auto", "never"])
@pytest.mark.parametrize("addressing", ["static", "dynamic"])
def test_program_wider_than_max_qubits_raises_coded_error(
    addressing, sampling, placement, jobs
):
    # 9 qubits on an 8-qubit statevector: the width alone exceeds the
    # guard, whatever the interpreter reserves for static addresses.
    # "batched" runs a compiled plan in-thread, where the batch tier is
    # considered and must step aside for the too-wide schedule.
    text = ghz_qir(9, addressing=addressing)
    if placement == "batched":
        text = compile_plan(text)
    runtime = QirRuntime(max_qubits=8, seed=1)
    with pytest.raises(QubitAllocationError, match="max_qubits=8"):
        runtime.run_shots(
            text, shots=4, sampling=sampling, jobs=jobs
        )
    if sampling == "never":
        # A resilient run records one structured failure per shot.
        result = runtime.run_shots(
            text, shots=4, sampling=sampling, jobs=jobs, collect_failures=True,
        )
        assert result.per_error_counts == {QubitAllocationError.code: 4}
        assert result.successful_shots == 0


def test_fused_plan_wider_than_max_qubits_raises_coded_error():
    # A compiled plan carries a fused kernel schedule; one too wide for
    # the statevector must still end in the coded error.
    runtime = QirRuntime(max_qubits=8, seed=1)
    plan = QirSession(runtime=runtime).compile(ghz_qir(9))
    assert plan.fused is not None
    with pytest.raises(QubitAllocationError, match="max_qubits=8"):
        runtime.run_shots(plan, shots=4, sampling="never")
