"""Worker supervision: deadlines, crash/hang/IPC chaos, redispatch,
and the process -> serial circuit breaker.

Every chaos scenario asserts the tentpole invariant: because per-shot
seeds are pure functions of ``(root, shot, attempt)``, a run that loses
workers and re-dispatches their chunks produces counts *bit-identical*
to a serial run with the same seed and the same fault plan (process
sites are inert outside the process scheduler, so the serial arm is the
clean reference distribution).
"""

import pickle

import pytest

from repro.obs.observer import Observer
from repro.resilience import (
    PERSISTENT,
    PROCESS_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    ProcessFaultDecision,
    RetryPolicy,
    corrupt_bytes,
)
from repro.runtime import (
    PoolStartupError,
    QirRuntime,
    SupervisionRecord,
    WorkerCrashError,
    WorkerTimeoutError,
    compile_plan,
    get_scheduler,
)
from repro.runtime.schedulers import ProcessScheduler
from repro.workloads.qir_programs import bell_qir, reset_chain_qir

PROGRAM = reset_chain_qir(2, rounds=2)


def run(placement, specs=None, *, seed=7, shots=12, jobs=4, program=PROGRAM, **kwargs):
    """One run on a fresh runtime (fresh root, so seeds are comparable)."""
    rt = QirRuntime(seed=seed)
    fault_plan = FaultPlan.parse(specs, seed=0) if specs else None
    return rt.run_shots(
        program, shots=shots, jobs=(jobs if placement == "process" else 1),
        fault_plan=fault_plan, **kwargs,
    )


class TestChaosLayer:
    """The fault-plan extension: process-level sites and decisions."""

    def test_process_sites_are_declared(self):
        assert PROCESS_SITES == ("worker_crash", "worker_hang", "ipc_corrupt")

    def test_round_gating_makes_transient_faults_transient(self):
        plan = FaultPlan.parse(["worker_crash,p=1.0,failures=1"], seed=0)
        first = plan.process_decision(0, 4, 0)
        second = plan.process_decision(0, 4, 1)
        assert first.crash_shot == 0
        assert second.is_inert

    def test_persistent_faults_fire_every_round(self):
        plan = FaultPlan(rules=(FaultRule(site="worker_crash"),))
        assert plan.rules[0].failures == PERSISTENT
        for round_index in range(4):
            assert plan.process_decision(0, 4, round_index).crash_shot == 0

    def test_decision_is_pure_and_per_site(self):
        plan = FaultPlan.parse(
            ["worker_hang,p=1.0,failures=1", "ipc_corrupt,p=1.0,failures=1"],
            seed=3,
        )
        a = plan.process_decision(5, 9, 0)
        b = plan.process_decision(5, 9, 0)
        assert a == b
        assert isinstance(a, ProcessFaultDecision)
        assert a.hang_shot == 5
        assert a.corrupt_report

    def test_process_sites_inert_in_per_shot_contexts(self):
        # The key to the serial reference arm: worker-level rules never
        # leak into per-shot fault contexts.
        plan = FaultPlan.parse(["worker_crash,p=1.0"], seed=0)
        injector = FaultInjector(plan)
        ctx = injector.context(0)
        assert ctx is None or ctx.is_inert

    def test_hang_fault_detection_properties(self):
        crash = FaultPlan.parse(["worker_crash,p=1.0"], seed=0)
        hang = FaultPlan.parse(["worker_hang,p=1.0"], seed=0)
        assert crash.has_process_faults and not crash.has_hang_faults
        assert hang.has_process_faults and hang.has_hang_faults

    def test_corrupt_bytes_changes_data_deterministically(self):
        data = pickle.dumps({"payload": list(range(64))})
        mangled = corrupt_bytes(data, seed=5)
        assert mangled != data
        assert len(mangled) == len(data)
        assert corrupt_bytes(data, seed=5) == mangled
        assert corrupt_bytes(data, seed=6) != mangled
        assert corrupt_bytes(b"") == b"\x00"


class TestWorkerCrash:
    def test_transient_crash_redispatches_bit_identically(self):
        observer = Observer()
        rt = QirRuntime(seed=7, observer=observer)
        plan = FaultPlan.parse(["worker_crash,p=1.0,failures=1"], seed=0)
        result = rt.run_shots(
            PROGRAM, shots=12, jobs=4, fault_plan=plan
        )
        reference = run("serial", ["worker_crash,p=1.0,failures=1"])

        assert result.counts == reference.counts
        assert result.successful_shots == 12
        sup = result.supervision
        assert sup is not None
        assert sup.state == "degraded"
        assert sup.crashes > 0
        assert sup.redispatches > 0
        assert sup.rounds == 2
        assert not sup.breaker_tripped
        metrics = observer.metrics.values_with_prefix("scheduler.worker.")
        assert metrics["scheduler.worker.crash"] == sup.crashes
        assert metrics["scheduler.worker.redispatch"] == sup.redispatches

    def test_persistent_crash_trips_breaker_and_demotes(self):
        observer = Observer()
        rt = QirRuntime(seed=7, observer=observer)
        plan = FaultPlan.parse(["worker_crash,p=1.0"], seed=0)
        result = rt.run_shots(
            PROGRAM, shots=12, jobs=4, fault_plan=plan
        )
        reference = run("serial", ["worker_crash,p=1.0"])

        assert result.counts == reference.counts
        assert result.successful_shots == 12
        sup = result.supervision
        assert sup.state == "demoted"
        assert sup.breaker_tripped
        assert sup.demoted_to == "serial"
        assert result.degraded
        assert any(
            "scheduler:process -> scheduler:serial" in entry
            for entry in result.fallback_history
        )
        assert WorkerCrashError.code in result.fallback_history[-1]
        assert observer.metrics.value("scheduler.worker.breaker_trip") == 1

    def test_supervisor_span_is_traced(self):
        observer = Observer()
        rt = QirRuntime(seed=7, observer=observer)
        plan = FaultPlan.parse(["worker_crash,p=1.0,failures=1"], seed=0)
        rt.run_shots(
            PROGRAM, shots=8, jobs=2, fault_plan=plan
        )
        events = [
            e for e in observer.tracer.events
            if e.get("name") == "process.supervisor"
        ]
        assert len(events) == 1
        tags = events[0]["args"]
        assert tags["rounds"] == 2
        assert tags["state"] == "degraded"
        assert tags["redispatches"] > 0


class TestWorkerHang:
    def test_hung_worker_is_terminated_and_chunk_redispatched(self):
        result = run(
            "process", ["worker_hang,p=1.0,failures=1"], worker_timeout=1.0
        )
        reference = run("serial", ["worker_hang,p=1.0,failures=1"])

        assert result.counts == reference.counts
        assert result.successful_shots == 12
        sup = result.supervision
        assert sup.hangs > 0
        assert sup.redispatches > 0
        assert sup.worker_timeout == 1.0
        assert any("heartbeat deadline" in event for event in sup.events)

    def test_watchdog_auto_arms_for_hang_faults(self):
        result = run("process", ["worker_hang,p=1.0,failures=1"])
        sup = result.supervision
        assert sup.worker_timeout == ProcessScheduler.AUTO_HANG_TIMEOUT
        assert sup.hangs > 0
        assert result.successful_shots == 12

    def test_clean_run_arms_no_watchdog(self):
        result = run("process", sampling="never")
        sup = result.supervision
        assert sup.state == "healthy"
        assert sup.worker_timeout is None
        assert sup.rounds == 1
        assert sup.worker_failures == 0

    def test_hang_records_timeout_error_code(self):
        result = run(
            "process", ["worker_hang,p=1.0"], worker_timeout=1.0,
        )
        sup = result.supervision
        assert sup.breaker_tripped
        assert sup.last_error_code == WorkerTimeoutError.code
        assert any(
            WorkerTimeoutError.code in entry for entry in result.fallback_history
        )


class TestIpcCorruption:
    def test_corrupt_report_is_distrusted_and_redispatched(self):
        observer = Observer()
        rt = QirRuntime(seed=7, observer=observer)
        plan = FaultPlan.parse(["ipc_corrupt,p=1.0,failures=1"], seed=0)
        result = rt.run_shots(
            PROGRAM, shots=12, jobs=4, fault_plan=plan
        )
        reference = run("serial", ["ipc_corrupt,p=1.0,failures=1"])

        assert result.counts == reference.counts
        assert result.successful_shots == 12
        sup = result.supervision
        assert sup.ipc_corruptions > 0
        assert sup.redispatches > 0
        assert observer.metrics.value("scheduler.worker.ipc_corrupt") == \
            sup.ipc_corruptions


class TestPoolStartup:
    def test_unknown_start_method_raises_infra_error(self):
        scheduler = ProcessScheduler(jobs=2)
        scheduler.start_method = "not-a-start-method"
        with pytest.raises(PoolStartupError) as excinfo:
            scheduler._new_pool(2)
        assert excinfo.value.code == "QIR022"
        assert not excinfo.value.retryable

    def test_startup_failure_propagates_from_run(self, monkeypatch):
        rt = QirRuntime(seed=7)

        def broken_pool(self, workers):
            raise PoolStartupError("pool refused to start")

        monkeypatch.setattr(ProcessScheduler, "_new_pool", broken_pool)
        with pytest.raises(PoolStartupError):
            rt.run_shots(
                PROGRAM, shots=8, jobs=2, sampling="never"
            )

    def test_worker_start_failure_on_submit_is_a_startup_error(
        self, monkeypatch
    ):
        # ProcessPoolExecutor starts its processes inside submit(), so a
        # fork that fails there is the pool failing to start, not a
        # lost wave.
        new_pool = ProcessScheduler._new_pool

        def unforkable_pool(self, workers):
            pool = new_pool(self, workers)

            def failing_submit(*args, **kwargs):
                raise BlockingIOError(11, "Resource temporarily unavailable")

            pool.submit = failing_submit
            return pool

        monkeypatch.setattr(ProcessScheduler, "_new_pool", unforkable_pool)
        with pytest.raises(PoolStartupError) as excinfo:
            QirRuntime(seed=7).run_shots(
                PROGRAM, shots=8, jobs=2, sampling="never"
            )
        assert excinfo.value.code == "QIR022"
        assert not excinfo.value.retryable
        assert isinstance(excinfo.value.__cause__, OSError)


class TestSupervisionConfiguration:
    def test_get_scheduler_threads_supervision_options(self):
        scheduler = get_scheduler(4, worker_timeout=2.5, max_worker_failures=5)
        assert scheduler.worker_timeout == 2.5
        assert scheduler.max_worker_failures == 5

    def test_supervision_options_rejected_off_process(self):
        with pytest.raises(ValueError, match="worker_timeout needs jobs > 1"):
            get_scheduler(1, worker_timeout=1.0)
        with pytest.raises(ValueError, match="max_worker_failures needs jobs > 1"):
            get_scheduler(1, max_worker_failures=3)

    def test_invalid_supervision_values_rejected(self):
        with pytest.raises(ValueError, match="worker_timeout"):
            get_scheduler(2, worker_timeout=0.0)
        with pytest.raises(ValueError, match="max_worker_failures"):
            get_scheduler(2, max_worker_failures=0)

    def test_run_shots_accepts_supervision_kwargs(self):
        rt = QirRuntime(seed=7)
        result = rt.run_shots(
            PROGRAM, shots=8, jobs=2,
            worker_timeout=30.0, max_worker_failures=4, sampling="never",
        )
        assert result.supervision is not None
        assert result.supervision.worker_timeout == 30.0

    def test_serial_normalized_runs_have_no_supervision(self):
        rt = QirRuntime(seed=7)
        result = rt.run_shots(
            bell_qir("static"), shots=1, jobs=4,
            sampling="never",
        )
        assert result.supervision is None

    def test_in_process_schedulers_have_no_supervision(self):
        assert run("serial", sampling="never").supervision is None
        # The fast path serves the chain in-thread, whatever jobs says.
        sampled = run("process", program=compile_plan(PROGRAM))
        assert sampled.used_fast_path and sampled.scheduler == "serial"
        assert sampled.supervision is None


class TestSupervisionRecord:
    def test_state_machine(self):
        record = SupervisionRecord()
        assert record.state == "healthy"
        record.crashes = 1
        assert record.state == "degraded"
        record.demoted_to = "serial"
        assert record.state == "demoted"

    def test_summary_shape(self):
        record = SupervisionRecord(
            rounds=3, crashes=2, hangs=1, ipc_corruptions=0, redispatches=3,
            demoted_to="serial",
        )
        summary = record.summary()
        assert "state=demoted" in summary
        assert "crashes=2" in summary
        assert "hangs=1" in summary
        assert "redispatched=3" in summary
        assert "demoted_to=serial" in summary

    def test_failure_report_carries_supervision_line(self):
        result = run("process", ["worker_crash,p=1.0,failures=1"])
        report = result.failure_report()
        assert "SUPERVISOR" in report
        assert "state=degraded" in report
