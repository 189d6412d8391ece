"""Run-context propagation: run_id on spans, workers, results, and rows."""

from time import perf_counter

import pytest

from repro.obs.observer import Observer
from repro.obs.runctx import RunContext, is_run_id
from repro.resilience import FaultPlan
from repro.runtime import QirRuntime, QirSession, guided_chunks
from repro.runtime.errors import StepLimitExceeded
from repro.runtime.plan import compile_plan
from repro.runtime.pool import ProcessScheduler, _WorkerReport
from repro.runtime.shots import ShotOutcome
from repro.workloads.qir_programs import bell_qir


class TestRuntimePropagation:
    def test_result_carries_run_id_and_run_info_gauge(self):
        observer = Observer()
        rt = QirRuntime(seed=1, observer=observer)
        result = rt.run_shots(bell_qir("static"), shots=20)
        assert is_run_id(result.run_id)
        gauges = observer.metrics.snapshot()["gauges"]
        info_keys = [k for k in gauges if k.startswith("run.info{")]
        assert len(info_keys) == 1
        assert f"run_id={result.run_id}" in info_keys[0]
        assert gauges[info_keys[0]] == 1

    def test_run_phase_spans_carry_run_id(self):
        observer = Observer()
        rt = QirRuntime(seed=1, observer=observer)
        result = rt.run_shots(bell_qir("static"), shots=5, sampling="never")
        run_spans = [
            e for e in observer.tracer.events if e["name"] == "run_shots"
        ]
        assert run_spans
        assert all(e["args"]["run_id"] == result.run_id for e in run_spans)

    def test_worker_spans_carry_run_id(self):
        observer = Observer()
        rt = QirRuntime(seed=3, observer=observer)
        result = rt.run_shots(
            bell_qir("static"), shots=20,
            jobs=2, sampling="never",
        )
        workers = [
            e for e in observer.tracer.events if e["name"] == "process.worker"
        ]
        assert len(workers) == len(guided_chunks(20, 2))
        assert all(e["args"]["run_id"] == result.run_id for e in workers)

    def test_caller_context_is_honoured(self):
        observer = Observer()
        rt = QirRuntime(seed=1, observer=observer)
        context = RunContext(parent_span_id="request-span-9")
        result = rt.run_shots(
            bell_qir("static"), shots=10, run_context=context
        )
        assert result.run_id == context.run_id
        gauges = observer.metrics.snapshot()["gauges"]
        info = next(k for k in gauges if k.startswith("run.info{"))
        assert "parent_span_id=request-span-9" in info

    @pytest.mark.parametrize("sampling, scheduler", [
        ("auto", "serial"), ("never", "process"),
    ])
    def test_run_is_labelled_with_the_placement_that_served_it(
        self, sampling, scheduler
    ):
        # The fast path serves a run in-thread whatever jobs asks for;
        # the gauge and the span say so, as the result does.
        observer = Observer()
        rt = QirRuntime(seed=1, observer=observer)
        result = rt.run_shots(
            compile_plan(bell_qir("static")), shots=50, jobs=2, sampling=sampling
        )
        assert result.scheduler == scheduler
        gauges = observer.metrics.snapshot()["gauges"]
        (info,) = [k for k in gauges if k.startswith("run.info{")]
        assert f"scheduler={scheduler}" in info
        (span,) = [e for e in observer.tracer.events if e["name"] == "run_shots"]
        assert span["args"]["scheduler"] == scheduler

    def test_a_run_that_raises_publishes_no_run_info(self):
        observer = Observer()
        rt = QirRuntime(seed=1, observer=observer, step_limit=3)
        with pytest.raises(StepLimitExceeded):
            rt.run_shots(bell_qir("static"), shots=4, jobs=2, sampling="never")
        gauges = observer.metrics.snapshot()["gauges"]
        assert not [k for k in gauges if k.startswith("run.info{")]

    def test_unobserved_run_without_context_stays_anonymous(self):
        # No observer, no caller context: no identity is minted, so the
        # no-op hot path pays nothing for the feature.
        result = QirRuntime(seed=1).run_shots(bell_qir("static"), shots=10)
        assert result.run_id == ""

    def test_failure_report_opens_with_run_line(self):
        observer = Observer()
        rt = QirRuntime(seed=1, observer=observer)
        result = rt.run_shots(
            bell_qir("static"), shots=6,
            fault_plan=FaultPlan.poison([1], site="gate"),
            collect_failures=True,
            sampling="never",
        )
        assert result.failed_shots
        report = result.failure_report()
        assert report.splitlines()[0] == f"RUN\trun_id={result.run_id}"


def rebase(pool_start, seconds=0.01, dispatch_clock=0.0, start_offset=-1.0):
    report = _WorkerReport(
        outcomes=[ShotOutcome(shot=0, bitstring="0")],
        degraded=False,
        history=[],
        faults_raised=0,
        seconds=seconds,
        started=dispatch_clock + start_offset,
    )
    return ProcessScheduler._rebase_start(report, dispatch_clock, pool_start)


class TestWorkerClockRebase:
    def test_legacy_report_falls_back_to_pool_start(self):
        assert rebase(pool_start=123.0) == 123.0  # dispatch_clock unset

    def test_plausible_offset_rebases_onto_dispatch_latency(self):
        dispatch = perf_counter() - 1.0
        assert rebase(
            0.0, seconds=0.01, dispatch_clock=dispatch, start_offset=0.25
        ) == dispatch + 0.25

    def test_negative_offset_clamps_to_dispatch_time(self):
        # spawn start method: worker clock shares no origin with ours.
        dispatch = perf_counter() - 1.0
        assert rebase(0.0, dispatch_clock=dispatch, start_offset=-5.0) == dispatch

    def test_future_ending_span_clamps_to_dispatch_time(self):
        dispatch = perf_counter()
        assert rebase(
            0.0, seconds=0.5, dispatch_clock=dispatch, start_offset=3600.0
        ) == dispatch

    def test_worker_spans_start_at_or_after_dispatch(self):
        observer = Observer()
        rt = QirRuntime(seed=3, observer=observer)
        rt.run_shots(
            bell_qir("static"), shots=30,
            jobs=3, sampling="never",
        )
        events = observer.tracer.events
        supervisor = next(
            e for e in events if e["name"] == "process.supervisor"
        )
        workers = [e for e in events if e["name"] == "process.worker"]
        assert len(workers) == len(guided_chunks(30, 3))
        # Rebased starts sit inside the supervisor span, not all at its
        # start (the pre-rebase behaviour pinned every worker to t=0).
        for worker in workers:
            assert worker["ts"] >= supervisor["ts"]
            assert (
                worker["ts"] + worker["dur"]
                <= supervisor["ts"] + supervisor["dur"] + 1
            )


class TestSessionLedgerIntegration:
    def test_session_row_matches_in_process_result(self, tmp_path):
        observer = Observer()
        session = QirSession(
            runtime=QirRuntime(seed=7, observer=observer),
            ledger_dir=str(tmp_path),
        )
        result = session.run_shots(bell_qir("static"), shots=50)
        assert is_run_id(result.run_id)
        record = session.ledger.get(result.run_id)
        assert record is not None
        assert record.shots == 50
        assert record.successful_shots == result.successful_shots == 50
        assert record.scheduler == result.scheduler
        assert record.used_fast_path == result.used_fast_path
        assert record.wall_seconds == pytest.approx(result.wall_seconds)
        assert record.plan_key  # the session knows the plan key
        assert record.counters.get("runtime.shots.requested") == 50
        assert record.environment  # fingerprint embedded

    def test_fast_path_row_and_gauge_say_serial_under_jobs(self, tmp_path):
        observer = Observer()
        session = QirSession(
            runtime=QirRuntime(seed=7, observer=observer),
            ledger_dir=str(tmp_path),
        )
        result = session.run_shots(bell_qir("static"), shots=50, jobs=2)
        assert result.used_fast_path and result.scheduler == "serial"
        assert session.ledger.get(result.run_id).scheduler == "serial"
        gauges = observer.metrics.snapshot()["gauges"]
        (info,) = [k for k in gauges if k.startswith("run.info{")]
        assert "scheduler=serial" in info

    def test_unobserved_session_still_writes_rows(self, tmp_path):
        session = QirSession(seed=7, ledger_dir=str(tmp_path))
        result = session.run_shots(bell_qir("static"), shots=25)
        record = session.ledger.get(result.run_id)
        assert record is not None
        assert record.shots == 25
        assert record.counters == {}  # nothing observed, nothing embedded

    def test_raising_run_writes_an_error_row(self, tmp_path, monkeypatch):
        session = QirSession(seed=7, ledger_dir=str(tmp_path))

        def boom(*args, **kwargs):
            raise RuntimeError("scheduler exploded")

        monkeypatch.setattr(session.runtime, "run_shots", boom)
        with pytest.raises(RuntimeError):
            session.run_shots(bell_qir("static"), shots=10)
        rows = session.ledger.list_runs()
        assert len(rows) == 1
        assert rows[0].error_code == "RuntimeError"
        assert rows[0].shots == 10
        assert rows[0].successful_shots == 0

    @pytest.mark.parametrize("shots, scheduler", [(1, "serial"), (4, "process")])
    def test_error_row_names_the_placement_that_runs(
        self, tmp_path, monkeypatch, shots, scheduler
    ):
        # A lone shot runs in-thread whatever jobs asks for; the error
        # row says so, as the trace and the run.info gauge do.
        session = QirSession(seed=7, ledger_dir=str(tmp_path))

        def boom(*args, **kwargs):
            raise RuntimeError("scheduler exploded")

        monkeypatch.setattr(session.runtime, "run_shots", boom)
        with pytest.raises(RuntimeError):
            session.run_shots(bell_qir("static"), shots=shots, jobs=2)
        (row,) = session.ledger.list_runs()
        assert row.scheduler == scheduler
        assert row.jobs == 2

    def test_no_ledger_session_still_mints_identity(self):
        session = QirSession(seed=7)
        assert session.ledger is None
        result = session.run_shots(bell_qir("static"), shots=10)
        assert is_run_id(result.run_id)
