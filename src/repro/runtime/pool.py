"""The process placement: :class:`ProcessScheduler`, N worker processes
under a supervisor, for the pure-Python-bound per-shot loop that the GIL
keeps threads from overlapping.

The worker protocol ships the task, not copies of its fields: each
:class:`_WorkerChunk` carries the run's
:class:`~repro.runtime.shots.ShotTask`, pickled once per run with the
program as serialized :class:`~repro.runtime.plan.ExecutionPlan` bytes
(so workers never re-run verify, passes or analysis), a lock-free clone
of the fallback chain and the raw fault plan.  A worker runs each shot of its
chunk through :meth:`ShotTask.run_one`, the same call the in-thread loop
makes.  Its :class:`_WorkerReport` carries only what it measured; the
supervisor pairs it with the chunk it dispatched.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.resilience.faults import corrupt_bytes
from repro.runtime.dispatch import Chunk, ChunkQueue
from repro.runtime.errors import (
    PoolStartupError,
    QirRuntimeError,
    SchedulerExhaustedError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.runtime.shots import ShotOutcome, ShotTask


@dataclass
class SupervisionRecord:
    """What the process scheduler's supervisor saw and did in one run.

    The state machine (documented in DESIGN.md): **healthy** while every
    dispatched chunk reports back; **degraded** once a worker crashed,
    hung, or corrupted its report and the lost chunks were re-dispatched;
    **demoted** when ``max_worker_failures`` failed rounds tripped the
    circuit breaker and the remaining shots ran in the serial loop.
    """

    rounds: int = 0
    crashes: int = 0
    hangs: int = 0
    ipc_corruptions: int = 0
    redispatches: int = 0
    failed_rounds: int = 0
    breaker_tripped: bool = False
    demoted_to: Optional[str] = None
    worker_timeout: Optional[float] = None
    last_error_code: str = ""
    events: List[str] = field(default_factory=list)

    @property
    def worker_failures(self) -> int:
        """Chunks lost to infrastructure, across all rounds."""
        return self.crashes + self.hangs + self.ipc_corruptions

    @property
    def state(self) -> str:
        """``healthy`` / ``degraded`` / ``demoted`` (see class docstring)."""
        if self.demoted_to is not None:
            return "demoted"
        if self.worker_failures:
            return "degraded"
        return "healthy"

    def note(self, event: str) -> None:
        self.events.append(event)

    def summary(self) -> str:
        text = (
            f"state={self.state} rounds={self.rounds} crashes={self.crashes} "
            f"hangs={self.hangs} ipc_corrupt={self.ipc_corruptions} "
            f"redispatched={self.redispatches}"
        )
        if self.demoted_to is not None:
            text += f" demoted_to={self.demoted_to}"
        return text


# -- the worker protocol ------------------------------------------------------


@dataclass
class _WorkerChunk:
    """One dispatch: a queue chunk of the run's task, all of it picklable."""

    #: Dispatch number within the run (unique per dispatch, so a requeued
    #: chunk never reads a stale heartbeat); the merge folds in this order.
    index: int
    chunk: Chunk
    #: The run's task, pickled once per run in its worker form (see
    #: :meth:`ShotTask.__getstate__`).
    task: bytes
    #: Heartbeat channel (a multiprocessing.Manager dict proxy) when the
    #: supervisor's watchdog is armed; None means run unwatched.
    heartbeat: Optional[object] = None
    #: Minimum seconds between heartbeat writes (IPC cost gate).
    beat_interval: float = 0.0
    #: The supervisor's ``perf_counter()`` at dispatch; the merge rebases
    #: the worker's start clock against it.
    dispatch_clock: float = 0.0


@dataclass
class _WorkerReport:
    """What one worker measured running one chunk, shipped back to the
    supervisor (which pairs it with the :class:`_WorkerChunk` it sent)."""

    outcomes: List[ShotOutcome]
    degraded: bool
    history: List[str]
    faults_raised: int
    seconds: float
    #: The worker's ``perf_counter()`` when it started the chunk.  With a
    #: ``fork`` start method both processes share CLOCK_MONOTONIC, so it
    #: is directly comparable to the dispatch clock; the merge clamps
    #: implausible values (``spawn`` does not guarantee a shared origin).
    started: float = 0.0
    #: Fail-fast mode only: the first error this worker's chunk hit (the
    #: chunk stops there, mirroring the serial loop's early exit, so the
    #: failing shot is the one after the last outcome).
    error: Optional[QirRuntimeError] = None
    #: The worker process's identity and how many chunks it had already
    #: run (``seq``); the merge maps pids to stable worker ids and tags
    #: ``seq > 0`` chunks as self-scheduled steals.
    pid: int = 0
    seq: int = 0


#: How many chunks *this* process has run (always 0 in the parent: only
#: worker processes call :func:`_run_worker_chunk`).  ``fork`` children
#: inherit the parent's 0; ``spawn`` children re-import to 0.
_WORKER_RUNS = 0

def _run_worker_chunk(dispatch: _WorkerChunk) -> Union[_WorkerReport, bytes]:
    """The worker-process entry point: rebuild the task, run a contiguous
    shot range, report outcomes plus resilience deltas.

    Must stay a module-level function (spawn pickles it by reference).
    Workers run unobserved -- metric folding happens in the parent's
    order-independent merge.

    Chaos hooks: a :class:`~repro.resilience.faults.FaultPlan` with
    process-level sites decides this chunk's fate up front (a pure
    function of the plan, the shot range, and the chunk's dispatch
    attempt).  ``worker_crash`` hard-exits before running the poisoned
    shot, ``worker_hang`` stops heartbeating and sleeps until the
    supervisor terminates the process, and ``ipc_corrupt`` ships mangled
    bytes instead of the report.  None of them touch interpreter state,
    so the shots a re-enqueued chunk re-runs are bit-identical.
    """
    global _WORKER_RUNS
    seq = _WORKER_RUNS
    _WORKER_RUNS += 1
    started = perf_counter()
    chunk = dispatch.chunk
    heartbeat = dispatch.heartbeat
    if heartbeat is not None:
        try:
            heartbeat[dispatch.index] = 0  # "started" beat
        except Exception:
            heartbeat = None  # manager unreachable; run unwatched
    # Unpickled here, on the worker's clock: decoding the plan is the
    # worker's work, and each chunk gets its own chain clone and injector.
    task: ShotTask = pickle.loads(dispatch.task)
    fault_plan = task.injector.plan if task.injector is not None else None
    decision = (
        fault_plan.process_decision(chunk.start, chunk.stop, chunk.attempt)
        if fault_plan is not None
        else None
    )
    beats = 0
    last_beat = perf_counter()
    outcomes: List[ShotOutcome] = []
    error: Optional[QirRuntimeError] = None
    for shot in range(chunk.start, chunk.stop):
        if decision is not None:
            if shot == decision.crash_shot:
                os._exit(86)  # simulated hard crash: no cleanup, no report
            if shot == decision.hang_shot:
                # Simulated wedge: no more heartbeats, just sleep until
                # the supervisor's watchdog terminates us.  Bounded so an
                # unsupervised run cannot hang forever.
                sleep(3600.0)
                os._exit(87)
        if heartbeat is not None:
            now = perf_counter()
            if now - last_beat >= dispatch.beat_interval:
                beats += 1
                try:
                    heartbeat[dispatch.index] = beats
                except Exception:
                    heartbeat = None
                last_beat = now
        try:
            outcomes.append(task.run_one(shot))
        except QirRuntimeError as exc:
            # Fail-fast (non-resilient) semantics: stop the chunk at its
            # first failure; the parent raises the globally-first one.
            error = exc
            break
    report = _WorkerReport(
        outcomes=outcomes,
        degraded=task.chain.degraded,
        history=task.chain.history,
        faults_raised=(
            task.injector.stats.faults_raised if task.injector is not None else 0
        ),
        seconds=perf_counter() - started,
        started=started,
        error=error,
        pid=os.getpid(),
        seq=seq,
    )
    if decision is not None and decision.corrupt_report:
        # The work was done; the IPC payload is what gets mangled.  The
        # parent sees "not a _WorkerReport" and treats the chunk as lost.
        return corrupt_bytes(
            pickle.dumps(report), seed=fault_plan.seed ^ (dispatch.index + 1)
        )
    return report


def _default_start_method() -> str:
    """Prefer ``fork`` where available (no per-worker interpreter boot or
    re-import cost); ``spawn`` elsewhere.  Workers never rely on inherited
    state either way -- everything arrives via the pickled chunk."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


# -- the supervisor -----------------------------------------------------------

#: A collected report, paired with the dispatch that produced it.
_Collected = Tuple[_WorkerChunk, _WorkerReport]


class ProcessScheduler:
    """N worker processes draining a shared self-scheduled chunk queue.

    Retry and fault injection are per-shot-deterministic and behave
    exactly as in-thread.  Backend fallback is the one documented
    divergence: workers cannot share a chain across process boundaries,
    so each worker demotes *its own* clone of the chain, and the merge
    ORs the ``degraded`` flags and concatenates histories in dispatch
    order -- a demotion in any worker marks the whole run degraded, but
    shots in other workers may still have run on the original rung.

    The shot range becomes a :class:`~repro.runtime.dispatch.ChunkQueue`
    of guided-size chunks; the supervisor drains the queue into the pool
    in *waves* (all pending chunks submitted at once), and the
    executor's idle processes self-schedule them -- a fast worker simply
    runs more chunks, so one straggler caps a chunk, not an N-th of the
    run.  Each worker decodes the compiled
    :class:`~repro.runtime.plan.ExecutionPlan` from bytes once per
    process, runs its chunks with the same spawned per-shot seeds the
    in-thread loop uses, and ships outcomes back for the shared
    order-independent merge -- so counts are bit-identical to serial for
    a fixed seed.

    Supervision (the DESIGN.md state machine) rides on queue state:
    every dispatch wave is watched.  A worker that dies takes the whole
    ``ProcessPoolExecutor`` with it (``BrokenProcessPool``, whether the
    wave is running or still being submitted), a worker that stops
    heartbeating within ``worker_timeout`` is terminated, and a worker
    whose IPC payload fails to deserialize is distrusted -- in all three
    cases the affected chunks are *lost*, not fatal: each one is simply
    re-enqueued with its dispatch ``attempt`` bumped, and because
    per-shot seeds are pure functions of ``(root, shot, attempt)`` the
    re-run reproduces bit-identical outcomes.  After
    ``max_worker_failures`` failed waves a circuit breaker stops paying
    pool-restart costs and demotes the remaining shots ``process ->
    serial``, recording the demotion in the shared fallback history.
    ``worker_timeout=None`` (the default) skips the heartbeat channel
    entirely, so the clean path pays no Manager/IPC overhead; it is
    auto-armed when a fault plan injects ``worker_hang`` so a chaos run
    can never wedge.

    Build it through :func:`~repro.runtime.schedulers.get_scheduler`
    (``jobs > 1``), which validates the options.
    """

    name = "process"

    #: Watchdog deadline auto-armed for worker_hang chaos runs (seconds).
    AUTO_HANG_TIMEOUT = 10.0

    #: Extra seconds granted before a worker's *first* heartbeat: process
    #: startup (fork/spawn, plan deserialization) is the pool's cost, not
    #: the worker's, and under load it can exceed a tight ``worker_timeout``
    #: -- without the grace a slow-starting healthy worker reads as hung.
    STARTUP_GRACE = 10.0

    def __init__(
        self,
        jobs: int = 2,
        start_method: Optional[str] = None,
        worker_timeout: Optional[float] = None,
        max_worker_failures: int = 2,
        chunk_shots: Optional[int] = None,
    ):
        self.jobs = jobs
        self.start_method = start_method or _default_start_method()
        self.worker_timeout = worker_timeout
        self.max_worker_failures = max_worker_failures
        self.chunk_shots = chunk_shots
        #: :class:`SupervisionRecord` of the most recent supervised run
        #: (None until one happens); the runtime attaches it to the
        #: :class:`~repro.runtime.schedulers.ShotsResult`.
        self.supervision: Optional[SupervisionRecord] = None

    def run(self, task: ShotTask) -> List[ShotOutcome]:
        if task.plan_bytes is None:
            raise ValueError(
                "process scheduler needs task.plan_bytes (a serialized "
                "ExecutionPlan); run it through QirRuntime.run_shots"
            )
        supervision = self.supervision = SupervisionRecord()
        obs = task.executor.observer
        t0 = perf_counter()
        try:
            return self._run_supervised(task, supervision, obs, t0)
        finally:
            if obs.enabled:
                obs.tracer.complete(
                    "process.supervisor",
                    start=t0,
                    seconds=perf_counter() - t0,
                    rounds=supervision.rounds,
                    crashes=supervision.crashes,
                    hangs=supervision.hangs,
                    redispatches=supervision.redispatches,
                    state=supervision.state,
                )

    # -- supervision internals ------------------------------------------------
    def _effective_timeout(self, task: ShotTask) -> Optional[float]:
        if self.worker_timeout is not None:
            return self.worker_timeout
        if task.injector is not None and task.injector.plan.has_hang_faults:
            return self.AUTO_HANG_TIMEOUT
        return None

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        try:
            context = multiprocessing.get_context(self.start_method)
            return ProcessPoolExecutor(max_workers=workers, mp_context=context)
        except (OSError, ValueError, RuntimeError, ImportError) as error:
            raise PoolStartupError(
                f"could not start the {self.start_method!r} worker pool "
                f"({workers} worker(s)): {error}"
            ) from error

    def _run_supervised(
        self,
        task: ShotTask,
        supervision: SupervisionRecord,
        obs,
        t0: float,
    ) -> List[ShotOutcome]:
        timeout = supervision.worker_timeout = self._effective_timeout(task)
        manager = None
        heartbeat = None
        beat_interval = 0.0
        if timeout is not None:
            try:
                manager = multiprocessing.get_context(self.start_method).Manager()
                heartbeat = manager.dict()
            except Exception as error:
                raise PoolStartupError(
                    f"could not start the heartbeat manager: {error}"
                ) from error
            beat_interval = min(0.25, timeout / 4.0)
        shipped = pickle.dumps(task)
        queue = ChunkQueue.for_shots(task.shots, self.jobs, self.chunk_shots)
        reports: List[_Collected] = []
        missing: List[int] = []
        next_index = 0
        pool: Optional[ProcessPoolExecutor] = None
        pool_broken = False
        try:
            while queue.pending:
                supervision.rounds += 1
                wave = queue.take_all()
                if pool is None or pool_broken:
                    if pool is not None:
                        pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._new_pool(min(self.jobs, len(wave)))
                    pool_broken = False
                dispatch = []
                for chunk in wave:
                    dispatch.append(_WorkerChunk(
                        next_index, chunk, shipped, heartbeat, beat_interval,
                        dispatch_clock=perf_counter(),
                    ))
                    next_index += 1
                done_reports, lost, pool_broken = self._await_wave(
                    pool, dispatch, timeout, supervision, obs
                )
                reports.extend(done_reports)
                if any(report.error is not None for _, report in reports):
                    # Fail-fast mode hit a program/runtime error: stop
                    # supervising, let the merge raise it (re-dispatching
                    # lost chunks would only delay the inevitable).
                    break
                if not lost:
                    break
                supervision.failed_rounds += 1
                if supervision.failed_rounds >= self.max_worker_failures:
                    supervision.breaker_tripped = True
                    if obs.enabled:
                        obs.inc("scheduler.worker.breaker_trip")
                    missing = sorted(
                        s for chunk in lost for s in range(chunk.start, chunk.stop)
                    )
                    break
                supervision.redispatches += len(lost)
                if obs.enabled:
                    obs.inc("scheduler.worker.redispatch", len(lost))
                for chunk in lost:
                    queue.requeue(chunk)
        finally:
            if pool is not None:
                pool.shutdown(wait=not pool_broken, cancel_futures=True)
            if manager is not None:
                manager.shutdown()
        outcomes = self._merge(task, reports, obs, t0, queue)
        if missing:
            outcomes.extend(self._run_demoted(task, missing, supervision, obs))
        return outcomes

    def _crashed(self, supervision: SupervisionRecord, obs, event: str) -> None:
        supervision.crashes += 1
        supervision.last_error_code = WorkerCrashError.code
        supervision.note(event)
        if obs.enabled:
            obs.inc("scheduler.worker.crash")

    def _await_wave(
        self,
        pool: ProcessPoolExecutor,
        dispatch: List[_WorkerChunk],
        timeout: Optional[float],
        supervision: SupervisionRecord,
        obs,
    ) -> Tuple[List[_Collected], List[Chunk], bool]:
        """Dispatch one queue wave and watch it; returns (reports, lost,
        broken).

        The whole wave is submitted at once -- the executor's idle
        processes pull chunks as they free up, which *is* the
        self-scheduling: a straggler holds one chunk while its peers
        drain the rest.  ``lost`` holds the queue chunks that produced no
        usable report (crash, hang, corrupt IPC) for re-enqueueing;
        ``broken`` means the pool must be recreated before the next wave.

        The heartbeat watchdog only judges chunks whose worker *started*
        (wrote its first beat): a chunk still waiting in the executor's
        queue is not hung.  A pool-wide stall backstop (no completion,
        start, or beat for ``timeout + STARTUP_GRACE``) catches the case
        where every process wedged before any chunk of the wave started.
        """
        round_index = supervision.rounds - 1
        futures = {}
        try:
            for sent in dispatch:
                futures[pool.submit(_run_worker_chunk, sent)] = sent
        except BrokenProcessPool:
            # A worker died while the wave was still being submitted: the
            # pool is gone, so the whole wave is lost -- submitted or not,
            # every chunk goes back to the queue.
            for future in futures:
                future.cancel()
            self._crashed(
                supervision, obs,
                f"round {round_index}: the pool broke while its wave was "
                f"being submitted; {len(dispatch)} chunk(s) returned to "
                "the queue",
            )
            return [], [sent.chunk for sent in dispatch], True
        except (OSError, RuntimeError, ValueError) as error:
            # The executor starts its processes on submit, not in its
            # constructor: this is the pool failing to start.
            raise PoolStartupError(
                f"could not dispatch to the {self.start_method!r} worker "
                f"pool: {error}"
            ) from error
        progress = {sent.index: (-1, perf_counter()) for sent in dispatch}
        hung: Set[int] = set()
        not_done = set(futures)
        last_progress = perf_counter()
        poll = None if timeout is None else max(0.01, min(0.1, timeout / 4.0))
        while not_done:
            done_now, not_done = wait(not_done, timeout=poll)
            if not not_done or timeout is None:
                continue
            now = perf_counter()
            if done_now:
                last_progress = now
            started_pending: List[int] = []
            for future in not_done:
                sent = futures[future]
                try:
                    value = sent.heartbeat[sent.index]  # type: ignore[index]
                except Exception:
                    value = -1
                last_value, since = progress[sent.index]
                if value != last_value:
                    progress[sent.index] = (value, now)
                    last_progress = now
                    if value >= 0:
                        started_pending.append(sent.index)
                    continue
                if value < 0:
                    # Not started: still in the executor's queue (or the
                    # pool is wedged pre-start -- the stall backstop
                    # below owns that case, not a per-chunk deadline).
                    continue
                started_pending.append(sent.index)
                if now - since > timeout:
                    hung.add(sent.index)
            # Leave once every started still-pending chunk is a detected
            # hang: healthy workers get to finish (and drain the queued
            # chunks they can reach) while the wedged ones wait for the
            # terminate below.
            if (
                hung
                and started_pending
                and all(i in hung for i in started_pending)
            ):
                break
            if now - last_progress > timeout + self.STARTUP_GRACE:
                hung.update(
                    started_pending or [futures[f].index for f in not_done]
                )
                break
        if hung:
            self._terminate_workers(pool)
        reports: List[_Collected] = []
        lost: List[Chunk] = []
        broken = bool(hung)
        for future, sent in sorted(
            futures.items(), key=lambda entry: entry[1].index
        ):
            span = f"shots {sent.chunk.label}"
            if not future.done():
                future.cancel()
                lost.append(sent.chunk)
                if sent.index not in hung:
                    # Never started: the chunk goes straight back to the
                    # queue without counting as a worker failure -- its
                    # worker did nothing wrong, the pool died around it.
                    supervision.note(
                        f"round {round_index}: chunk {sent.index} ({span}) "
                        "returned to the queue undispatched"
                    )
                    continue
                supervision.hangs += 1
                supervision.last_error_code = WorkerTimeoutError.code
                supervision.note(
                    f"round {round_index}: worker {sent.index} ({span}) "
                    f"missed its {timeout:g}s heartbeat deadline"
                )
                if obs.enabled:
                    obs.inc("scheduler.worker.hang")
                continue
            try:
                result = future.result(timeout=0)
            except BrokenProcessPool:
                broken = True
                self._crashed(
                    supervision, obs,
                    f"round {round_index}: worker {sent.index} ({span}) "
                    "lost to a worker-process crash",
                )
                lost.append(sent.chunk)
                continue
            # Any other exception is a worker *bug*, not lost infrastructure;
            # it propagates exactly as the unsupervised pool.map did.
            if isinstance(result, _WorkerReport):
                reports.append((sent, result))
                continue
            supervision.ipc_corruptions += 1
            supervision.last_error_code = WorkerCrashError.code
            supervision.note(
                f"round {round_index}: worker {sent.index} ({span}) "
                "returned an undecodable report (IPC corruption)"
            )
            if obs.enabled:
                obs.inc("scheduler.worker.ipc_corrupt")
            lost.append(sent.chunk)
        return reports, lost, broken

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Kill every pool process (hung workers never exit on their own)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def _run_demoted(
        self,
        task: ShotTask,
        shots: List[int],
        supervision: SupervisionRecord,
        obs,
    ) -> List[ShotOutcome]:
        """The breaker tripped: finish the lost shots in the serial loop.

        The in-thread loop shares the parent's :class:`ChainGuard`, so
        backend fallback for these shots behaves exactly as in a serial
        run.  :class:`QirRuntimeError` from a shot propagates -- that is
        the program failing, same as serial fail-fast -- while an
        infrastructure error ends the ladder with
        :class:`SchedulerExhaustedError`.
        """
        code = supervision.last_error_code or WorkerCrashError.code
        task.chain.note_scheduler_demotion(
            f"scheduler:process -> scheduler:serial (after {code}: "
            f"{supervision.worker_failures} worker failure(s) in "
            f"{supervision.failed_rounds} round(s))"
        )
        supervision.demoted_to = "serial"
        supervision.note(
            f"breaker tripped after round {supervision.rounds - 1}: "
            f"re-running {len(shots)} shot(s) on the serial scheduler"
        )
        try:
            return [task.run_one(shot) for shot in shots]
        except QirRuntimeError:
            raise
        except Exception as error:
            raise SchedulerExhaustedError(
                f"process and serial schedulers both failed to complete "
                f"{len(shots)} re-dispatched shot(s): {error}"
            ) from error

    @staticmethod
    def _rebase_start(
        report: _WorkerReport, dispatch_clock: float, pool_start: float
    ) -> float:
        """The worker span's start on the *parent's* clock.

        Workers time themselves on their own ``perf_counter``; folding
        their spans in at ``pool_start`` made every worker appear to
        start the instant the pool did.  The worker's start clock is
        trusted when it reads as real dispatch latency under ``fork``
        (shared CLOCK_MONOTONIC) and clamped to the dispatch clock when
        implausible (``spawn`` clocks share no origin: a start before the
        dispatch, or one that would end the span in the future).  A zero
        dispatch clock means no rebase information.
        """
        if dispatch_clock <= 0.0:
            return pool_start
        started = report.started
        if started >= dispatch_clock and started + report.seconds <= perf_counter():
            return started
        return dispatch_clock

    def _merge(
        self,
        task: ShotTask,
        reports: List[_Collected],
        obs,
        pool_start: float,
        queue: ChunkQueue,
    ) -> List[ShotOutcome]:
        """Fold worker reports into the parent's shared state.

        Dispatch order (not completion order), so histories and metric
        folds are deterministic regardless of pool scheduling.  Worker
        ids for span tags come from the reporting process's pid, assigned
        in first-appearance order over that same deterministic iteration
        -- many chunks, few workers, stable labels.
        """
        outcomes: List[ShotOutcome] = []
        first_error: Optional[QirRuntimeError] = None
        first_error_shot = -1
        worker_ids: Dict[int, int] = {}
        for sent, report in sorted(reports, key=lambda pair: pair[0].index):
            outcomes.extend(report.outcomes)
            task.chain.absorb_worker(report.degraded, report.history)
            if task.injector is not None and report.faults_raised:
                task.injector.note_fault_raised(report.faults_raised)
            error_shot = sent.chunk.start + len(report.outcomes)
            if report.error is not None and (
                first_error is None or error_shot < first_error_shot
            ):
                first_error = report.error
                first_error_shot = error_shot
            if obs.enabled:
                worker = worker_ids.setdefault(report.pid, len(worker_ids))
                obs.inc("runtime.scheduler.process_chunks")
                obs.tracer.complete(
                    "process.worker",
                    start=self._rebase_start(
                        report, sent.dispatch_clock, pool_start
                    ),
                    seconds=report.seconds,
                    tid=worker + 1,
                    worker=worker,
                    shots=len(report.outcomes),
                    chunk=sent.chunk.label,
                    round=sent.chunk.attempt,
                    steal=report.seq > 0,
                )
        if obs.enabled:
            obs.inc("scheduler.queue.chunks", queue.stats.dispatched)
            steals = sum(1 for _, report in reports if report.seq > 0)
            if steals:
                obs.inc("scheduler.queue.steal", steals)
            if queue.stats.refills:
                obs.inc("scheduler.queue.refill", queue.stats.refills)
        if first_error is not None:
            # Each chunk stops at its own first failure, so the minimum
            # failing shot across chunks is the globally first one -- the
            # exact error the serial loop would have raised.
            raise first_error
        return outcomes
