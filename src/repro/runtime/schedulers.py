"""Placement and merge: where a run's shots execute, and how their
outcomes fold into one :class:`ShotsResult`.

A run is a *placement* times a *chunk executor*.  The executor is
:mod:`repro.runtime.shots` (:meth:`~repro.runtime.shots.ShotTask.run_one`
per shot); the placement is one of two:

* :class:`SerialScheduler` -- the in-thread, in-order loop (``jobs == 1``,
  and every one-shot run);
* :class:`~repro.runtime.pool.ProcessScheduler` -- ``jobs`` worker
  processes under a supervisor, fed serialized plans.

:func:`get_scheduler` picks one from ``jobs`` and is the one place
their options are validated.  :func:`build_shots_result` is the one
order-independent merge every per-shot placement feeds, so counts for a
fixed seed do not depend on where the shots ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.resilience.report import ShotFailure, render_failure_report
from repro.runtime.interpreter import InterpreterStats
from repro.runtime.pool import ProcessScheduler, SupervisionRecord
from repro.runtime.shots import ShotOutcome, ShotTask, sorted_counts


# -- results ------------------------------------------------------------------


@dataclass
class ShotsResult:
    """Aggregate over many shots.

    ``counts`` holds the successful shots only, with bitstring keys in
    stable (sorted) order.  ``shots`` is the number *requested*; use
    ``successful_shots`` as the denominator for rates so a partially
    failed run does not skew downstream statistics.
    """

    counts: Dict[str, int]
    shots: int
    per_shot_stats: List[InterpreterStats] = field(default_factory=list)
    used_fast_path: bool = False
    #: True when a warm plan's cached sampling distribution served these
    #: counts with zero simulation (implies ``used_fast_path``).
    distribution_served: bool = False
    # -- observability (repro.obs) --------------------------------------------
    wall_seconds: float = 0.0
    #: ULID-style identity of this run (see repro.obs.runctx); empty when
    #: the run carried no RunContext (no observer, no ledger, none passed).
    run_id: str = ""
    # Per-backend InterpreterStats aggregation (keep_stats=True in resilient
    # mode): after a FallbackChain demotion the work done on each rung of
    # the ladder stays attributable.
    per_backend_stats: Dict[str, InterpreterStats] = field(default_factory=dict)
    # -- partial-result recovery (resilient mode) -----------------------------
    failed_shots: List[ShotFailure] = field(default_factory=list)
    per_error_counts: Dict[str, int] = field(default_factory=dict)
    degraded: bool = False
    backend_shot_counts: Dict[str, int] = field(default_factory=dict)
    fallback_history: List[str] = field(default_factory=list)
    retried_shots: int = 0
    # -- placement ------------------------------------------------------------
    #: The placement that served the run: ``serial`` or ``process``.
    scheduler: str = "serial"
    #: Worker-supervision record of a ``process`` run (None otherwise).
    supervision: Optional[SupervisionRecord] = None

    @property
    def total_shots(self) -> int:
        """Shots requested (successes + failures)."""
        return self.shots

    @property
    def successful_shots(self) -> int:
        return self.shots - len(self.failed_shots)

    def probabilities(self) -> Dict[str, float]:
        denominator = self.successful_shots
        if denominator <= 0:
            return {}
        return {k: v / denominator for k, v in self.counts.items()}

    @property
    def shots_per_second(self) -> float:
        """Successful-shot throughput over the measured wall time.

        Coarse clocks can report ``wall_seconds == 0`` for very fast runs
        (notably the sampling fast path); the convention -- shared with
        ``render_timing_line`` and the ``runtime.shots_per_second`` gauge
        -- is to report ``0.0`` ("not measurable"), never ``inf``/``nan``.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.successful_shots / self.wall_seconds

    def aggregated_stats(self) -> InterpreterStats:
        """Sum of per-shot stats (requires ``keep_stats=True``)."""
        return InterpreterStats.aggregate(self.per_shot_stats)

    def failure_report(self) -> str:
        supervision = None
        if self.supervision is not None and self.supervision.worker_failures:
            supervision = self.supervision.summary()
        return render_failure_report(
            self.failed_shots,
            self.per_error_counts,
            self.degraded,
            self.fallback_history,
            wall_seconds=self.wall_seconds,
            successful_shots=self.successful_shots,
            supervision=supervision,
            run_id=self.run_id,
        )


# -- placement ----------------------------------------------------------------


class SerialScheduler:
    """The in-thread, in-order loop (one shot at a time)."""

    name = "serial"
    jobs = 1

    def run(self, task: ShotTask) -> List[ShotOutcome]:
        return [task.run_one(shot) for shot in range(task.shots)]


def get_scheduler(
    jobs: int = 1,
    *,
    worker_timeout: Optional[float] = None,
    max_worker_failures: Optional[int] = None,
    chunk_shots: Optional[int] = None,
):
    """Resolve and validate a placement request: the one option rule.

    ``qir-run``, :class:`~repro.runtime.execute.QirRuntime` and
    ``run_shots`` all resolve their options here.  ``jobs`` (``>= 1``)
    is the placement: ``jobs == 1`` is the in-thread
    :class:`SerialScheduler`, ``jobs > 1`` a :class:`ProcessScheduler`
    of that many workers.  ``worker_timeout`` (``> 0`` seconds),
    ``max_worker_failures`` (``>= 1``, default 2) and ``chunk_shots``
    (``>= 1``) configure the worker pool's supervisor and work queue, so
    they need ``jobs > 1``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        for option, value in (
            ("worker_timeout", worker_timeout),
            ("max_worker_failures", max_worker_failures),
            ("chunk_shots", chunk_shots),
        ):
            if value is not None:
                raise ValueError(
                    f"{option} needs jobs > 1 (jobs == 1 runs in-thread, "
                    "with no worker pool to supervise or feed)"
                )
        return SerialScheduler()
    if worker_timeout is not None and worker_timeout <= 0:
        raise ValueError("worker_timeout must be > 0 seconds")
    if max_worker_failures is not None and max_worker_failures < 1:
        raise ValueError("max_worker_failures must be >= 1")
    if chunk_shots is not None and chunk_shots < 1:
        raise ValueError("chunk_shots must be >= 1")
    return ProcessScheduler(
        jobs=jobs,
        worker_timeout=worker_timeout,
        max_worker_failures=(
            2 if max_worker_failures is None else max_worker_failures
        ),
        chunk_shots=chunk_shots,
    )


def placement(jobs: int, shots: int) -> str:
    """The name of the placement that runs ``shots`` shots asked of
    ``jobs`` workers: the pool for ``jobs > 1``, except that a lone shot
    runs in-thread (a pool would only add its start-up cost)."""
    if jobs > 1 and shots > 1:
        return ProcessScheduler.name
    return SerialScheduler.name


# -- merging ------------------------------------------------------------------


def fold_intrinsic_stats(obs, stats: InterpreterStats) -> None:
    """Roll per-intrinsic profile counters into the observer's metrics."""
    for name, n in stats.intrinsic_calls.items():
        obs.inc("runtime.intrinsic_calls", n, intrinsic=name)
    for name, s in stats.intrinsic_seconds.items():
        obs.inc("runtime.intrinsic_seconds", s, intrinsic=name)


def build_shots_result(
    task: ShotTask, outcomes: List[ShotOutcome], scheduler_name: str
) -> ShotsResult:
    """Deterministic order-independent merge of per-shot outcomes.

    All observer metric writes happen here, in the parent, so worker
    processes never touch metric state.
    """
    outcomes = sorted(outcomes, key=lambda o: o.shot)
    obs = task.executor.observer
    profiled = obs.enabled

    counts: Dict[str, int] = {}
    all_stats: List[InterpreterStats] = []
    per_backend_stats: Dict[str, InterpreterStats] = {}
    failures: List[ShotFailure] = []
    per_error: Dict[str, int] = {}
    backend_counts: Dict[str, int] = {}
    retried = 0

    for outcome in outcomes:
        if profiled:
            if outcome.seconds is not None:
                obs.observe("runtime.shot_seconds", outcome.seconds)
            if outcome.stats is not None:
                fold_intrinsic_stats(obs, outcome.stats)
            if outcome.attempts > 1:
                obs.inc("resilience.retry_attempts", outcome.attempts - 1)
        if outcome.failure is not None:
            failures.append(outcome.failure)
            code = outcome.failure.code
            per_error[code] = per_error.get(code, 0) + 1
            if profiled:
                obs.inc("resilience.shot_failures", code=code)
            continue
        assert outcome.bitstring is not None
        counts[outcome.bitstring] = counts.get(outcome.bitstring, 0) + 1
        if outcome.attempts > 1:
            retried += 1
            if profiled:
                obs.inc("resilience.retried_shots")
        if task.resilient:
            label = outcome.backend_label
            backend_counts[label] = backend_counts.get(label, 0) + 1
            if task.keep_stats and outcome.stats is not None:
                bucket = per_backend_stats.get(label)
                if bucket is None:
                    bucket = per_backend_stats[label] = InterpreterStats()
                bucket.merge(outcome.stats)
        if task.keep_stats and outcome.stats is not None:
            all_stats.append(outcome.stats)

    if profiled:
        demotions = task.chain.demotions_this_run
        if demotions:
            obs.inc("resilience.demotions", demotions)
        if task.injector is not None:
            obs.inc(
                "resilience.faults_injected", task.injector.stats.faults_raised
            )

    if not task.resilient:
        return ShotsResult(
            counts=sorted_counts(counts),
            shots=task.shots,
            per_shot_stats=all_stats,
            scheduler=scheduler_name,
        )
    return ShotsResult(
        counts=sorted_counts(counts),
        shots=task.shots,
        per_shot_stats=all_stats,
        per_backend_stats=dict(sorted(per_backend_stats.items())),
        failed_shots=failures,
        per_error_counts=dict(sorted(per_error.items())),
        degraded=task.chain.degraded,
        backend_shot_counts=dict(sorted(backend_counts.items())),
        fallback_history=task.chain.history,
        retried_shots=retried,
        scheduler=scheduler_name,
    )
