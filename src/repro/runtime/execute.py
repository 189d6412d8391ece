"""High-level execution API: run QIR programs for one or many shots.

Measurement collapses simulator state, so -- exactly like the QIR
Alliance's ``qir-runner`` -- multi-shot execution re-interprets the program
per shot with fresh simulator state and aggregates the recorded outputs
into a histogram.

Architecturally this module is now a thin front over the two-phase stack:

* the **compile phase** (:mod:`repro.runtime.plan`) turns source into a
  frozen :class:`~repro.runtime.plan.ExecutionPlan` (``run_shots`` accepts
  one anywhere it accepts source, skipping the frontend entirely);
* the **execute phase** serves the shots from the first tier that
  applies: the plan's cached distribution, the sampling fast path (one
  evolution with every measurement deferred, then joint sampling), or
  the per-shot loop (:mod:`repro.runtime.shots`), in-thread (``jobs=1``,
  the default, and every one-shot run) or in ``jobs=N`` worker processes
  fed serialized plans (:mod:`repro.runtime.pool`).  Every placement of
  the per-shot loop reproduces identical ``counts`` for the same
  ``seed=`` thanks to spawned per-shot seeding.

The runtime picks its own path: ``jobs`` is the only placement option,
and the input decides the specialization (see :meth:`QirRuntime.run_shots`).

For cross-call caching of parsed modules and compiled plans, use
:class:`repro.runtime.session.QirSession`.

Resilient execution (see :mod:`repro.resilience`): ``run_shots`` accepts a
:class:`~repro.resilience.retry.RetryPolicy` (per-shot retry with backoff),
a :class:`~repro.resilience.faults.FaultPlan` (seeded fault injection for
exercising failure paths), and a
:class:`~repro.resilience.fallback.FallbackChain` (backend demotion).  In
resilient mode a failing shot never destroys the run: the result carries
the aggregated successes plus structured per-shot failure records.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Union

import numpy as np

from repro.llvmir.module import Module
from repro.llvmir.parser import parse_assembly
from repro.obs.observer import as_observer
from repro.obs.runctx import RunContext
from repro.resilience.fallback import BackendLevel, FallbackChain, program_is_clifford
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.runtime.interpreter import Interpreter
from repro.runtime.plan import ExecutionPlan, compile_plan
from repro.runtime.sampling_fastpath import (
    DeferredMeasurementBackend,
    FastPathUnsupported,
    SharedStreamResults,
    distribution_from,
    sample_counts_from,
)
from repro.runtime.schedulers import (
    SerialScheduler,
    ShotsResult,
    build_shots_result,
    fold_intrinsic_stats,
    get_scheduler,
    placement,
)
from repro.runtime.shots import (
    ChainGuard,
    ExecutionResult,
    ShotExecutor,
    ShotTask,
    fastpath_sequence,
    sorted_counts as _sorted_counts,
)
from repro.sim.noise import NoiseModel
from repro.sim.statevector import StatevectorSimulator

ModuleLike = Union[Module, str, ExecutionPlan]

__all__ = [
    "ExecutionResult",
    "ShotsResult",
    "QirRuntime",
    "execute",
    "run_shots",
]


def _as_module(program: ModuleLike) -> Module:
    if isinstance(program, ExecutionPlan):
        return program.module
    if isinstance(program, str):
        return parse_assembly(program)
    return program


class QirRuntime:
    """A configured runtime: backend choice, seeding, step limits.

    >>> rt = QirRuntime(backend="statevector", seed=7)
    >>> result = rt.execute(qir_text)
    >>> counts = rt.run_shots(qir_text, shots=1000).counts

    ``jobs`` is the default placement of the per-shot loop for
    ``run_shots`` (overridable per call): in-thread for ``1``, else that
    many worker processes; see
    :func:`~repro.runtime.schedulers.get_scheduler`.
    """

    def __init__(
        self,
        backend: str = "statevector",
        seed: Optional[int] = None,
        step_limit: int = 10_000_000,
        max_qubits: int = 26,
        allow_on_the_fly_qubits: bool = True,
        noise: Optional[NoiseModel] = None,
        observer=None,
        jobs: int = 1,
    ):
        self.backend_name = backend
        self.seed = seed
        self.step_limit = step_limit
        self.max_qubits = max_qubits
        self.allow_on_the_fly_qubits = allow_on_the_fly_qubits
        self.noise = noise
        # Observability (repro.obs): the default is the shared no-op whose
        # hot-path cost is a single attribute check (bench_obs.py guards it).
        self.observer = as_observer(observer)
        self.default_jobs = jobs
        get_scheduler(jobs)  # validate eagerly
        self._rng = np.random.default_rng(seed)

    def _make_executor(self) -> ShotExecutor:
        # Built per call so runtime attribute mutation (tests swap noise
        # models and observers in place) keeps taking effect.
        return ShotExecutor(
            self.backend_name,
            self.noise,
            self.step_limit,
            self.max_qubits,
            self.allow_on_the_fly_qubits,
            self.observer,
        )

    # -- single-shot ---------------------------------------------------------
    def execute(
        self, program: ModuleLike, entry: Optional[str] = None
    ) -> ExecutionResult:
        """Run a single shot and return its full execution record."""
        if isinstance(program, ExecutionPlan) and entry is None:
            entry = program.entry
        module = _as_module(program)
        level = BackendLevel(self.backend_name, noisy=True)
        result = self._make_executor().run_single(
            module, entry, level, None, int(self._rng.integers(2**63))
        )
        if self.observer.enabled:
            fold_intrinsic_stats(self.observer, result.stats)
        return result

    # -- multi-shot ----------------------------------------------------------
    def run_shots(
        self,
        program: ModuleLike,
        shots: int = 1024,
        entry: Optional[str] = None,
        keep_stats: bool = False,
        sampling: str = "auto",
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        fallback: Optional[FallbackChain] = None,
        collect_failures: bool = False,
        jobs: Optional[int] = None,
        worker_timeout: Optional[float] = None,
        max_worker_failures: Optional[int] = None,
        chunk_shots: Optional[int] = None,
        run_context: Optional[RunContext] = None,
    ) -> ShotsResult:
        """Run many shots (parsing once) and histogram the result bitstrings.

        ``sampling``:

        * ``"auto"`` (default) -- attempt the deferred-measurement fast path
          (one statevector evolution, then joint sampling; mid-circuit
          measurement, reset and reuse included); when the program is not
          sampleable (feedback on a measured value, ``m``-style results,
          deferred wires past the growth cap) run it per shot;
        * ``"never"`` -- always run one shot at a time (the qir-runner model);
        * ``"require"`` -- fast path or raise :class:`FastPathUnsupported`.

        The fast path is per run, not per shot: a run it serves starts no
        worker pool, whatever ``jobs`` says.

        ``jobs`` overrides the runtime's default placement of the
        per-shot loop for this call; :func:`get_scheduler` validates it
        together with the pool options below.  A one-shot run always runs
        in-thread.  With ``jobs > 1`` the compiled plan travels to worker
        processes as :meth:`ExecutionPlan.to_bytes` payloads; raw
        text/``Module`` programs are compiled (without re-verification)
        to make one.

        A raw text/``Module`` program runs unspecialized: no fused
        schedule, and no memoized distribution to serve or capture.  Pass
        an :class:`ExecutionPlan` (``QirSession`` does) to get them.

        Passing any of ``retry`` / ``fault_plan`` / ``fallback`` (or
        ``collect_failures=True``) selects the *resilient* per-shot loop:
        failures are retried per ``retry``, the backend may be demoted per
        ``fallback``, and shots that still fail are returned as structured
        records on the result instead of raising.  Resilience is per-shot,
        so a resilient run never takes the fast path.

        ``worker_timeout`` / ``max_worker_failures`` configure the worker
        pool's supervisor (heartbeat deadline in seconds, and failed
        rounds before the circuit breaker finishes the run in the serial
        loop).  The resulting
        :class:`~repro.runtime.pool.SupervisionRecord` rides on
        ``result.supervision``.  ``chunk_shots`` fixes the size of the
        pool's work-queue chunks (default: guided sizing; see
        :func:`repro.runtime.dispatch.guided_chunks`).  All three need
        ``jobs > 1``.

        ``run_context`` is the run's durable identity (see
        :mod:`repro.obs.runctx`): pass one (``QirSession`` does, with the
        plan key filled in) or let an observed run mint its own.  Its
        ``run_id`` is stamped on every span (worker spans included, at the
        merge), published as a ``run.info`` gauge, and returned on
        ``result.run_id`` so callers can join traces, metrics, and ledger
        rows.
        """
        if sampling not in ("auto", "never", "require"):
            raise ValueError(f"unknown sampling mode {sampling!r}")
        jobs_n = jobs if jobs is not None else self.default_jobs
        sched = get_scheduler(
            jobs_n,
            worker_timeout=worker_timeout,
            max_worker_failures=max_worker_failures,
            chunk_shots=chunk_shots,
        )
        if placement(jobs_n, shots) == SerialScheduler.name:
            sched = SerialScheduler()
        obs = self.observer
        ctx: Optional[RunContext] = None
        if run_context is not None or obs.enabled:
            base = run_context if run_context is not None else RunContext()
            labels: dict = {
                "backend": self.backend_name,
                "jobs": jobs_n,
                "shots": shots,
            }
            if entry is not None:
                labels["entry"] = entry
            ctx = base.with_labels(**labels)
            obs.set_run_context(ctx)
        run_id = ctx.run_id if ctx is not None else ""
        t0 = perf_counter()
        with obs.span("run_shots", shots=shots, sampling=sampling) as span:
            result = self._run_shots_impl(
                program, shots, entry, keep_stats, sampling,
                retry, fault_plan, fallback, collect_failures, sched,
            )
            # Labelled once the path is chosen: a run the fast path
            # serves is in-thread whatever ``jobs`` asked for.
            span.tag("scheduler", result.scheduler)
            span.tag("fast_path", result.used_fast_path)
        result.wall_seconds = perf_counter() - t0
        result.run_id = run_id
        if ctx is not None:
            ctx = ctx.with_labels(scheduler=result.scheduler)
            obs.set_run_context(ctx)
            obs.set_gauge("run.info", 1, **ctx.labels())
        if obs.enabled:
            obs.inc("runtime.shots.requested", shots)
            path = (
                "runtime.shots.fastpath"
                if result.used_fast_path
                else "runtime.shots.per_shot"
            )
            obs.inc(path, shots)
            obs.inc("runtime.scheduler.runs", scheduler=result.scheduler)
            obs.observe("runtime.run_seconds", result.wall_seconds)
            if result.wall_seconds > 0:
                obs.set_gauge("runtime.shots_per_second", result.shots_per_second)
        return result

    def _run_shots_impl(
        self,
        program: ModuleLike,
        shots: int,
        entry: Optional[str],
        keep_stats: bool,
        sampling: str,
        retry: Optional[RetryPolicy],
        fault_plan: Optional[FaultPlan],
        fallback: Optional[FallbackChain],
        collect_failures: bool,
        sched,
    ) -> ShotsResult:
        plan = program if isinstance(program, ExecutionPlan) else None
        if plan is not None and entry is None:
            entry = plan.entry
        module = _as_module(program)

        resilient = (
            retry is not None
            or fault_plan is not None
            or fallback is not None
            or collect_failures
        )
        if resilient and sampling == "require":
            raise FastPathUnsupported(
                "sampling fast path is per-run, not per-shot; it cannot "
                "inject, retry, or degrade individual shots"
            )

        can_try = (
            not resilient
            and sampling != "never"
            and self.backend_name == "statevector"
            and (self.noise is None or self.noise.is_trivial)
            and not keep_stats
        )
        # One root per run, drawn *before* any fast-path attempt so the
        # stream position -- and therefore every spawned per-shot seed --
        # is identical across sampling modes, tiers and schedulers.
        # Serial and process execution of the same program with the same
        # runtime seed produce identical counts.
        root = np.random.SeedSequence(int(self._rng.integers(2**63)))

        schedule = plan.fused if plan is not None else None
        if schedule is not None and schedule.num_slots > self.max_qubits:
            # Too wide for the statevector: the interpreter path raises
            # the coded QubitAllocationError the fused kernels cannot.
            schedule = None

        obs = self.observer
        if can_try:
            # Warm tier: a plan whose first fast-path run memoized its
            # terminal distribution serves repeat requests by seeded
            # sampling alone.  The reserved fast-path sequence spawned
            # from this run's root is the exact generator the cold path
            # would have sampled with, so warm counts are bit-identical.
            if plan is not None:
                distribution = plan.distribution
                if distribution is not None:
                    if obs.enabled:
                        obs.inc("cache.distribution.hit")
                    counts = distribution.sample_counts(
                        shots, fastpath_sequence(root)
                    )
                    return ShotsResult(
                        counts=_sorted_counts(counts),
                        shots=shots,
                        used_fast_path=True,
                        distribution_served=True,
                    )
                if obs.enabled:
                    obs.inc("cache.distribution.miss")
            try:
                counts, distribution = self._run_shots_sampled(
                    module, shots, entry, fastpath_sequence(root), plan is not None
                )
                if distribution is not None:  # captured for a plan only
                    plan.attach_distribution(distribution)
                return ShotsResult(
                    counts=_sorted_counts(counts), shots=shots, used_fast_path=True
                )
            except FastPathUnsupported:
                if sampling == "require":
                    raise
        elif sampling == "require" and not resilient:
            raise FastPathUnsupported(
                "sampling fast path requires the statevector backend, no "
                "noise, and keep_stats=False"
            )

        executor = self._make_executor()
        policy = retry if retry is not None else RetryPolicy(max_attempts=1)
        injector = FaultInjector(fault_plan) if fault_plan is not None else None
        if resilient:
            chain = fallback if fallback is not None else FallbackChain(
                [BackendLevel(self.backend_name, noisy=True)]
            )
            clifford = plan.is_clifford if plan is not None else program_is_clifford(module)
            chain.set_program_is_clifford(clifford)
        else:
            # Single-level chain: demotion is impossible, failures raise.
            chain = FallbackChain([BackendLevel(self.backend_name, noisy=True)])

        # Process workers need the program as bytes -- only when the pool
        # will run.  A compiled plan serializes directly; raw programs get
        # a lightweight plan (no re-verify -- the parent already ran its
        # own checks, and workers re-validate integrity via the wire seal).
        plan_bytes = None
        if sched.jobs > 1:
            worker_plan = plan if plan is not None else compile_plan(
                module, backend=self.backend_name, entry=entry, verify=False
            )
            plan_bytes = worker_plan.to_bytes()

        task = ShotTask(
            executor=executor,
            module=module,
            entry=entry,
            shots=shots,
            root=root,
            policy=policy,
            injector=injector,
            chain=ChainGuard(chain),
            keep_stats=keep_stats,
            resilient=resilient,
            timed=self.observer.enabled,
            plan_bytes=plan_bytes,
            schedule=schedule,
        )
        result = build_shots_result(task, sched.run(task), sched.name)
        result.supervision = getattr(sched, "supervision", None)
        return result

    def _run_shots_sampled(
        self,
        module: Module,
        shots: int,
        entry: Optional[str],
        seed: np.random.SeedSequence,
        capture: bool = False,
    ) -> tuple:
        """One evolution + joint sampling (see runtime.sampling_fastpath).

        With ``capture=True`` the terminal distribution also comes back
        (for plan memoization).  The evolution never draws from the RNG
        (the deferred backend moves a reset superposed qubit onto a fresh
        wire instead of collapsing it), so a warm replay sampling straight
        from the stored table reads the same stream this cold run did.
        """
        inner = StatevectorSimulator(0, seed=seed, max_qubits=self.max_qubits)
        backend = DeferredMeasurementBackend(inner)
        results = SharedStreamResults()
        interp = Interpreter(
            module,
            backend,  # type: ignore[arg-type]
            step_limit=self.step_limit,
            allow_on_the_fly_qubits=self.allow_on_the_fly_qubits,
            observer=self.observer,
            results=results,
        )
        interp.run(entry)
        if self.observer.enabled:
            fold_intrinsic_stats(self.observer, interp.stats)
        distribution = None
        if capture:
            # Extracted before sampling: probabilities() reads amplitudes
            # without touching the generator.
            distribution = distribution_from(backend, results)
        return sample_counts_from(backend, results, shots), distribution


def execute(
    program: ModuleLike,
    backend: str = "statevector",
    seed: Optional[int] = None,
    entry: Optional[str] = None,
    **kwargs,
) -> ExecutionResult:
    """One-call convenience wrapper around :class:`QirRuntime`."""
    return QirRuntime(backend=backend, seed=seed, **kwargs).execute(program, entry)


def run_shots(
    program: ModuleLike,
    shots: int = 1024,
    backend: str = "statevector",
    seed: Optional[int] = None,
    entry: Optional[str] = None,
    keep_stats: bool = False,
    sampling: str = "auto",
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    fallback: Optional[FallbackChain] = None,
    collect_failures: bool = False,
    jobs: Optional[int] = None,
    worker_timeout: Optional[float] = None,
    max_worker_failures: Optional[int] = None,
    chunk_shots: Optional[int] = None,
    run_context: Optional[RunContext] = None,
    **kwargs,
) -> ShotsResult:
    return QirRuntime(backend=backend, seed=seed, **kwargs).run_shots(
        program,
        shots,
        entry,
        keep_stats=keep_stats,
        sampling=sampling,
        retry=retry,
        fault_plan=fault_plan,
        fallback=fallback,
        collect_failures=collect_failures,
        jobs=jobs,
        worker_timeout=worker_timeout,
        max_worker_failures=max_worker_failures,
        chunk_shots=chunk_shots,
        run_context=run_context,
    )
