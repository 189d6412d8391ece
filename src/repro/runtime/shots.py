"""The chunk executor: one shot at a time.

Every placement (:mod:`repro.runtime.schedulers` in-thread,
:mod:`repro.runtime.pool` in worker processes) runs its shots through
one call, :meth:`ShotTask.run_one`: retry, backend fallback and failure
collection for one shot index.

Determinism: every shot's RNG is derived from a spawned child seed --
``SeedSequence(entropy=root, spawn_key=(shot, attempt))`` -- never from a
shared stream, and the merge re-sorts per-shot outcomes by shot index, so
in-thread and worker-process execution of the same program with the
same seed produce identical ``counts``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.llvmir.module import Module
from repro.obs.observer import NULL_OBSERVER
from repro.resilience.fallback import BackendLevel, FallbackChain
from repro.resilience.faults import FaultInjector, FaultyBackend, ShotFaultContext
from repro.resilience.report import ShotFailure
from repro.resilience.retry import RetryPolicy
from repro.runtime.errors import QirRuntimeError
from repro.runtime.interpreter import Interpreter, InterpreterStats
from repro.runtime.output import OutputRecord, output_columns
from repro.sim.fusion import RECORD_STEP_BUDGET, FusedProgram, run_fused
from repro.sim.noise import NoiseModel, NoisyBackend
from repro.sim.stabilizer import StabilizerSimulator
from repro.sim.statevector import StatevectorSimulator

SeedLike = Union[int, np.random.SeedSequence, None]

#: spawn_key component reserved for retry-backoff jitter streams, far above
#: any realistic attempt index so it can never collide with one.
_BACKOFF_KEY = 0x7FFF0001

#: spawn_key component for the sampling fast path's one-evolution seed.
_FASTPATH_KEY = 0x7FFF0002


def fastpath_sequence(root: np.random.SeedSequence) -> np.random.SeedSequence:
    """The sampling fast path's seed, spawned off the run's root.

    Deriving it from the root (instead of drawing another value from the
    runtime's stream) keeps the stream position identical whether or not
    a fast-path attempt happens first -- so a rejected attempt cannot
    shift the per-shot seeds, and every placement sees the same root.
    """
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (_FASTPATH_KEY,)
    )


def shot_sequence(
    root: np.random.SeedSequence, shot: int, attempt: int
) -> np.random.SeedSequence:
    """The spawned child seed for one (shot, attempt) pair.

    A pure function of ``(root, shot, attempt)`` -- independent of
    execution order, which worker ran the shot, retries of *other* shots,
    and placement -- which is the whole determinism story: any placement
    computing the same pairs derives the same RNG streams.
    """
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (shot, attempt)
    )


def _noise_sequence(seed: SeedLike) -> SeedLike:
    """A decorrelated stream for the noise wrapper (see _make_backend)."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (1,)
        )
    if seed is None:
        return None
    return (int(seed) ^ 0x9E3779B97F4A7C15) & (2**63 - 1)


def _make_backend(
    name: str,
    seed: SeedLike,
    max_qubits: int,
    noise: Optional[NoiseModel] = None,
):
    if name == "statevector":
        backend = StatevectorSimulator(0, seed=seed, max_qubits=max_qubits)
    elif name == "stabilizer":
        backend = StabilizerSimulator(0, seed=seed)
    else:
        raise ValueError(f"unknown backend {name!r}")
    if noise is not None and not noise.is_trivial:
        # The wrapper needs its own stream: seeding it identically to the
        # inner simulator would correlate error injection with measurement
        # outcomes (their first random draws would coincide).
        return NoisyBackend(backend, noise, seed=_noise_sequence(seed))
    return backend


def sorted_counts(counts: Dict[str, int]) -> Dict[str, int]:
    """Stable bitstring ordering so reports and diffs are deterministic."""
    return dict(sorted(counts.items()))


# -- results ------------------------------------------------------------------


@dataclass
class ExecutionResult:
    """Outcome of one shot."""

    output_records: List[OutputRecord]
    result_bits: List[int]
    bitstring: str
    messages: List[str]
    stats: InterpreterStats
    return_value: object = None

    def render_output(self) -> str:
        return "\n".join(r.render() for r in self.output_records)


@dataclass
class ShotOutcome:
    """One shot's contribution to the merge, whichever worker produced it."""

    shot: int
    bitstring: Optional[str] = None
    backend_label: str = ""
    attempts: int = 1
    seconds: Optional[float] = None
    stats: Optional[InterpreterStats] = None
    failure: Optional[ShotFailure] = None

    @property
    def succeeded(self) -> bool:
        return self.failure is None


# -- per-shot execution -------------------------------------------------------


class ChainGuard:
    """Thread-safe facade over a shared :class:`FallbackChain`.

    All mutation happens under one lock, so consecutive-failure counting
    stays coherent and each rung of the ladder is demoted at most once no
    matter how many workers observe failures concurrently.  It pickles
    as a fresh guard over :meth:`worker_chain`, the copy a worker process
    demotes on its own.
    """

    def __init__(self, chain: FallbackChain):
        self._chain = chain
        self._lock = threading.Lock()
        self._initial_history = len(chain.history)
        # Worker-process merge state (see ProcessScheduler): demotions
        # performed inside worker clones, folded back in worker order.
        self._worker_degraded = False
        self._worker_history: List[str] = []

    def __reduce__(self):
        return (ChainGuard, (self.worker_chain(),))

    @property
    def current(self) -> BackendLevel:
        with self._lock:
            return self._chain.current

    def note_success(self) -> None:
        with self._lock:
            self._chain.note_success()

    def note_failure(self, error: QirRuntimeError) -> bool:
        with self._lock:
            return self._chain.note_failure(error)

    def worker_chain(self) -> FallbackChain:
        """A picklable clone for one worker process (empty history)."""
        with self._lock:
            return self._chain.worker_clone()

    def absorb_worker(self, degraded: bool, history: List[str]) -> None:
        """Fold one worker clone's demotion record into the merged view."""
        with self._lock:
            self._worker_degraded = self._worker_degraded or degraded
            self._worker_history.extend(history)

    def note_scheduler_demotion(self, entry: str) -> None:
        """Record a *scheduler*-ladder demotion (process -> serial, see
        :class:`~repro.runtime.pool.ProcessScheduler`) in the shared
        history.

        Scheduler demotions ride the same history/degraded channel as
        backend demotions so reports, metrics, and callers see one
        unified degradation record."""
        with self._lock:
            self._worker_degraded = True
            self._worker_history.append(entry)

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._chain.degraded or self._worker_degraded

    @property
    def history(self) -> List[str]:
        with self._lock:
            return list(self._chain.history) + list(self._worker_history)

    @property
    def demotions_this_run(self) -> int:
        with self._lock:
            return (
                len(self._chain.history)
                - self._initial_history
                + len(self._worker_history)
            )


class _BackoffStream:
    """Per-shot retry-jitter RNG, created lazily on the first wait.

    One stream per *shot*, shared across fallback demotions.
    ``attempt_shot`` used to build its own generator per invocation, but
    it is re-invoked after every fallback demotion (``attempt_offset``),
    so the jitter sequence restarted mid-shot and retry timing depended
    on the demotion history.  Holding the stream here makes the delay
    sequence a pure function of ``(root, shot)`` -- reproducible in
    tests regardless of how many rungs the shot visits -- while keeping
    the clean path free of SeedSequence construction.
    """

    __slots__ = ("_root", "_shot", "_rng")

    def __init__(self, root: np.random.SeedSequence, shot: int):
        self._root = root
        self._shot = shot
        self._rng: Optional[np.random.Generator] = None

    def generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(
                shot_sequence(self._root, self._shot, _BACKOFF_KEY)
            )
        return self._rng


class ShotExecutor:
    """Executes single attempts for one runtime configuration.

    Stateless between shots (every per-shot RNG comes in as an explicit
    seed), which is what makes it shareable across workers.  It pickles
    as its configuration alone: a worker process runs unobserved, so the
    observer stays behind and comes back as the no-op.
    """

    def __init__(
        self,
        backend_name: str,
        noise: Optional[NoiseModel],
        step_limit: int,
        max_qubits: int,
        allow_on_the_fly_qubits: bool,
        observer,
    ):
        self.backend_name = backend_name
        self.noise = noise
        self.step_limit = step_limit
        self.max_qubits = max_qubits
        self.allow_on_the_fly_qubits = allow_on_the_fly_qubits
        self.observer = observer

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["observer"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, observer=NULL_OBSERVER)

    # -- configuration helpers ------------------------------------------------
    def effective_noise(self, level: BackendLevel) -> Optional[NoiseModel]:
        if not level.noisy:
            return None
        return self.noise

    def level_label(self, level: BackendLevel) -> str:
        noise = self.effective_noise(level)
        if noise is not None and not noise.is_trivial:
            return f"{level.backend}+noise"
        return level.backend

    # -- single attempt -------------------------------------------------------
    def run_single(
        self,
        module: Module,
        entry: Optional[str],
        level: BackendLevel,
        ctx: Optional[ShotFaultContext],
        seed: SeedLike,
        schedule: Optional[FusedProgram] = None,
    ) -> ExecutionResult:
        if schedule is not None and self._fusable(level, ctx):
            return self._run_fused_single(schedule, seed)
        backend = _make_backend(
            level.backend, seed, self.max_qubits, self.effective_noise(level)
        )
        step_limit = self.step_limit
        fault_hook = None
        if ctx is not None and not ctx.is_inert:
            backend = FaultyBackend(backend, ctx)
            step_limit = ctx.step_limit(self.step_limit)
            if ctx.wants_intrinsic_hook:
                fault_hook = ctx.intrinsic_hook
        interp = Interpreter(
            module,
            backend,
            step_limit=step_limit,
            allow_on_the_fly_qubits=self.allow_on_the_fly_qubits,
            fault_hook=fault_hook,
            observer=self.observer,
        )
        value = interp.run(entry)
        # Record order: the rightmost bit first.
        bits = output_columns(
            interp.output.result_bits(), interp.results.static_bits(), 0
        )[::-1]
        if ctx is not None and not ctx.is_inert:
            bits = ctx.mangle_bits(bits)
        bitstring = "".join(str(b) for b in reversed(bits))
        return ExecutionResult(
            output_records=list(interp.output.records),
            result_bits=bits,
            bitstring=bitstring,
            messages=list(interp.messages),
            stats=interp.stats,
            return_value=value,
        )

    def _fusable(
        self, level: BackendLevel, ctx: Optional[ShotFaultContext]
    ) -> bool:
        """Whether this attempt may take the fused kernel path.

        Conservative on purpose: the fused executor models the clean
        statevector semantics only, so anything that perturbs them --
        another backend rung, real noise, an active fault context --
        keeps the interpreter path.  So does a runtime stricter than the
        recording (no on-the-fly qubits, a lower step limit): it may raise.
        """
        if level.backend != "statevector":
            return False
        if not self.allow_on_the_fly_qubits or self.step_limit < RECORD_STEP_BUDGET:
            return False
        if ctx is not None and not ctx.is_inert:
            return False
        noise = self.effective_noise(level)
        return noise is None or noise.is_trivial

    def _run_fused_single(
        self, schedule: FusedProgram, seed: SeedLike
    ) -> ExecutionResult:
        """One shot through the precompiled kernel schedule.

        The simulator is seeded exactly like the interpreter path's
        backend, and the schedule preserves the source's measure/reset
        order, so the RNG draw sequence -- and therefore the outcome --
        is bit-identical to an unfused run of the same ``(root, shot,
        attempt)``.
        """
        backend = StatevectorSimulator(
            schedule.num_slots, seed=seed, max_qubits=self.max_qubits
        )
        bitstring = run_fused(schedule, backend)
        # Coarse synthesized stats: the interpreter's per-instruction
        # bookkeeping does not exist here, but gate/measurement totals
        # keep profiled runs meaningful.
        stats = InterpreterStats()
        stats.gates = schedule.source_gates
        stats.measurements = schedule.measurements
        stats.quantum_calls = schedule.source_gates + schedule.measurements
        return ExecutionResult(
            output_records=[],
            result_bits=[int(b) for b in reversed(bitstring)],
            bitstring=bitstring,
            messages=[],
            stats=stats,
            return_value=None,
        )


#: One-slot per-process plan cache.  Workers that pull several chunks of
#: the same run decode the serialized plan once, not once per chunk --
#: the whole point of small self-scheduled chunks would otherwise drown
#: in repeated parse cost.
_WORKER_PLAN: Optional[Tuple[bytes, object]] = None


def _worker_plan(plan_bytes: bytes):
    """Decode (or reuse) this process's cached :class:`ExecutionPlan`."""
    global _WORKER_PLAN
    # Imported here, not at module top, so the worker's import surface
    # (and the spawn path's cost) stays visible in one place.
    from repro.runtime.plan import ExecutionPlan

    cached = _WORKER_PLAN
    if cached is not None and cached[0] == plan_bytes:
        return cached[1]
    plan = ExecutionPlan.from_bytes(plan_bytes)
    _WORKER_PLAN = (plan_bytes, plan)
    return plan


@dataclass
class ShotTask:
    """One multi-shot request, and the one way any placement runs a shot."""

    executor: ShotExecutor
    module: Module
    entry: Optional[str]
    shots: int
    root: np.random.SeedSequence
    policy: RetryPolicy
    injector: Optional[FaultInjector]
    chain: ChainGuard
    keep_stats: bool
    resilient: bool
    timed: bool
    #: Serialized ExecutionPlan for process workers (set by the runtime
    #: whenever the worker pool will run); workers deserialize this
    #: instead of re-running the compile phase.
    plan_bytes: Optional[bytes] = None
    #: Fused kernel schedule from the plan's specialization pass; ``None``
    #: runs every gate through the interpreter (no plan, not
    #: specializable, or too wide).
    schedule: Optional[FusedProgram] = None

    def __getstate__(self) -> dict:
        """A worker process's copy (see :mod:`repro.runtime.pool`).

        The program travels as ``plan_bytes`` alone: module and schedule
        are rebuilt from them on arrival.  The chain and the injector
        pickle as their worker forms, and a worker runs untimed, so a
        profiled parent's stats are kept by ``keep_stats`` instead.
        """
        return dict(
            self.__dict__,
            module=None,
            schedule=None,
            fused=self.schedule is not None,
            keep_stats=self.keep_stats or self.timed,
            timed=False,
        )

    def __setstate__(self, state: dict) -> None:
        fused = state.pop("fused")
        self.__dict__.update(state)
        plan = _worker_plan(self.plan_bytes)
        self.module = plan.module
        self.schedule = plan.fused if fused else None

    def run_one(self, shot: int) -> ShotOutcome:
        """The per-shot task: retry, fallback, and failure collection.

        A non-resilient task (the plain path) lets the first unrecovered
        error propagate to the caller, matching the historical fail-fast
        semantics.
        """
        ctx = self.injector.context(shot) if self.injector is not None else None
        chain = self.chain
        timed = self.timed
        # Outcome stats are kept whenever the run is profiled (the merge
        # folds intrinsic metrics from them) or the caller asked for them.
        keep = self.keep_stats or timed
        total_attempts = 0
        backoff = _BackoffStream(self.root, shot)
        t0 = perf_counter() if timed else 0.0
        while True:
            level = chain.current
            result, error, attempts = self.attempt_shot(
                level, ctx, shot, total_attempts, backoff
            )
            total_attempts += attempts
            if error is None:
                assert result is not None
                chain.note_success()
                return ShotOutcome(
                    shot=shot,
                    bitstring=result.bitstring,
                    backend_label=self.executor.level_label(level),
                    attempts=total_attempts,
                    seconds=(perf_counter() - t0) if timed else None,
                    stats=result.stats if keep else None,
                )
            if chain.note_failure(error):
                continue  # demoted: replay this shot on the new level
            if not self.resilient:
                raise error
            label = self.executor.level_label(level)
            return ShotOutcome(
                shot=shot,
                backend_label=label,
                attempts=total_attempts,
                seconds=(perf_counter() - t0) if timed else None,
                failure=ShotFailure.from_error(shot, error, total_attempts, label),
            )

    def attempt_shot(
        self,
        level: BackendLevel,
        ctx: Optional[ShotFaultContext],
        shot: int,
        attempt_offset: int,
        backoff: _BackoffStream,
    ) -> Tuple[Optional[ExecutionResult], Optional[QirRuntimeError], int]:
        """Run one shot on one rung with per-attempt retry; returns
        (result, error, attempts).

        ``attempt_offset`` keeps attempt indices -- and therefore spawned
        seeds -- globally increasing for a shot across fallback demotions,
        and ``backoff`` carries the shot's one jitter stream across those
        same demotions (see :class:`_BackoffStream`).
        """
        policy = self.policy
        noisy = self.executor.effective_noise(level) is not None
        last_error: Optional[QirRuntimeError] = None
        for attempt in range(1, policy.max_attempts + 1):
            index = attempt_offset + attempt - 1
            if ctx is not None:
                ctx.begin_attempt(index, level.backend, noisy)
            seed = shot_sequence(self.root, shot, index)
            try:
                return (
                    self.executor.run_single(
                        self.module, self.entry, level, ctx, seed, self.schedule
                    ),
                    None,
                    attempt,
                )
            except QirRuntimeError as error:
                last_error = error
                if not policy.should_retry(error, attempt):
                    return None, error, attempt
                policy.wait(attempt, backoff.generator())
        return None, last_error, policy.max_attempts
