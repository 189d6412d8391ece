"""QirSession: the compile-once/execute-many front door.

The paper's execution model compiles and links a program once, then runs
it (Sec. III-C).  A :class:`QirSession` is that compile-once layer: one
content-hash-keyed LRU of compiled plans (``source_hash:pipeline:backend:
entry -> ExecutionPlan``), so repeated ``run_shots`` calls on the same
source skip parse, verify, pass pipeline, and static analysis entirely.
It reports ``cache.plan.{hit,miss}`` counters and ``session.cache_*``
spans through the runtime's observer, so profile output answers "did the
second call actually skip the frontend?".

Below the in-process LRU sits an optional **disk tier**
(:class:`~repro.runtime.plancache.PlanCache`): pass
``plan_cache_dir=`` (or set the ``QIR_PLAN_CACHE`` environment
variable) and compiled plans persist across processes -- a fresh
process warm-starts with a ``cache.plan_disk.hit`` instead of
re-running the frontend.  Lookup order is memory LRU, then disk, then
compile.  Each new plan is written to disk once: ``compile()`` writes
it through, ``run_shots()`` writes it after its first run so the entry
carries the distribution that run memoized.

Thread-safety: lookups and insertions happen under one lock, and cached
plans are frozen (the execute phase treats their modules as read-only),
so one session can serve concurrent callers.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from time import perf_counter
from typing import Dict, Optional, Tuple, Union

from repro.llvmir.module import Module
from repro.obs.ledger import RunLedger, RunRecord, ledger_dir_from_env
from repro.obs.runctx import RunContext
from repro.runtime.execute import ExecutionResult, QirRuntime, ShotsResult
from repro.runtime.plan import (
    ExecutionPlan,
    PipelineLike,
    compile_plan,
    content_hash,
    plan_key,
)
from repro.runtime.plancache import CACHE_ENV, PlanCache, VerifyReport
from repro.runtime.schedulers import placement

ProgramLike = Union[str, Module, ExecutionPlan]


class QirSession:
    """A caching execution session over one :class:`QirRuntime`.

    >>> session = QirSession(seed=7)
    >>> session.run_shots(qir_text, shots=100)   # compiles
    >>> session.run_shots(qir_text, shots=100)   # plan cache hit: no parse

    Construct with an existing runtime (``QirSession(runtime=rt)``) or
    with :class:`QirRuntime` keyword arguments, which are forwarded.
    """

    def __init__(
        self,
        runtime: Optional[QirRuntime] = None,
        *,
        plan_cache_size: int = 32,
        plan_cache_dir: Optional[str] = None,
        ledger_dir: Optional[str] = None,
        **runtime_kwargs,
    ):
        if runtime is not None and runtime_kwargs:
            raise ValueError(
                "pass either an existing runtime or QirRuntime kwargs, not both"
            )
        self.runtime = runtime if runtime is not None else QirRuntime(**runtime_kwargs)
        self.observer = self.runtime.observer
        if plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        # Disk tier: explicit argument wins; otherwise the QIR_PLAN_CACHE
        # environment variable opts in.  Sessions without either stay
        # purely in-process (hermetic for tests and libraries).
        if plan_cache_dir is None:
            plan_cache_dir = os.environ.get(CACHE_ENV, "").strip() or None
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(plan_cache_dir, observer=self.observer)
            if plan_cache_dir
            else None
        )
        # Run ledger (repro.obs.ledger): same opt-in shape as the disk
        # plan cache -- explicit argument, then the QIR_LEDGER variable.
        if ledger_dir is None:
            ledger_dir = ledger_dir_from_env()
        self.ledger: Optional[RunLedger] = (
            RunLedger(ledger_dir, observer=self.observer) if ledger_dir else None
        )
        self._plan_cache_size = plan_cache_size
        self._plans: "OrderedDict[str, ExecutionPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self._stats = {"hits": 0, "misses": 0}

    # -- plan cache -----------------------------------------------------------
    def compile(
        self,
        program: ProgramLike,
        *,
        pipeline: PipelineLike = None,
        entry: Optional[str] = None,
        verify: bool = True,
    ) -> ExecutionPlan:
        """Compile a program to an :class:`ExecutionPlan`, LRU-cached.

        An :class:`ExecutionPlan` passes through unchanged.  Callable
        pipelines bypass the cache (their identity is not content-
        addressable); named pipelines and the pipeline-free default are
        cached under ``content hash + pipeline + backend + entry``.  A
        plan this call compiles is written through to the disk tier.
        """
        plan, new = self._lookup(program, pipeline, entry, verify)
        if new:
            self._persist(plan)
        return plan

    def _lookup(
        self,
        program: ProgramLike,
        pipeline: PipelineLike,
        entry: Optional[str],
        verify: bool,
    ) -> Tuple[ExecutionPlan, bool]:
        """The plan for one configuration, and whether this call compiled
        it into the cache (and so owes the disk tier one write).

        Lookup order is memory LRU, then disk, then compile.  A hit must
        be as checked as asked for: under ``verify=True`` an unverified
        plan is a miss, and its verified recompile replaces it.
        """
        if isinstance(program, ExecutionPlan):
            return program, False
        obs = self.observer
        digest = content_hash(program)
        key = None
        if pipeline is None or isinstance(pipeline, str):
            key = plan_key(digest, pipeline, self.runtime.backend_name, entry)
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None and (plan.verified or not verify):
                    self._plans.move_to_end(key)
                    self._stats["hits"] += 1
                else:
                    plan = None
            if plan is not None:
                if obs.enabled:
                    obs.inc("cache.plan.hit")
                return plan, False
            if obs.enabled:
                obs.inc("cache.plan.miss")
            # Disk tier (warm start): a plan compiled by *another* process
            # deserializes here instead of re-running the frontend.
            if self.plan_cache is not None:
                with obs.span("session.cache_disk_read", hash=digest[:12]):
                    plan = self.plan_cache.get(key, verified=verify)
                if plan is not None:
                    self._remember(key, plan)
                    return plan, False
        with obs.span("session.cache_compile", hash=digest[:12]):
            plan = compile_plan(
                program,
                pipeline=pipeline,
                backend=self.runtime.backend_name,
                entry=entry,
                verify=verify,
                observer=obs,
                source_hash=digest,
            )
        if key is None:
            return plan, False
        self._remember(key, plan)
        return plan, True

    def _remember(self, key: str, plan: ExecutionPlan) -> None:
        with self._lock:
            self._stats["misses"] += 1
            self._plans[key] = plan
            while len(self._plans) > self._plan_cache_size:
                self._plans.popitem(last=False)

    def _persist(self, plan: ExecutionPlan) -> None:
        """Write a plan to the disk tier (when there is one)."""
        if self.plan_cache is not None:
            with self.observer.span("session.cache_disk_write", hash=plan.short_hash):
                self.plan_cache.put(plan.key, plan)

    # -- execution ------------------------------------------------------------
    def run_shots(
        self,
        program: ProgramLike,
        shots: int = 1024,
        entry: Optional[str] = None,
        *,
        pipeline: PipelineLike = None,
        **kwargs,
    ) -> ShotsResult:
        """Compile (cached) then run; kwargs pass to ``QirRuntime.run_shots``.

        The session is where a run's durable identity is minted: every
        call builds a :class:`~repro.obs.runctx.RunContext` carrying the
        plan key (the session knows it; the runtime does not) and, when
        the session has a ledger, writes one
        :class:`~repro.obs.ledger.RunRecord` row at run end -- including
        an error row when the run raises.  Ledger writes are fail-open:
        they can never break the run they record.

        A plan this call compiled is written to the disk tier once, after
        the run, so the entry carries the distribution that run memoized
        (even a run that raises persists its good compile).  A cached plan
        is re-written only when this run warmed it for the first time.
        """
        plan, new = self._lookup(program, pipeline, entry, verify=True)
        was_warm = plan.distribution is not None
        context = kwargs.pop("run_context", None)
        if context is None:
            context = RunContext()
        if context.plan_key is None:
            context = context.with_labels(plan_key=plan.key)
        # Fill in labels the ledger needs even when no observer is
        # enabled (the runtime only refines the context it is handed).
        # The placement is the run's to report: a row takes it from the
        # result, or for a run that raised, from ``jobs`` and ``shots``.
        jobs = kwargs.get("jobs") or self.runtime.default_jobs
        context = context.with_labels(
            backend=self.runtime.backend_name,
            jobs=jobs,
            entry=entry if entry is not None else plan.entry,
            shots=shots,
        )
        t0 = perf_counter()
        try:
            result = self.runtime.run_shots(
                plan, shots, entry, run_context=context, **kwargs
            )
        except Exception as error:
            if self.ledger is not None:
                self.ledger.record(
                    RunRecord.from_error(
                        context.with_labels(scheduler=placement(jobs, shots)),
                        error_code=getattr(error, "code", type(error).__name__),
                        wall_seconds=perf_counter() - t0,
                        counters=self._ledger_counters(),
                    )
                )
            raise
        finally:
            # Re-write a warmed plan only if it is this session's cached
            # one: a plan built elsewhere may not match its key.
            warmed = not was_warm and plan.distribution is not None
            if new or (warmed and self._plans.get(plan.key) is plan):
                self._persist(plan)
        if self.ledger is not None:
            self.ledger.record(
                RunRecord.from_result(context, result, counters=self._ledger_counters())
            )
        return result

    def _ledger_counters(self) -> Dict[str, float]:
        """The counters snapshot a ledger row embeds ({} unobserved)."""
        if not self.observer.enabled:
            return {}
        return dict(self.observer.metrics.snapshot()["counters"])

    def execute(
        self,
        program: ProgramLike,
        entry: Optional[str] = None,
        *,
        pipeline: PipelineLike = None,
    ) -> ExecutionResult:
        plan = self.compile(program, pipeline=pipeline, entry=entry)
        return self.runtime.execute(plan, entry)

    # -- introspection --------------------------------------------------------
    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size/capacity per cache tier (for the profile table)."""
        with self._lock:
            stats = {
                "plan": dict(
                    self._stats,
                    size=len(self._plans),
                    capacity=self._plan_cache_size,
                ),
            }
        if self.plan_cache is not None:
            disk = self.plan_cache.stats
            stats["plan_disk"] = {
                "hits": disk["hits"],
                "misses": disk["misses"],
                "size": len(self.plan_cache),
                "capacity": self.plan_cache.max_entries,
            }
        return stats

    def verify_plan_cache(self, delete: bool = True) -> Optional[VerifyReport]:
        """Integrity-check the disk tier (see :meth:`PlanCache.verify`).

        Returns ``None`` when the session has no disk tier.  Useful for
        long-lived services that want to sweep corrupt entries on a
        schedule instead of paying decode-and-drop misses at request
        time (``qir-plan-cache list --verify`` is the CLI equivalent).
        """
        if self.plan_cache is None:
            return None
        return self.plan_cache.verify(delete=delete)

    def clear_caches(self) -> None:
        """Empty the in-process tier; the disk tier (shared with other
        processes) is cleared explicitly via ``self.plan_cache.clear()``."""
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)
