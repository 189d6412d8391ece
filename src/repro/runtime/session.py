"""QirSession: the compile-once/execute-many front door.

The paper's execution model re-runs the whole frontend on every call; a
server-style deployment (the ROADMAP's millions-of-users north star)
cannot afford that.  A :class:`QirSession` owns two content-hash-keyed
LRU caches:

* a **module cache** (``source_hash -> parsed Module``), so re-parsing
  the same text is a dict hit;
* a **plan cache** (``source_hash:pipeline:backend:entry ->
  ExecutionPlan``), so repeated ``run_shots`` calls on the same source
  skip parse, verify, pass pipeline, and static analysis entirely.

Both caches report ``cache.{module,plan}.{hit,miss}`` counters and
``session.cache_*`` spans through the runtime's observer, so profile
output answers "did the second call actually skip the frontend?".

Below the in-process LRU sits an optional **disk tier**
(:class:`~repro.runtime.plancache.PlanCache`): pass
``plan_cache_dir=`` (or set the ``QIR_PLAN_CACHE`` environment
variable) and compiled plans persist across processes -- a fresh
process warm-starts with a ``cache.plan_disk.hit`` instead of
re-running the frontend.  Lookup order is memory LRU, then disk, then
compile (writing through to both tiers).

Thread-safety: lookups and insertions happen under one lock, and cached
plans are frozen (the execute phase treats their modules as read-only),
so one session can serve concurrent callers.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from time import perf_counter
from typing import Dict, Optional, Union

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
        module_cache_size: int = 32,
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
        if module_cache_size < 1 or plan_cache_size < 1:
            raise ValueError("cache sizes must be >= 1")
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
        self._module_cache_size = module_cache_size
        self._plan_cache_size = plan_cache_size
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._plans: "OrderedDict[str, ExecutionPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self._stats = {
            "module": {"hits": 0, "misses": 0},
            "plan": {"hits": 0, "misses": 0},
        }

    # -- module cache ---------------------------------------------------------
    def parse(self, program: Union[str, Module]) -> Module:
        """Parse (or fetch the cached parse of) a program's text.

        Module instances pass through untouched -- the caller already
        owns the parse, and hashing would require printing it.
        """
        if isinstance(program, Module):
            return program
        digest = content_hash(program)
        return self._parse_cached(program, digest)

    def _parse_cached(self, text: str, digest: str) -> Module:
        obs = self.observer
        with self._lock:
            module = self._modules.get(digest)
            if module is not None:
                self._modules.move_to_end(digest)
                self._stats["module"]["hits"] += 1
        if module is not None:
            if obs.enabled:
                obs.inc("cache.module.hit")
            return module
        if obs.enabled:
            obs.inc("cache.module.miss")
            with obs.span("session.cache_parse", hash=digest[:12]):
                module = self._do_parse(text)
        else:
            module = self._do_parse(text)
        with self._lock:
            self._stats["module"]["misses"] += 1
            self._modules[digest] = module
            while len(self._modules) > self._module_cache_size:
                self._modules.popitem(last=False)
        return module

    def _do_parse(self, text: str) -> Module:
        from repro.llvmir.parser import parse_assembly

        return parse_assembly(text, observer=self.observer)

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
        cached under ``content hash + pipeline + backend + entry``.
        """
        if isinstance(program, ExecutionPlan):
            return program
        obs = self.observer
        cacheable = pipeline is None or isinstance(pipeline, str)
        digest = content_hash(program)
        key = plan_key(
            digest,
            pipeline if isinstance(pipeline, str) else None,
            self.runtime.backend_name,
            entry,
        )
        if cacheable:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
                    self._plans.move_to_end(key)
                    self._stats["plan"]["hits"] += 1
            if plan is not None:
                if obs.enabled:
                    obs.inc("cache.plan.hit")
                return plan
            if obs.enabled:
                obs.inc("cache.plan.miss")
            # Disk tier (warm start): a plan compiled by *another* process
            # deserializes here instead of re-running the frontend.
            if self.plan_cache is not None:
                if obs.enabled:
                    with obs.span("session.cache_disk_read", hash=digest[:12]):
                        plan = self.plan_cache.get(key)
                else:
                    plan = self.plan_cache.get(key)
                if plan is not None:
                    self._remember(key, plan)
                    return plan

        # Pipeline-free compiles reuse the cached pristine parse; pipeline
        # compiles always parse privately (passes mutate IR in place).
        module = None
        if pipeline is None and isinstance(program, str):
            module = self._parse_cached(program, digest)
        if obs.enabled:
            with obs.span("session.cache_compile", hash=digest[:12]):
                plan = self._compile(program, pipeline, entry, verify, module, digest)
        else:
            plan = self._compile(program, pipeline, entry, verify, module, digest)
        if cacheable:
            self._remember(key, plan)
            if self.plan_cache is not None:
                if obs.enabled:
                    with obs.span("session.cache_disk_write", hash=digest[:12]):
                        self.plan_cache.put(key, plan)
                else:
                    self.plan_cache.put(key, plan)
        return plan

    def _remember(self, key: str, plan: ExecutionPlan) -> None:
        with self._lock:
            self._stats["plan"]["misses"] += 1
            self._plans[key] = plan
            while len(self._plans) > self._plan_cache_size:
                self._plans.popitem(last=False)

    def _compile(
        self,
        program: Union[str, Module],
        pipeline: PipelineLike,
        entry: Optional[str],
        verify: bool,
        module: Optional[Module],
        digest: str,
    ) -> ExecutionPlan:
        return compile_plan(
            program,
            pipeline=pipeline,
            backend=self.runtime.backend_name,
            entry=entry,
            verify=verify,
            observer=self.observer,
            module=module,
            source_hash=digest,
        )

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
        """
        plan = self.compile(program, pipeline=pipeline, entry=entry)
        had_distribution = plan.distribution is not None
        context = kwargs.pop("run_context", None)
        if context is None:
            context = RunContext()
        if context.plan_key is None:
            context = context.with_labels(plan_key=self._plan_key_of(plan, pipeline, entry))
        # Fill in labels the ledger needs even when no observer is
        # enabled (the runtime only refines the context it is handed).
        jobs = kwargs.get("jobs") or self.runtime.default_jobs
        context = context.with_labels(
            scheduler=placement(jobs, shots),
            backend=self.runtime.backend_name,
            jobs=jobs,
            entry=entry if entry is not None else plan.entry,
            shots=shots,
        )
        if self.ledger is None:
            result = self.runtime.run_shots(
                plan, shots, entry, run_context=context, **kwargs
            )
            self._persist_distribution(plan, pipeline, entry, had_distribution)
            return result
        t0 = perf_counter()
        try:
            result = self.runtime.run_shots(
                plan, shots, entry, run_context=context, **kwargs
            )
        except Exception as error:
            self.ledger.record(
                RunRecord.from_error(
                    context,
                    error_code=getattr(error, "code", type(error).__name__),
                    wall_seconds=perf_counter() - t0,
                    counters=self._ledger_counters(),
                )
            )
            raise
        self.ledger.record(
            RunRecord.from_result(context, result, counters=self._ledger_counters())
        )
        self._persist_distribution(plan, pipeline, entry, had_distribution)
        return result

    def _persist_distribution(
        self,
        plan: ExecutionPlan,
        pipeline: PipelineLike,
        entry: Optional[str],
        had_distribution: bool,
    ) -> None:
        """Write a plan back to the disk tier when a run just warmed it.

        The memory LRU holds the live plan object (the attached
        distribution is already visible there); only the serialized disk
        entry is stale.  Re-putting refreshes it so *other* processes
        warm-start with the distribution included."""
        if self.plan_cache is None or had_distribution:
            return
        if plan.distribution is None:
            return
        key = self._plan_key_of(plan, pipeline, entry)
        if key is None:
            return
        obs = self.observer
        if obs.enabled:
            with obs.span("session.cache_disk_write", hash=plan.short_hash):
                self.plan_cache.put(key, plan)
        else:
            self.plan_cache.put(key, plan)

    def _plan_key_of(
        self,
        plan: ExecutionPlan,
        pipeline: PipelineLike,
        entry: Optional[str],
    ) -> Optional[str]:
        """The cache key this plan was (or would be) stored under."""
        if not plan.source_hash:
            return None
        return plan_key(
            plan.source_hash,
            pipeline if isinstance(pipeline, str) else None,
            self.runtime.backend_name,
            entry,
        )

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
        """Hit/miss/size/capacity per cache (for the profile table)."""
        with self._lock:
            stats = {
                "module": {
                    "hits": self._stats["module"]["hits"],
                    "misses": self._stats["module"]["misses"],
                    "size": len(self._modules),
                    "capacity": self._module_cache_size,
                },
                "plan": {
                    "hits": self._stats["plan"]["hits"],
                    "misses": self._stats["plan"]["misses"],
                    "size": len(self._plans),
                    "capacity": self._plan_cache_size,
                },
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
        """Empty the in-process tiers; the disk tier (shared with other
        processes) is cleared explicitly via ``self.plan_cache.clear()``."""
        with self._lock:
            self._modules.clear()
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._modules) + len(self._plans)
