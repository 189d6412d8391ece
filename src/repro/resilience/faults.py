"""Deterministic fault injection for the QIR runtime.

A :class:`FaultPlan` is a seeded, declarative description of *which shots
fail, where, and how often*.  The executor turns it into per-shot
:class:`ShotFaultContext` objects; named **sites** inside the runtime stack
consult the context and raise the planned error:

========================  =====================================================
site                      where it fires
========================  =====================================================
``gate``                  :meth:`FaultyBackend.apply_gate`
``measure``               :meth:`FaultyBackend.measure`
``reset``                 :meth:`FaultyBackend.reset`
``allocate``              :meth:`FaultyBackend.allocate_qubit`
``intrinsic:<name>``      interpreter dispatch of a declared ``__quantum__*``
``output``                any ``__quantum__rt__*_record_output`` intrinsic
``timeout``               shrinks the interpreter step budget for the attempt
``corrupt_output``        silently flips the first recorded result bit
``worker_crash``          process-scheduler worker dies mid-chunk (``os._exit``)
``worker_hang``           worker stops heartbeating and sleeps forever
``ipc_corrupt``           worker returns mangled bytes instead of its report
========================  =====================================================

Determinism: whether a rule poisons shot *k* is a pure function of
``(plan.seed, rule index, k)`` -- independent of execution order, retries,
or other rules -- so failure sets are exactly reproducible.

The three ``worker_*``/``ipc_*`` sites are **process-level**: they model
the machinery around the interpreter failing, not the shot itself, so
they are consulted only by the process scheduler's worker loop (see
:mod:`repro.runtime.pool`) and are inert under the serial
scheduler.  Their ``failures`` field counts
*chunk dispatch attempts* instead of shot attempts: ``failures=1``
crashes the first dispatch of a poisoned chunk and lets the re-queued
dispatch succeed, while the
default :data:`PERSISTENT` keeps killing workers until the supervisor's
circuit breaker demotes the whole run off the process scheduler.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.backend import DelegatingBackend, SimulatorBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.errors import QirRuntimeError

#: ``failures=PERSISTENT`` -- the fault fires on every attempt (trap-like).
PERSISTENT = -1

_ERROR_CLASSES = ("backend", "alloc", "trap", "timeout", "corrupt")

#: Sites consulted by the process scheduler's worker loop, never by
#: per-shot ``check()`` -- see the module docstring.
PROCESS_SITES = ("worker_crash", "worker_hang", "ipc_corrupt")


def corrupt_bytes(data: bytes, seed: int = 0, flips: int = 16) -> bytes:
    """Deterministically mangle *data*: flip up to ``flips`` seeded bits.

    Shared between the chaos layer (a worker returning a corrupted IPC
    payload) and the plan-cache tooling's tests (``qir-plan-cache list
    --verify`` against corrupted cache files), so both exercise the same
    corruption shape.  Always changes at least one byte of non-empty
    input.
    """
    if not data:
        return b"\x00"
    rng = np.random.default_rng((seed, len(data)))
    mangled = bytearray(data)
    for _ in range(max(1, flips)):
        position = int(rng.integers(0, len(mangled)))
        bit = 1 << int(rng.integers(0, 8))
        mangled[position] ^= bit
    if bytes(mangled) == data:  # the flips cancelled out; force a change
        mangled[0] ^= 0x01
    return bytes(mangled)


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: a site, a shot selector, and an error class.

    * ``probability`` -- chance a shot is poisoned (ignored when ``shots``
      pins explicit indices);
    * ``failures`` -- how many *attempts* of a poisoned shot fail before it
      succeeds (transient faults); :data:`PERSISTENT` fails every attempt;
    * ``error`` -- which error class to raise (``backend``, ``alloc``,
      ``trap``) or apply (``timeout`` budgets, ``corrupt`` bit flips);
    * ``backend`` / ``only_noisy`` -- restrict firing to attempts executed
      on a specific backend, modelling backend-correlated failures;
    * ``param`` -- error-class parameter (step budget for ``timeout``).
    """

    site: str
    probability: float = 1.0
    shots: Optional[FrozenSet[int]] = None
    error: str = "backend"
    failures: int = PERSISTENT
    backend: Optional[str] = None
    only_noisy: Optional[bool] = None
    param: int = 0

    def __post_init__(self) -> None:
        if self.error not in _ERROR_CLASSES:
            raise ValueError(
                f"unknown error class {self.error!r}; choose from {_ERROR_CLASSES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.site == "timeout" and self.error not in ("timeout", "backend"):
            raise ValueError("the 'timeout' site requires error='timeout'")
        if self.shots is not None and not isinstance(self.shots, frozenset):
            object.__setattr__(self, "shots", frozenset(self.shots))

    def applies_to_shot(self, shot: int, seed: int, rule_index: int) -> bool:
        """Is this shot poisoned?  Deterministic in (seed, rule_index, shot)."""
        if self.shots is not None:
            return shot in self.shots
        if self.probability >= 1.0:
            return True
        if self.probability <= 0.0:
            return False
        draw = np.random.default_rng((seed, rule_index, shot)).random()
        return bool(draw < self.probability)

    def matches_level(self, backend_name: str, noisy: bool) -> bool:
        if self.backend is not None and self.backend != backend_name:
            return False
        if self.only_noisy is not None and self.only_noisy != noisy:
            return False
        return True

    def make_error(self, shot: int, attempt: int) -> "QirRuntimeError":
        # Imported lazily: repro.runtime.execute imports this module, so a
        # top-level errors import would close a package-init cycle.
        from repro.runtime.errors import (
            BackendFaultError,
            OutputCorruptionError,
            QubitAllocationError,
            TrapError,
        )

        detail = f"injected {self.error} fault at site {self.site!r} (shot {shot}, attempt {attempt + 1})"
        if self.error == "alloc":
            return QubitAllocationError(detail)
        if self.error == "trap":
            return TrapError(detail)
        if self.error == "corrupt":
            return OutputCorruptionError(detail)
        return BackendFaultError(detail)

    @classmethod
    def parse(cls, spec: str) -> "FaultRule":
        """Parse a CLI spec: ``site[,key=value,...]``.

        Keys: ``p`` (probability), ``shots`` (colon-separated indices),
        ``class`` (error class), ``failures``, ``backend``, ``param``.
        Example: ``gate,p=0.01,class=backend,failures=2``.
        """
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty fault spec")
        site = parts[0]
        kwargs: Dict[str, object] = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ValueError(f"malformed fault spec item {part!r} (want key=value)")
            key, value = part.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key == "p":
                kwargs["probability"] = float(value)
            elif key == "shots":
                kwargs["shots"] = frozenset(int(v) for v in value.split(":") if v)
            elif key == "class":
                kwargs["error"] = value
            elif key == "failures":
                kwargs["failures"] = int(value)
            elif key == "backend":
                kwargs["backend"] = value
            elif key == "param":
                kwargs["param"] = int(value)
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        return cls(site=site, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded collection of :class:`FaultRule`\\ s."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def poison(
        cls,
        shots: Sequence[int],
        site: str = "gate",
        error: str = "backend",
        failures: int = PERSISTENT,
        seed: int = 0,
        **kwargs: object,
    ) -> "FaultPlan":
        """Poison an explicit set of shot indices at one site."""
        rule = FaultRule(
            site=site, shots=frozenset(shots), error=error, failures=failures, **kwargs  # type: ignore[arg-type]
        )
        return cls(rules=(rule,), seed=seed)

    @classmethod
    def random(
        cls,
        probability: float,
        site: str = "gate",
        error: str = "backend",
        failures: int = PERSISTENT,
        seed: int = 0,
        **kwargs: object,
    ) -> "FaultPlan":
        """Poison each shot independently with the given probability."""
        rule = FaultRule(
            site=site, probability=probability, error=error, failures=failures, **kwargs  # type: ignore[arg-type]
        )
        return cls(rules=(rule,), seed=seed)

    @classmethod
    def parse(cls, specs: Sequence[str], seed: int = 0) -> "FaultPlan":
        return cls(rules=tuple(FaultRule.parse(s) for s in specs), seed=seed)

    def poisoned_shots(self, shots: int) -> FrozenSet[int]:
        """All shot indices at least one rule poisons (for tests/reports)."""
        hit = set()
        for index, rule in enumerate(self.rules):
            for shot in range(shots):
                if rule.applies_to_shot(shot, self.seed, index):
                    hit.add(shot)
        return frozenset(hit)

    @property
    def has_process_faults(self) -> bool:
        return any(rule.site in PROCESS_SITES for rule in self.rules)

    @property
    def has_hang_faults(self) -> bool:
        return any(rule.site == "worker_hang" for rule in self.rules)

    def process_decision(
        self, start: int, stop: int, attempt: int
    ) -> "ProcessFaultDecision":
        """Resolve the process-level fate of the chunk ``[start, stop)``.

        Pure function of ``(plan, chunk range, dispatch attempt)``: a
        worker computes its own fate without coordination, and the parent
        can predict it in tests.  ``failures`` gates on the chunk's
        dispatch *attempt* (0 on first dispatch, +1 each time the work
        queue re-enqueues it after a loss), so a transient rule stops
        firing once the chunk has been re-dispatched that many times.
        """
        crash_shot: Optional[int] = None
        hang_shot: Optional[int] = None
        corrupt_report = False
        for index, rule in enumerate(self.rules):
            if rule.site not in PROCESS_SITES:
                continue
            if rule.failures != PERSISTENT and attempt >= rule.failures:
                continue  # transient fault already spent its attempts
            for shot in range(start, stop):
                if not rule.applies_to_shot(shot, self.seed, index):
                    continue
                if rule.site == "worker_crash":
                    if crash_shot is None or shot < crash_shot:
                        crash_shot = shot
                elif rule.site == "worker_hang":
                    if hang_shot is None or shot < hang_shot:
                        hang_shot = shot
                else:  # ipc_corrupt poisons the whole report, any shot triggers
                    corrupt_report = True
                break  # first poisoned shot in range decides for this rule
        return ProcessFaultDecision(crash_shot, hang_shot, corrupt_report)


@dataclass(frozen=True)
class ProcessFaultDecision:
    """What the chaos layer does to one dispatched worker chunk."""

    crash_shot: Optional[int] = None
    hang_shot: Optional[int] = None
    corrupt_report: bool = False

    @property
    def is_inert(self) -> bool:
        return (
            self.crash_shot is None
            and self.hang_shot is None
            and not self.corrupt_report
        )


@dataclass
class InjectorStats:
    faults_raised: int = 0
    records_corrupted: int = 0
    timeouts_armed: int = 0


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-shot contexts and keeps stats.

    Stats mutation goes through the ``note_*`` methods under a lock, so
    the tallies stay exact if contexts fire from more than one thread.
    It pickles as its plan alone: a worker process's injector starts
    with fresh stats, which the parent folds back in at the merge."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.stats = InjectorStats()
        self._lock = threading.Lock()

    def __reduce__(self):
        return (FaultInjector, (self.plan,))

    def note_fault_raised(self, count: int = 1) -> None:
        """Count raised faults (``count`` lets a scheduler merge a whole
        worker process's tally in one call)."""
        with self._lock:
            self.stats.faults_raised += count

    def note_record_corrupted(self) -> None:
        with self._lock:
            self.stats.records_corrupted += 1

    def note_timeout_armed(self) -> None:
        with self._lock:
            self.stats.timeouts_armed += 1

    def context(self, shot: int) -> "ShotFaultContext":
        # Process-level sites are the worker loop's business (see
        # FaultPlan.process_decision); keeping them out of the per-shot
        # context means a worker-chaos plan leaves every interpreter
        # attempt untouched, which is what makes re-dispatched counts
        # bit-identical to a serial run.
        applicable = [
            rule
            for index, rule in enumerate(self.plan.rules)
            if rule.site not in PROCESS_SITES
            and rule.applies_to_shot(shot, self.plan.seed, index)
        ]
        return ShotFaultContext(self, shot, applicable)


class ShotFaultContext:
    """The fault decisions for one shot, re-armed per attempt.

    ``check(site)`` is the hot-path entry: a dict lookup that returns
    immediately when nothing is armed, so the clean-path overhead of the
    wrapper stays negligible (measured in ``bench_resilience.py``).
    """

    def __init__(
        self, injector: FaultInjector, shot: int, applicable: List[FaultRule]
    ):
        self._injector = injector
        self.shot = shot
        self._applicable = applicable
        self._armed: Dict[str, FaultRule] = {}
        self._attempt = 0

    @property
    def is_inert(self) -> bool:
        """No rule poisons this shot at all (the wrapper can be skipped)."""
        return not self._applicable

    def begin_attempt(self, attempt: int, backend_name: str, noisy: bool = False) -> None:
        self._attempt = attempt
        armed: Dict[str, FaultRule] = {}
        for rule in self._applicable:
            if not rule.matches_level(backend_name, noisy):
                continue
            if rule.failures != PERSISTENT and attempt >= rule.failures:
                continue  # transient fault already spent its failures
            armed[rule.site] = rule
        self._armed = armed

    # -- hot-path hooks -----------------------------------------------------------
    def check(self, site: str) -> None:
        rule = self._armed.get(site)
        if rule is None:
            return
        self._injector.note_fault_raised()
        raise rule.make_error(self.shot, self._attempt)

    def intrinsic_hook(self, name: str) -> None:
        """Interpreter hook: called with each declared ``__quantum__*`` name."""
        if not self._armed:
            return
        rule = self._armed.get(f"intrinsic:{name}")
        if rule is None and name.endswith("_record_output"):
            rule = self._armed.get("output")
        if rule is not None:
            self._injector.note_fault_raised()
            raise rule.make_error(self.shot, self._attempt)

    @property
    def wants_intrinsic_hook(self) -> bool:
        return any(
            rule.site == "output" or rule.site.startswith("intrinsic:")
            for rule in self._applicable
        )

    # -- out-of-band fault classes ---------------------------------------------
    def step_limit(self, default: int) -> int:
        """Effective step budget: shrunk when a ``timeout`` rule is armed."""
        rule = self._armed.get("timeout")
        if rule is None:
            return default
        self._injector.note_timeout_armed()
        return max(0, rule.param)

    def mangle_bits(self, bits: List[int]) -> List[int]:
        """Apply silent output corruption if armed (flips the first bit)."""
        rule = self._armed.get("corrupt_output")
        if rule is None or rule.error != "corrupt" or not bits:
            return bits
        self._injector.note_record_corrupted()
        mangled = list(bits)
        mangled[0] ^= 1
        return mangled


class FaultyBackend(DelegatingBackend):
    """Backend decorator that consults a :class:`ShotFaultContext`."""

    def __init__(self, inner: SimulatorBackend, ctx: ShotFaultContext):
        super().__init__(inner)
        self._ctx = ctx

    def allocate_qubit(self) -> int:
        self._ctx.check("allocate")
        return self.inner.allocate_qubit()

    def apply_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> None:
        self._ctx.check("gate")
        self.inner.apply_gate(name, qubits, params)

    def measure(self, qubit: int) -> int:
        self._ctx.check("measure")
        return self.inner.measure(qubit)

    def reset(self, qubit: int) -> None:
        self._ctx.check("reset")
        self.inner.reset(qubit)
