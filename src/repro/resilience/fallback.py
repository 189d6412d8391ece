"""Graceful degradation: demote to a cheaper/cleaner backend on failure.

A :class:`FallbackChain` is an ordered ladder of :class:`BackendLevel`\\ s.
The executor runs every shot on the current level; after ``demote_after``
consecutive shot-level failures it steps down the ladder and replays the
failing shot there.  Two demotions matter in this stack (ISSUE tentpole):

* ``StatevectorSimulator -> StabilizerSimulator`` -- only legal when the
  program is Clifford-only, checked against the QIS catalog;
* ``NoisyBackend -> clean backend`` -- drop the noise model.

Deterministic traps never demote: a program bug follows the program to
any backend.

Backends are not the only ladder.  The process scheduler's supervisor
demotes *schedulers* the same way (``scheduler:process ->
scheduler:serial`` after repeated worker failures) and reports those steps through the same degraded/history
channel (its ``ChainGuard.note_scheduler_demotion``), so one failure
report shows both kinds of demotion in the order they happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Union

from repro.llvmir.module import Module
from repro.qir.catalog import QIS_PREFIX, parse_qis_name
from repro.sim.gates import is_clifford_gate

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.errors import QirRuntimeError

_MEASUREMENT_OPS = frozenset({"mz", "m", "reset", "read_result"})


def program_is_clifford(module: Module) -> bool:
    """True when every QIS function the module declares is Clifford (or a
    measurement/reset), i.e. the stabilizer backend can execute it."""
    for name in module.functions:
        if not name.startswith(QIS_PREFIX):
            continue
        entry = parse_qis_name(name)
        if entry is None:
            return False
        if entry.gate in _MEASUREMENT_OPS:
            continue
        if entry.num_params > 0 or not is_clifford_gate(entry.gate):
            return False
    return True


@dataclass(frozen=True)
class BackendLevel:
    """One rung of the ladder: a backend name plus whether noise stays on."""

    backend: str
    noisy: bool = True

    @property
    def label(self) -> str:
        return f"{self.backend}+noise" if self.noisy else self.backend


LevelLike = Union[str, BackendLevel]


def _as_level(level: LevelLike) -> BackendLevel:
    if isinstance(level, BackendLevel):
        return level
    return BackendLevel(str(level), noisy=False)


class FallbackChain:
    """Demotion ladder with consecutive-failure counting and history."""

    def __init__(self, levels: Sequence[LevelLike], demote_after: int = 2):
        if not levels:
            raise ValueError("a fallback chain needs at least one level")
        if demote_after < 1:
            raise ValueError("demote_after must be >= 1")
        self.levels: List[BackendLevel] = [_as_level(l) for l in levels]
        self.demote_after = demote_after
        self._index = 0
        self._consecutive_failures = 0
        self._clifford_ok = False
        self.history: List[str] = []

    @classmethod
    def default(
        cls, backend: str = "statevector", noisy: bool = False, demote_after: int = 2
    ) -> "FallbackChain":
        """The standard ladder: drop noise first, then go stabilizer."""
        levels: List[BackendLevel] = [BackendLevel(backend, noisy=noisy)]
        if noisy:
            levels.append(BackendLevel(backend, noisy=False))
        if backend == "statevector":
            levels.append(BackendLevel("stabilizer", noisy=False))
        return cls(levels, demote_after=demote_after)

    # -- program traits ----------------------------------------------------------
    def set_program_is_clifford(self, ok: bool) -> None:
        self._clifford_ok = ok

    def _eligible(self, level: BackendLevel) -> bool:
        if level.backend == "stabilizer":
            return self._clifford_ok
        return True

    def worker_clone(self) -> "FallbackChain":
        """A private copy for a scheduler worker process.

        Same ladder, current position, and Clifford eligibility, but a
        *fresh* history and failure count: the worker reports only the
        demotions it performed itself, so the parent can merge worker
        histories without double-counting its own (see the process
        scheduler's per-worker demotion semantics)."""
        clone = FallbackChain(self.levels, demote_after=self.demote_after)
        clone._index = self._index
        clone._clifford_ok = self._clifford_ok
        return clone

    # -- state -------------------------------------------------------------------
    @property
    def current(self) -> BackendLevel:
        return self.levels[self._index]

    @property
    def degraded(self) -> bool:
        return self._index > 0

    def note_success(self) -> None:
        self._consecutive_failures = 0

    def note_failure(self, error: "QirRuntimeError") -> bool:
        """Record a shot-level failure; returns True when the chain demoted
        (the caller should replay the shot on the new level)."""
        from repro.runtime.errors import TrapError  # avoid package-init cycle

        self._consecutive_failures += 1
        if isinstance(error, TrapError):
            return False
        if self._consecutive_failures < self.demote_after:
            return False
        for j in range(self._index + 1, len(self.levels)):
            if self._eligible(self.levels[j]):
                old = self.current.label
                self._index = j
                self._consecutive_failures = 0
                self.history.append(
                    f"{old} -> {self.current.label} "
                    f"(after {getattr(error, 'code', '?')}: {error})"
                )
                return True
        return False
