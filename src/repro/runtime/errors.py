"""Runtime error hierarchy.

Every error carries a stable ``code`` (for log grep-ability and CLI exit
mapping), a ``retryable`` class flag consumed by
:class:`repro.resilience.retry.RetryPolicy`, and -- when raised from inside
the interpreter -- an :class:`ErrorContext` naming the function, basic
block, and instruction that failed.  The paper's Section IV motivates
this: a QIR runtime must distinguish *program* failures (traps, which are
deterministic and must fail fast) from *infrastructure* failures (backend
faults, which a resilient executor may retry or route around).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type


@dataclass(frozen=True)
class ErrorContext:
    """Where inside the program an error was raised."""

    function: Optional[str] = None
    block: Optional[str] = None
    instruction: Optional[str] = None

    def __str__(self) -> str:
        parts = []
        if self.function:
            parts.append(f"in @{self.function}")
        if self.block:
            parts.append(f"block %{self.block}")
        if self.instruction:
            parts.append(f"at {self.instruction}")
        return ", ".join(parts)


class QirRuntimeError(RuntimeError):
    """Base class for failures while executing a QIR program."""

    code: str = "QIR000"
    retryable: bool = False

    def __init__(self, message: str = "", *, context: Optional[ErrorContext] = None):
        super().__init__(message)
        self.context = context

    @classmethod
    def is_retryable(cls) -> bool:
        return cls.retryable

    def attach_context(self, context: ErrorContext) -> None:
        """Record *where* the error happened; the deepest frame wins."""
        if self.context is None:
            self.context = context

    def describe(self) -> str:
        text = f"[{self.code}] {self}"
        if self.context is not None:
            located = str(self.context)
            if located:
                text += f" ({located})"
        return text


class TrapError(QirRuntimeError):
    """The program executed ``unreachable`` or called ``__quantum__rt__fail``.

    Deterministic: re-running the same shot traps again, so never retried.
    """

    code = "QIR001"
    retryable = False


class StepLimitExceeded(QirRuntimeError):
    """The interpreter hit its instruction budget (runaway loop guard).

    Not retryable by default -- a deterministic program exceeds the budget
    every time -- but a :class:`~repro.resilience.retry.RetryPolicy` may
    opt in via ``retry_codes`` when budgets model flaky timeouts.
    """

    code = "QIR002"
    retryable = False


class UnboundFunctionError(QirRuntimeError):
    """A declared function has no intrinsic binding and no definition."""

    code = "QIR003"
    retryable = False


class InvalidPointerError(QirRuntimeError):
    """A pointer value was used in a way its kind does not support."""

    code = "QIR004"
    retryable = False


class BackendFaultError(QirRuntimeError):
    """A simulator backend operation failed transiently (gate/measure)."""

    code = "QIR010"
    retryable = True


class QubitAllocationError(QirRuntimeError):
    """The backend could not provide a fresh qubit slot."""

    code = "QIR011"
    retryable = True


class OutputCorruptionError(QirRuntimeError):
    """An output record failed its integrity check."""

    code = "QIR012"
    retryable = True


# -- process-level infrastructure (worker supervision) ------------------------
#
# The QIR02x band is reserved for the execute phase's *worker* failures:
# a shot never misbehaved, the machinery running it did.  They are what
# the ProcessScheduler's supervisor raises (or records in supervision
# events) instead of leaking concurrent.futures internals.


class WorkerCrashError(QirRuntimeError):
    """A scheduler worker process died (e.g. ``BrokenProcessPool``).

    Retryable by design: the lost chunk's shots are pure functions of
    ``(root, shot, attempt)``, so re-dispatching them to a healthy
    worker reproduces the exact outcomes the dead worker would have
    produced.
    """

    code = "QIR020"
    retryable = True


class WorkerTimeoutError(QirRuntimeError):
    """A scheduler worker stopped heartbeating within ``worker_timeout``."""

    code = "QIR021"
    retryable = True


class PoolStartupError(QirRuntimeError):
    """The worker pool could not start at all (spawn context unavailable,
    process limits, manager startup failure).  Not retryable: the same
    environment will refuse the same pool again; callers should fall
    back to an in-process scheduler or surface the message.
    """

    code = "QIR022"
    retryable = False


class SchedulerExhaustedError(QirRuntimeError):
    """Both rungs of the scheduler demotion ladder (process -> serial)
    failed to complete the run.  Terminal: there is no cheaper execution
    strategy left to try.
    """

    code = "QIR023"
    retryable = False


#: Stable code -> class registry (tests pin these so codes never drift).
ERROR_CODES: Dict[str, Type[QirRuntimeError]] = {
    cls.code: cls
    for cls in (
        QirRuntimeError,
        TrapError,
        StepLimitExceeded,
        UnboundFunctionError,
        InvalidPointerError,
        BackendFaultError,
        QubitAllocationError,
        OutputCorruptionError,
        WorkerCrashError,
        WorkerTimeoutError,
        PoolStartupError,
        SchedulerExhaustedError,
    )
}
