"""RunContext: the per-run identity that survives worker boundaries.

Every multi-shot execution gets one :class:`RunContext` -- minted by
:meth:`~repro.runtime.execute.QirRuntime.run_shots` (or handed down by
:class:`~repro.runtime.session.QirSession`, which knows the plan key) --
carrying a ULID-style ``run_id`` plus the labels that identify *what*
ran: plan key, scheduler, backend, jobs.  The context is:

* stamped on the :class:`~repro.obs.tracer.Tracer` so every span emitted
  during the run carries the same ``run_id`` tag and merges into one
  coherent trace -- including the ``process.worker`` spans, which the
  parent records when it merges the worker reports (workers themselves
  never see the context);
* recorded in the :class:`~repro.obs.metrics.MetricsRegistry` as a
  ``run.info`` gauge (the Prometheus ``*_info`` idiom: value 1, identity
  in the labels) when the run ends, labelled with the placement that
  served it;
* written to the :class:`~repro.obs.ledger.RunLedger` as the primary key
  of the run's durable row.

``run_id`` format: 26 Crockford-base32 characters -- a 48-bit
millisecond timestamp followed by 80 random bits (the ULID layout) --
so ids sort lexicographically by creation time and collisions are
cryptographically unlikely even across hosts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

#: Crockford base32 alphabet (no I, L, O, U), as used by ULID.
_CROCKFORD = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"

#: Length of a run id: 10 timestamp characters + 16 randomness characters.
RUN_ID_LENGTH = 26


def _base32(value: int, length: int) -> str:
    chars = []
    for _ in range(length):
        chars.append(_CROCKFORD[value & 0x1F])
        value >>= 5
    return "".join(reversed(chars))


def new_run_id(timestamp_ms: Optional[int] = None) -> str:
    """A fresh ULID-style id: time-sortable, 26 chars, collision-safe.

    ``timestamp_ms`` is injectable for tests; production callers leave it
    to the wall clock.
    """
    if timestamp_ms is None:
        timestamp_ms = time.time_ns() // 1_000_000
    randomness = int.from_bytes(os.urandom(10), "big")
    return _base32(timestamp_ms & ((1 << 48) - 1), 10) + _base32(randomness, 16)


def is_run_id(value: str) -> bool:
    """Shape check used by CLI argument validation and the ledger."""
    return (
        isinstance(value, str)
        and len(value) == RUN_ID_LENGTH
        and all(c in _CROCKFORD for c in value)
    )


@dataclass(frozen=True)
class RunContext:
    """Identity and labels of one ``run_shots`` invocation.

    Frozen and made of plain data; ``with_labels`` derives an updated
    copy (e.g. once the placement is known).
    """

    run_id: str = field(default_factory=new_run_id)
    plan_key: Optional[str] = None
    scheduler: str = "serial"
    backend: str = "statevector"
    jobs: int = 1
    entry: Optional[str] = None
    shots: int = 0
    #: Span id of the enclosing request/trace (a future execution service
    #: propagates its request span here so run traces nest under it).
    parent_span_id: Optional[str] = None

    @classmethod
    def create(cls, **kwargs: object) -> "RunContext":
        return cls(**kwargs)  # type: ignore[arg-type]

    def with_labels(self, **changes: object) -> "RunContext":
        """A copy with updated labels (the ``run_id`` never changes)."""
        changes.pop("run_id", None)
        return replace(self, **changes)  # type: ignore[arg-type]

    @property
    def short_id(self) -> str:
        return self.run_id[-8:]

    def labels(self) -> Dict[str, object]:
        """The identity labels for metrics/span tagging (no Nones)."""
        out: Dict[str, object] = {
            "run_id": self.run_id,
            "scheduler": self.scheduler,
            "backend": self.backend,
            "jobs": self.jobs,
        }
        if self.plan_key:
            out["plan_key"] = self.plan_key
        if self.entry:
            out["entry"] = self.entry
        if self.parent_span_id:
            out["parent_span_id"] = self.parent_span_id
        return out
