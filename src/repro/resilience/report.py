"""Structured failure records for partial-result recovery.

A resilient multi-shot run never throws away the shots that worked: it
returns the aggregated histogram of successes *plus* one
:class:`ShotFailure` per poisoned shot, so a 10 000-shot run with 3 bad
shots yields 9 997 outcomes and 3 records instead of an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.errors import QirRuntimeError


@dataclass(frozen=True)
class ShotFailure:
    """One shot that exhausted its attempts (or failed fast on a trap)."""

    shot: int
    code: str
    error_type: str
    message: str
    attempts: int
    backend: str
    context: Optional[str] = None

    @classmethod
    def from_error(
        cls, shot: int, error: "QirRuntimeError", attempts: int, backend: str
    ) -> "ShotFailure":
        context = str(error.context) if getattr(error, "context", None) else None
        return cls(
            shot=shot,
            code=getattr(error, "code", "QIR000"),
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
            backend=backend,
            context=context,
        )

    def render(self) -> str:
        line = (
            f"FAIL\tshot={self.shot}\tcode={self.code}\ttype={self.error_type}"
            f"\tattempts={self.attempts}\tbackend={self.backend}\tmsg={self.message}"
        )
        if self.context:
            line += f"\twhere={self.context}"
        return line


def render_timing_line(wall_seconds: float, successful_shots: int) -> str:
    """``TIMING`` stderr line: total wall time and successful-shot rate."""
    rate = successful_shots / wall_seconds if wall_seconds > 0 else 0.0
    return f"TIMING\twall={wall_seconds:.3f}s\tshots/sec={rate:.1f}"


def render_failure_report(
    failures: List[ShotFailure],
    per_error_counts: Dict[str, int],
    degraded: bool,
    history: Optional[List[str]] = None,
    wall_seconds: float = 0.0,
    successful_shots: int = 0,
    supervision: Optional[str] = None,
    run_id: str = "",
) -> str:
    """Human/CLI-facing multi-line report (empty string when clean).

    When timing is known (``wall_seconds > 0``) a ``TIMING`` line closes
    the report so a partial-failure run still answers "how fast was it?".
    ``supervision`` is the process scheduler's worker-failure summary
    (:meth:`~repro.runtime.pool.SupervisionRecord.summary`); a run
    that recovered from worker loss reports it even when every shot
    ultimately succeeded.  A known ``run_id`` opens the report with a
    ``RUN`` line so the failure text joins against the run ledger.
    """
    if not failures and not degraded and not supervision:
        return ""
    lines = [f.render() for f in failures]
    if run_id:
        lines.insert(0, f"RUN\trun_id={run_id}")
    if per_error_counts:
        summary = " ".join(f"{code}={n}" for code, n in sorted(per_error_counts.items()))
        lines.append(f"ERRORS\t{summary}")
    if supervision:
        lines.append(f"SUPERVISOR\t{supervision}")
    if degraded:
        lines.append("DEGRADED\t" + ("; ".join(history) if history else "backend fallback engaged"))
    if wall_seconds > 0:
        lines.append(render_timing_line(wall_seconds, successful_shots))
    return "\n".join(lines)
