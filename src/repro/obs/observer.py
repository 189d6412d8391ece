"""The Observer facade and its no-op default.

Instrumented layers (parser, pass manager, runtime, resilience) accept an
``observer`` and guard every measurement behind ``observer.enabled`` -- a
plain attribute load -- so the default :data:`NULL_OBSERVER` costs nothing
on the hot path (guarded by ``benchmarks/bench_obs.py``).  An enabled
:class:`Observer` bundles a :class:`~repro.obs.tracer.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry` behind convenience methods.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.obs.runctx import RunContext
from repro.obs.tracer import Span, Tracer

Number = Union[int, float]


class Observer:
    """Enabled observer: spans go to ``tracer``, metrics to ``metrics``."""

    enabled: bool = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.run_context: Optional[RunContext] = None
        # Out-of-order span exits clamp tracer depth; surface each one as
        # a counter so misuse shows up in metrics, not just in a corrupt
        # trace.
        self.tracer.on_depth_underflow = (
            lambda name: self.metrics.counter(
                "tracer.depth_underflow", span=name
            ).inc()
        )

    # -- run identity ---------------------------------------------------------
    def set_run_context(self, context: Optional[RunContext]) -> None:
        """Bind (or clear) the current run's identity.

        While bound, every span the tracer records carries ``run_id`` in
        its args.  The run's ``run.info`` gauge is published by the
        runtime once the run has chosen its path, so its labels name the
        placement that served it.
        """
        self.run_context = context
        self.tracer.run_id = context.run_id if context is not None else None

    # -- tracing --------------------------------------------------------------
    def span(self, name: str, **tags: object) -> Span:
        return self.tracer.span(name, **tags)

    def instant(self, name: str, **tags: object) -> None:
        self.tracer.instant(name, **tags)

    # -- metrics --------------------------------------------------------------
    def inc(self, name: str, amount: Number = 1, **labels: object) -> None:
        self.metrics.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: Number, **labels: object) -> None:
        self.metrics.gauge(name, **labels).set(value)

    def observe(
        self,
        name: str,
        value: Number,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: object,
    ) -> None:
        self.metrics.histogram(name, bounds, **labels).observe(value)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return self.metrics.snapshot()

    def __repr__(self) -> str:
        return f"<Observer spans={len(self.tracer)} metrics={len(self.metrics)}>"


class _NullSpan:
    """Reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def tag(self, key: str, value: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullObserver(Observer):
    """Disabled observer: every method is a no-op, ``enabled`` is False.

    Hot paths should prefer ``if observer.enabled:`` over calling these
    no-ops, but calling them is still safe (and cheap).
    """

    enabled = False

    def __init__(self) -> None:  # no tracer/metrics allocation
        self.tracer = None  # type: ignore[assignment]
        self.metrics = None  # type: ignore[assignment]
        self.run_context = None

    def set_run_context(self, context: Optional[RunContext]) -> None:
        return None

    def span(self, name: str, **tags: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def instant(self, name: str, **tags: object) -> None:
        return None

    def inc(self, name: str, amount: Number = 1, **labels: object) -> None:
        return None

    def set_gauge(self, name: str, value: Number, **labels: object) -> None:
        return None

    def observe(self, name, value, bounds=DEFAULT_TIME_BUCKETS, **labels) -> None:
        return None

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}

    def __repr__(self) -> str:
        return "<NullObserver>"


NULL_OBSERVER = NullObserver()


def as_observer(observer: Optional[Observer]) -> Observer:
    """Normalise an optional observer argument (None -> the shared no-op)."""
    return NULL_OBSERVER if observer is None else observer
