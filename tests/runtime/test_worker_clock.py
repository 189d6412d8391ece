"""Clock-rebasing invariants for merged ``process.worker`` spans.

``ProcessScheduler._rebase_start`` maps a worker's self-reported start
clock onto the parent's ``perf_counter`` (against the dispatch clock the
supervisor kept for that chunk) so folded spans land where the work
actually happened.  The invariants under test:

* the rebased start is always one of the three defensible anchors --
  pool start (no rebase info), dispatch clock (implausible offset), or
  dispatch + offset (the real latency under ``fork``);
* it is never negative and never before the tracer's reference points,
  so the recorded span has a non-negative ``ts``;
* ``start <= end`` always holds (``seconds >= 0`` is the worker's own
  measurement), including on the spawn-clamp path from the report of a
  ``spawn``-start worker whose clock shares no origin with the parent.
"""

from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracer import Tracer
from repro.runtime.pool import ProcessScheduler, _WorkerReport


def rebase(dispatch_clock, start_offset, seconds, pool_start):
    """Rebase a report whose worker started ``start_offset`` seconds after
    the chunk's dispatch (on the worker's own clock)."""
    report = _WorkerReport(
        outcomes=[],
        degraded=False,
        history=[],
        faults_raised=0,
        seconds=seconds,
        started=dispatch_clock + start_offset,
    )
    return ProcessScheduler._rebase_start(report, dispatch_clock, pool_start)


class TestRebaseBranches:
    def test_no_rebase_info_falls_back_to_pool_start(self):
        assert rebase(0.0, start_offset=-1.0, seconds=1.0, pool_start=42.0) == 42.0

    def test_plausible_offset_is_applied(self):
        now = perf_counter()
        assert rebase(
            now - 10.0, start_offset=0.25, seconds=1.0, pool_start=now - 11.0
        ) == pytest.approx(now - 10.0 + 0.25)

    def test_negative_offset_clamps_to_dispatch(self):
        # spawn: worker perf_counter origin predates the parent's value,
        # so the naive offset goes negative.
        now = perf_counter()
        assert (
            rebase(now - 10.0, start_offset=-123.0, seconds=1.0, pool_start=now - 11.0)
            == now - 10.0
        )

    def test_future_ending_offset_clamps_to_dispatch(self):
        # spawn the other way: the worker's clock is far ahead, so
        # dispatch + offset + seconds would end after "now".
        now = perf_counter()
        assert (
            rebase(now - 1.0, start_offset=500.0, seconds=2.0, pool_start=now - 2.0)
            == now - 1.0
        )


class TestRebaseProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        dispatch_age=st.floats(min_value=0.0, max_value=1e4),
        start_offset=st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        seconds=st.floats(min_value=0.0, max_value=1e4),
        pool_lead=st.floats(min_value=0.0, max_value=10.0),
        has_dispatch=st.booleans(),
    )
    def test_rebased_span_invariants(
        self, dispatch_age, start_offset, seconds, pool_lead, has_dispatch
    ):
        now = perf_counter()
        dispatch_clock = max(now - dispatch_age, 1e-6) if has_dispatch else 0.0
        pool_start = max((dispatch_clock or now) - pool_lead, 0.0)
        start = rebase(dispatch_clock, start_offset, seconds, pool_start)

        # The result is one of the three defensible anchors.
        anchors = {pool_start, dispatch_clock, dispatch_clock + start_offset}
        assert start in anchors
        # Non-negative on the parent's clock; never before the pool
        # existed or before the worker was dispatched.
        assert start >= 0.0
        assert start >= min(pool_start, dispatch_clock or pool_start)
        if dispatch_clock > 0.0:
            assert start >= dispatch_clock or start == dispatch_clock + start_offset
            # A negative offset is never trusted (spawn clamp).
            if start_offset < 0.0:
                assert start == dispatch_clock
        else:
            assert start == pool_start
        # The span is well-formed: start <= end.
        assert start <= start + seconds
        # A rebased span never ends in the parent's future (the clamp's
        # whole point).  Guard on a strictly positive offset: at
        # offset == 0 the clamp anchor and the offset anchor coincide,
        # so the branch taken is indistinguishable from the result.
        if (
            dispatch_clock > 0.0
            and dispatch_clock + start_offset > dispatch_clock
            and start == dispatch_clock + start_offset
        ):
            assert start + seconds <= perf_counter()

    @settings(max_examples=100, deadline=None)
    @given(
        dispatch_age=st.floats(min_value=0.001, max_value=100.0),
        start_offset=st.floats(
            min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
        ),
        seconds=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_folded_span_has_non_negative_ts(
        self, dispatch_age, start_offset, seconds
    ):
        """The merged ``process.worker`` event always lands at ``ts >= 0``.

        The tracer's origin predates pool start and dispatch (it is
        created first), so every anchor _rebase_start can return maps to
        a non-negative microsecond timestamp -- the invariant traceview
        flags as ``negative_time`` when broken.
        """
        tracer = Tracer()  # origin = now
        origin = tracer._origin
        pool_start = perf_counter()
        dispatch_clock = perf_counter()
        start = rebase(dispatch_clock, start_offset, seconds, pool_start)
        tracer.complete(
            "process.worker", start=start, seconds=seconds, tid=1, worker=0
        )
        event = tracer.events[-1]
        assert start >= origin
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
        assert event["ts"] + event["dur"] >= event["ts"]  # start <= end
