"""SCHED-QUEUE: work-queue dispatch vs the contiguous split it replaced.

Shape claims:
* on the uneven reset-chain workload (fault retries load the first
  quarter of the shot range ~3x) at ``--jobs 4``, self-scheduled queue
  chunks bring the worker imbalance ratio (slowest / median busy time)
  measurably under the one-contiguous-range-per-worker baseline, which
  parks the whole expensive prefix on worker 0;
* the rebalancing is free where it matters: histograms stay
  bit-identical to a serial run across both dispatch shapes.

``qir-bench run`` records the same comparison as
``runtime.scheduler.queue_imbalance``, which the budgets file gates.
"""

import pytest

from repro.obs.analytics import worker_utilization
from repro.obs.observer import Observer
from repro.obs.traceview import Trace
from repro.resilience import FaultPlan, RetryPolicy
from repro.runtime import QirRuntime, QirSession
from repro.workloads.qir_programs import reset_chain_qir

from conftest import report

SHOTS = 96
JOBS = 4


def _uneven_plan():
    # Persistent-ish skew: the first quarter of the shots each fail twice
    # before the retry layer lands them, so early shots cost ~3x.
    return FaultPlan.poison(
        range(SHOTS // 4), site="gate", failures=2, seed=11
    )


def _run(chunk_shots):
    observer = Observer()
    runtime = QirRuntime(seed=7, observer=observer)
    plan = QirSession(runtime=runtime).compile(reset_chain_qir(3, rounds=3))
    result = runtime.run_shots(
        plan, shots=SHOTS, jobs=JOBS,
        retry=RetryPolicy(max_attempts=3), fault_plan=_uneven_plan(),
        chunk_shots=chunk_shots,
    )
    trace = Trace.from_events(observer.tracer.to_trace_events())
    return result, worker_utilization(trace)


def test_queue_dispatch_levels_the_uneven_workload():
    serial = QirRuntime(seed=7).run_shots(
        reset_chain_qir(3, rounds=3), shots=SHOTS,
        retry=RetryPolicy(max_attempts=3), fault_plan=_uneven_plan(),
        sampling="never",
    )
    contiguous_result, contiguous = _run(-(-SHOTS // JOBS))  # ceil = old split
    queued_result, queued = _run(None)  # guided self-scheduled chunks

    assert contiguous is not None and queued is not None
    # Rebalancing must never move a number: per-shot seeds are pure
    # functions of shot index, so both arms match serial bit for bit.
    assert contiguous_result.counts == serial.counts
    assert queued_result.counts == serial.counts

    report(
        "worker imbalance, uneven reset-chain (slowest / median busy)",
        [
            ("contiguous", f"{contiguous.imbalance:.3f}"),
            ("queue", f"{queued.imbalance:.3f}"),
        ],
        header=("dispatch", "imbalance"),
    )
    # The shape claim, with a floor for already-balanced timing noise:
    # the queue arm must not be meaningfully worse than the contiguous
    # arm, and on a skewed workload it should be meaningfully better.
    assert queued.imbalance <= max(1.5, contiguous.imbalance * 0.9), (
        f"queue dispatch ({queued.imbalance:.3f}) did not improve on the "
        f"contiguous split ({contiguous.imbalance:.3f})"
    )


def test_queue_rebalances_under_transient_chunk_loss():
    # Crash every chunk's first dispatch mid-queue: the re-enqueued
    # chunks must recover the run to serial-identical counts.
    plan = FaultPlan.parse(["worker_crash,p=1.0,failures=1"], seed=3)
    serial = QirRuntime(seed=7).run_shots(
        reset_chain_qir(3, rounds=2), shots=24,
        fault_plan=plan, sampling="never",
    )
    supervised = QirRuntime(seed=7).run_shots(
        reset_chain_qir(3, rounds=2), shots=24,
        jobs=JOBS, chunk_shots=4, fault_plan=plan,
    )
    assert supervised.counts == serial.counts
    assert supervised.supervision is not None
    assert supervised.supervision.redispatches > 0
