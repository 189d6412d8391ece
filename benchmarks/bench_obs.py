"""OBS: observability-layer overhead guards (ISSUE 2 tentpole).

Shape claims:

* the default *no-op* observer adds < 3% to the Ex. 5 per-shot runtime
  workload, measured against a hand-rolled shot loop that bypasses the
  observer plumbing entirely -- the instrumentation seams are free when
  unused;
* an *enabled* observer (per-shot latency histogram + per-intrinsic
  timing) stays within a small constant factor, cheap enough to switch on
  for any diagnostic run.

Timing discipline: every number is the median of k >= 5 timed
repetitions after warmup (``measure_median``) -- single-sample timings
produced negative overhead fractions in early snapshots.  The overhead
ratio is computed median-over-median.
"""

import numpy as np

from repro.llvmir import parse_assembly
from repro.obs import Observer
from repro.runtime import QirRuntime
from repro.runtime.interpreter import Interpreter
from repro.sim.statevector import StatevectorSimulator
from repro.workloads.qir_programs import ghz_qir

from conftest import measure_median, report

SHOTS = 50
REPEATS = 9  # median-of-9 per side (>= the k=5 floor)
WARMUP = 2
NOOP_BUDGET = 1.03  # +3% -- the ISSUE-2 acceptance bound
ENABLED_BUDGET = 1.6  # generous: per-intrinsic clocks cost real time


def _module():
    return parse_assembly(ghz_qir(10, addressing="static"))


def _bare_loop(module, shots=SHOTS):
    """The pre-observability shot loop: backend + interpreter, nothing else."""
    rng = np.random.default_rng(7)
    counts = {}
    for _ in range(shots):
        backend = StatevectorSimulator(0, seed=int(rng.integers(2**63)), max_qubits=26)
        interp = Interpreter(module, backend)
        interp.run()
        bits = interp.output.result_bits()
        key = "".join(str(b) for b in reversed(bits))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _noop_loop(module, shots=SHOTS):
    """The production API with its default no-op observer."""
    return QirRuntime(seed=7).run_shots(module, shots=shots, sampling="never")


def _enabled_loop(module, shots=SHOTS):
    observer = Observer()
    runtime = QirRuntime(seed=7, observer=observer)
    return runtime.run_shots(module, shots=shots, sampling="never")


def test_noop_observer_overhead():
    """run_shots with the default no-op observer vs the bare loop: < 3%."""
    module = _module()
    bare = measure_median(lambda: _bare_loop(module), repeats=REPEATS, warmup=WARMUP)
    noop = measure_median(lambda: _noop_loop(module), repeats=REPEATS, warmup=WARMUP)
    overhead = noop.median / bare.median - 1.0
    report(
        "OBS no-op observer overhead (GHZ-10, per-shot loop, median-of-%d)" % REPEATS,
        [
            ("bare loop", f"{bare.median * 1e3:.2f} ms"),
            ("run_shots (no-op obs)", f"{noop.median * 1e3:.2f} ms"),
            ("overhead", f"{overhead * 100:+.2f}%"),
        ],
    )
    assert noop.median <= bare.median * NOOP_BUDGET, (
        f"no-op observer overhead {overhead * 100:.2f}% exceeds "
        f"{(NOOP_BUDGET - 1) * 100:.0f}% budget"
    )


def test_enabled_observer_overhead_bounded():
    """Full tracing+metrics profiling stays within a small constant factor."""
    module = _module()
    noop = measure_median(lambda: _noop_loop(module), repeats=REPEATS, warmup=WARMUP)
    enabled = measure_median(
        lambda: _enabled_loop(module), repeats=REPEATS, warmup=WARMUP
    )
    overhead = enabled.median / noop.median - 1.0
    report(
        "OBS enabled observer overhead (GHZ-10, per-shot loop, median-of-%d)"
        % REPEATS,
        [
            ("no-op observer", f"{noop.median * 1e3:.2f} ms"),
            ("enabled observer", f"{enabled.median * 1e3:.2f} ms"),
            ("overhead", f"{overhead * 100:+.2f}%"),
        ],
    )
    assert enabled.median <= noop.median * ENABLED_BUDGET


def test_enabled_observer_records_everything():
    """Sanity: the enabled run actually produced the per-intrinsic profile
    (so the overhead above measured real instrumentation, not a silent no-op)."""
    module = _module()
    observer = Observer()
    QirRuntime(seed=7, observer=observer).run_shots(
        module, shots=10, sampling="never"
    )
    snapshot = observer.snapshot()
    intrinsics = [
        key for key in snapshot["counters"]
        if key.startswith("runtime.intrinsic_calls{")
    ]
    assert intrinsics, "per-intrinsic counters missing from enabled run"
    histogram = snapshot["histograms"]["runtime.shot_seconds"]
    assert histogram["count"] == 10
