"""Shared reporting helpers for the benchmark suite.

Every benchmark file reproduces one experiment from DESIGN.md's index and
asserts its *shape* claim (who wins / how it scales), in addition to the
pytest-benchmark timing rows.  These files write no JSON: ``qir-bench
run`` is the one producer of ``BENCH_*.json`` snapshots.  Timings should
come from :func:`repro.obs.snapshot.measure` (median-of-k with warmup,
re-exported here as :func:`measure_median`): single-sample timings are
what produced negative overhead fractions in early snapshots.
"""

from repro.obs.snapshot import measure as measure_median  # noqa: F401 (re-export)


def report(title: str, rows, header=None) -> None:
    """Print a small aligned table into the captured output (visible with
    ``pytest -s`` and in benchmark logs)."""
    print(f"\n== {title} ==")
    if header:
        print("  " + " | ".join(str(h) for h in header))
    for row in rows:
        print("  " + " | ".join(str(c) for c in row))
