"""One benchmark process: ``prepare``, ``setup`` or ``load``.

``run.py`` starts each role in a fresh interpreter and reads one JSON
object from the last line of its standard output.

* ``prepare`` -- untimed: fills the disk plan cache of a workload that
  has one, as a previous server process would have.
* ``setup`` -- times import + session construction + the workload's
  warm-up, from this file's first statement.
* ``load`` -- warms up, then serves requests in a closed loop (one
  client, each request sent after the previous one returns) for the
  given seconds, checking every output.  With ``--trace 1`` every fourth
  request is traced.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (setup time starts before any import)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from workloads import DIGEST_REQUESTS, WORKLOADS, request_digest  # noqa: E402

#: In a traced run, one request in this many is traced.
TRACE_EVERY = 4

#: Consecutive blocks a run's requests are cut into; see _block_metrics.
BLOCKS = 5

#: Failures printed in full; the rest are only counted.
_REPORTED_FAILURES = 5


def open_session(workload, seed: int, work_dir: str):
    from repro.runtime.session import QirSession

    if workload.disk_cache:
        return QirSession(seed=seed, plan_cache_dir=os.path.join(work_dir, "plan-cache"))
    return QirSession(seed=seed)


def serve(session, request) -> dict:
    """The timed region: one request through the program's front door."""
    text = request.text
    if request.form == "qasm":
        from repro.frontend import exporter
        from repro.qasm import parser2

        text = exporter.export_circuit_text(parser2.parse_qasm2(text))
    return session.run_shots(text, request.shots, pipeline=request.pipeline).counts


def warm_up(session, workload, seed: int) -> None:
    # Serving (not just compiling) each warm-up request once matters: a
    # program's first run was up to 1.8x slower than its later ones.
    for request in workload.warmup(seed):
        serve(session, request)


def prepare(workload, seed: int, work_dir: str) -> dict:
    if workload.disk_cache:
        session = open_session(workload, seed, work_dir)
        for request in workload.fill(seed, session.plan_cache.max_entries):
            serve(session, request)
    return {}


def setup(workload, seed: int, work_dir: str) -> dict:
    session = open_session(workload, seed, work_dir)
    warm_up(session, workload, seed)
    return {"setup_s": time.perf_counter() - _T0}


def _block_metrics(samples, shots: int) -> dict:
    """End-to-end timing metrics from ``(wall seconds, passed)`` per request.

    The run is cut into :data:`BLOCKS` consecutive blocks of requests and
    each metric is the best of its block values: the highest throughput,
    the lowest p50 and p90.  Other tenants of a shared machine only ever
    add time, in spells of seconds, while a slower program slows every
    block; on a shared 2-vCPU VM the best block repeated about twice as
    closely between runs as the median block or the whole run.  Throughput
    is completed requests over the summed wall time of all requests in a
    block; latencies are those of the requests that passed.
    """
    import numpy as np

    rates, p50s, p90s, beyond = [], [], [], []
    for block in np.array_split(np.arange(len(samples)), BLOCKS):
        passed = [samples[i][0] for i in block if samples[i][1]]
        if not passed:
            continue
        p90 = float(np.percentile(passed, 90))
        rates.append(len(passed) / sum(samples[i][0] for i in block))
        p50s.append(float(np.median(passed)))
        p90s.append(p90)
        beyond.append(sum(1 for wall in passed if wall > p90))
    return {
        "requests_per_s": max(rates),
        "shots_per_s": max(rates) * shots,
        "latency_p50_ms": min(p50s) * 1e3,
        "latency_p90_ms": min(p90s) * 1e3,
        "latency_samples": sum(1 for _, ok in samples if ok),
        "beyond_p90": min(beyond),
    }


def _overhead(untraced, traced) -> float:
    """Traced over untraced p50, ``trace.overhead``.

    ``untraced`` maps each program key to its latencies and ``traced``
    lists ``(key, latency)``.  Each traced latency is divided by the
    untraced median of its own program, so where programs recur and differ
    widely in cost the ratio does not depend on which of them the traced
    sample happened to draw.  Programs that never recur share the key
    ``None``, which makes this the plain ratio of the two p50s.
    """
    import numpy as np

    medians = {key: np.median(walls) for key, walls in untraced.items()}
    ratios = [wall / medians[key] for key, wall in traced if key in medians]
    if not ratios:  # a run too short for any traced program to recur untraced
        overall = np.median([wall for walls in untraced.values() for wall in walls])
        ratios = [wall / overall for _, wall in traced]
    return float(np.median(ratios))


def load(workload, seed: int, work_dir: str, seconds: float, trace_file: str) -> dict:
    from oracle import Oracle

    session = open_session(workload, seed, work_dir)
    tracer = None
    if trace_file:
        from tracing import Tracer

        # Import every lazily loaded module the requests touch before the
        # tracer looks for the callables it wraps.
        import repro.frontend.exporter  # noqa: F401
        import repro.qasm.parser2  # noqa: F401
        import repro.tools.qir_opt  # noqa: F401

        tracer = Tracer()
        tracer.serve(-1, lambda: warm_up(session, workload, seed))
    else:
        warm_up(session, workload, seed)

    oracle = Oracle()
    # Untraced requests in order as (program key, wall seconds, passed);
    # traced ones as (program key, wall seconds) when they passed.
    untraced, traced_latencies = [], []
    attempted = failed = 0
    counts_digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < DIGEST_REQUESTS or time.perf_counter() < deadline:
        request = workload.request(seed, index)
        traced = tracer is not None and index % TRACE_EVERY == TRACE_EVERY - 1
        start = time.perf_counter()
        try:
            if traced:
                counts, wall = tracer.serve(index, lambda: serve(session, request))
            else:
                counts = serve(session, request)
                wall = time.perf_counter() - start
            failure = oracle.check(request, counts)
        except Exception as error:  # a failed request is counted, not fatal
            counts, wall = None, time.perf_counter() - start
            failure = f"raised {type(error).__name__}: {error}"
        attempted += 1
        if failure is not None:
            failed += 1
            if failed <= _REPORTED_FAILURES:
                print(f"request {index} ({request.form}) failed: {failure}", file=sys.stderr)
        if traced:
            if failure is None:
                traced_latencies.append((request.key, wall))
        else:
            untraced.append((request.key, wall, failure is None))
        if index < DIGEST_REQUESTS:
            counts_digest.update(json.dumps(counts, sort_keys=True).encode())
        index += 1

    result = {
        "attempted": attempted,
        "failed": failed,
        "request_digest": request_digest(workload, seed),
        "counts_digest": counts_digest.hexdigest()[:16],
    }
    if tracer is None:
        result.update(_block_metrics([(wall, ok) for _, wall, ok in untraced], workload.shots))
        # Linux reports ru_maxrss in KiB.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        by_key = {}
        for key, wall, ok in untraced:
            if ok:
                by_key.setdefault(key, []).append(wall)
        tracer.check(workload.name)
        result["layers"] = tracer.metrics(_overhead(by_key, traced_latencies))
        tracer.write_jsonl(trace_file)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("prepare", "setup", "load"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="scratch directory of this run")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace-file", default="", help="trace this load run into FILE")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    if args.role == "prepare":
        result = prepare(workload, args.seed, args.dir)
    elif args.role == "setup":
        result = setup(workload, args.seed, args.dir)
    else:
        result = load(workload, args.seed, args.dir, args.seconds, args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
