"""The repository's benchmark: QIR requests through ``QirSession``.

Run one or more workloads and print every metric with its unit; the last
line of standard output is the JSON result of the last workload::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--scale F] [--out FILE]

With ``--trace 0`` (the default) a run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics
instead.  ``--out FILE`` appends each workload's result as a JSON line,
and two such files are compared with::

    python3 bench/run.py compare PARENT.jsonl CHANGE.jsonl

This file imports nothing from the program: each workload runs in fresh
``worker.py`` processes -- one untimed ``prepare``, :data:`SETUP_PROBES`
timed ``setup`` probes, then one ``load`` process -- so that the program
is imported and measured in processes of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOAD_NAMES = tuple(WORKLOADS)

#: Fresh processes whose set-up time ``setup_s`` takes the median of.
SETUP_PROBES = 5

#: Seconds a worker may take beyond its measured time before it is killed.
_WORKER_GRACE = 120.0

#: Environment variables that would make a session open a plan cache or
#: ledger the benchmark did not ask for.
_SESSION_ENV = ("QIR_PLAN_CACHE", "QIR_LEDGER")


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _worker(role: str, workload: str, seed: int, work_dir: str, *extra: str, timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _SESSION_ENV}
    command = [
        sys.executable, os.path.join(BENCH, "worker.py"), role,
        "--workload", workload, "--seed", str(seed), "--dir", work_dir, *extra,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload}: {role} process exceeded {timeout:.0f} s") from error
    if done.returncode != 0:
        raise BenchError(f"{workload}: {role} process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the worker results plus ``setup_s``."""
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        _worker("prepare", workload, seed, work_dir, timeout=_WORKER_GRACE)
        result: dict = {}
        if not trace:
            probes = [
                _worker("setup", workload, seed, work_dir, timeout=_WORKER_GRACE)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            result["setup_s"] = statistics.median(probes)
        extra = ["--seconds", repr(seconds)]
        if trace:
            extra += ["--trace-file", os.path.join(OUT, f"trace-{workload}.jsonl")]
        result.update(
            _worker("load", workload, seed, work_dir, *extra, timeout=seconds + _WORKER_GRACE)
        )
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _digest_warning(workload: str, seed: int, digest: str) -> None:
    """Counts are deterministic for a seed; a changed digest is worth a look
    (an RNG-stream change, say) but is not by itself wrong."""
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as handle:
        recorded = json.load(handle).get(workload, {}).get(str(seed))
    if recorded is not None and recorded != digest:
        print(
            f"warning: {workload} seed {seed} counts_digest {digest} differs from "
            f"the recorded {recorded}",
            file=sys.stderr,
        )


def report(workload: str, seed: int, trace: bool, result: dict, spec: dict) -> dict:
    """Print the human-readable block and return the JSON result."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["layers"] if trace else result
    missing = [m["name"] for m in listed if m["name"] not in source]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload} (seed {seed}{', traced' if trace else ''})")
    for name, metric in metrics.items():
        print(f"  {name:52s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':52s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if not trace:
        print(
            f"  latency samples {result['latency_samples']}, "
            f"{result['beyond_p90']} beyond p90 in each block"
        )
    print(f"  request_digest {result['request_digest']}  counts_digest {result['counts_digest']}")
    _digest_warning(workload, seed, result["counts_digest"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- compare --------------------------------------------------------------------


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _read_runs(path: str) -> Dict[tuple, Dict[int, float]]:
    """``(workload, metric) -> {seed: value}`` from an ``--out`` file."""
    runs: Dict[tuple, Dict[int, float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                runs.setdefault((record["workload"], name), {})[record["seed"]] = metric["value"]
    return runs


def verdict(parent: List[float], change: List[float], pairs, lower: bool, bound: float) -> str:
    """``worse``, ``better``, ``same`` or ``unresolved`` for one metric.

    Better (choosing-metrics, section 8): at least ten pairs, the change
    wins at least nine tenths of them, and the medians differ by more than
    the parent's quartile spread.  Unresolved: either side's quartile
    spread is wider than ``bound`` (a share of the median), unless every
    change run reads better than every parent run.  Worse: the change's
    median is worse than the parent's by more than ``bound``.
    """
    sign = -1.0 if lower else 1.0  # sign * value grows as the metric improves
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "better"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound and not all_better:
        return "unresolved"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    return "same"


def compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description="Compare two --out files.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    parent, change = _read_runs(args.parent), _read_runs(args.change)
    worse = 0
    print(f"{'workload':18s} {'metric':16s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s}  bound  verdict")
    for metric in spec["end_to_end"]:
        for workload in WORKLOAD_NAMES:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            a, b = parent[key], change[key]
            pairs = [(a[s], b[s]) for s in sorted(set(a) & set(b))]
            result = verdict(
                list(a.values()), list(b.values()), pairs, metric["better"] == "lower", metric["bound"]
            )
            worse += result == "worse"
            cells = [
                "/".join(f"{q:.4g}" for q in _quartiles(list(side.values()))) for side in (a, b)
            ]
            print(
                f"{workload:18s} {metric['name']:16s} {cells[0]:>30s} {cells[1]:>30s}  "
                f"{metric['bound']:.2f}   {result}"
            )
    return 1 if worse else 0


# -- main -----------------------------------------------------------------------


def _stop(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running worker,
    # and run_workload's cleanup removes its scratch directory.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, _stop)
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--workload", "--workloads", nargs="+", choices=WORKLOAD_NAMES,
        default=list(WORKLOAD_NAMES), help="workloads to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="multiply the measured seconds")
    parser.add_argument("--out", help="append each workload's result to this JSONL file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = (args.seconds if args.seconds is not None else spec["run_seconds"]) * args.scale
    trace = bool(args.trace)
    try:
        for workload in args.workload:
            result = run_workload(workload, args.seed, seconds, trace)
            line = report(workload, args.seed, trace, result, spec)
            if args.out:
                record = {"workload": workload, "seed": args.seed, "seconds": seconds, "trace": trace, **line}
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
            print(json.dumps(line), flush=True)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
