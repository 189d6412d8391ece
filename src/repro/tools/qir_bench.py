"""qir-bench: the continuous-performance harness (run / diff / check).

Turns the observability layer's instrumentation into enforced
guarantees: ``run`` executes a declared suite of standard workloads and
writes a schema-versioned :class:`~repro.obs.snapshot.BenchSnapshot`
(it is the only producer of ``BENCH_*.json`` files, and every A/B record
comes from :func:`~repro.obs.snapshot.measure_arms`); ``diff`` compares
two snapshots with relative thresholds and fails (exit 4) on
regression; ``check`` runs the budgeted pass pipelines, judges a
snapshot against the gates, and -- under ``--strict`` -- fails on any
per-pass budget bust or failed gate.

The gates and the per-record diff thresholds live in one checked-in
file, ``bench_budgets.json`` next to this module.

Examples::

    qir-bench run -o a.json                     # full suite, medians of k=5
    qir-bench run -o a.json --repeats 3 --shots 50 --suite parse,runtime
    qir-bench diff a.json b.json --threshold 0.25
    qir-bench diff a.json b.json --json > report.json
    qir-bench check --strict --snapshot a.json
    qir-bench check --strict --snapshot a.json --budget loop-unroll=1e-9

Exit codes: 0 = success, 2 = bad input (unreadable/unparseable snapshot,
bad spec), 4 = regression detected (``diff``) or budget bust / failed
gate under ``--strict`` (``check``).
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
from importlib import resources
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.llvmir.parser import parse_assembly
from repro.obs.observer import Observer
from repro.obs.regress import (
    DEFAULT_THRESHOLD,
    EXIT_REGRESSION,
    RegressionReport,
    diff_snapshots,
)
from repro.obs.runctx import new_run_id
from repro.obs.snapshot import (
    ArmComparison,
    BenchRecord,
    BenchSnapshot,
    TimingStats,
    measure,
    measure_arms,
)
from repro.passes.manager import BudgetBust, budgets_from_specs
from repro.passes.pipeline import o1_pipeline, unroll_pipeline
from repro.runtime.execute import QirRuntime
from repro.runtime.plan import ExecutionPlan, compile_plan
from repro.runtime.session import QirSession
from repro.workloads.qir_programs import (
    counted_loop_qir,
    ghz_qir,
    qft_qir,
    reset_chain_qir,
    rotation_ladder_qir,
)

EXIT_OK = 0
EXIT_USAGE = 2

SUITES = ("parse", "passes", "runtime")

#: One timed arm of an A/B pair (see :func:`repro.obs.snapshot.measure_arms`).
Arm = Callable[[], object]

# The pipelines `check` exercises, each over the workload that stresses it.
CHECK_PIPELINES: Dict[str, Callable] = {
    "o1": o1_pipeline,
    "unroll": unroll_pipeline,
}


def _generated_workloads() -> Dict[str, str]:
    """The declared always-available parse workloads (no files needed)."""
    return {
        "ghz12": ghz_qir(12, addressing="static"),
        "qft8": qft_qir(8, addressing="static"),
        "counted_loop16": counted_loop_qir(16),
    }


def _example_workloads(examples_dir: str) -> Dict[str, str]:
    """``examples/*.ll`` sources keyed by stem; empty when the dir is absent."""
    out: Dict[str, str] = {}
    for path in sorted(glob.glob(os.path.join(examples_dir, "*.ll"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path, "r", encoding="utf-8") as handle:
            out[f"example_{name}"] = handle.read()
    return out


# -- run ----------------------------------------------------------------------

def _bench_parse(
    snapshot: BenchSnapshot, workloads: Dict[str, str], repeats: int
) -> None:
    for name, text in workloads.items():
        # One observed parse for the token count (the throughput numerator).
        observer = Observer()
        parse_assembly(text, observer=observer)
        tokens = observer.metrics.value("parse.tokens", 0.0) or 0.0
        stats = measure(lambda t=text: parse_assembly(t), repeats=repeats)
        snapshot.add(
            BenchRecord.from_stats(
                f"parse.{name}.seconds", stats,
                unit="seconds", direction="lower",
                bytes=len(text), tokens=int(tokens),
            )
        )
        if stats.median > 0:
            snapshot.record(
                f"parse.{name}.tokens_per_second",
                tokens / stats.median,
                unit="tokens/sec",
                direction="higher",
                k=stats.k,
            )


def _measure_pipeline(
    text: str, factory: Callable, repeats: int, warmup: int = 1
) -> Tuple[TimingStats, List[BudgetBust], int]:
    """Median-of-k pipeline timing on fresh modules (passes mutate the IR)."""
    samples: List[float] = []
    busts: List[BudgetBust] = []
    iterations = 0
    for index in range(warmup + repeats):
        module = parse_assembly(text)
        manager = factory()
        t0 = perf_counter()
        result = manager.run(module)
        elapsed = perf_counter() - t0
        if index >= warmup:
            samples.append(elapsed)
            busts.extend(result.budget_busts)
            iterations = result.iterations
    return TimingStats(tuple(samples)), busts, iterations


def _bench_passes(snapshot: BenchSnapshot, repeats: int) -> None:
    workloads = {"counted_loop16": counted_loop_qir(16)}
    for wl_name, text in workloads.items():
        for pipe_name, factory in CHECK_PIPELINES.items():
            stats, busts, iterations = _measure_pipeline(text, factory, repeats)
            snapshot.add(
                BenchRecord.from_stats(
                    f"passes.{pipe_name}.{wl_name}.seconds", stats,
                    unit="seconds", direction="lower",
                    iterations=iterations, budget_busts=len(busts),
                )
            )


def _record_ratio(
    snapshot: BenchSnapshot,
    name: str,
    value: Optional[float],
    arms: ArmComparison,
    direction: str = "higher",
    **metadata: object,
) -> None:
    """One A/B ratio record, carrying both arms' min/median/max."""
    if value is not None:
        snapshot.record(
            name, value, unit="ratio", direction=direction, k=arms.baseline.k,
            metadata={**metadata, **arms.spread()},
        )


def fastpath_arms(runtime: QirRuntime, text: str, shots: int) -> Tuple[Arm, Arm]:
    """Per-shot re-interpretation (baseline) vs the sampling fast path.

    The program is compiled once through a :class:`QirSession`, so the
    timed repetitions measure pure execution cost and never re-parse.
    """
    plan = QirSession(runtime=runtime).compile(text)
    return (
        lambda: runtime.run_shots(plan, shots=shots, sampling="never"),
        lambda: runtime.run_shots(plan, shots=shots, sampling="require"),
    )


def _bare_then_plan(
    runtime: QirRuntime, plan: ExecutionPlan, shots: int, sampling: str
) -> Tuple[Arm, Arm]:
    """The plan's bare module, which the runtime never specializes, as
    the baseline arm; the plan itself as the candidate."""
    return (
        lambda: runtime.run_shots(plan.module, shots, plan.entry, sampling=sampling),
        lambda: runtime.run_shots(plan, shots, sampling=sampling),
    )


def fusion_arms(plan: ExecutionPlan, shots: int) -> Tuple[Arm, Arm]:
    """Per-gate interpretation (baseline) vs the fused kernel schedule.

    Both arms run ``sampling="never"`` (fusion lives in the per-shot
    loop; the fast path would mask it).  Raises ``ValueError``
    when the plan has no fused schedule -- comparing identical code
    paths would report noise as signal.
    """
    if plan.fused is None:
        raise ValueError(
            "program is not specializable (the recording declined it); "
            "there is no fused schedule to measure"
        )
    return _bare_then_plan(QirRuntime(seed=7), plan, shots, "never")


def dist_warm_arms(plan: ExecutionPlan, shots: int) -> Tuple[Arm, Arm]:
    """Cold fast-path re-evolution (baseline) vs warm distribution serving.

    One ``sampling="require"`` run memoizes the plan's distribution
    first.  Raises ``ValueError`` when the plan never becomes warm (the
    outcome support is too large to cache).
    """
    runtime = QirRuntime(seed=7)
    runtime.run_shots(plan, shots=shots, sampling="require")
    if plan.distribution is None:
        raise ValueError(
            "plan did not memoize a distribution (the outcome support is "
            "too large)"
        )
    return _bare_then_plan(runtime, plan, shots, "require")


def _bench_runtime(snapshot: BenchSnapshot, shots: int, repeats: int) -> None:
    workloads = {"ghz10": ghz_qir(10, addressing="static")}
    for name, text in workloads.items():
        arms = measure_arms(
            *fastpath_arms(QirRuntime(seed=7), text, shots),
            repeats=repeats, shots=shots,
        )
        snapshot.record(
            f"runtime.ex5.{name}.per_shot_shots_per_second",
            arms.baseline_shots_per_second,
            unit="shots/sec", direction="higher", k=repeats,
            metadata={"shots": shots},
        )
        snapshot.record(
            f"runtime.ex5.{name}.fastpath_shots_per_second",
            arms.candidate_shots_per_second,
            unit="shots/sec", direction="higher", k=repeats,
            metadata={"shots": shots},
        )
        # The ROADMAP "sampled-fastpath win tracking" number: how much the
        # deferred-measurement path wins over per-shot re-interpretation.
        _record_ratio(
            snapshot, f"runtime.ex5.{name}.fastpath_speedup", arms.speedup,
            arms, shots=shots,
        )


def _bench_specialization(
    snapshot: BenchSnapshot, shots: int, repeats: int
) -> None:
    """Plan-specialization wins (ROADMAP: faster simulator kernels).

    Fusion pair: ``rotation_ladder_qir`` -- deep per-qubit rotation runs
    that coalesce into one kernel per qubit, timed per-gate vs fused with
    the sampling fast path disabled on both sides.  Distribution pair: a
    GHZ plan warmed through the sampling fast path, then cold
    re-evolution vs warm (memoized-distribution) serving.  The two
    ratios -- ``runtime.fusion.speedup`` and
    ``runtime.plan.dist_warm_speedup`` -- are budget-file gates.
    """
    ladder = compile_plan(rotation_ladder_qir(2, depth=48), verify=False)
    fusion_shots = min(shots, 64)
    fusion = measure_arms(
        *fusion_arms(ladder, fusion_shots), repeats=repeats, shots=fusion_shots
    )
    work = {"shots": fusion_shots, "kernels": ladder.fused.kernels,
            "source_gates": ladder.fused.source_gates}
    snapshot.record(
        "runtime.fusion.fused_shots_per_second",
        fusion.candidate_shots_per_second,
        unit="shots/sec", direction="higher", k=repeats, metadata=work,
    )
    _record_ratio(snapshot, "runtime.fusion.speedup", fusion.speedup, fusion, **work)

    ghz = compile_plan(ghz_qir(10, addressing="static"), verify=False)
    dist_shots = max(shots, 512)
    dist = measure_arms(
        *dist_warm_arms(ghz, dist_shots), repeats=repeats, shots=dist_shots
    )
    snapshot.record(
        "runtime.plan.dist_warm_shots_per_second",
        dist.candidate_shots_per_second,
        unit="shots/sec", direction="higher", k=repeats,
        metadata={"shots": dist_shots},
    )
    _record_ratio(
        snapshot, "runtime.plan.dist_warm_speedup", dist.speedup, dist,
        shots=dist_shots,
    )


def _bench_schedulers(snapshot: BenchSnapshot, shots: int, repeats: int) -> None:
    """Compile-once/execute-many scheduler records (ROADMAP: parallel shots).

    ``reset_chain_qir`` is the non-Clifford mid-circuit-reset workload.
    The baseline is the serial per-shot loop (``sampling="never"``); the
    ``batched_speedup`` arm is the default run, which the sampling fast
    path serves by deferring every measurement and reset onto fresh
    wires (the record keeps the name of the batch tier it replaced); the
    process arm runs per shot in workers.  One serial block is the shared
    baseline of both ratios; the budgets file gates both above 1.
    """
    text = reset_chain_qir(3, rounds=3)
    jobs = max(2, min(4, os.cpu_count() or 2))

    def arm(sampling: str, jobs: int = 1) -> Arm:
        runtime = QirRuntime(seed=7)
        plan = QirSession(runtime=runtime).compile(text)
        return lambda: runtime.run_shots(
            plan, shots=shots, sampling=sampling, jobs=jobs
        )

    sampled = measure_arms(
        arm("never"), arm("auto"), repeats=repeats, shots=shots
    )
    serial = sampled.baseline
    process = ArmComparison(
        serial,
        measure(arm("never", jobs=jobs), repeats=repeats),
        shots,
    )

    snapshot.add(
        BenchRecord.from_stats(
            "runtime.scheduler.serial_seconds", serial,
            unit="seconds", direction="lower", shots=shots,
        )
    )
    if serial.median > 0:
        snapshot.record(
            "runtime.scheduler.serial_shots_per_second",
            sampled.baseline_shots_per_second,
            unit="shots/sec", direction="higher", k=repeats,
            metadata={"shots": shots},
        )
    _record_ratio(
        snapshot, "runtime.scheduler.batched_speedup", sampled.speedup,
        sampled, shots=shots,
    )
    # The GIL-escape number: on multi-core machines worker processes
    # should beat the serial loop on this interpreter-bound workload;
    # single-core machines see ~1 or below because pool startup has
    # nothing to amortise against.
    _record_ratio(
        snapshot, "runtime.scheduler.process_speedup", process.speedup,
        process, shots=shots, jobs=jobs,
    )


def _bench_supervision(snapshot: BenchSnapshot, shots: int, repeats: int) -> None:
    """Worker-crash recovery overhead (ROADMAP: supervised process pool).

    Clean arm: a plain process-scheduler run.  Recovery arm: the same run
    with a *transient* ``worker_crash`` injection (``failures=1``), so the
    first dispatch round loses the pool and the supervisor redispatches
    every chunk in round two.  The ratio is the wall-clock price of one
    full crash-and-redispatch cycle -- the number the regression gate
    watches so supervision stays cheap relative to the work it recovers.
    """
    from repro.resilience import FaultPlan

    text = reset_chain_qir(3, rounds=3)
    jobs = max(2, min(4, os.cpu_count() or 2))

    def arm(fault_specs: Optional[List[str]], observer: Observer) -> Arm:
        runtime = QirRuntime(seed=7, observer=observer)
        plan = QirSession(runtime=runtime).compile(text)
        fault_plan = FaultPlan.parse(fault_specs, seed=0) if fault_specs else None
        return lambda: runtime.run_shots(
            plan, shots=shots, jobs=jobs, fault_plan=fault_plan,
            sampling="never",
        )

    recovery_observer = Observer()
    arms = measure_arms(
        arm(None, Observer()),
        arm(["worker_crash,p=1.0,failures=1"], recovery_observer),
        repeats=repeats, shots=shots,
    )
    supervision = recovery_observer.metrics.values_with_prefix("scheduler.worker.")
    redispatched = int(supervision.get("scheduler.worker.redispatch", 0))

    snapshot.add(
        BenchRecord.from_stats(
            "runtime.scheduler.crash_recovery_seconds", arms.candidate,
            unit="seconds", direction="lower",
            shots=shots, jobs=jobs, redispatched=redispatched,
        )
    )
    clean = arms.baseline.median
    _record_ratio(
        snapshot, "runtime.scheduler.recovery_overhead",
        arms.candidate.median / clean if clean > 0 else None,
        arms, direction="lower",
        shots=shots, jobs=jobs, redispatched=redispatched,
        crashes=int(supervision.get("scheduler.worker.crash", 0)),
    )


def _bench_plan_cache(snapshot: BenchSnapshot, repeats: int) -> None:
    """Disk-tier warm-start win (ROADMAP: cross-process plan cache).

    Cold arm: a fresh session compiles into an *empty* cache directory
    (full frontend -- parse, verify, unroll pipeline, analysis -- plus
    the write-through).  Warm arm: another fresh session, standing in
    for a brand-new process, hits the disk tier and only re-parses the
    printed module.  The ratio is the warm-start payoff a restarted
    server or CI step actually sees.
    """
    import shutil
    import tempfile

    text = counted_loop_qir(16)
    directory = tempfile.mkdtemp(prefix="qir-bench-plans-")

    def compile_once() -> None:
        QirSession(plan_cache_dir=directory).compile(text, pipeline="unroll")

    def cold() -> None:
        shutil.rmtree(directory, ignore_errors=True)
        compile_once()

    try:
        # The warm arm's warmup call runs against the directory the last
        # cold call populated, so every timed warm call is a disk hit.
        arms = measure_arms(cold, compile_once, repeats=repeats)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    snapshot.add(
        BenchRecord.from_stats(
            "runtime.plan.cold_compile_seconds", arms.baseline,
            unit="seconds", direction="lower",
        )
    )
    snapshot.add(
        BenchRecord.from_stats(
            "runtime.plan.disk_warm_seconds", arms.candidate,
            unit="seconds", direction="lower",
        )
    )
    _record_ratio(
        snapshot, "runtime.plan.disk_warm_speedup", arms.speedup, arms,
        pipeline="unroll",
    )


def _bench_trace_analytics(snapshot: BenchSnapshot, shots: int, repeats: int) -> None:
    """Straggler evidence + analysis cost (ROADMAP: work stealing).

    Two traced process-scheduler runs, three records.  The clean
    reset-chain run yields ``runtime.scheduler.worker_imbalance``
    (slowest / median worker busy time; 1.0 is perfectly balanced) under
    the shared work queue's guided self-scheduled chunks.  The *uneven*
    run makes the queue's case: per-shot fault retries load the first
    quarter of the shot range ~3x, then the same workload runs twice --
    once pulling from the queue, once with ``chunk_shots =
    ceil(shots/jobs)`` emulating the one-contiguous-range-per-worker
    split the queue replaced -- and ``runtime.scheduler.queue_imbalance``
    records the queue arm with the contiguous arm in its metadata, so
    the diff gate can hold the improvement.  The analyze timing guards
    the tooling itself: ``qir-trace summary`` on a real trace must stay
    interactive.
    """
    from repro.obs.analytics import summarize, worker_utilization
    from repro.obs.traceview import Trace
    from repro.resilience import FaultPlan, RetryPolicy

    text = reset_chain_qir(3, rounds=3)
    jobs = max(2, min(4, os.cpu_count() or 2))
    snapshot.environment["scheduler_jobs"] = str(jobs)
    snapshot.environment["chunk_sizing"] = "guided"
    observer = Observer()
    runtime = QirRuntime(seed=7, observer=observer)
    plan = QirSession(runtime=runtime).compile(text)
    runtime.run_shots(plan, shots=shots, jobs=jobs, sampling="never")
    events = observer.tracer.to_trace_events()
    trace = Trace.from_events(events)

    report = worker_utilization(trace)
    if report is not None:
        snapshot.record(
            "runtime.scheduler.worker_imbalance",
            report.imbalance,
            unit="ratio", direction="lower", k=1,
            metadata={
                "shots": shots,
                "jobs": jobs,
                "workers": len(report.workers),
                "stragglers": len(report.stragglers),
            },
        )

    def uneven_imbalance(chunk_shots: Optional[int]) -> Optional[float]:
        # Retried faults on the first quarter of the shot range make the
        # early shots ~3x the cost of the rest -- exactly the skew that
        # punishes a contiguous split (worker 0 owns all of it) and that
        # self-scheduled chunks level out.
        skewed = FaultPlan.poison(
            range(max(1, shots // 4)), site="gate", failures=2, seed=11
        )
        arm_observer = Observer()
        arm_runtime = QirRuntime(seed=7, observer=arm_observer)
        arm_plan = QirSession(runtime=arm_runtime).compile(text)
        arm_runtime.run_shots(
            arm_plan, shots=shots, jobs=jobs,
            retry=RetryPolicy(max_attempts=3),
            fault_plan=skewed, chunk_shots=chunk_shots,
        )
        arm_trace = Trace.from_events(arm_observer.tracer.to_trace_events())
        arm_report = worker_utilization(arm_trace)
        return None if arm_report is None else arm_report.imbalance

    contiguous = uneven_imbalance(-(-shots // jobs))  # ceil(shots / jobs)
    queued = uneven_imbalance(None)
    if queued is not None:
        snapshot.record(
            "runtime.scheduler.queue_imbalance",
            queued,
            unit="ratio", direction="lower", k=1,
            metadata={
                "shots": shots,
                "jobs": jobs,
                "workload": "uneven (fault-retry skew on first quarter)",
                "contiguous_imbalance": contiguous,
            },
        )

    # from_events is part of the measured cost: that is what qir-trace
    # pays end to end (minus file I/O) on every invocation.
    stats = measure(lambda: summarize(Trace.from_events(events)), repeats=repeats)
    snapshot.add(
        BenchRecord.from_stats(
            "obs.trace.analyze_seconds", stats,
            unit="seconds", direction="lower", spans=len(trace),
        )
    )


def _cmd_run(args: argparse.Namespace) -> int:
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    for suite in suites:
        if suite not in SUITES:
            print(f"qir-bench: error: unknown suite {suite!r}; "
                  f"choose from {', '.join(SUITES)}", file=sys.stderr)
            return EXIT_USAGE
    if args.repeats < 1:
        print("qir-bench: error: --repeats must be >= 1", file=sys.stderr)
        return EXIT_USAGE

    snapshot = BenchSnapshot(group="qir-bench")
    # A bench invocation is a run like any other: stamping a run id into
    # the environment metadata lets regressions join against ledger rows
    # recorded on the same machine at the same time.
    snapshot.environment["run_id"] = new_run_id()
    if "parse" in suites:
        workloads = _generated_workloads()
        workloads.update(_example_workloads(args.examples_dir))
        _bench_parse(snapshot, workloads, args.repeats)
    if "passes" in suites:
        _bench_passes(snapshot, args.repeats)
    if "runtime" in suites:
        _bench_runtime(snapshot, args.shots, args.repeats)
        _bench_specialization(snapshot, args.shots, args.repeats)
        _bench_schedulers(snapshot, args.shots, args.repeats)
        _bench_supervision(snapshot, args.shots, args.repeats)
        _bench_plan_cache(snapshot, args.repeats)
        _bench_trace_analytics(snapshot, args.shots, args.repeats)

    if args.output:
        snapshot.write_json(args.output)
    else:
        snapshot.write_json(sys.stdout)
    # Human summary on stderr so `-o -`-style piping stays clean.
    print(f"== qir-bench run (k={args.repeats}, shots={args.shots}) ==",
          file=sys.stderr)
    for record in sorted(snapshot.records, key=lambda r: r.name):
        spread = (
            f"  [{record.min:.6f} .. {record.max:.6f}]"
            if record.min is not None and record.max is not None
            else ""
        )
        print(f"  {record.name:<48}{record.value:>14.6f} {record.unit}{spread}",
              file=sys.stderr)
    return EXIT_OK


# -- budgets ------------------------------------------------------------------

BUDGETS_FILE = "bench_budgets.json"


def load_budgets() -> Dict[str, object]:
    """The checked-in budgets: snapshot gates and per-record diff thresholds."""
    text = resources.files("repro.tools").joinpath(BUDGETS_FILE).read_text(
        encoding="utf-8"
    )
    return json.loads(text)


def judge_gate(
    gate: Dict[str, object], records: Dict[str, BenchRecord]
) -> Tuple[str, str]:
    """One budgets-file gate against a snapshot: ``(PASS|FAIL|SKIP, detail)``.

    The bound is ``above`` (value must exceed it), or ``at_most`` raised
    to ``metadata_scale`` times the record's ``at_most_metadata`` entry.
    A missing or non-finite record, bound or metadata entry fails;
    ``min_cpus`` skips the comparison on smaller hosts.
    """
    name = str(gate["record"])
    record = records.get(name)
    if record is None:
        return "FAIL", f"missing record {name}"
    bound = gate.get("above", gate.get("at_most"))
    if "at_most_metadata" in gate:
        key = str(gate["at_most_metadata"])
        extra = record.metadata.get(key)
        if (isinstance(extra, bool) or not isinstance(extra, (int, float))
                or not math.isfinite(extra)):
            return "FAIL", f"{name}: missing or non-finite metadata {key}"
        bound = max(bound, gate["metadata_scale"] * extra)  # type: ignore[operator]
    if not (math.isfinite(record.value) and math.isfinite(bound)):  # type: ignore[arg-type]
        return "FAIL", f"{name}: non-finite value {record.value} or bound {bound}"
    op = "<=" if "at_most" in gate else ">"
    detail = f"{name} = {record.value:.3f} (needs {op} {bound:.3f})"
    if (os.cpu_count() or 1) < int(gate.get("min_cpus", 1)):  # type: ignore[arg-type]
        return "SKIP", f"{detail}; host has fewer than {gate['min_cpus']} CPUs"
    holds = record.value <= bound if op == "<=" else record.value > bound  # type: ignore[operator]
    return ("PASS" if holds else "FAIL"), detail


# -- diff ---------------------------------------------------------------------

def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        baseline = BenchSnapshot.load(args.baseline)
        current = BenchSnapshot.load(args.current)
        report = diff_snapshots(
            baseline, current,
            threshold=args.threshold,
            per_record_thresholds=load_budgets()["record_thresholds"],  # type: ignore[arg-type]
        )
    except (OSError, ValueError) as error:
        print(f"qir-bench: error: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(report.render(), file=sys.stderr)
    if args.json:
        report.write_json(sys.stdout)
    return report.exit_code


# -- check --------------------------------------------------------------------

def _cmd_check(args: argparse.Namespace) -> int:
    try:
        overrides = budgets_from_specs(args.budget)
        snapshot = BenchSnapshot.load(args.snapshot)
    except (OSError, ValueError) as error:
        print(f"qir-bench: error: {error}", file=sys.stderr)
        return EXIT_USAGE
    pipelines = args.pipeline or sorted(CHECK_PIPELINES)
    for name in pipelines:
        if name not in CHECK_PIPELINES:
            print(f"qir-bench: error: unknown pipeline {name!r}; "
                  f"choose from {', '.join(sorted(CHECK_PIPELINES))}",
                  file=sys.stderr)
            return EXIT_USAGE

    text = counted_loop_qir(16)
    observer = Observer()
    all_busts: List[Tuple[str, BudgetBust]] = []
    for name in pipelines:
        manager = CHECK_PIPELINES[name]()
        # CLI overrides tighten (or create) individual pass budgets while
        # the pipeline's own defaults keep covering everything else.
        manager.budgets.update(overrides)
        module = parse_assembly(text)
        result = manager.run(module, observer=observer)
        for bust in result.budget_busts:
            all_busts.append((name, bust))

    for pipeline_name, bust in all_busts:
        print(f"qir-bench: check: [{pipeline_name}] {bust.render()}",
              file=sys.stderr)
    records = snapshot.by_name()
    failed_gates = 0
    for gate in load_budgets()["gates"]:  # type: ignore[union-attr]
        verdict, detail = judge_gate(gate, records)
        print(f"qir-bench: check: gate {verdict}: {detail}", file=sys.stderr)
        failed_gates += verdict == "FAIL"
    if all_busts or failed_gates:
        verdict = "FAIL" if args.strict else "WARN"
        print(f"qir-bench: check: {verdict}: {len(all_busts)} budget bust(s) "
              f"across {', '.join(pipelines)}, {failed_gates} failed gate(s) "
              f"on {args.snapshot}", file=sys.stderr)
        return EXIT_REGRESSION if args.strict else EXIT_OK
    print(f"qir-bench: check: PASS: no budget busts across "
          f"{', '.join(pipelines)}, every gate holds on {args.snapshot}",
          file=sys.stderr)
    return EXIT_OK


# -- CLI ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qir-bench", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmark suite, write a snapshot")
    run.add_argument("-o", "--output", default=None,
                     help="snapshot JSON file (default stdout)")
    run.add_argument("--repeats", type=int, default=5,
                     help="timed repetitions per record (median-of-k, default 5)")
    run.add_argument("--shots", type=int, default=200,
                     help="shots per runtime workload (default 200)")
    run.add_argument("--suite", default=",".join(SUITES),
                     help=f"comma-separated suites (default {','.join(SUITES)})")
    run.add_argument("--examples-dir", default="examples",
                     help="directory of .ll parse workloads (skipped if absent)")
    run.set_defaults(func=_cmd_run)

    diff = sub.add_parser("diff", help="diff two snapshots; exit 4 on regression")
    diff.add_argument("baseline", help="baseline snapshot JSON")
    diff.add_argument("current", help="current snapshot JSON")
    diff.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                      help="relative regression threshold "
                           f"(default {DEFAULT_THRESHOLD})")
    diff.add_argument("--json", action="store_true",
                      help="also write the report as JSON to stdout")
    diff.set_defaults(func=_cmd_diff)

    check = sub.add_parser(
        "check",
        help="run budgeted pipelines and the budgets-file gates on a "
             "snapshot; --strict fails on busts",
    )
    check.add_argument("--snapshot", required=True,
                       help="snapshot JSON the budgets-file gates judge")
    check.add_argument("--strict", action="store_true",
                       help="exit 4 when a pass busts its budget or a gate fails")
    check.add_argument("--budget", action="append", default=[],
                       metavar="PASS=SECONDS",
                       help="override a per-pass seconds budget (repeatable)")
    check.add_argument("--pipeline", action="append", default=[],
                       choices=sorted(CHECK_PIPELINES),
                       help="pipeline(s) to check (default: all)")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
