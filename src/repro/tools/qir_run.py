"""qir-run: execute a QIR program (the ``lli`` analogue, paper Sec. III-C).

Examples::

    qir-run program.ll                      # one shot, print OUTPUT records
    qir-run program.ll --shots 1000         # histogram over 1000 shots
    qir-run program.ll --backend stabilizer --seed 7
    qir-run program.ll --noise-1q 0.01 --noise-readout 0.02
    qir-run program.ll --shots 1000 --jobs 4    # four worker processes
    qir-run program.ll --shots 1000 --retries 3 --fallback \\
        --inject-fault gate,p=0.01,failures=2
    qir-run program.ll --shots 1000 --profile --trace t.jsonl --metrics m.json

Exit codes distinguish failure origins: 0 = success (including partial
success with a failure report), 1 = the *program* trapped (``unreachable``
or ``__quantum__rt__fail``), 2 = input could not be read/parsed/verified,
3 = the runtime infrastructure failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.cli import add_observability_args, emit_observability, observer_from_args
from repro.resilience import FallbackChain, FaultPlan, RetryPolicy
from repro.resilience.report import render_timing_line
from repro.runtime import (
    QirRuntime,
    QirRuntimeError,
    QirSession,
    TrapError,
    get_scheduler,
)
from repro.sim import NoiseModel

EXIT_OK = 0
EXIT_TRAP = 1
EXIT_PARSE = 2
EXIT_INFRA = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qir-run", description=__doc__.splitlines()[0]
    )
    parser.add_argument("input", help="QIR (.ll) file, or '-' for stdin")
    parser.add_argument("--shots", type=int, default=1,
                        help="number of shots (default 1: print OUTPUT records)")
    parser.add_argument("--backend", choices=["statevector", "stabilizer"],
                        default="statevector")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--entry", default=None, help="entry-point function name")
    parser.add_argument("--max-qubits", type=int, default=26,
                        help="statevector width guard")
    parser.add_argument("--no-on-the-fly", action="store_true",
                        help="disable on-the-fly allocation for static addresses")
    parser.add_argument("--noise-1q", type=float, default=0.0,
                        help="1-qubit depolarizing probability")
    parser.add_argument("--noise-2q", type=float, default=0.0,
                        help="2-qubit depolarizing probability")
    parser.add_argument("--noise-readout", type=float, default=0.0,
                        help="readout flip probability")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the IR verifier")
    parser.add_argument("--opt", default=None, metavar="PIPELINE",
                        help="run a qir-opt pipeline before executing "
                             "(same names as qir-opt --pipeline)")
    execution = parser.add_argument_group("execution")
    execution.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="where per-shot work runs: 1 (default) "
                                "in-thread, N > 1 in N worker processes "
                                "fed serialized plans; a run the sampling "
                                "fast path serves stays in-thread")
    execution.add_argument("--chunk-shots", type=int, default=None,
                           metavar="K",
                           help="fixed shots per work-queue chunk for "
                                "--jobs N > 1 (default: guided "
                                "sizing — large chunks first, shrinking "
                                "toward one shot; K = ceil(shots/jobs) "
                                "reproduces the old one-chunk-per-worker "
                                "contiguous split)")
    execution.add_argument("--worker-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="worker-pool watchdog: a worker that "
                                "stops heartbeating for SECONDS is declared "
                                "hung, terminated, and its chunk re-dispatched "
                                "(default: off; auto-armed for worker_hang "
                                "fault injection)")
    execution.add_argument("--max-worker-failures", type=int, default=None,
                           metavar="N",
                           help="failed dispatch waves before the worker "
                                "pool's circuit breaker finishes the run in "
                                "the serial loop (default 2)")
    execution.add_argument("--plan-cache", default=None, metavar="DIR",
                           help="persist compiled plans under DIR so later "
                                "processes warm-start (also honours the "
                                "QIR_PLAN_CACHE environment variable); "
                                "reports 'plan-cache: hit|miss' on stderr")
    execution.add_argument("--ledger", default=None, metavar="DIR",
                           help="append one durable row per multi-shot run "
                                "to the run ledger under DIR (also honours "
                                "the QIR_LEDGER environment variable); read "
                                "it back with qir-ledger")
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument("--retries", type=int, default=1, metavar="N",
                            help="attempts per shot (default 1: fail fast)")
    resilience.add_argument("--backoff-base", type=float, default=0.0,
                            help="base retry delay in seconds (exponential)")
    resilience.add_argument("--fallback", action="store_true",
                            help="demote the backend on repeated failure "
                                 "(noisy->clean, statevector->stabilizer)")
    resilience.add_argument("--inject-fault", action="append", default=[],
                            metavar="SPEC",
                            help="seeded fault injection, e.g. "
                                 "'gate,p=0.01,failures=2' (repeatable)")
    resilience.add_argument("--fault-seed", type=int, default=0,
                            help="seed for the fault plan (default 0)")
    add_observability_args(parser)
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    observer = observer_from_args(args)
    try:
        return _run(args, observer)
    finally:
        # Trace/metrics/profile are flushed even on failure exits: a run
        # that died halfway is exactly the one worth inspecting.
        emit_observability(args, observer)


def _run(args: argparse.Namespace, observer) -> int:
    try:
        get_scheduler(
            args.jobs,
            worker_timeout=args.worker_timeout,
            max_worker_failures=args.max_worker_failures,
            chunk_shots=args.chunk_shots,
        )
    except ValueError as error:
        print(f"qir-run: error: {error}", file=sys.stderr)
        return EXIT_PARSE

    try:
        source = _read_input(args.input)
    except OSError as error:
        print(f"qir-run: error: {error}", file=sys.stderr)
        return EXIT_PARSE

    try:
        fault_plan = (
            FaultPlan.parse(args.inject_fault, seed=args.fault_seed)
            if args.inject_fault
            else None
        )
    except ValueError as error:
        print(f"qir-run: error: {error}", file=sys.stderr)
        return EXIT_PARSE
    if args.retries < 1:
        print("qir-run: error: --retries must be >= 1", file=sys.stderr)
        return EXIT_PARSE

    noise = NoiseModel(
        depolarizing_1q=args.noise_1q,
        depolarizing_2q=args.noise_2q,
        readout_error=args.noise_readout,
    )
    has_noise = not noise.is_trivial
    runtime = QirRuntime(
        backend=args.backend,
        seed=args.seed,
        max_qubits=args.max_qubits,
        allow_on_the_fly_qubits=not args.no_on_the_fly,
        noise=noise if has_noise else None,
        observer=observer,
    )

    # The lli workflow, compile-once style: parse -> verify -> optional
    # pipeline happen in the session's compile phase, sharing the observer
    # so one invocation profiles parse -> passes -> runtime end to end (and
    # the --profile table shows the cache.plan.* counters).
    session = QirSession(
        runtime=runtime, plan_cache_dir=args.plan_cache, ledger_dir=args.ledger
    )
    try:
        plan = session.compile(
            source,
            pipeline=args.opt,
            entry=args.entry,
            verify=not args.no_verify,
        )
    except ValueError as error:
        print(f"qir-run: error: {error}", file=sys.stderr)
        return EXIT_PARSE
    if session.plan_cache is not None:
        # One greppable line for scripts (the CI smoke step relies on it):
        # a warm second process reports 'hit' and skipped the frontend.
        disk = session.plan_cache.stats
        print(
            f"qir-run: plan-cache: {'hit' if disk['hits'] else 'miss'} "
            f"({session.plan_cache.directory})",
            file=sys.stderr,
        )

    resilient = args.retries > 1 or fault_plan is not None or args.fallback

    try:
        if args.shots <= 1 and not resilient:
            result = runtime.execute(plan, entry=args.entry)
            for message in result.messages:
                print(f"INFO\t{message}")
            output = result.render_output()
            if output:
                print(output)
            elif result.bitstring:
                print(f"RESULTS\t{result.bitstring}")
            return EXIT_OK

        retry = RetryPolicy(max_attempts=args.retries, backoff_base=args.backoff_base)
        fallback = (
            FallbackChain.default(args.backend, noisy=has_noise)
            if args.fallback
            else None
        )
        # Through the session, not the runtime: the session mints the
        # run's durable identity (plan key included) and writes the
        # ledger row at run end when --ledger / QIR_LEDGER is set.
        shots_result = session.run_shots(
            plan,
            shots=max(1, args.shots),
            entry=args.entry,
            pipeline=args.opt,
            retry=retry if resilient else None,
            fault_plan=fault_plan,
            fallback=fallback,
            collect_failures=resilient,
            jobs=args.jobs,
            worker_timeout=args.worker_timeout,
            max_worker_failures=args.max_worker_failures,
            chunk_shots=args.chunk_shots,
        )
        if session.ledger is not None and shots_result.run_id:
            # One greppable line (the CI ledger smoke step relies on it).
            print(
                f"qir-run: run-id: {shots_result.run_id} "
                f"({session.ledger.path})",
                file=sys.stderr,
            )
        width = max((len(k) for k in shots_result.counts), default=0)
        for bits, count in sorted(
            shots_result.counts.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            print(f"{bits:>{width}}\t{count}")
        report = shots_result.failure_report()
        if report:
            print(report, file=sys.stderr)  # ends with its own TIMING line
        else:
            print(
                render_timing_line(
                    shots_result.wall_seconds, shots_result.successful_shots
                ),
                file=sys.stderr,
            )
        if shots_result.successful_shots > 0:
            return EXIT_OK
        # Every shot failed: classify by the dominant failure kind.
        if all(f.code == TrapError.code for f in shots_result.failed_shots):
            return EXIT_TRAP
        return EXIT_INFRA
    except TrapError as error:
        print(f"qir-run: trap: {error.describe()}", file=sys.stderr)
        return EXIT_TRAP
    except QirRuntimeError as error:
        print(f"qir-run: runtime error: {error.describe()}", file=sys.stderr)
        return EXIT_INFRA
    except Exception as error:  # internal failures are infra, not traps
        print(f"qir-run: internal error: {error}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
