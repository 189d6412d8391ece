"""Outside-in layer trace: spans recorded around the program's own callables.

The program is not changed.  :class:`Tracer` replaces each callable named
in :data:`TARGETS` with a wrapper -- on the class for methods, and on
every loaded module that binds the function by name -- and records one
span per call: ``(layer, start, end, parent span, request id)``.  A call
made directly inside a call of the same layer belongs to the outer span.
Self time is a span's duration minus its child spans' durations.

Spans are kept in memory and written as JSONL when the run ends.  The
original callables are put back between traced requests; a module first
imported while the tracer was installed keeps the wrapper, which then
tests one flag and calls straight through.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "llvmir.parse",
    "llvmir.verify",
    "qasm.parse",
    "frontend.export",
    "passes",
    "sim.fusion.specialize",
    "resilience.clifford_check",
    "runtime.session",
    "runtime.run_shots",
    "runtime.plan.wire.encode",
    "runtime.plan.wire.decode",
    "runtime.plancache.put",
    "runtime.plancache.get",
    "runtime.interpreter.fastpath",
    "runtime.interpreter.per_shot",
    "sim.statevector",
    "runtime.sampling.cold",
    "runtime.sampling.capture",
    "runtime.sampling.warm",
    "runtime.scheduler.serial",
    "runtime.merge",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: Layers each workload must exercise; a traced run in which one records
#: no call fails, because the trace would no longer explain the workload.
EXPECTED: Dict[str, Tuple[str, ...]] = {
    "frontend_mix": (
        "llvmir.parse", "llvmir.verify", "qasm.parse", "frontend.export", "passes",
        "sim.fusion.specialize", "resilience.clifford_check", "runtime.session",
        "runtime.run_shots", "runtime.plan.wire.encode", "runtime.plancache.put",
        "runtime.plancache.get", "runtime.interpreter.fastpath", "sim.statevector",
        "runtime.sampling.cold", "runtime.sampling.capture",
    ),
    "variational_sweep": (
        "llvmir.parse", "llvmir.verify", "sim.fusion.specialize",
        "resilience.clifford_check", "runtime.session", "runtime.run_shots",
        "runtime.interpreter.fastpath", "sim.statevector", "runtime.sampling.cold",
        "runtime.sampling.capture",
    ),
    "warm_repeat": (
        "runtime.session", "runtime.run_shots", "runtime.sampling.warm",
        "runtime.plancache.get", "runtime.plan.wire.decode",
    ),
    "feedback_shots": (
        "runtime.session", "runtime.run_shots", "runtime.interpreter.fastpath",
        "runtime.interpreter.per_shot", "sim.statevector", "runtime.scheduler.serial",
        "runtime.merge",
    ),
}

#: Summed self time must cover at least this share of traced wall time.
MIN_COVERAGE = 0.90


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``"module:function"`` or ``"module:Class.method"``.

    ``layer`` is a layer name, or a function of the call's arguments that
    returns one.  ``before(tracer, args)`` runs before the span opens and
    its result goes to ``after(tracer, state, args, result)``, which runs
    after it closes (``result`` is ``None`` when the call raised); both see
    only calls that open a span.
    """

    spec: str
    layer: object
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _add(tracer: "Tracer", key: str, value: float) -> None:
    tracer.counters[key] = tracer.counters.get(key, 0.0) + value


def _interpreter_layer(args) -> str:
    # The fast path interprets once over a deferred-measurement backend;
    # per-shot execution hands the interpreter a real simulator.
    deferred = type(args[0].backend).__name__ == "DeferredMeasurementBackend"
    return "runtime.interpreter.fastpath" if deferred else "runtime.interpreter.per_shot"


def _count_steps(tracer, state, args, result) -> None:
    _add(tracer, f"{_interpreter_layer(args)}.steps", args[0].stats.steps)


def _count_amplitudes(tracer, args) -> None:
    qubits = args[0].num_qubits
    _add(tracer, "sim.statevector.amps", 1 << qubits)
    tracer.counters["sim.statevector.max_qubits"] = max(
        qubits, tracer.counters.get("sim.statevector.max_qubits", 0)
    )


def _instructions(tracer, args) -> int:
    from repro.passes.manager import count_instructions

    return count_instructions(args[1])


def _passes_after(tracer, before, args, result) -> None:
    _add(tracer, "passes.runs", 1)
    _add(tracer, "passes.insts_removed", before - _instructions(tracer, args))
    if result is not None:
        _add(tracer, "passes.iterations", result.iterations)


def _specialized(tracer, state, args, result) -> None:
    if result is not None:
        _add(tracer, "sim.fusion.specialize.kernels", result.kernels)
        _add(tracer, "sim.fusion.specialize.gates", result.source_gates)


def _session_hit(tracer, first_span, args, result) -> None:
    # A request served from the in-memory plan cache parses nothing and
    # reads nothing from disk underneath its span.
    missed = (_INDEX["llvmir.parse"], _INDEX["runtime.plancache.get"])
    spans = tracer.spans
    hit = not any(spans[i][0] in missed for i in range(first_span + 1, len(spans)))
    _add(tracer, "runtime.session.requests", 1)
    _add(tracer, "runtime.session.hits", 1 if hit else 0)


TARGETS: Tuple[Target, ...] = (
    Target(
        "repro.llvmir.parser:parse_assembly",
        "llvmir.parse",
        before=lambda tracer, args: _add(tracer, "llvmir.parse.bytes", len(args[0])),
    ),
    Target("repro.llvmir.verifier:verify_module", "llvmir.verify"),
    Target("repro.qasm.parser2:parse_qasm2", "qasm.parse"),
    Target("repro.frontend.exporter:export_circuit_text", "frontend.export"),
    Target("repro.passes.manager:PassManager.run", "passes", before=_instructions, after=_passes_after),
    Target("repro.sim.fusion:specialize_module", "sim.fusion.specialize", after=_specialized),
    Target("repro.resilience.fallback:program_is_clifford", "resilience.clifford_check"),
    Target("repro.runtime.session:QirSession.compile", "runtime.session"),
    Target(
        "repro.runtime.session:QirSession.run_shots",
        "runtime.session",
        before=lambda tracer, args: len(tracer.spans),
        after=_session_hit,
    ),
    Target("repro.runtime.execute:QirRuntime.run_shots", "runtime.run_shots"),
    Target(
        "repro.runtime.plan:ExecutionPlan.to_bytes",
        "runtime.plan.wire.encode",
        after=lambda tracer, state, args, result: _add(
            tracer, "runtime.plan.wire.encode.bytes", len(result or b"")
        ),
    ),
    Target(
        "repro.runtime.plan:ExecutionPlan.from_bytes",
        "runtime.plan.wire.decode",
        before=lambda tracer, args: _add(tracer, "runtime.plan.wire.decode.bytes", len(args[1])),
    ),
    Target("repro.runtime.plancache:PlanCache.put", "runtime.plancache.put"),
    Target("repro.runtime.plancache:PlanCache.get", "runtime.plancache.get"),
    Target("repro.runtime.interpreter:Interpreter.run", _interpreter_layer, after=_count_steps),
    Target("repro.sim.statevector:StatevectorSimulator.apply_matrix", "sim.statevector", before=_count_amplitudes),
    Target("repro.sim.statevector:StatevectorSimulator.apply_gate", "sim.statevector", before=_count_amplitudes),
    Target(
        "repro.runtime.sampling_fastpath:sample_counts_from",
        "runtime.sampling.cold",
        before=lambda tracer, args: _add(tracer, "runtime.sampling.cold.shots", args[2]),
    ),
    Target("repro.runtime.sampling_fastpath:distribution_from", "runtime.sampling.capture"),
    Target(
        "repro.runtime.sampling_fastpath:SampledDistribution.sample_counts",
        "runtime.sampling.warm",
        before=lambda tracer, args: _add(tracer, "runtime.sampling.warm.shots", args[1]),
    ),
    Target("repro.runtime.schedulers:SerialScheduler.run", "runtime.scheduler.serial"),
    Target("repro.runtime.schedulers:build_shots_result", "runtime.merge"),
)


class TraceError(RuntimeError):
    """The trace cannot explain the run (missing callable, silent layer,
    or too little of the wall time covered)."""


def _patch_sites(spec: str) -> Tuple[Callable, List[Tuple[object, str, Callable]]]:
    """Resolve ``spec`` to its callable and every ``(owner, name, raw)``
    binding that must be replaced to intercept it."""
    module_name, _, qualname = spec.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        owner = getattr(module, class_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            raise TraceError(f"wrapped callable {spec} not found")
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        return function, [(owner, attr, raw)]
    function = getattr(module, qualname, None)
    if function is None:
        raise TraceError(f"wrapped callable {spec} not found")
    sites = []
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is function:
                sites.append((loaded, name, function))
    return function, sites


class Tracer:
    """Spans and per-layer totals for the requests served while installed."""

    def __init__(self) -> None:
        self.active = False
        self.request_id = -1
        self.spans: List[Tuple[int, float, float, int, int]] = []
        self.self_time = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counters: Dict[str, float] = {}
        self.items = 0
        self.wall = 0.0
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object, object]] = []
        for target in TARGETS:
            function, sites = _patch_sites(target.spec)
            wrapper = self._wrap(function, target)
            for owner, name, raw in sites:
                wrapped = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
                self._patches.append((owner, name, raw, wrapped))

    def _wrap(self, function: Callable, target: Target) -> Callable:
        fixed = _INDEX[target.layer] if isinstance(target.layer, str) else None
        classify = None if fixed is not None else target.layer
        before, after = target.before, target.after
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            layer = fixed if fixed is not None else _INDEX[classify(args)]
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            state = before(tracer, args) if before is not None else None
            spans = tracer.spans
            index = len(spans)
            parent = int(stack[-1][3]) if stack else -1
            spans.append((layer, 0.0, 0.0, parent, tracer.request_id))
            frame = [layer, 0.0, 0.0, index]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_time[layer] += duration - frame[2]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                spans[index] = (layer, start, end, parent, tracer.request_id)
                if after is not None:
                    after(tracer, state, args, result)

        wrapper.__wrapped__ = function
        return wrapper

    def install(self) -> None:
        for owner, name, _raw, wrapped in self._patches:
            setattr(owner, name, wrapped)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, name, raw, _wrapped in self._patches:
            setattr(owner, name, raw)

    def serve(self, request_id: int, call: Callable[[], object]) -> Tuple[object, float]:
        """Serve one traced item; returns its result and wall seconds."""
        self.request_id = request_id
        self.install()
        try:
            start = perf_counter()
            result = call()
            wall = perf_counter() - start
        finally:
            self.uninstall()
        self.items += 1
        self.wall += wall
        return result, wall

    # -- results --------------------------------------------------------------
    def coverage(self) -> float:
        return sum(self.self_time) / self.wall if self.wall > 0 else 0.0

    def check(self, workload: str) -> None:
        """Fail loudly when the trace does not explain the workload."""
        silent = [name for name in EXPECTED[workload] if self.calls[_INDEX[name]] == 0]
        if silent:
            raise TraceError(f"{workload}: expected layers recorded no calls: {', '.join(silent)}")
        if self.coverage() < MIN_COVERAGE:
            raise TraceError(
                f"{workload}: layer self time covers {self.coverage():.1%} of traced "
                f"wall time, below {MIN_COVERAGE:.0%}"
            )

    def metrics(self, overhead: float) -> Dict[str, float]:
        """Per-layer metrics, normalised per traced item (request or warm-up)."""
        items = max(1, self.items)
        counters = self.counters
        out: Dict[str, float] = {}

        def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
            return numerator * scale / denominator if denominator else 0.0

        for i, name in enumerate(LAYERS):
            out[f"{name}.self_s"] = self.self_time[i] / items
            out[f"{name}.calls"] = self.calls[i] / items
            out[f"{name}.share"] = per(self.self_time[i], self.wall)

        def self_of(name: str) -> float:
            return self.self_time[_INDEX[name]]

        def calls_of(name: str) -> int:
            return self.calls[_INDEX[name]]

        def counter(key: str) -> float:
            return counters.get(key, 0.0)

        out["llvmir.parse.ns_per_byte"] = per(self_of("llvmir.parse"), counter("llvmir.parse.bytes"), 1e9)
        out["passes.iterations"] = per(counter("passes.iterations"), counter("passes.runs"))
        out["passes.insts_removed"] = per(counter("passes.insts_removed"), counter("passes.runs"))
        out["sim.fusion.specialize.kernels_per_gate"] = per(
            counter("sim.fusion.specialize.kernels"), counter("sim.fusion.specialize.gates")
        )
        out["runtime.session.plan_hit_ratio"] = per(
            counter("runtime.session.hits"), counter("runtime.session.requests")
        )
        out["runtime.plan.wire.encode.encodes_per_request"] = per(
            calls_of("runtime.plan.wire.encode"), counter("runtime.session.requests")
        )
        out["runtime.plan.wire.encode.bytes"] = per(
            counter("runtime.plan.wire.encode.bytes"), calls_of("runtime.plan.wire.encode")
        )
        out["runtime.plan.wire.decode.bytes"] = per(
            counter("runtime.plan.wire.decode.bytes"), calls_of("runtime.plan.wire.decode")
        )
        for path in ("fastpath", "per_shot"):
            name = f"runtime.interpreter.{path}"
            out[f"{name}.ns_per_step"] = per(self_of(name), counter(f"{name}.steps"), 1e9)
        out["sim.statevector.ns_per_amp"] = per(self_of("sim.statevector"), counter("sim.statevector.amps"), 1e9)
        out["sim.statevector.max_qubits"] = counter("sim.statevector.max_qubits")
        for tier in ("cold", "warm"):
            name = f"runtime.sampling.{tier}"
            out[f"{name}.ns_per_shot"] = per(self_of(name), counter(f"{name}.shots"), 1e9)
        out["trace.coverage"] = self.coverage()
        out["trace.overhead"] = overhead
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for layer, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": LAYERS[layer],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
