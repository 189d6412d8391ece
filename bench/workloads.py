"""Seeded request generators for the four benchmark workloads.

Every input is a pure function of ``(workload, seed, request index)``:
request ``i`` draws from its own ``random.Random`` stream, so a run can
stop at any point and the requests it did send are the same ones another
run with that seed sends.  The QIR and OpenQASM text is emitted here from
plain gate lists, not by the program's exporters, so a change to the
program cannot change what the benchmark sends it.  The adaptive
programs of ``feedback_shots`` are the exception: they come from the
program's Sec. IV-B generators (``repro.workloads``), imported lazily.

A gate list is a tuple of ``(name, qubits, params)`` with canonical gate
names (``repro.sim.gates``); :mod:`oracle` turns the same list into the
reference distribution.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

Op = Tuple[str, Tuple[int, ...], Tuple[float, ...]]

TAU = 2.0 * math.pi

T = TypeVar("T")


@dataclass(frozen=True)
class Request:
    """One call into the program's front door, plus what the oracle needs.

    ``form`` names the adoption path; ``"qasm"`` requests carry OpenQASM 2
    source in ``text``, every other form carries textual QIR.  A straight-
    line request carries its gate list (``ops`` on ``num_qubits`` qubits,
    every qubit ``i`` measured into result ``i``); a feedback request
    carries its analytic output distribution instead.  ``key`` names a
    program that recurs, so its reference is computed once.
    """

    form: str
    text: str
    shots: int
    pipeline: Optional[str] = None
    num_qubits: int = 0
    ops: Tuple[Op, ...] = ()
    distribution: Optional[Tuple[Tuple[str, float], ...]] = None
    key: Optional[str] = None


# -- text emitters --------------------------------------------------------------


def _double(value: float) -> str:
    """LLVM's exact hexadecimal spelling of a double."""
    return "0x" + struct.pack(">d", value).hex().upper()


def _pointer(address: int, type_: str) -> str:
    return f"{type_} null" if address == 0 else f"{type_} inttoptr (i64 {address} to {type_})"


def _declarations(ops: Iterable[Op], qubit_t: str) -> List[str]:
    seen: Dict[str, str] = {}
    for name, qubits, params in ops:
        args = ["double"] * len(params) + [qubit_t] * len(qubits)
        seen.setdefault(name, f"declare void @__quantum__qis__{name}__body({', '.join(args)})")
    return list(seen.values())


def _module(body: List[str], declares: List[str], num_qubits: int, profile: str, prelude: str = "") -> str:
    return "\n".join(
        [
            prelude,
            "define void @main() #0 {",
            "entry:",
            *body,
            "  ret void",
            "}",
            "",
            *declares,
            "",
            f'attributes #0 = {{ "entry_point" "qir_profiles"="{profile}" '
            f'"required_num_qubits"="{num_qubits}" "required_num_results"="{num_qubits}" }}',
            "",
            "!llvm.module.flags = !{!0}",
            '!0 = !{i32 1, !"qir_major_version", i32 1}',
            "",
        ]
    )


def _gate_call(name: str, qubit_args: List[str], params: Tuple[float, ...]) -> str:
    args = [f"double {_double(p)}" for p in params] + qubit_args
    return f"  call void @__quantum__qis__{name}__body({', '.join(args)})"


def static_qir(ops: Tuple[Op, ...], num_qubits: int, typed: bool = False) -> str:
    """Base-profile QIR with static addresses (Ex. 2).

    ``typed=True`` spells pointers in the pre-LLVM-16 typed dialect
    (``%Qubit*``/``%Result*``) of the original QIR specification (Ex. 3).
    """
    qubit_t, result_t = ("%Qubit*", "%Result*") if typed else ("ptr", "ptr")
    body = [_gate_call(n, [_pointer(q, qubit_t) for q in qs], ps) for n, qs, ps in ops]
    body += [
        f"  call void @__quantum__qis__mz__body({_pointer(q, qubit_t)}, "
        f"{_pointer(q, result_t)})"
        for q in range(num_qubits)
    ]
    declares = _declarations(ops, qubit_t)
    declares.append(f"declare void @__quantum__qis__mz__body({qubit_t}, {result_t})")
    prelude = "%Qubit = type opaque\n%Result = type opaque\n" if typed else ""
    return _module(body, declares, num_qubits, "base_profile", prelude)


def dynamic_qir(ops: Tuple[Op, ...], num_qubits: int) -> str:
    """QIR whose qubits come from a runtime-allocated array (Ex. 6).

    Like the program's own dynamic exporter it still declares
    ``required_num_qubits``; results stay static.
    """
    body = [f"  %q = call ptr @__quantum__rt__qubit_allocate_array(i64 {num_qubits})"]
    counter = 0

    def element(qubit: int) -> str:
        nonlocal counter
        counter += 1
        body.append(
            f"  %e{counter} = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %q, i64 {qubit})"
        )
        return f"ptr %e{counter}"

    for name, qubits, params in ops:
        args = [element(q) for q in qubits]
        body.append(_gate_call(name, args, params))
    for q in range(num_qubits):
        qubit = element(q)
        body.append(f"  call void @__quantum__qis__mz__body({qubit}, {_pointer(q, 'ptr')})")
    body.append("  call void @__quantum__rt__qubit_release_array(ptr %q)")
    declares = _declarations(ops, "ptr") + [
        "declare void @__quantum__qis__mz__body(ptr, ptr)",
        "declare ptr @__quantum__rt__qubit_allocate_array(i64)",
        "declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)",
        "declare void @__quantum__rt__qubit_release_array(ptr)",
    ]
    return _module(body, declares, num_qubits, "full")


def counted_loop_qir(theta: float, tail: Tuple[Op, ...], num_qubits: int) -> str:
    """Ex. 4: a counted loop applying ``ry(theta)`` to qubit ``i``, in the
    memory form of the paper's listing, followed by straight-line ``tail``."""
    loop = [
        "  %i = alloca i64, align 8",
        "  store i64 0, ptr %i, align 8",
        "  br label %header",
        "header:",
        "  %0 = load i64, ptr %i, align 8",
        f"  %cond = icmp slt i64 %0, {num_qubits}",
        "  br i1 %cond, label %body, label %exit",
        "body:",
        "  %1 = load i64, ptr %i, align 8",
        "  %qi = inttoptr i64 %1 to ptr",
        _gate_call("ry", ["ptr %qi"], (theta,)),
        "  %2 = load i64, ptr %i, align 8",
        "  %3 = add nsw i64 %2, 1",
        "  store i64 %3, ptr %i, align 8",
        "  br label %header",
        "exit:",
    ]
    body = loop + [_gate_call(n, [_pointer(q, "ptr") for q in qs], ps) for n, qs, ps in tail]
    body += [
        f"  call void @__quantum__qis__mz__body({_pointer(q, 'ptr')}, {_pointer(q, 'ptr')})"
        for q in range(num_qubits)
    ]
    declares = _declarations((("ry", (0,), (0.0,)),) + tail, "ptr")
    declares.append("declare void @__quantum__qis__mz__body(ptr, ptr)")
    return _module(body, declares, num_qubits, "full")


_QASM_NAMES = {"cnot": "cx"}


def qasm2(ops: Tuple[Op, ...], num_qubits: int) -> str:
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{num_qubits}];",
        f"creg c[{num_qubits}];",
    ]
    for name, qubits, params in ops:
        head = _QASM_NAMES.get(name, name)
        if params:
            head += "(" + ",".join(repr(p) for p in params) + ")"
        lines.append(f"{head} " + ",".join(f"q[{q}]" for q in qubits) + ";")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


# -- gate lists -----------------------------------------------------------------


def layered_ops(rng: random.Random, num_qubits: int, depth: int) -> Tuple[Op, ...]:
    """Seeded rotation layers with brick-pattern ``cnot``/``cz`` entanglers."""
    ops: List[Op] = []
    for layer in range(depth):
        for q in range(num_qubits):
            ops.append(("ry", (q,), (rng.uniform(0.0, TAU),)))
            ops.append(("rz", (q,), (rng.uniform(0.0, TAU),)))
        for q in range(layer % 2, num_qubits - 1, 2):
            ops.append((rng.choice(("cnot", "cz")), (q, q + 1), ()))
    return tuple(ops)


def ghz_ops(num_qubits: int) -> Tuple[Op, ...]:
    return (("h", (0,), ()),) + tuple(("cnot", (q, q + 1), ()) for q in range(num_qubits - 1))


def qft_ops(num_qubits: int) -> Tuple[Op, ...]:
    """Textbook QFT on ``|0...0>`` (little-endian, as ``repro.workloads``)."""
    ops: List[Op] = []
    for i in reversed(range(num_qubits)):
        ops.append(("h", (i,), ()))
        for j in range(i):
            ops.append(("cp", (j, i), (math.pi / (1 << (i - j)),)))
    for i in range(num_qubits // 2):
        ops.append(("swap", (i, num_qubits - 1 - i), ()))
    return tuple(ops)


def ladder_ops(num_qubits: int, depth: int) -> Tuple[Op, ...]:
    """Deep per-qubit rx/ry/rz runs: what gate fusion collapses."""
    names = ("rx", "ry", "rz")
    return tuple(
        (names[d % 3], (q,), (0.3 + 0.05 * d + 0.01 * q,))
        for q in range(num_qubits)
        for d in range(depth)
    )


def vqe_ops(angles: Tuple[float, float, float, float]) -> Tuple[Op, ...]:
    return (
        ("ry", (0,), (angles[0],)),
        ("ry", (1,), (angles[1],)),
        ("cnot", (0, 1), ()),
        ("ry", (0,), (angles[2],)),
        ("ry", (1,), (angles[3],)),
    )


def ising_ops(num_qubits: int, steps: int, dt: float, field: float) -> Tuple[Op, ...]:
    """First-order Trotterised transverse-field Ising chain (J = 1)."""
    ops: List[Op] = []
    for _ in range(steps):
        ops += [("rzz", (q, q + 1), (-2.0 * dt,)) for q in range(num_qubits - 1)]
        ops += [("rx", (q,), (-2.0 * field * dt,)) for q in range(num_qubits)]
    return tuple(ops)


# -- workloads ------------------------------------------------------------------


def _rng(workload: str, seed: int, index: object) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _in_rounds(items: Sequence[T], stream: str, seed: int, index: int) -> T:
    """Item ``index`` of a stream that takes every item once per round, in
    a seeded order.

    Every run then serves the same mix.  With an odd number of equal-share
    programs, p50 and p90 also fall inside one program's latency mode
    instead of on the edge between two, where a small change in the mix
    would move them.
    """
    order = list(range(len(items)))
    _rng(stream, seed, f"round{index // len(items)}").shuffle(order)
    return items[order[index % len(items)]]


class Workload:
    """A named request stream.  ``warmup`` lists the requests a process
    serves before timing starts; ``request(seed, i)`` is the ``i``-th timed
    request."""

    name = ""
    shots = 0
    #: Whether sessions write through to a disk plan cache, which an untimed
    #: process first fills by serving :meth:`fill`, as a server restarting
    #: on its cache finds it.
    disk_cache = False

    def request(self, seed: int, index: int) -> Request:
        raise NotImplementedError

    def warmup(self, seed: int) -> List[Request]:
        raise NotImplementedError

    def fill(self, seed: int, capacity: int) -> List[Request]:
        """Requests that fill the disk plan cache of ``capacity`` plans."""
        return []


class FrontendMix(Workload):
    """Five adoption forms in equal shares, never the same text twice."""

    name = "frontend_mix"
    shots = 100
    disk_cache = True
    FORMS = ("qasm", "loop", "dynamic", "lowered", "typed")

    def request(self, seed: int, index: int) -> Request:
        # Forms, and each form's widths and depths, come in seeded rounds:
        # cost grows exponentially with width, so independent draws would
        # let the mix, and with it the throughput, vary from seed to seed.
        form = _in_rounds(self.FORMS, self.name, seed, index)
        k = index // len(self.FORMS)
        # Dynamic-address programs simulate twice their width (README,
        # findings), so they stay at 8 qubits or fewer.
        widths = range(4, 9) if form in ("dynamic", "lowered") else range(4, 11)
        n = _in_rounds(widths, f"{self.name}:{form}:width", seed, k)
        depth = _in_rounds((2, 3, 4), f"{self.name}:{form}:depth", seed, k)
        return self._make(_rng(self.name, seed, index), form, n, depth)

    def warmup(self, seed: int) -> List[Request]:
        # One request per form, so every lazy import and pipeline factory
        # is warm before timing starts.
        return [self._make(_rng(self.name, seed, f"warmup{form}"), form, 4, 2) for form in self.FORMS]

    def fill(self, seed: int, capacity: int) -> List[Request]:
        # A full cache evicts on every write, as a long-running service's
        # does.  Starting empty, the cache filled part way through a run,
        # and each write then went from 0.7 to 2.3 ms.
        programs = []
        for index in range(capacity):
            ops = layered_ops(_rng(self.name, seed, f"fill{index}"), 2, 1)
            programs.append(Request("fill", static_qir(ops, 2), 1, None, 2, ops))
        return programs

    def _make(self, rng: random.Random, form: str, n: int, depth: int) -> Request:
        if form == "loop":
            theta = rng.uniform(0.0, TAU)
            tail = layered_ops(rng, n, 2)
            ops = tuple(("ry", (q,), (theta,)) for q in range(n)) + tail
            return Request(form, counted_loop_qir(theta, tail, n), self.shots, "unroll", n, ops)
        ops = layered_ops(rng, n, depth)
        if form == "qasm":
            return Request(form, qasm2(ops, n), self.shots, "o1", n, ops)
        if form == "typed":
            return Request(form, static_qir(ops, n, typed=True), self.shots, None, n, ops)
        pipeline = "lower-static" if form == "lowered" else None
        return Request(form, dynamic_qir(ops, n), self.shots, pipeline, n, ops)


class VariationalSweep(Workload):
    """A hybrid loop: every iteration is a new 10-qubit Ising program."""

    name = "variational_sweep"
    shots = 1000
    QUBITS = 10
    STEPS = 5

    def request(self, seed: int, index: int) -> Request:
        return self._make(_rng(self.name, seed, index))

    def warmup(self, seed: int) -> List[Request]:
        return [self._make(_rng(self.name, seed, "warmup"))]

    def _make(self, rng: random.Random) -> Request:
        ops = ising_ops(self.QUBITS, self.STEPS, rng.uniform(0.05, 0.25), rng.uniform(0.5, 1.5))
        return Request("ising", static_qir(ops, self.QUBITS), self.shots, None, self.QUBITS, ops)


def _warm_programs() -> List[Tuple[str, int, Tuple[Op, ...]]]:
    return [
        ("ghz12", 12, ghz_ops(12)),
        ("qft8", 8, qft_ops(8)),
        ("qft6", 6, qft_ops(6)),
        ("ladder4x32", 4, ladder_ops(4, 32)),
        ("vqe", 2, vqe_ops((0.4, 1.1, -0.7, 0.25))),
        ("random8", 8, layered_ops(random.Random("warm_repeat:random8"), 8, 4)),
        ("random10", 10, layered_ops(random.Random("warm_repeat:random10"), 10, 3)),
    ]


class WarmRepeat(Workload):
    """Seven fixed programs, repeated in seeded order, after a restart."""

    name = "warm_repeat"
    shots = 4096
    disk_cache = True

    def __init__(self) -> None:
        self._programs = [
            Request("warm", static_qir(ops, n), self.shots, None, n, ops, key=name)
            for name, n, ops in _warm_programs()
        ]

    def request(self, seed: int, index: int) -> Request:
        return _in_rounds(self._programs, self.name, seed, index)

    def warmup(self, seed: int) -> List[Request]:
        return list(self._programs)

    def fill(self, seed: int, capacity: int) -> List[Request]:
        # One run per program compiles it and memoizes its sampling
        # distribution, both written through to disk.
        return list(self._programs)


def _reset_chain_distribution(num_qubits: int, rounds: int, angle: float) -> Dict[str, float]:
    """Only the last round's readout survives; qubit ``i`` reads 1 with
    probability ``sin^2(theta_i / 2)``, ``theta_i = angle * rounds + 0.1 i``."""
    ones = [math.sin((angle * rounds + 0.1 * i) / 2.0) ** 2 for i in range(num_qubits)]
    dist: Dict[str, float] = {}
    for value in range(1 << num_qubits):
        p = 1.0
        for i in range(num_qubits):
            p *= ones[i] if (value >> i) & 1 else 1.0 - ones[i]
        dist[format(value, f"0{num_qubits}b")] = p
    return dist


class FeedbackShots(Workload):
    """Five adaptive programs the sampling fast path must reject."""

    name = "feedback_shots"
    shots = 80

    def __init__(self) -> None:
        self._by_seed: Dict[int, List[Request]] = {}

    def request(self, seed: int, index: int) -> Request:
        return _in_rounds(self._programs(seed), self.name, seed, index)

    def warmup(self, seed: int) -> List[Request]:
        return self._programs(seed)

    def _programs(self, seed: int) -> List[Request]:
        if seed not in self._by_seed:
            self._by_seed[seed] = self._make(seed)
        return self._by_seed[seed]

    def _make(self, seed: int) -> List[Request]:
        from repro.workloads.qec import repetition_code_qir, teleportation_qir
        from repro.workloads.qir_programs import reset_chain_qir

        rng = _rng(self.name, seed, "programs")
        programs: List[Request] = []
        for logical in (0, 1):
            error = rng.randrange(3)
            text = repetition_code_qir(3, inject_error=error, logical_one=bool(logical), rounds=2)
            # Round 0's syndromes (s1 s0) locate the injected error; the
            # corrected round 1 reads 00; the data reads the logical value.
            syndromes = {0: "01", 1: "11", 2: "10"}[error]
            bits = str(logical) * 3 + "00" + syndromes
            programs.append(self._feedback(f"repetition{logical}", text, {bits: 1.0}))
        for k in range(2):
            angle = rng.uniform(0.2, 3.0)
            # Bell-measurement bits are uniform; the check bit is always 0.
            dist = {f"0{b1}{b0}": 0.25 for b1 in "01" for b0 in "01"}
            programs.append(self._feedback(f"teleport{k}", teleportation_qir(angle), dist))
        angle = rng.uniform(0.2, 1.0)
        dist = _reset_chain_distribution(3, 3, angle)
        programs.append(self._feedback("reset_chain", reset_chain_qir(3, 3, angle), dist))
        return programs

    def _feedback(self, key: str, text: str, dist: Dict[str, float]) -> Request:
        return Request("feedback", text, self.shots, distribution=tuple(sorted(dist.items())), key=key)


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "frontend_mix": FrontendMix,
    "variational_sweep": VariationalSweep,
    "warm_repeat": WarmRepeat,
    "feedback_shots": FeedbackShots,
}

#: Requests every run serves at least, whatever its time budget; the
#: request and counts digests cover exactly these.
DIGEST_REQUESTS = 8


def request_digest(workload: Workload, seed: int) -> str:
    """SHA-256 over the first :data:`DIGEST_REQUESTS` requests' inputs."""
    h = hashlib.sha256()
    for index in range(DIGEST_REQUESTS):
        request = workload.request(seed, index)
        h.update(f"{request.form}|{request.pipeline}|{request.shots}|".encode())
        h.update(request.text.encode())
    return h.hexdigest()[:16]
