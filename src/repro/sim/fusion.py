"""Gate fusion and plan-level specialization (compile-time kernel schedules).

The per-shot execution model pays one full pass over the ``2**n``
amplitude array per gate, plus interpreter dispatch per instruction.
A program whose gate stream does not depend on any measured value is
the same stream on every shot, so the compile phase can precompute a
:class:`FusedProgram`:

* **Trace recording** (:func:`record_trace`) runs the entry point once
  through the interpreter -- the one definition of what the program does
  and which slot each qubit binds to -- on a backend that records
  instead of simulating.  A program it declines keeps the interpreter
  path.
* **Gate fusion** coalesces maximal runs of adjacent gates whose union
  support stays within two qubits into single pre-multiplied matrices
  (the qiskit-aer "fusion" idea), so a depth-``d`` single-qubit run
  costs one ``apply_matrix`` pass instead of ``d``.
* **The unitary prefix** -- the kernels before the first measurement or
  reset -- is the same for every shot, so it is evolved once per schedule
  (:attr:`FusedProgram.prefix_state`) and every run starts from a copy.

One executor, :func:`run_fused`, walks the schedule on one shot's
statevector simulator.  It replicates the interpreter path's RNG draw
order (one draw per measurement, one per superposed reset), which keeps
fused counts bit-identical to the unfused serial reference for a fixed
seed, and renders through output columns the recording fixed at compile
time with the runtime's one output rule
(:func:`~repro.runtime.output.output_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.llvmir.module import Module
from repro.sim.gates import gate_matrix
from repro.sim.statevector import StatevectorSimulator

__all__ = [
    "FusedProgram",
    "KernelOp",
    "MeasureOp",
    "ResetOp",
    "record_trace",
    "specialize_module",
    "run_fused",
]

#: Fuse only while the union support stays within this many qubits (4x4
#: matrices): beyond two qubits the pre-multiplied kernel's dense cost
#: outgrows the saved passes for the register widths this stack targets.
_MAX_FUSED_QUBITS = 2

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=np.complex128,
)


# -- trace recording -----------------------------------------------------------


@dataclass(frozen=True)
class TraceGate:
    name: str
    slots: Tuple[int, ...]
    params: Tuple[float, ...]


@dataclass(frozen=True)
class MeasureOp:
    slot: int


@dataclass(frozen=True)
class ResetOp:
    slot: int


TraceOp = Union[TraceGate, MeasureOp, ResetOp]


@dataclass(frozen=True)
class Trace:
    """The gate stream of one entry point, as one run records it."""

    ops: Tuple[TraceOp, ...]
    num_slots: int
    #: Output columns, leftmost bit first: ``k >= 0`` names the k-th
    #: measurement, a negative column the constant bit ``~k``
    #: (:mod:`repro.sim.sampling`).
    columns: Tuple[int, ...]


#: Interpreter steps one recording may take before the program keeps the
#: interpreter path.
RECORD_STEP_BUDGET = 10_000


class _Declined(Exception):
    """The recorded program does something one static schedule cannot."""


class _Recorder:
    """A backend that records the gate stream instead of simulating it:
    slots in allocation order, as the runtime's ``QubitManager`` binds
    every shot, and no RNG draw."""

    def __init__(self) -> None:
        self.num_qubits = 0
        self.ops: List[TraceOp] = []

    def allocate_qubit(self) -> int:
        self.num_qubits += 1
        return self.num_qubits - 1

    def release_qubit(self, slot: int) -> None:
        raise _Declined("qubit release")

    def apply_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> None:
        self.ops.append(TraceGate(name, tuple(qubits), tuple(params)))

    def measure(self, qubit: int) -> int:
        self.ops.append(MeasureOp(qubit))
        return qubit

    def reset(self, qubit: int) -> None:
        self.ops.append(ResetOp(qubit))


def record_trace(module: Module, entry: Optional[str] = None) -> Trace:
    """Run the entry point once on a recording backend.

    The fast path's result store fixes the output columns and raises on
    a feedback read or an ``m``-style result; a qubit release, a runtime
    error (a gate on a repeated qubit is one) or more than
    :data:`RECORD_STEP_BUDGET` steps raise as well.
    """
    # Imported here: repro.runtime's package import reaches back into
    # this module (the plan compiler specializes through it).
    from repro.runtime.interpreter import Interpreter
    from repro.runtime.sampling_fastpath import SharedStreamResults

    recorder = _Recorder()
    results = SharedStreamResults()
    Interpreter(
        module, recorder, step_limit=RECORD_STEP_BUDGET, results=results
    ).run(entry)
    return Trace(
        ops=tuple(recorder.ops),
        num_slots=recorder.num_qubits,
        columns=tuple(results.columns()),
    )


# -- fused schedule ------------------------------------------------------------


@dataclass(frozen=True)
class KernelOp:
    """One pre-multiplied unitary; ``qubits[0]`` is most significant."""

    matrix: np.ndarray
    qubits: Tuple[int, ...]
    gates: int  # source gates folded into this kernel


ScheduleOp = Union[KernelOp, MeasureOp, ResetOp]


@dataclass(frozen=True)
class FusedProgram:
    """A compiled kernel schedule: the execute phase's specialized form.

    ``prefix`` is the kernels before the first measurement or reset;
    ``ops`` covers everything after it.  Attached to
    :class:`~repro.runtime.plan.ExecutionPlan` as derived analysis --
    recomputed on decode, never serialized.
    """

    num_slots: int
    prefix: Tuple[KernelOp, ...]
    ops: Tuple[ScheduleOp, ...]
    columns: Tuple[int, ...]
    source_gates: int

    @cached_property
    def prefix_state(self) -> np.ndarray:
        """The amplitudes after the prefix, evolved once per schedule;
        read-only, since every run loads a copy.  The kernels and their
        order are those a run would apply, so the amplitudes are too."""
        simulator = StatevectorSimulator(self.num_slots)
        for op in self.prefix:
            simulator.apply_matrix(op.matrix, list(op.qubits))
        state = simulator.state
        state.flags.writeable = False
        return state

    @property
    def kernels(self) -> int:
        return len(self.prefix) + sum(1 for op in self.ops if isinstance(op, KernelOp))

    @property
    def measurements(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, MeasureOp))


def _embed(
    matrix: np.ndarray, positions: Sequence[int], support_size: int
) -> np.ndarray:
    """Expand a 1- or 2-qubit unitary onto an ordered support (<= 2 qubits).

    ``positions[i]`` is where the gate's qubit ``i`` sits in the support
    ordering (0 = most significant), matching ``apply_matrix``'s
    convention that ``qubits[0]`` indexes the leading matrix position.
    """
    if support_size == 1:
        return matrix
    if len(positions) == 1:
        eye = np.eye(2, dtype=np.complex128)
        if positions[0] == 0:
            return np.kron(matrix, eye)
        return np.kron(eye, matrix)
    if tuple(positions) == (0, 1):
        return matrix
    return _SWAP @ matrix @ _SWAP


def _fuse_gates(gates: Sequence[TraceGate]) -> List[KernelOp]:
    """Greedy left-to-right fusion of a gate run into kernels."""
    kernels: List[KernelOp] = []
    support: List[int] = []
    matrix: Optional[np.ndarray] = None
    folded = 0

    def flush() -> None:
        nonlocal support, matrix, folded
        if matrix is not None:
            kernels.append(KernelOp(matrix, tuple(support), folded))
        support, matrix, folded = [], None, 0

    for gate in gates:
        unitary = gate_matrix(gate.name, gate.params)
        if len(gate.slots) > _MAX_FUSED_QUBITS:
            flush()
            kernels.append(KernelOp(np.array(unitary), gate.slots, 1))
            continue
        union = support + [s for s in gate.slots if s not in support]
        if matrix is not None and len(union) > _MAX_FUSED_QUBITS:
            flush()
            union = list(gate.slots)
        if matrix is None:
            support = list(gate.slots)
            matrix = np.array(unitary, dtype=np.complex128)
            folded = 1
            continue
        if len(union) > len(support):
            # The accumulated kernel grows onto the union support; its
            # existing qubits keep their (leading) positions.
            matrix = _embed(matrix, list(range(len(support))), len(union))
            support = union
        positions = [support.index(s) for s in gate.slots]
        matrix = _embed(unitary, positions, len(support)) @ matrix
        folded += 1
    flush()
    return kernels


def build_schedule(trace: Trace) -> FusedProgram:
    """Turn a trace into a fused kernel schedule; the kernels before the
    first measurement or reset become its prefix."""
    ops: List[ScheduleOp] = []
    run: List[TraceGate] = []
    gates = 0
    for op in trace.ops:
        if isinstance(op, TraceGate):
            run.append(op)
            gates += 1
            continue
        ops.extend(_fuse_gates(run))
        run = []
        ops.append(op)  # measure / reset: kept in place, never fused
    ops.extend(_fuse_gates(run))
    split = next(
        (i for i, op in enumerate(ops) if not isinstance(op, KernelOp)), len(ops)
    )
    return FusedProgram(
        num_slots=trace.num_slots,
        prefix=tuple(ops[:split]),  # type: ignore[arg-type]
        ops=tuple(ops[split:]),
        columns=trace.columns,
        source_gates=gates,
    )


def specialize_module(
    module: Module, entry: Optional[str] = None
) -> Optional[FusedProgram]:
    """The compile phase's entry point: record + fuse, or ``None``.

    Never raises: a program the recording declines simply keeps the
    interpreter path (the optimistic-abort philosophy of the sampling
    fast path, applied ahead of time).
    """
    try:
        return build_schedule(record_trace(module, entry))
    except Exception:
        return None


# -- execution -----------------------------------------------------------------


def run_fused(program: FusedProgram, simulator: StatevectorSimulator) -> str:
    """Execute a schedule for one shot; returns its bitstring.

    ``simulator`` is ``program.num_slots`` qubits wide.  Each
    measurement's outcome is collected in schedule order and rendered
    through the program's output columns.
    """
    if program.prefix:
        simulator.load_state(program.prefix_state)
    values: list = []
    for op in program.ops:
        if isinstance(op, KernelOp):
            simulator.apply_matrix(op.matrix, list(op.qubits))
        elif isinstance(op, MeasureOp):
            values.append(simulator.measure(op.slot))
        else:
            simulator.reset(op.slot)
    return "".join([str(values[c] if c >= 0 else ~c) for c in program.columns])
