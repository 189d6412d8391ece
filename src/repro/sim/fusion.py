"""Gate fusion and plan-level specialization (compile-time kernel schedules).

The per-shot execution model pays one full pass over the ``2**n``
amplitude array per gate, plus interpreter dispatch per instruction.
Straight-line base-profile programs -- constant qubit addresses, no
classical control flow -- are fully analysable at *plan-compile* time, so
the compile phase can precompute a :class:`FusedProgram`:

* **Trace extraction** walks the entry point once, replicating the
  runtime's static-address slot binding, and bails (returns ``None``)
  the moment it sees anything dynamic: branches, allocas, dynamic qubit
  handles, ``m``-style results, or measurement feedback.  Specialization
  is therefore sound by construction -- programs that cannot be traced
  simply keep the interpreter path.
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
seed, and renders through output columns the tracer fixed at compile
time with the runtime's one output rule
(:func:`~repro.runtime.output.output_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.llvmir.instructions import CallInst, ReturnInst
from repro.llvmir.module import EntryPointError, Module
from repro.llvmir.values import (
    ConstantExpr,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantPointerInt,
)
from repro.qir.catalog import QIS_PREFIX, RT_PREFIX, parse_qis_name
from repro.sim.gates import gate_matrix
from repro.sim.sampling import ZERO_COLUMN
from repro.sim.statevector import StatevectorSimulator

__all__ = [
    "FusedProgram",
    "KernelOp",
    "MeasureOp",
    "ResetOp",
    "extract_trace",
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


# -- trace extraction ----------------------------------------------------------


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
    """A fully static linearisation of one entry point."""

    ops: Tuple[TraceOp, ...]
    num_slots: int
    #: Output columns, leftmost bit first: ``k >= 0`` names the k-th
    #: measurement, a negative column the constant bit ``~k``
    #: (:mod:`repro.sim.sampling`).
    columns: Tuple[int, ...]


def _const_address(value) -> Optional[int]:
    """A static qubit/result address, or None when the operand is dynamic."""
    if isinstance(value, ConstantNull):
        return 0
    if isinstance(value, ConstantPointerInt):
        return int(value.address)
    if isinstance(value, ConstantExpr) and value.opcode == "inttoptr":
        operand = value.operands[0]
        if isinstance(operand, ConstantInt):
            return int(operand.value)
    return None


def _const_param(value) -> Optional[float]:
    if isinstance(value, ConstantFloat):
        return float(value.value)
    if isinstance(value, ConstantInt):
        return float(value.value)
    return None


#: RT calls a traced program may contain without effect on the schedule.
_RT_IGNORED = frozenset(
    {
        f"{RT_PREFIX}initialize",
        f"{RT_PREFIX}array_record_output",
        f"{RT_PREFIX}tuple_record_output",
    }
)


def extract_trace(module: Module, entry: Optional[str] = None) -> Optional[Trace]:
    """Linearise a straight-line static entry point, or ``None``.

    Replicates the runtime's slot binding exactly: with a
    ``required_num_qubits`` attribute, addresses ``0..n-1`` are pre-bound
    to slots ``0..n-1``; any further address binds in first-touch order
    (the :class:`~repro.runtime.qubit_manager.QubitManager` contract).
    """
    try:
        fn = module.entry_function(entry)
    except EntryPointError:
        return None
    if len(fn.blocks) != 1:
        return None
    block = fn.blocks[0]

    binding: Dict[int, int] = {}
    required = fn.get_attribute("required_num_qubits")
    if required is not None:
        try:
            for address in range(int(required)):
                binding[address] = address
        except (TypeError, ValueError):
            return None

    def slot_for(address: int) -> int:
        slot = binding.get(address)
        if slot is None:
            slot = len(binding)
            binding[address] = slot
        return slot

    ops: List[TraceOp] = []
    # Result address -> index of the measurement that last wrote it.
    written: Dict[int, int] = {}
    measurements = 0
    recorded: List[int] = []

    for inst in block.instructions:
        if isinstance(inst, ReturnInst):
            continue
        if not isinstance(inst, CallInst):
            return None
        name = inst.callee.name or ""
        if name.startswith(QIS_PREFIX):
            qis = parse_qis_name(name)
            if qis is None:
                return None
            operands = list(inst.operands)
            if qis.gate == "mz":
                if len(operands) != 2:
                    return None
                qubit = _const_address(operands[0])
                result = _const_address(operands[1])
                if qubit is None or result is None:
                    return None
                written[result] = measurements
                measurements += 1
                ops.append(MeasureOp(slot_for(qubit)))
                continue
            if qis.gate == "reset":
                if len(operands) != 1:
                    return None
                qubit = _const_address(operands[0])
                if qubit is None:
                    return None
                ops.append(ResetOp(slot_for(qubit)))
                continue
            if qis.gate in ("m", "read_result"):
                return None  # dynamic results / feedback: not traceable
            params = []
            for operand in operands[: qis.num_params]:
                param = _const_param(operand)
                if param is None:
                    return None
                params.append(param)
            slots = []
            for operand in operands[qis.num_params :]:
                address = _const_address(operand)
                if address is None:
                    return None
                slots.append(slot_for(address))
            if len(set(slots)) != len(slots):
                return None
            ops.append(TraceGate(qis.gate, tuple(slots), tuple(params)))
            continue
        if name == f"{RT_PREFIX}result_record_output":
            address = _const_address(inst.operands[0]) if inst.operands else None
            if address is None:
                return None
            recorded.append(written.get(address, ZERO_COLUMN))
            continue
        if name in _RT_IGNORED:
            continue
        return None  # allocation, messages, feedback, defined calls: bail

    # Imported here: repro.runtime's package import reaches back into
    # this module (the plan compiler specializes through it).
    from repro.runtime.output import output_columns

    return Trace(
        ops=tuple(ops),
        num_slots=len(binding),
        columns=tuple(output_columns(recorded, written, ZERO_COLUMN)),
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
    """The compile phase's entry point: trace + fuse, or ``None``.

    Never raises: a program the specializer cannot handle simply keeps
    the interpreter path (the optimistic-abort philosophy of the
    sampling fast path, applied ahead of time).
    """
    try:
        trace = extract_trace(module, entry)
        if trace is None:
            return None
        return build_schedule(trace)
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
