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
* **Clifford-prefix routing** splits the trace at the first non-Clifford
  gate: a long Clifford preamble (GHZ/graph-state prep, QEC encoders)
  runs on the CHP stabilizer tableau in O(gates * n) bit operations, and
  the resulting state is synthesised back into amplitudes exactly once
  via :func:`stabilizer_statevector`.

One executor, :func:`run_fused`, walks the schedule on either the scalar
or the batched statevector simulator.  It replicates the interpreter
path's RNG draw order (one draw per measurement, one per superposed
reset), which keeps fused counts bit-identical to the unfused serial
reference for a fixed seed, and renders through output columns the
tracer fixed at compile time with the runtime's one output rule
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
from repro.sim.gates import gate_matrix, is_clifford_gate
from repro.sim.sampling import ZERO_COLUMN, render_columns
from repro.sim.stabilizer import StabilizerSimulator
from repro.sim.statevector import BatchedStatevectorSimulator

__all__ = [
    "FusedProgram",
    "KernelOp",
    "MeasureOp",
    "ResetOp",
    "extract_trace",
    "specialize_module",
    "stabilizer_statevector",
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

    ``prefix`` is the Clifford preamble routed to the stabilizer tableau
    (empty when routing is not worthwhile); ``ops`` covers everything
    after it.  Attached to :class:`~repro.runtime.plan.ExecutionPlan` as
    derived analysis -- recomputed on decode, never serialized.
    """

    num_slots: int
    prefix: Tuple[TraceGate, ...]
    ops: Tuple[ScheduleOp, ...]
    columns: Tuple[int, ...]
    source_gates: int

    @property
    def prefix_gates(self) -> int:
        return len(self.prefix)

    @cached_property
    def prefix_state(self) -> np.ndarray:
        """The amplitudes after the Clifford prefix, synthesized once per
        schedule; read-only, since every shot loads a copy."""
        tableau = StabilizerSimulator(self.num_slots)
        for gate in self.prefix:
            tableau.apply_gate(gate.name, list(gate.slots))
        state = stabilizer_statevector(tableau)
        state.flags.writeable = False
        return state

    @property
    def kernels(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, KernelOp))

    @property
    def measurements(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, MeasureOp))

    def describe(self) -> str:
        return (
            f"fused schedule: {self.kernels} kernels from "
            f"{self.source_gates} gates, clifford prefix {self.prefix_gates}"
        )


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


def _split_prefix(
    ops: Sequence[TraceOp], num_slots: int, prefix_threshold: Optional[int]
) -> Tuple[Tuple[TraceGate, ...], Tuple[TraceOp, ...]]:
    """Split the trace at the first non-Clifford instruction.

    The prefix must be unitary Clifford gates only (measure/reset end
    it); it is routed to the tableau only when long enough to amortise
    the one-off stabilizer->statevector synthesis, which costs roughly
    ``num_slots`` statevector passes.
    """
    count = 0
    for op in ops:
        if not isinstance(op, TraceGate):
            break
        if op.params or not is_clifford_gate(op.name):
            break
        count += 1
    threshold = (
        prefix_threshold
        if prefix_threshold is not None
        else 2 * max(1, num_slots) + 4
    )
    if count < max(1, threshold):
        return (), tuple(ops)
    prefix = tuple(ops[:count])  # type: ignore[arg-type]
    return prefix, tuple(ops[count:])


def build_schedule(
    trace: Trace,
    *,
    prefix_threshold: Optional[int] = None,
) -> FusedProgram:
    """Turn a trace into a fused kernel schedule (+ Clifford prefix)."""
    prefix, rest = _split_prefix(trace.ops, trace.num_slots, prefix_threshold)
    ops: List[ScheduleOp] = []
    run: List[TraceGate] = []
    gates = len(prefix)
    for op in rest:
        if isinstance(op, TraceGate):
            run.append(op)
            gates += 1
            continue
        ops.extend(_fuse_gates(run))
        run = []
        ops.append(op)  # measure / reset: kept in place, never fused
    ops.extend(_fuse_gates(run))
    return FusedProgram(
        num_slots=trace.num_slots,
        prefix=prefix,
        ops=tuple(ops),
        columns=trace.columns,
        source_gates=gates,
    )


def specialize_module(
    module: Module,
    entry: Optional[str] = None,
    *,
    prefix_threshold: Optional[int] = None,
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
        return build_schedule(trace, prefix_threshold=prefix_threshold)
    except Exception:
        return None


# -- stabilizer -> statevector synthesis ---------------------------------------


def _parity(indices: np.ndarray, mask: int) -> np.ndarray:
    parity = np.zeros(len(indices), dtype=bool)
    bit = 0
    while mask >> bit:
        if (mask >> bit) & 1:
            parity ^= ((indices >> bit) & 1).astype(bool)
        bit += 1
    return parity


def stabilizer_statevector(tableau: StabilizerSimulator) -> np.ndarray:
    """Amplitudes of the tableau's state (phase fixed: first nonzero real+).

    Finds one basis state in the support deterministically (postselect,
    never an RNG draw), then projects it onto the stabilizer group:
    ``|psi> ~ prod_i (I + G_i)/2 |b>``.  O(n * 2**n) vectorised work --
    one pass per generator, the same order as a handful of gates.
    """
    n = tableau.num_qubits
    size = 1 << n
    cap = tableau._capacity

    # Deterministic support-state search on a scratch copy.
    scratch = StabilizerSimulator(0)
    scratch._n = tableau._n
    scratch._capacity = tableau._capacity
    scratch.x = tableau.x.copy()
    scratch.z = tableau.z.copy()
    scratch.r = tableau.r.copy()
    basis = 0
    for qubit in range(n):
        stab_rows = np.arange(cap, cap + n)
        if scratch.x[stab_rows, qubit].any():
            scratch.postselect(qubit, 0)  # random outcome: force |0>
        else:
            basis |= int(scratch.measure(qubit)) << qubit  # deterministic

    indices = np.arange(size, dtype=np.int64)
    state = np.zeros(size, dtype=np.complex128)
    state[basis] = 1.0
    for row in range(cap, cap + n):
        x_mask = 0
        z_mask = 0
        for qubit in range(n):
            if tableau.x[row, qubit]:
                x_mask |= 1 << qubit
            if tableau.z[row, qubit]:
                z_mask |= 1 << qubit
        y_count = bin(x_mask & z_mask).count("1")
        sign = (-1.0) ** int(tableau.r[row]) * (1j) ** y_count
        phases = np.where(_parity(indices, z_mask), -1.0, 1.0) * sign
        source = indices ^ x_mask
        state = state + phases[source] * state[source]
    norm = np.linalg.norm(state)
    if norm <= 0.0:
        raise ValueError("stabilizer synthesis produced a null state")
    state /= norm
    anchor = np.flatnonzero(np.abs(state) > 1e-9)
    if len(anchor):
        lead = state[anchor[0]]
        state *= np.abs(lead) / lead
    return state


# -- execution -----------------------------------------------------------------


def run_fused(program: FusedProgram, simulator) -> List[str]:
    """Execute a schedule; one bitstring per shot the simulator carries.

    ``simulator`` is a scalar :class:`StatevectorSimulator` (one shot) or
    a :class:`BatchedStatevectorSimulator` (one shot per member), either
    one ``program.num_slots`` qubits wide.  Each measurement's value -- an
    int, or one outcome per member -- is collected in schedule order and
    rendered through the program's output columns.
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
    if isinstance(simulator, BatchedStatevectorSimulator):
        return render_columns(values, program.columns, simulator.batch)
    # One shot: a plain index-and-join costs less than numpy's set-up.
    return ["".join([str(values[c] if c >= 0 else ~c) for c in program.columns])]
