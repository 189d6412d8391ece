"""QIR AST -> circuit importer (the Section III-A "custom IR" route).

Walks the entry point's CFG symbolically.  Straight-line quantum code maps
one-to-one onto circuit operations.  The *only* classical control flow the
circuit IR can express is the single-result conditional
(:class:`~repro.circuit.operations.ConditionalOperation`), so the importer
recognises exactly the ``read_result`` diamond pattern the builder's
``if_result`` emits; anything richer raises :class:`CircuitImportError` --
the expressiveness wall the paper warns custom IRs hit on adaptive
programs (measured by the QOPT benchmark).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.circuit.circuit import Circuit
from repro.circuit.operations import GateOperation, Operation
from repro.llvmir.block import BasicBlock
from repro.llvmir.function import Function
from repro.llvmir.instructions import (
    AllocaInst,
    BranchInst,
    CallInst,
    CondBranchInst,
    Instruction,
    LoadInst,
    ReturnInst,
    StoreInst,
)
from repro.llvmir.module import EntryPointError, Module
from repro.llvmir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantPointerInt,
    Value,
)
from repro.qir.catalog import RT_PREFIX, parse_qis_name
from repro.passes.quantum.qubit_count import infer_counts


class CircuitImportError(ValueError):
    pass


class _SQubit:
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class _SResult:
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class _SQubitArray:
    __slots__ = ("base", "size")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size


class _SByteArray:
    __slots__ = ("size",)

    def __init__(self, size: int):
        self.size = size


class _SSlot:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: object = None


class _Importer:
    def __init__(self, fn: Function, name: str):
        self.fn = fn
        self.env: Dict[Value, object] = {}
        self.next_qubit_base = 0
        counts = infer_counts(fn)
        self.circuit = Circuit(name)
        self._pending_ops: List[Operation] = []
        # Honour the entry point's declared requirements (the Sec. IV-A
        # attribute route) -- programs may reserve more qubits/results than
        # their instructions touch, and register sizes should survive a
        # circuit -> QIR -> circuit round trip.
        declared_qubits = fn.get_attribute("required_num_qubits")
        declared_results = fn.get_attribute("required_num_results")
        self._num_results = max(
            counts.num_results,
            int(declared_results) if declared_results else 0,
        )
        self._max_qubit = max(
            counts.num_qubits,
            int(declared_qubits) if declared_qubits else 0,
        )

    def run(self) -> Circuit:
        ops = self._walk()
        num_qubits = max(self._max_qubit, self.next_qubit_base)
        if num_qubits:
            self.circuit.qreg(num_qubits, "q")
        if self._num_results:
            self.circuit.creg(self._num_results, "c")
        for op_kind, payload in ops:
            self._emit(op_kind, payload)
        return self.circuit

    # -- CFG walk -----------------------------------------------------------
    def _walk(self) -> List[Tuple[str, tuple]]:
        out: List[Tuple[str, tuple]] = []
        block: Optional[BasicBlock] = self.fn.entry_block
        visited = set()
        while block is not None:
            if block in visited:
                raise CircuitImportError(
                    f"loop detected at %{block.name}; unroll before importing"
                )
            visited.add(block)
            next_block: Optional[BasicBlock] = None
            for index, inst in enumerate(block.instructions):
                if isinstance(inst, ReturnInst):
                    return out
                if isinstance(inst, BranchInst):
                    next_block = inst.target
                    break
                if isinstance(inst, CondBranchInst):
                    merge = self._import_diamond(inst, out)
                    next_block = merge
                    break
                self._import_instruction(inst, out)
            block = next_block
        return out

    def _import_instruction(self, inst: Instruction, out: List[Tuple[str, tuple]]) -> None:
        if isinstance(inst, AllocaInst):
            self.env[inst] = _SSlot()
            return
        if isinstance(inst, StoreInst):
            slot = self.env.get(inst.pointer)
            if not isinstance(slot, _SSlot):
                raise CircuitImportError(f"store through unsupported pointer {inst!r}")
            slot.value = self._value(inst.value)
            return
        if isinstance(inst, LoadInst):
            slot = self.env.get(inst.pointer)
            if not isinstance(slot, _SSlot):
                raise CircuitImportError(f"load through unsupported pointer {inst!r}")
            self.env[inst] = slot.value
            return
        if isinstance(inst, CallInst):
            self._import_call(inst, out)
            return
        raise CircuitImportError(
            f"instruction '{inst.opcode}' has no circuit equivalent; "
            "the custom IR cannot represent general classical code"
        )

    def _import_call(self, inst: CallInst, out: List[Tuple[str, tuple]]) -> None:
        name = inst.callee.name or ""
        entry = parse_qis_name(name)
        if entry is not None:
            if entry.gate == "read_result":
                # Consumed by the block's conditional branch (the diamond
                # handler reads it straight off the branch condition).
                users = inst.users
                if len(users) == 1 and isinstance(users[0], CondBranchInst):
                    return
                raise CircuitImportError(
                    "read_result feeding general classical code is not "
                    "representable in the circuit IR"
                )
            params = [self._float(op) for op in inst.operands[: entry.num_params]]
            qubits = [
                self._qubit(op)
                for op in inst.operands[
                    entry.num_params : entry.num_params + entry.num_qubits
                ]
            ]
            if entry.gate == "mz":
                result = self._result(inst.operands[-1])
                out.append(("measure", (qubits[0], result)))
            elif entry.gate == "m":
                raise CircuitImportError(
                    "dynamic results (m__body) are not representable; "
                    "use mz with static results"
                )
            elif entry.gate == "reset":
                out.append(("reset", (qubits[0],)))
            else:
                out.append(("gate", (entry.gate, tuple(params), tuple(qubits))))
            return
        if name == f"{RT_PREFIX}qubit_allocate_array":
            size_op = inst.operands[0]
            if not isinstance(size_op, ConstantInt):
                raise CircuitImportError("non-constant qubit array size")
            self.env[inst] = _SQubitArray(self.next_qubit_base, size_op.value)
            self.next_qubit_base += size_op.value
            return
        if name == f"{RT_PREFIX}qubit_allocate":
            self.env[inst] = _SQubit(self.next_qubit_base)
            self.next_qubit_base += 1
            return
        if name == f"{RT_PREFIX}array_create_1d":
            size_op = inst.operands[1]
            if not isinstance(size_op, ConstantInt):
                raise CircuitImportError("non-constant array size")
            self.env[inst] = _SByteArray(size_op.value)
            return
        if name == f"{RT_PREFIX}array_get_element_ptr_1d":
            array = self._value(inst.operands[0])
            index_op = inst.operands[1]
            if not isinstance(index_op, ConstantInt):
                raise CircuitImportError("non-constant array index")
            if isinstance(array, _SQubitArray):
                if not 0 <= index_op.value < array.size:
                    raise CircuitImportError("qubit index out of bounds")
                self.env[inst] = _SQubit(array.base + index_op.value)
            elif isinstance(array, _SByteArray):
                self.env[inst] = _SResult(index_op.value)
                self._num_results = max(self._num_results, index_op.value + 1)
            else:
                raise CircuitImportError("element_ptr into unknown array")
            return
        if name in (
            f"{RT_PREFIX}qubit_release",
            f"{RT_PREFIX}qubit_release_array",
            f"{RT_PREFIX}initialize",
            f"{RT_PREFIX}array_update_reference_count",
            f"{RT_PREFIX}array_update_alias_count",
            f"{RT_PREFIX}result_update_reference_count",
            f"{RT_PREFIX}array_record_output",
            f"{RT_PREFIX}result_record_output",
            f"{RT_PREFIX}tuple_record_output",
        ):
            return
        raise CircuitImportError(f"call to @{name} has no circuit equivalent")

    # -- the read_result diamond (simple adaptive programs) -----------------
    def _import_diamond(
        self, branch: CondBranchInst, out: List[Tuple[str, tuple]]
    ) -> BasicBlock:
        cond = branch.condition
        if not (
            isinstance(cond, CallInst)
            and parse_qis_name(cond.callee.name or "") is not None
            and parse_qis_name(cond.callee.name or "").gate == "read_result"  # type: ignore[union-attr]
        ):
            raise CircuitImportError(
                "conditional branch on a value that is not read_result; "
                "general classical control flow is not representable"
            )
        result_index = self._result(cond.operands[0])

        then_ops = self._arm_ops(branch.true_target)
        else_ops = self._arm_ops(branch.false_target)
        then_merge = branch.true_target.terminator
        else_merge = branch.false_target.terminator
        assert isinstance(then_merge, BranchInst) and isinstance(else_merge, BranchInst)
        if then_merge.target is not else_merge.target:
            raise CircuitImportError("conditional arms do not reconverge")

        for op in then_ops:
            out.append(("cond", (result_index, 1, op)))
        for op in else_ops:
            out.append(("cond", (result_index, 0, op)))
        return then_merge.target

    def _arm_ops(self, block: BasicBlock) -> List[Tuple[str, tuple]]:
        ops: List[Tuple[str, tuple]] = []
        for inst in block.instructions:
            if isinstance(inst, BranchInst):
                return ops
            if not isinstance(inst, CallInst):
                raise CircuitImportError(
                    f"conditional arm contains non-call '{inst.opcode}'"
                )
            entry = parse_qis_name(inst.callee.name or "")
            if entry is None or entry.gate in ("m", "read_result"):
                raise CircuitImportError(
                    "conditional arm may contain only simple gates/mz/reset"
                )
            params = [self._float(op) for op in inst.operands[: entry.num_params]]
            qubits = [
                self._qubit(op)
                for op in inst.operands[
                    entry.num_params : entry.num_params + entry.num_qubits
                ]
            ]
            if entry.gate == "mz":
                result = self._result(inst.operands[-1])
                ops.append(("measure", (qubits[0], result)))
            elif entry.gate == "reset":
                ops.append(("reset", (qubits[0],)))
            else:
                ops.append(("gate", (entry.gate, tuple(params), tuple(qubits))))
        raise CircuitImportError("conditional arm lacks a terminator")

    # -- emission ---------------------------------------------------------------
    def _emit(self, kind: str, payload: tuple) -> None:
        if kind == "gate":
            gate, params, qubits = payload
            self._max_qubit = max(self._max_qubit, max(qubits) + 1)
            self.circuit.gate(gate, list(qubits), list(params))
        elif kind == "measure":
            qubit, result = payload
            self.circuit.measure(qubit, result)
        elif kind == "reset":
            (qubit,) = payload
            self.circuit.reset(qubit)
        elif kind == "cond":
            result_index, value, (ikind, ipayload) = payload
            creg = self.circuit.cregs[0]
            if ikind == "gate":
                gate, params, qubits = ipayload
                inner: Operation = GateOperation(
                    gate,
                    [self.circuit._resolve_qubit(q) for q in qubits],
                    list(params),
                )
            elif ikind == "measure":
                from repro.circuit.operations import Measurement

                qubit, result = ipayload
                inner = Measurement(
                    self.circuit._resolve_qubit(qubit),
                    self.circuit._resolve_clbit(result),
                )
            elif ikind == "reset":
                from repro.circuit.operations import Reset

                inner = Reset(self.circuit._resolve_qubit(ipayload[0]))
            else:  # pragma: no cover
                raise CircuitImportError(f"bad conditional payload {ikind}")
            # Single-bit condition: expressed as register == value only when
            # the register has one bit; otherwise refuse (OpenQASM-2 if
            # compares whole registers).
            if creg.size != 1 and value == 1:
                # register == value with only bit `result_index` set
                self.circuit.c_if(creg, 1 << result_index, inner)
            elif creg.size != 1 and value == 0:
                self.circuit.c_if(creg, 0, inner)
            else:
                self.circuit.c_if(creg, value, inner)
        else:  # pragma: no cover
            raise CircuitImportError(f"bad op kind {kind}")

    # -- value resolution ---------------------------------------------------------
    def _value(self, value: Value) -> object:
        if isinstance(value, ConstantNull):
            return _SQubit(0)  # interpretation depends on position; see _qubit
        if isinstance(value, ConstantPointerInt):
            return _SQubit(value.address)
        if isinstance(value, (ConstantInt, ConstantFloat)):
            return value  # scalar constants flow through slots untouched
        resolved = self.env.get(value)
        if resolved is None:
            raise CircuitImportError(f"cannot resolve value {value!r}")
        return resolved

    def _qubit(self, value: Value) -> int:
        if isinstance(value, ConstantNull):
            return 0
        if isinstance(value, ConstantPointerInt):
            return value.address
        resolved = self.env.get(value)
        if isinstance(resolved, _SQubit):
            return resolved.index
        raise CircuitImportError(f"operand {value!r} is not a qubit pointer")

    def _result(self, value: Value) -> int:
        if isinstance(value, ConstantNull):
            index = 0
        elif isinstance(value, ConstantPointerInt):
            index = value.address
        else:
            resolved = self.env.get(value)
            if not isinstance(resolved, _SResult):
                raise CircuitImportError(f"operand {value!r} is not a result pointer")
            index = resolved.index
        self._num_results = max(self._num_results, index + 1)
        return index

    def _float(self, value: Value) -> float:
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, ConstantInt):
            return float(value.value)
        raise CircuitImportError(
            f"non-constant gate parameter {value!r}; fold constants first"
        )


def import_circuit(
    module: Module, entry: Optional[str] = None, name: Optional[str] = None
) -> Circuit:
    """Convert a QIR module's entry point into a :class:`Circuit`."""
    try:
        fn = module.entry_function(entry)
    except EntryPointError as error:
        raise CircuitImportError(
            str(error) if entry is not None
            else "ambiguous entry point; pass entry= explicitly"
        ) from None
    return _Importer(fn, name or fn.name or "imported").run()
