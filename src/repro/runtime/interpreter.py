"""The IR interpreter: our stand-in for LLVM's ``lli`` (paper, Sec. III-C).

Executes one entry point of a module.  Arithmetic, comparisons and value
casts are evaluated by :mod:`repro.llvmir.semantics`, the definition the
constant folder shares, so ``opt`` and ``lli`` cannot disagree; undefined
behaviour there (division by zero, ``fptosi`` of NaN) traps with
``QIR001``.  Memory, pointers and control flow are interpreted here.
Calls to declared ``__quantum__*`` functions dispatch to the intrinsic
bindings in :mod:`repro.runtime.intrinsics`, which drive the simulator
backend.  Calls to *defined* functions recurse (full-QIR programs may
factor subroutines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.llvmir import semantics
from repro.llvmir.block import BasicBlock
from repro.llvmir.function import Function
from repro.llvmir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    GetElementPtrInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from repro.llvmir.module import EntryPointError, Module
from repro.llvmir.types import ArrayType, IntType, IRType
from repro.llvmir.values import (
    ConstantArray,
    ConstantExpr,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantPointerInt,
    ConstantString,
    ConstantUndef,
    GlobalVariable,
    Value,
)
from repro.qir.catalog import QIS_PREFIX
from repro.runtime.errors import (
    ErrorContext,
    QirRuntimeError,
    StepLimitExceeded,
    TrapError,
    UnboundFunctionError,
)
from repro.runtime.intrinsics import RT_INTRINSICS, dispatch_qis
from repro.runtime.output import OutputRecorder
from repro.runtime.qubit_manager import QubitManager
from repro.runtime.results import ResultStore
from repro.runtime.values import GlobalPtr, IntPtr, Memory, StackPtr
from repro.sim.backend import SimulatorBackend


@dataclass
class InterpreterStats:
    steps: int = 0
    quantum_calls: int = 0
    classical_calls: int = 0
    gates: int = 0
    measurements: int = 0
    branches: int = 0
    # Per-intrinsic profile (Ex. 5): populated only when the interpreter
    # runs with an enabled observer -- the per-call clock reads are not
    # free, so the default path skips them entirely.
    intrinsic_calls: Dict[str, int] = field(default_factory=dict)
    intrinsic_seconds: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "InterpreterStats") -> "InterpreterStats":
        """Accumulate ``other`` into self (for per-backend aggregation)."""
        self.steps += other.steps
        self.quantum_calls += other.quantum_calls
        self.classical_calls += other.classical_calls
        self.gates += other.gates
        self.measurements += other.measurements
        self.branches += other.branches
        for name, n in other.intrinsic_calls.items():
            self.intrinsic_calls[name] = self.intrinsic_calls.get(name, 0) + n
        for name, s in other.intrinsic_seconds.items():
            self.intrinsic_seconds[name] = self.intrinsic_seconds.get(name, 0.0) + s
        return self

    @classmethod
    def aggregate(cls, stats: "List[InterpreterStats]") -> "InterpreterStats":
        total = cls()
        for item in stats:
            total.merge(item)
        return total


def _flat_cell_count(type_: IRType) -> int:
    if isinstance(type_, ArrayType):
        return max(1, type_.count) * _flat_cell_count(type_.element)
    return 1


def _inst_summary(inst: Instruction) -> str:
    """Short instruction label for error contexts (no full IR printing)."""
    if isinstance(inst, CallInst):
        return f"call @{inst.callee.name}"
    return type(inst).__name__


class Interpreter:
    def __init__(
        self,
        module: Module,
        backend: SimulatorBackend,
        step_limit: int = 10_000_000,
        allow_on_the_fly_qubits: bool = True,
        fault_hook: Optional[Callable[[str], None]] = None,
        observer=None,
        results: Optional[ResultStore] = None,
    ):
        self.module = module
        self.backend = backend
        self.step_limit = step_limit
        # Resilience hook: called with each declared __quantum__* name so a
        # fault injector can poison intrinsic dispatch (see repro.resilience).
        self.fault_hook = fault_hook
        # Profiling (repro.obs): when an enabled observer is attached, each
        # declared-intrinsic dispatch is timed into stats.intrinsic_*.
        self.observer = observer
        self._profile_intrinsics = observer is not None and observer.enabled
        self.qubits = QubitManager(backend, allow_on_the_fly=allow_on_the_fly_qubits)
        # Pluggable result store: the sampling fast path substitutes one
        # with deferred-measurement semantics.
        self.results = results if results is not None else ResultStore()
        self.output = OutputRecorder()
        self.messages: List[str] = []
        self.stats = InterpreterStats()
        self._call_depth = 0

    # -- entry ---------------------------------------------------------------
    def run(self, entry: Optional[str] = None) -> object:
        """Execute an entry point (default: the module's single entry point)."""
        fn = self._find_entry(entry)
        required = fn.get_attribute("required_num_qubits")
        if required is not None:
            self.qubits.reserve_static(int(required))
        return self.call_function(fn, [])

    def _find_entry(self, entry: Optional[str]) -> Function:
        try:
            return self.module.entry_function(entry)
        except EntryPointError as error:
            raise QirRuntimeError(str(error)) from None

    # -- function execution ------------------------------------------------------
    def call_function(self, fn: Function, args: List[object]) -> object:
        if fn.is_declaration:
            return self._call_declared(fn, args)
        if self._call_depth > 1000:
            raise QirRuntimeError(f"call depth exceeded at @{fn.name}")
        self._call_depth += 1
        try:
            return self._execute_body(fn, args)
        finally:
            self._call_depth -= 1

    def _call_declared(self, fn: Function, args: List[object]) -> object:
        name = fn.name or ""
        if self.fault_hook is not None:
            self.fault_hook(name)
        if not self._profile_intrinsics:
            return self._dispatch_declared(name, args)
        t0 = perf_counter()
        try:
            return self._dispatch_declared(name, args)
        finally:
            elapsed = perf_counter() - t0
            stats = self.stats
            stats.intrinsic_calls[name] = stats.intrinsic_calls.get(name, 0) + 1
            stats.intrinsic_seconds[name] = (
                stats.intrinsic_seconds.get(name, 0.0) + elapsed
            )

    def _dispatch_declared(self, name: str, args: List[object]) -> object:
        if name.startswith(QIS_PREFIX):
            return dispatch_qis(self, name, args)
        intrinsic = RT_INTRINSICS.get(name)
        if intrinsic is not None:
            self.stats.quantum_calls += 1
            return intrinsic(self, args)
        raise UnboundFunctionError(
            f"declared function @{name} has no runtime binding"
        )

    def _execute_body(self, fn: Function, args: List[object]) -> object:
        frame: Dict[Value, object] = {}
        for formal, actual in zip(fn.arguments, args):
            frame[formal] = actual

        block = fn.entry_block
        prev_block: Optional[BasicBlock] = None

        while True:
            # Phi nodes read their values *simultaneously* on block entry.
            phis = block.phis()
            if phis:
                staged = [
                    (phi, self._eval(phi.incoming_for(prev_block), frame))
                    for phi in phis
                ]
                for phi, value in staged:
                    frame[phi] = value

            for inst in block.instructions[block.first_non_phi_index() :]:
                self.stats.steps += 1
                if self.stats.steps > self.step_limit:
                    raise StepLimitExceeded(
                        f"exceeded {self.step_limit} interpreter steps",
                        context=ErrorContext(fn.name, block.name, _inst_summary(inst)),
                    )

                if isinstance(inst, ReturnInst):
                    if inst.return_value is None:
                        return None
                    return self._eval(inst.return_value, frame)
                if isinstance(inst, BranchInst):
                    prev_block, block = block, inst.target
                    self.stats.branches += 1
                    break
                if isinstance(inst, CondBranchInst):
                    cond = self._eval(inst.condition, frame)
                    target = inst.true_target if cond else inst.false_target
                    prev_block, block = block, target
                    self.stats.branches += 1
                    break
                if isinstance(inst, SwitchInst):
                    value = self._eval(inst.value, frame)
                    type_ = inst.value.type
                    target = inst.default
                    for const, case_block in inst.cases:
                        if semantics.icmp("eq", type_, self._eval(const, frame), value):
                            target = case_block
                            break
                    prev_block, block = block, target
                    self.stats.branches += 1
                    break
                if isinstance(inst, UnreachableInst):
                    raise TrapError(
                        f"reached 'unreachable' in @{fn.name}",
                        context=ErrorContext(fn.name, block.name, "unreachable"),
                    )

                try:
                    result = self._execute(inst, frame)
                except QirRuntimeError as error:
                    # Deepest frame wins: attach_context is a no-op once set.
                    error.attach_context(
                        ErrorContext(fn.name, block.name, _inst_summary(inst))
                    )
                    raise
                except semantics.Undefined as error:  # sdiv by zero, fptosi of NaN
                    raise TrapError(
                        str(error),
                        context=ErrorContext(fn.name, block.name, _inst_summary(inst)),
                    ) from None
                if not inst.type.is_void:
                    frame[inst] = result
            else:
                raise QirRuntimeError(
                    f"block %{block.name} in @{fn.name} fell through without a terminator"
                )

    # -- instruction execution --------------------------------------------------
    def _execute(self, inst: Instruction, frame: Dict[Value, object]) -> object:
        if isinstance(inst, CallInst):
            args = [self._eval(op, frame) for op in inst.operands]
            callee = inst.callee
            if not (callee.name or "").startswith("__quantum__"):
                self.stats.classical_calls += 1
            return self.call_function(callee, args)
        if isinstance(inst, BinaryInst):
            return semantics.binary(
                inst.opcode, inst.type, self._eval(inst.lhs, frame), self._eval(inst.rhs, frame)
            )
        if isinstance(inst, ICmpInst):
            return self._icmp(inst, frame)
        if isinstance(inst, FCmpInst):
            return semantics.fcmp(
                inst.predicate, self._eval(inst.lhs, frame), self._eval(inst.rhs, frame)
            )
        if isinstance(inst, CastInst):
            return self._cast(inst, frame)
        if isinstance(inst, SelectInst):
            cond = self._eval(inst.condition, frame)
            chosen = inst.true_value if cond else inst.false_value
            return self._eval(chosen, frame)
        if isinstance(inst, AllocaInst):
            return StackPtr(Memory(_flat_cell_count(inst.allocated_type)))
        if isinstance(inst, LoadInst):
            pointer = self._eval(inst.pointer, frame)
            return self._load(pointer, inst.type)
        if isinstance(inst, StoreInst):
            value = self._eval(inst.value, frame)
            pointer = self._eval(inst.pointer, frame)
            self._store(pointer, value)
            return None
        if isinstance(inst, GetElementPtrInst):
            return self._gep(inst, frame)
        raise QirRuntimeError(f"cannot interpret instruction {inst!r}")

    def _load(self, pointer: object, type_: IRType) -> object:
        if isinstance(pointer, StackPtr):
            value = pointer.load()
            if value is None:
                raise QirRuntimeError("load of uninitialised stack slot")
            return value
        if isinstance(pointer, GlobalPtr):
            if isinstance(type_, IntType) and type_.bits == 8:
                return pointer.load_byte()
            raise QirRuntimeError(f"unsupported global load of type {type_}")
        raise QirRuntimeError(f"load through non-memory pointer {pointer!r}")

    def _store(self, pointer: object, value: object) -> None:
        if isinstance(pointer, StackPtr):
            pointer.store(value)
            return
        raise QirRuntimeError(f"store through non-memory pointer {pointer!r}")

    def _gep(self, inst: GetElementPtrInst, frame: Dict[Value, object]) -> object:
        pointer = self._eval(inst.pointer, frame)
        indices = [int(self._eval(op, frame)) for op in inst.indices]  # type: ignore[arg-type]
        offset = _gep_offset(inst.source_type, indices)
        if isinstance(pointer, StackPtr):
            return pointer.offset_by(offset)
        if isinstance(pointer, GlobalPtr):
            return pointer.offset_by(offset)
        raise QirRuntimeError(f"getelementptr on non-memory pointer {pointer!r}")

    def _icmp(self, inst: ICmpInst, frame: Dict[Value, object]) -> int:
        a = self._eval(inst.lhs, frame)
        b = self._eval(inst.rhs, frame)
        try:
            return semantics.icmp(inst.predicate, inst.lhs.type, a, b)
        except TypeError:
            raise QirRuntimeError(f"ordered icmp {inst.predicate} on pointers") from None

    def _cast(self, inst: CastInst, frame: Dict[Value, object]) -> object:
        value = self._eval(inst.value, frame)
        op = inst.opcode
        if op == "bitcast":
            return value
        if op == "inttoptr":
            return IntPtr(int(value))  # type: ignore[arg-type]
        if op == "ptrtoint":
            if isinstance(value, IntPtr):
                return inst.type.wrap(value.address)  # type: ignore[attr-defined]
            raise QirRuntimeError(f"ptrtoint of non-integer pointer {value!r}")
        return semantics.cast(op, inst.value.type, inst.type, value)

    # -- operand evaluation --------------------------------------------------------
    def _eval(self, value: Value, frame: Dict[Value, object]) -> object:
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, ConstantNull):
            return IntPtr(0)
        if isinstance(value, ConstantPointerInt):
            return IntPtr(value.address)
        if isinstance(value, ConstantUndef):
            return 0
        if isinstance(value, GlobalVariable):
            return self._global_pointer(value)
        if isinstance(value, Function):
            raise QirRuntimeError("function pointers are not interpretable")
        if isinstance(value, ConstantExpr):
            return self._constant_expr(value)
        if isinstance(value, (ConstantString, ConstantArray)):
            raise QirRuntimeError("aggregate constant used as scalar operand")
        if value in frame:
            return frame[value]
        raise QirRuntimeError(f"evaluation of unbound value {value!r}")

    def _global_pointer(self, gv: GlobalVariable) -> GlobalPtr:
        init = gv.initializer
        if isinstance(init, ConstantString):
            return GlobalPtr(init.data, 0, gv.name)
        if init is None:
            return GlobalPtr(b"", 0, gv.name)
        raise QirRuntimeError(f"unsupported global initialiser for @{gv.name}")

    def _constant_expr(self, expr: ConstantExpr) -> object:
        if expr.opcode == "getelementptr":
            base = expr.operands[0]
            indices = [
                op.value if isinstance(op, ConstantInt) else 0 for op in expr.operands[1:]
            ]
            pointer = self._eval(base, {})
            offset = _gep_offset(expr.extra[0], [int(i) for i in indices])
            if isinstance(pointer, GlobalPtr):
                return pointer.offset_by(offset)
            raise QirRuntimeError("constant GEP on non-global")
        if expr.opcode == "inttoptr":
            op = expr.operands[0]
            if isinstance(op, ConstantInt):
                return IntPtr(op.value)
        if expr.opcode == "ptrtoint":
            op = expr.operands[0]
            inner = self._eval(op, {})
            if isinstance(inner, IntPtr):
                return inner.address
        if expr.opcode == "bitcast":
            return self._eval(expr.operands[0], {})
        raise QirRuntimeError(f"unsupported constant expression {expr.opcode}")


def _gep_offset(source_type: IRType, indices: List[int]) -> int:
    """Flattened cell offset for a GEP, in *cells* of the leaf scalar type."""
    if not indices:
        return 0
    offset = indices[0] * _flat_cell_count(source_type)
    current = source_type
    for index in indices[1:]:
        if isinstance(current, ArrayType):
            current = current.element
            offset += index * _flat_cell_count(current)
        else:
            raise QirRuntimeError(f"GEP into non-aggregate type {current}")
    return offset
