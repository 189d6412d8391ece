"""Intrinsic bindings: the runtime definitions of ``__quantum__*`` symbols.

This module is the reproduction of the paper's Example 5: "Every function,
such as ``@__quantum__qis__h__body``, is implemented so that it modifies
the internal state of the simulator to reflect the application of the
respective gate."  Here each binding is a Python callable receiving the
runtime context and the evaluated call arguments.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TYPE_CHECKING

from repro.qir.catalog import RT_PREFIX, parse_qis_name
from repro.runtime.errors import InvalidPointerError, QirRuntimeError, TrapError
from repro.runtime.results import RESULT_ONE, RESULT_ZERO
from repro.runtime.values import ArrayHandle, GlobalPtr, IntPtr, QubitPtr, StackPtr

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.interpreter import Interpreter

Intrinsic = Callable[["Interpreter", List[object]], object]


def _label_text(pointer: object) -> str:
    if isinstance(pointer, GlobalPtr):
        return pointer.as_text()
    if isinstance(pointer, IntPtr) and pointer.address == 0:
        return ""
    return repr(pointer)


# -- QIS dispatch ---------------------------------------------------------------
def dispatch_qis(interp: "Interpreter", name: str, args: List[object]) -> object:
    entry = parse_qis_name(name)
    if entry is None:
        raise QirRuntimeError(f"no runtime binding for QIS function @{name}")
    interp.stats.quantum_calls += 1

    if entry.gate == "mz":
        qubit, result = args
        outcome = interp.backend.measure(interp.qubits.slot_for(qubit))
        interp.results.write(result, outcome)
        interp.stats.measurements += 1
        return None
    if entry.gate == "m":
        (qubit,) = args
        outcome = interp.backend.measure(interp.qubits.slot_for(qubit))
        interp.stats.measurements += 1
        return interp.results.new_dynamic(outcome)
    if entry.gate == "reset":
        (qubit,) = args
        interp.backend.reset(interp.qubits.slot_for(qubit))
        return None
    if entry.gate == "read_result":
        (result,) = args
        return interp.results.read(result)

    params = [float(a) for a in args[: entry.num_params]]  # type: ignore[arg-type]
    qubit_args = args[entry.num_params :]
    slots = [interp.qubits.slot_for(q) for q in qubit_args]
    if len(slots) > 1 and len(set(slots)) != len(slots):
        raise InvalidPointerError(f"@{name} applied to one qubit twice: {slots}")
    interp.backend.apply_gate(entry.gate, slots, params)
    interp.stats.gates += 1
    return None


# -- RT intrinsics ---------------------------------------------------------------
def _rt_initialize(interp: "Interpreter", args: List[object]) -> None:
    return None


def _rt_qubit_allocate(interp: "Interpreter", args: List[object]) -> QubitPtr:
    return interp.qubits.allocate()


def _rt_qubit_release(interp: "Interpreter", args: List[object]) -> None:
    (qubit,) = args
    if not isinstance(qubit, QubitPtr):
        raise QirRuntimeError(f"qubit_release of non-dynamic pointer {qubit!r}")
    interp.qubits.release(qubit)
    return None


def _rt_qubit_allocate_array(interp: "Interpreter", args: List[object]) -> ArrayHandle:
    (count,) = args
    array = ArrayHandle(int(count), is_qubit_array=True)  # type: ignore[arg-type]
    for i in range(int(count)):  # type: ignore[arg-type]
        array.cells[i] = interp.qubits.allocate()
    return array


def _rt_qubit_release_array(interp: "Interpreter", args: List[object]) -> None:
    (array,) = args
    if not isinstance(array, ArrayHandle) or not array.is_qubit_array:
        raise QirRuntimeError(f"qubit_release_array of {array!r}")
    for cell in array.cells:
        if isinstance(cell, QubitPtr):
            interp.qubits.release(cell)
    array.cells = []
    return None


def _rt_array_create_1d(interp: "Interpreter", args: List[object]) -> ArrayHandle:
    element_size, count = args
    return ArrayHandle(int(count), int(element_size))  # type: ignore[arg-type]


def _rt_array_get_element_ptr_1d(interp: "Interpreter", args: List[object]) -> object:
    array, index = args
    if not isinstance(array, ArrayHandle):
        raise QirRuntimeError(f"array_get_element_ptr_1d of {array!r}")
    i = int(index)  # type: ignore[arg-type]
    if not 0 <= i < len(array.cells):
        raise QirRuntimeError(
            f"array index {i} out of bounds for {len(array.cells)}-element array"
        )
    # Qubit arrays yield the qubit handle itself (see catalog docstring);
    # plain arrays yield a pointer to the cell.
    if array.is_qubit_array:
        return array.cells[i]
    from repro.runtime.values import Memory

    # Cells of plain arrays are addressable: represent as StackPtr into a
    # shared Memory view over the array cells.
    memory = getattr(array, "_memory", None)
    if memory is None:
        memory = Memory(len(array.cells))
        memory.cells = array.cells  # share storage
        array._memory = memory  # type: ignore[attr-defined]
    return StackPtr(memory, i)


def _rt_array_get_size_1d(interp: "Interpreter", args: List[object]) -> int:
    (array,) = args
    if not isinstance(array, ArrayHandle):
        raise QirRuntimeError(f"array_get_size_1d of {array!r}")
    return len(array.cells)


def _rt_refcount_noop(interp: "Interpreter", args: List[object]) -> None:
    array = args[0]
    delta = int(args[1])  # type: ignore[arg-type]
    if isinstance(array, ArrayHandle):
        array.ref_count += delta
    return None


def _rt_result_get_zero(interp: "Interpreter", args: List[object]):
    return RESULT_ZERO


def _rt_result_get_one(interp: "Interpreter", args: List[object]):
    return RESULT_ONE


def _rt_result_equal(interp: "Interpreter", args: List[object]) -> int:
    a, b = args
    return int(interp.results.read(a) == interp.results.read(b))


def _rt_result_record_output(interp: "Interpreter", args: List[object]) -> None:
    result, label = args
    value = interp.results.read_default(result, 0)
    interp.output.record("RESULT", value, _label_text(label) or None)
    return None


def _rt_array_record_output(interp: "Interpreter", args: List[object]) -> None:
    count, label = args
    interp.output.record("ARRAY", int(count), _label_text(label) or None)  # type: ignore[arg-type]
    return None


def _rt_tuple_record_output(interp: "Interpreter", args: List[object]) -> None:
    count, label = args
    interp.output.record("TUPLE", int(count), _label_text(label) or None)  # type: ignore[arg-type]
    return None


def _rt_bool_record_output(interp: "Interpreter", args: List[object]) -> None:
    value, label = args
    interp.output.record("BOOL", int(bool(value)), _label_text(label) or None)
    return None


def _rt_int_record_output(interp: "Interpreter", args: List[object]) -> None:
    value, label = args
    interp.output.record("INT", int(value), _label_text(label) or None)  # type: ignore[arg-type]
    return None


def _rt_double_record_output(interp: "Interpreter", args: List[object]) -> None:
    value, label = args
    interp.output.record("DOUBLE", float(value), _label_text(label) or None)  # type: ignore[arg-type]
    return None


def _rt_message(interp: "Interpreter", args: List[object]) -> None:
    (pointer,) = args
    interp.messages.append(_label_text(pointer))
    return None


def _rt_fail(interp: "Interpreter", args: List[object]) -> None:
    (pointer,) = args
    raise TrapError(f"__quantum__rt__fail: {_label_text(pointer)}")


RT_INTRINSICS: Dict[str, Intrinsic] = {
    f"{RT_PREFIX}initialize": _rt_initialize,
    f"{RT_PREFIX}qubit_allocate": _rt_qubit_allocate,
    f"{RT_PREFIX}qubit_release": _rt_qubit_release,
    f"{RT_PREFIX}qubit_allocate_array": _rt_qubit_allocate_array,
    f"{RT_PREFIX}qubit_release_array": _rt_qubit_release_array,
    f"{RT_PREFIX}array_create_1d": _rt_array_create_1d,
    f"{RT_PREFIX}array_get_element_ptr_1d": _rt_array_get_element_ptr_1d,
    f"{RT_PREFIX}array_get_size_1d": _rt_array_get_size_1d,
    f"{RT_PREFIX}array_update_reference_count": _rt_refcount_noop,
    f"{RT_PREFIX}array_update_alias_count": _rt_refcount_noop,
    f"{RT_PREFIX}result_get_zero": _rt_result_get_zero,
    f"{RT_PREFIX}result_get_one": _rt_result_get_one,
    f"{RT_PREFIX}result_equal": _rt_result_equal,
    f"{RT_PREFIX}result_update_reference_count": lambda i, a: None,
    f"{RT_PREFIX}result_record_output": _rt_result_record_output,
    f"{RT_PREFIX}array_record_output": _rt_array_record_output,
    f"{RT_PREFIX}tuple_record_output": _rt_tuple_record_output,
    f"{RT_PREFIX}bool_record_output": _rt_bool_record_output,
    f"{RT_PREFIX}int_record_output": _rt_int_record_output,
    f"{RT_PREFIX}double_record_output": _rt_double_record_output,
    f"{RT_PREFIX}message": _rt_message,
    f"{RT_PREFIX}fail": _rt_fail,
}
