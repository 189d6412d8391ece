"""Measurement-result storage.

Static results (``inttoptr`` constants / ``null``) index a table written by
``__quantum__qis__mz__body``; dynamic results are handles returned by
``__quantum__qis__m__body``.  ``read_result`` / ``result_equal`` read back
either kind -- the feedback path of the adaptive profiles.
"""

from __future__ import annotations

from typing import Dict

from repro.runtime.errors import QirRuntimeError
from repro.runtime.values import IntPtr, ResultPtr

# Sentinel handles for __quantum__rt__result_get_zero / _one.
RESULT_ZERO = ResultPtr(-1)
RESULT_ONE = ResultPtr(-2)


class ResultStore:
    def __init__(self) -> None:
        self._static: Dict[int, int] = {}
        self._dynamic: Dict[int, int] = {}
        self._next_handle = 0
        self.max_static_index = -1

    def new_dynamic(self, value: int) -> ResultPtr:
        handle = self._next_handle
        self._next_handle += 1
        self._dynamic[handle] = value
        return ResultPtr(handle)

    def write(self, pointer: object, value: int) -> None:
        if isinstance(pointer, IntPtr):
            self._static[pointer.address] = value
            self.max_static_index = max(self.max_static_index, pointer.address)
            return
        if isinstance(pointer, ResultPtr):
            if pointer.id < 0:
                raise QirRuntimeError("cannot write to a constant result")
            self._dynamic[pointer.id] = value
            return
        raise QirRuntimeError(f"{pointer!r} is not a result pointer")

    def read(self, pointer: object) -> int:
        if isinstance(pointer, ResultPtr):
            if pointer == RESULT_ZERO:
                return 0
            if pointer == RESULT_ONE:
                return 1
            value = self._dynamic.get(pointer.id)
            if value is None:
                raise QirRuntimeError(f"read of unmeasured {pointer!r}")
            return value
        if isinstance(pointer, IntPtr):
            value = self._static.get(pointer.address)
            if value is None:
                raise QirRuntimeError(
                    f"read of unmeasured static result {pointer.address}"
                )
            return value
        raise QirRuntimeError(f"{pointer!r} is not a result pointer")

    def read_default(self, pointer: object, default: int = 0) -> int:
        try:
            return self.read(pointer)
        except QirRuntimeError:
            return default

    def static_bits(self) -> Dict[int, int]:
        """The static result table (index -> bit)."""
        return dict(self._static)
