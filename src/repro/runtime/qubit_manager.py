"""Mapping QIR qubit addresses onto simulator slots (paper, Section IV-A).

Two address spaces coexist:

* *Dynamic* qubits come from ``__quantum__rt__qubit_allocate``; the manager
  mints a fresh handle id and binds it to a backend slot.
* *Static* qubits are integer addresses baked into the program.  The
  manager supports the two strategies the paper discusses: pre-allocation
  from the entry point's ``required_num_qubits`` attribute, and
  **on-the-fly allocation** when an unseen address is touched.

The attribute's block ``0..n-1`` binds to slots on the first
static-address use, before that address binds, so a program that only
allocates dynamically never simulates it.  In a program that mixes both,
a dynamic allocation made before the first static address takes the
first slots.

The manager also keeps the statistics the SCALE benchmark reports
(total allocations vs. peak simultaneous width, i.e. slot reuse).
"""

from __future__ import annotations

from typing import Dict

from repro.runtime.errors import QirRuntimeError, QubitAllocationError
from repro.runtime.values import IntPtr, QubitPtr
from repro.sim.backend import SimulatorBackend


class QubitManager:
    def __init__(self, backend: SimulatorBackend, allow_on_the_fly: bool = True):
        self.backend = backend
        self.allow_on_the_fly = allow_on_the_fly
        self._dynamic: Dict[int, int] = {}  # handle id -> backend slot
        self._static: Dict[int, int] = {}  # static address -> backend slot
        self._next_handle = 0
        self._reserved = 0  # static block not yet bound (reserve_static)
        # statistics
        self.total_allocations = 0
        self.peak_width = 0
        self.on_the_fly_allocations = 0

    # -- dynamic addressing ------------------------------------------------------
    def allocate(self) -> QubitPtr:
        slot = self._new_slot()
        handle = self._next_handle
        self._next_handle += 1
        self._dynamic[handle] = slot
        self._note_alloc()
        return QubitPtr(handle)

    def release(self, qubit: QubitPtr) -> None:
        slot = self._dynamic.pop(qubit.id, None)
        if slot is None:
            raise QirRuntimeError(f"release of unknown or already-released {qubit!r}")
        self.backend.release_qubit(slot)

    # -- static addressing ---------------------------------------------------------
    def reserve_static(self, count: int) -> None:
        """Reserve static addresses ``0..count-1`` (the attribute route);
        they bind on the first static-address use."""
        self._reserved = count

    def slot_for(self, pointer: object) -> int:
        """Resolve any qubit pointer kind to a backend slot."""
        if isinstance(pointer, QubitPtr):
            slot = self._dynamic.get(pointer.id)
            if slot is None:
                raise QirRuntimeError(f"use of released/unknown {pointer!r}")
            return slot
        if isinstance(pointer, IntPtr):
            slot = self._static.get(pointer.address)
            if slot is None and self._reserved:
                for address in range(self._reserved):
                    if address not in self._static:
                        self._static[address] = self._new_slot()
                        self._note_alloc()
                self._reserved = 0
                slot = self._static.get(pointer.address)
            if slot is None:
                if not self.allow_on_the_fly:
                    raise QirRuntimeError(
                        f"static qubit address {pointer.address} exceeds the "
                        "reserved range and on-the-fly allocation is disabled"
                    )
                slot = self._new_slot()
                self._static[pointer.address] = slot
                self.on_the_fly_allocations += 1
                self._note_alloc()
            return slot
        raise QirRuntimeError(f"{pointer!r} is not a qubit pointer")

    def _new_slot(self) -> int:
        try:
            return self.backend.allocate_qubit()
        except MemoryError as error:
            # The statevector's max_qubits guard (or a real allocation
            # failure): a coded runtime error, so resilient runs record a
            # shot failure instead of crashing.
            raise QubitAllocationError(str(error)) from error

    # -- stats ---------------------------------------------------------------
    def _note_alloc(self) -> None:
        self.total_allocations += 1
        width = len(self._dynamic) + len(self._static)
        self.peak_width = max(self.peak_width, width)
