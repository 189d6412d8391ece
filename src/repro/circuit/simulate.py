"""Direct circuit execution on a simulator backend.

This is the "custom IR" execution path; the QIR runtime path lives in
:mod:`repro.runtime`.  The integration tests run the same program down both
paths and require identical outcome distributions.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.operations import (
    Barrier,
    ConditionalOperation,
    GateOperation,
    Measurement,
    Operation,
    Reset,
)
from repro.sim.sampling import ZERO_COLUMN, render_counts, table_columns
from repro.sim.statevector import StatevectorSimulator
from repro.sim.stabilizer import StabilizerSimulator


def _register_value(bits: Dict[int, int], circuit: Circuit, register) -> int:
    value = 0
    for i in range(register.size):
        index = circuit.clbit_index(register[i])
        value |= bits.get(index, 0) << i
    return value


def _execute_once(circuit: Circuit, backend) -> Dict[int, int]:
    """Run every operation; returns the final classical-bit assignment."""
    bits: Dict[int, int] = {}
    for op in circuit.operations:
        _apply(op, circuit, backend, bits)
    return bits


def _apply(op: Operation, circuit: Circuit, backend, bits: Dict[int, int]) -> None:
    if isinstance(op, ConditionalOperation):
        if _register_value(bits, circuit, op.register) == op.value:
            _apply(op.operation, circuit, backend, bits)
        return
    if isinstance(op, GateOperation):
        backend.apply_gate(op.name, [circuit.qubit_index(q) for q in op.qubits], op.params)
    elif isinstance(op, Measurement):
        outcome = backend.measure(circuit.qubit_index(op.qubit))
        bits[circuit.clbit_index(op.clbit)] = outcome
    elif isinstance(op, Reset):
        backend.reset(circuit.qubit_index(op.qubit))
    elif isinstance(op, Barrier):
        pass
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"unknown operation {op!r}")


def run_circuit(
    circuit: Circuit,
    shots: int = 1024,
    seed: Optional[int] = None,
    backend: str = "auto",
) -> Dict[str, int]:
    """Execute ``shots`` times; returns a histogram over the classical bits
    (bit order: highest clbit index first, matching OpenQASM conventions).

    ``backend`` is ``"statevector"``, ``"stabilizer"``, or ``"auto"`` (picks
    the stabilizer backend for Clifford circuits beyond statevector reach).
    """
    if backend == "auto":
        backend = (
            "stabilizer"
            if circuit.is_clifford() and circuit.num_qubits > 20
            else "statevector"
        )

    rng = np.random.default_rng(seed)
    histogram: Dict[str, int] = {}
    n_clbits = circuit.num_clbits

    mid_circuit = circuit.has_conditionals() or _has_mid_circuit_collapse(circuit)
    if backend == "statevector" and not mid_circuit:
        # Fast path: one statevector evolution, sample measured qubits.
        sim = StatevectorSimulator(circuit.num_qubits, seed=int(rng.integers(2**63)))
        measured: Dict[int, int] = {}  # clbit index -> qubit index
        for op in circuit.operations:
            if isinstance(op, Measurement):
                measured[circuit.clbit_index(op.clbit)] = circuit.qubit_index(op.qubit)
            else:
                _apply(op, circuit, sim, {})
        basis, counts = sim.sample_basis(shots)
        table = {clbit: k for k, clbit in enumerate(measured)}
        columns = table_columns(table, ZERO_COLUMN, n_clbits)
        return render_counts(basis, counts, list(measured.values()), columns)

    for _ in range(shots):
        shot_seed = int(rng.integers(2**63))
        if backend == "statevector":
            sim = StatevectorSimulator(circuit.num_qubits, seed=shot_seed)
        elif backend == "stabilizer":
            sim = StabilizerSimulator(circuit.num_qubits, seed=shot_seed)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        bits = _execute_once(circuit, sim)
        out = "".join(str(bit) for bit in table_columns(bits, 0, n_clbits))
        histogram[out] = histogram.get(out, 0) + 1
    return histogram


def _has_mid_circuit_collapse(circuit: Circuit) -> bool:
    """True when a measurement or reset is followed by more quantum ops on
    any qubit, so per-shot simulation is required."""
    collapsed = set()
    for op in circuit.operations:
        if isinstance(op, (Measurement, Reset)):
            collapsed.add(op.qubits[0])
        elif isinstance(op, GateOperation) and collapsed & set(op.qubits):
            return True
    return False


def statevector_of(circuit: Circuit) -> np.ndarray:
    """The final statevector of a measurement-free circuit."""
    if circuit.has_measurements() or circuit.has_conditionals():
        raise ValueError("circuit must be unitary (no measurements/conditions)")
    sim = StatevectorSimulator(circuit.num_qubits)
    for op in circuit.operations:
        _apply(op, circuit, sim, {})
    return sim.state.copy()
