"""QIR-program workloads (textual QIR, via the exporter or direct templates)."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.frontend.exporter import export_circuit_text
from repro.workloads.circuits import bell_circuit, ghz_circuit, qft_circuit, random_circuit


def bell_qir(addressing: str = "static") -> str:
    """Figure 1's program in either addressing mode (Ex. 2 vs Ex. 6)."""
    return export_circuit_text(bell_circuit(), addressing=addressing)


def ghz_qir(num_qubits: int, addressing: str = "static") -> str:
    return export_circuit_text(ghz_circuit(num_qubits), addressing=addressing)


def qft_qir(num_qubits: int, addressing: str = "static", measure: bool = True) -> str:
    return export_circuit_text(
        qft_circuit(num_qubits, measure=measure), addressing=addressing
    )


def random_qir(
    num_qubits: int,
    depth: int,
    seed: Optional[int] = None,
    addressing: str = "static",
    clifford_only: bool = False,
) -> str:
    return export_circuit_text(
        random_circuit(num_qubits, depth, seed=seed, clifford_only=clifford_only),
        addressing=addressing,
    )


def counted_loop_qir(
    num_qubits: int,
    gate: str = "h",
    measure: bool = True,
    step: int = 1,
) -> str:
    """The paper's Example 4: a FOR-loop applying one gate per qubit.

    Emitted in the exact memory form of the paper's listing (alloca'd
    counter, load/compare/branch), so the unrolling pipeline has real work
    to do.  Full QIR (contains a loop), not base profile -- until unrolled.
    """
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    measures = []
    declares = [f"declare void @__quantum__qis__{gate}__body(ptr)"]
    if measure:
        for i in range(num_qubits):
            q = "null" if i == 0 else f"inttoptr (i64 {i} to ptr)"
            r = "null" if i == 0 else f"inttoptr (i64 {i} to ptr)"
            measures.append(
                f"  call void @__quantum__qis__mz__body(ptr {q}, ptr writeonly {r})"
            )
        declares.append("declare void @__quantum__qis__mz__body(ptr, ptr writeonly)")
    measure_block = "\n".join(measures)
    declare_block = "\n".join(declares)
    return f"""
define void @main() #0 {{
entry:
  %i = alloca i64, align 8
  store i64 0, ptr %i, align 8
  br label %for.header

for.header:
  %0 = load i64, ptr %i, align 8
  %cond = icmp slt i64 %0, {num_qubits * step}
  br i1 %cond, label %body, label %exit

body:
  %1 = load i64, ptr %i, align 8
  %q = inttoptr i64 %1 to ptr
  call void @__quantum__qis__{gate}__body(ptr %q)
  %2 = load i64, ptr %i, align 8
  %3 = add nsw i64 %2, {step}
  store i64 %3, ptr %i, align 8
  br label %for.header

exit:
{measure_block}
  ret void
}}

{declare_block}

attributes #0 = {{ "entry_point" "qir_profiles"="full" "required_num_qubits"="{num_qubits * step}" "required_num_results"="{num_qubits if measure else 0}" }}

!llvm.module.flags = !{{!0}}
!0 = !{{i32 1, !"qir_major_version", i32 1}}
"""


def rotation_ladder_qir(
    num_qubits: int = 2, depth: int = 32, angle: float = 0.3
) -> str:
    """Deep per-qubit rotation runs + terminal measurement: fusion's home turf.

    Each qubit gets ``depth`` consecutive single-qubit rotations (cycling
    rx/ry/rz with drifting angles) before a terminal ``mz``.  Every run of
    same-support gates coalesces into one pre-multiplied 2x2 kernel at
    plan-compile time, so the fused executor applies ``num_qubits``
    matrices where the interpreter dispatches ``num_qubits * depth``
    intrinsic calls -- the spread ``runtime.fusion.speedup`` measures.
    Non-Clifford throughout, so the stabilizer backend does not claim it,
    and measurement-free until the end,
    so the sampling fast path *does* accept it (disable sampling to
    isolate the fused-kernel win).
    """
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    if depth < 1:
        raise ValueError("need at least one rotation per qubit")
    rotations = ("rx", "ry", "rz")
    lines: List[str] = []
    for i in range(num_qubits):
        q = "null" if i == 0 else f"inttoptr (i64 {i} to ptr)"
        for d in range(depth):
            gate = rotations[d % len(rotations)]
            theta = angle + 0.05 * d + 0.01 * i
            lines.append(
                f"  call void @__quantum__qis__{gate}__body(double {theta!r}, ptr {q})"
            )
    for i in range(num_qubits):
        q = "null" if i == 0 else f"inttoptr (i64 {i} to ptr)"
        res = "null" if i == 0 else f"inttoptr (i64 {i} to ptr)"
        lines.append(
            f"  call void @__quantum__qis__mz__body(ptr {q}, ptr writeonly {res})"
        )
    body = "\n".join(lines)
    return f"""
define void @main() #0 {{
entry:
{body}
  ret void
}}

declare void @__quantum__qis__rx__body(double, ptr)
declare void @__quantum__qis__ry__body(double, ptr)
declare void @__quantum__qis__rz__body(double, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr writeonly)

attributes #0 = {{ "entry_point" "qir_profiles"="base_profile" "required_num_qubits"="{num_qubits}" "required_num_results"="{num_qubits}" }}

!llvm.module.flags = !{{!0}}
!0 = !{{i32 1, !"qir_major_version", i32 1}}
"""


def reset_chain_qir(num_qubits: int = 2, rounds: int = 3, angle: float = 0.7) -> str:
    """Rotation + mid-circuit reset/re-measure chain.

    Each round rotates every qubit by a (non-Clifford) ``ry`` angle,
    measures it into its static result slot, then resets it -- so the
    program re-measures the same slots every round.  The stabilizer
    backend cannot take it (arbitrary rotations).  It has no classical
    feedback, so the sampling fast path defers every reset onto a fresh
    wire and samples all shots from one evolution of ``num_qubits *
    rounds`` wires, while that stays within
    :data:`~repro.runtime.sampling_fastpath.MAX_DEFERRED_QUBITS`; with
    ``sampling="never"`` (or a wider chain) it runs one shot at a time.
    """
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    if rounds < 1:
        raise ValueError("need at least one round")
    lines: List[str] = []
    for r in range(rounds):
        last = r == rounds - 1
        for i in range(num_qubits):
            q = "null" if i == 0 else f"inttoptr (i64 {i} to ptr)"
            res = "null" if i == 0 else f"inttoptr (i64 {i} to ptr)"
            theta = angle * (r + 1) + 0.1 * i
            lines.append(
                f"  call void @__quantum__qis__ry__body(double {theta!r}, ptr {q})"
            )
            lines.append(
                f"  call void @__quantum__qis__mz__body(ptr {q}, ptr writeonly {res})"
            )
            if not last:
                lines.append(f"  call void @__quantum__qis__reset__body(ptr {q})")
    body = "\n".join(lines)
    return f"""
define void @main() #0 {{
entry:
{body}
  ret void
}}

declare void @__quantum__qis__ry__body(double, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr writeonly)
declare void @__quantum__qis__reset__body(ptr)

attributes #0 = {{ "entry_point" "qir_profiles"="base_profile" "required_num_qubits"="{num_qubits}" "required_num_results"="{num_qubits}" }}

!llvm.module.flags = !{{!0}}
!0 = !{{i32 1, !"qir_major_version", i32 1}}
"""


def vqe_ansatz_qir(angles: Sequence[float], measure_basis: str = "zz") -> str:
    """One VQE iteration's circuit: a 2-qubit hardware-efficient ansatz.

    The classical optimisation loop lives on the host (see
    ``examples/vqe_hybrid_loop.py``) -- the per-iteration circuit is a
    fresh QIR program, the standard near-term hybrid pattern the paper's
    Section II-B motivates.
    """
    if len(angles) != 4:
        raise ValueError("the ansatz takes 4 angles")
    from repro.circuit.circuit import Circuit

    circuit = Circuit("vqe_ansatz")
    circuit.qreg(2, "q")
    circuit.creg(2, "c")
    circuit.ry(angles[0], 0)
    circuit.ry(angles[1], 1)
    circuit.cx(0, 1)
    circuit.ry(angles[2], 0)
    circuit.ry(angles[3], 1)
    if measure_basis == "xx":
        circuit.h(0)
        circuit.h(1)
    circuit.measure_all()
    return export_circuit_text(circuit, addressing="static")


def ghz_qir_legacy(num_qubits: int, legacy: bool = True) -> str:
    """GHZ in either QIR syntax dialect, with identical program structure.

    ``legacy=True`` emits the pre-LLVM-16 typed-pointer spelling of the
    original QIR specification (``%Qubit*``, ``%Array*``, opaque struct
    declarations) that the paper's footnote 1 calls out; ``legacy=False``
    emits the same instructions with modern opaque pointers.  The EX3
    benchmark parses both to measure the dialect's bookkeeping cost; the
    parser normalises either to identical in-memory IR.
    """
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    lines: List[str] = []

    qubit_t = "%Qubit*" if legacy else "ptr"
    result_t = "%Result*" if legacy else "ptr"
    array_t = "%Array*" if legacy else "ptr"

    def element(var: str, index: int) -> str:
        return (
            f"  %{var} = call {qubit_t} "
            f"@__quantum__rt__array_get_element_ptr_1d({array_t} %arr, i64 {index})"
        )

    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"v{counter}"

    q0 = fresh()
    lines.append(element(q0, 0))
    lines.append(f"  call void @__quantum__qis__h__body({qubit_t} %{q0})")
    for i in range(num_qubits - 1):
        a, b = fresh(), fresh()
        lines.append(element(a, i))
        lines.append(element(b, i + 1))
        lines.append(
            f"  call void @__quantum__qis__cnot__body({qubit_t} %{a}, {qubit_t} %{b})"
        )
    for i in range(num_qubits):
        q = fresh()
        lines.append(element(q, i))
        r = "null" if i == 0 else f"inttoptr (i64 {i} to {result_t})"
        lines.append(
            f"  call void @__quantum__qis__mz__body({qubit_t} %{q}, "
            f"{result_t} writeonly {r})"
        )
    body = "\n".join(lines)
    structs = (
        "%Qubit = type opaque\n%Result = type opaque\n%Array = type opaque\n"
        if legacy
        else ""
    )
    return f"""
{structs}
define void @main() #0 {{
entry:
  %arr = call {array_t} @__quantum__rt__qubit_allocate_array(i64 {num_qubits})
{body}
  call void @__quantum__rt__qubit_release_array({array_t} %arr)
  ret void
}}

declare {array_t} @__quantum__rt__qubit_allocate_array(i64)
declare {qubit_t} @__quantum__rt__array_get_element_ptr_1d({array_t}, i64)
declare void @__quantum__qis__h__body({qubit_t})
declare void @__quantum__qis__cnot__body({qubit_t}, {qubit_t})
declare void @__quantum__qis__mz__body({qubit_t}, {result_t} writeonly)
declare void @__quantum__rt__qubit_release_array({array_t})

attributes #0 = {{ "entry_point" "qir_profiles"="full" "required_num_qubits"="{num_qubits}" "required_num_results"="{num_qubits}" }}

!llvm.module.flags = !{{!0}}
!0 = !{{i32 1, !"qir_major_version", i32 1}}
"""
