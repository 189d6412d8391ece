"""Fused gate kernels + plan specialization (fusion / prefix / distribution).

Covers the three specialization tiers end to end:

* fusion arithmetic: the fused executor's statevector matches per-gate
  application on hypothesis-generated random circuits, exactly;
* Clifford-prefix routing: the stabilizer-synthesized handoff state
  matches per-gate evolution (up to global phase), and routed plans keep
  bit-identical histograms;
* schedulers: fused counts equal the unfused serial reference across
  serial / threaded / batched / process for a fixed seed;
* the cached sampling distribution: wire round-trip, fail-closed decode
  of wrong versions and corrupt blocks, disk-cache verify deletion, and
  warm-serve bit-identity;
* the qir-bench fusion and warm-distribution arms fail closed on plans
  they cannot measure.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.exporter import export_circuit_text
from repro.llvmir.parser import parse_assembly
from repro.obs.observer import Observer
from repro.runtime import QirRuntime, QirSession
from repro.runtime.plan import (
    PLAN_WIRE_VERSION,
    ExecutionPlan,
    PlanDecodeError,
    compile_plan,
)
from repro.runtime.plancache import PlanCache
from repro.runtime.sampling_fastpath import SampledDistribution
from repro.sim import StatevectorSimulator
from repro.sim.fusion import build_schedule, extract_trace, run_fused
from repro.tools.qir_bench import dist_warm_arms, fusion_arms
from repro.workloads.circuits import random_circuit
from repro.workloads.qir_programs import (
    counted_loop_qir,
    ghz_qir,
    qft_qir,
    random_qir,
    reset_chain_qir,
    rotation_ladder_qir,
)

SEED = 11


def _per_gate_state(trace, num_slots: int) -> np.ndarray:
    """Reference evolution: every trace gate applied individually."""
    simulator = StatevectorSimulator(num_slots)
    for op in trace.ops:
        simulator.apply_gate(op.name, list(op.slots), list(op.params))
    return simulator.state.copy()


def _fused_state(program) -> np.ndarray:
    simulator = StatevectorSimulator(0)
    run_fused(program, simulator)
    return simulator.state.copy()


def _fix_phase(state: np.ndarray) -> np.ndarray:
    """Normalize global phase: first non-negligible amplitude real positive."""
    for amp in state:
        if abs(amp) > 1e-9:
            return state * (abs(amp) / amp)
    return state


def _gate_only_trace(num_qubits: int, depth: int, seed: int,
                     clifford_only: bool = False):
    text = export_circuit_text(
        random_circuit(
            num_qubits, depth, seed=seed,
            clifford_only=clifford_only, measure=False,
        ),
        addressing="static",
    )
    trace = extract_trace(parse_assembly(text))
    assert trace is not None
    return trace


# -- fusion arithmetic --------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    num_qubits=st.integers(min_value=1, max_value=4),
    depth=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fused_statevector_matches_per_gate_application(num_qubits, depth, seed):
    trace = _gate_only_trace(num_qubits, depth, seed)
    # A huge threshold disables prefix routing, isolating the kernel
    # pre-multiplication math (which is exact -- no phase ambiguity).
    program = build_schedule(trace, prefix_threshold=10**9)
    assert program.prefix_gates == 0
    np.testing.assert_allclose(
        _fused_state(program),
        _per_gate_state(trace, trace.num_slots),
        atol=1e-9,
    )


@settings(max_examples=25, deadline=None)
@given(
    num_qubits=st.integers(min_value=1, max_value=4),
    depth=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_clifford_prefix_state_matches_per_gate_application(
    num_qubits, depth, seed
):
    trace = _gate_only_trace(num_qubits, depth, seed, clifford_only=True)
    # threshold=1 forces the whole Clifford circuit through the tableau +
    # stabilizer->statevector synthesis path.
    program = build_schedule(trace, prefix_threshold=1)
    assert program.prefix_gates == len(trace.ops)
    np.testing.assert_allclose(
        _fix_phase(_fused_state(program)),
        _fix_phase(_per_gate_state(trace, trace.num_slots)),
        atol=1e-9,
    )


def test_rotation_ladder_coalesces_into_few_kernels():
    trace = extract_trace(parse_assembly(rotation_ladder_qir(2, depth=16)))
    program = build_schedule(trace)
    assert program.source_gates == 32
    # Both single-qubit ladders share a <=2-qubit support, so the whole
    # gate body collapses into one pre-multiplied kernel.
    assert program.kernels == 1


# -- bit-identity across schedulers -------------------------------------------

@pytest.mark.parametrize("text", [
    ghz_qir(4, addressing="static"),
    random_qir(3, 4, seed=5, addressing="static"),
    rotation_ladder_qir(2, depth=8),
    rotation_ladder_qir(2, depth=48),
    reset_chain_qir(2, rounds=2),
], ids=["ghz4", "random3x4", "rotation_ladder", "rotation_ladder48",
        "reset_chain"])
def test_fused_counts_match_unfused_serial_across_schedulers(text):
    shots = 24
    reference = QirRuntime(seed=SEED, fusion=False).run_shots(
        text, shots=shots, sampling="never"
    )
    for scheduler, jobs in [
        ("serial", 1), ("threaded", 2), ("batched", 1), ("process", 2),
    ]:
        result = QirRuntime(seed=SEED, fusion=True).run_shots(
            text, shots=shots, sampling="never",
            scheduler=scheduler, jobs=jobs,
        )
        assert result.counts == reference.counts, (
            f"{scheduler}: fused counts diverged from the serial "
            f"unfused reference"
        )


def _clifford_preamble_program() -> str:
    from repro.circuit.circuit import Circuit

    circuit = Circuit("prefix")
    circuit.qreg(3, "q")
    circuit.creg(3, "c")
    for i in range(6):
        circuit.h(i % 3)
        circuit.s((i + 1) % 3)
        circuit.cx(i % 3, (i + 1) % 3)
    circuit.t(0)  # first non-Clifford instruction: the split point
    circuit.measure_all()
    return export_circuit_text(circuit, addressing="static")


def test_clifford_prefix_routing_keeps_counts_bit_identical():
    text = _clifford_preamble_program()
    plan = compile_plan(text)
    # 18 Clifford gates beats the default threshold (2*3 + 4 = 10), so
    # the compiled plan routes the preamble through the tableau.
    assert plan.fused is not None
    assert plan.fused.prefix_gates == 18
    fused = QirRuntime(seed=SEED, fusion=True).run_shots(
        plan, shots=64, sampling="never"
    )
    unfused = QirRuntime(seed=SEED, fusion=False).run_shots(
        plan, shots=64, sampling="never"
    )
    assert fused.counts == unfused.counts


# -- cached sampling distribution ---------------------------------------------

def _warmed_plan(text: str):
    runtime = QirRuntime(seed=SEED)
    plan = QirSession(runtime=runtime).compile(text)
    runtime.run_shots(plan, shots=32, sampling="require")
    assert plan.distribution is not None
    return plan


def test_distribution_wire_roundtrip():
    plan = _warmed_plan(ghz_qir(4, addressing="static"))
    decoded = ExecutionPlan.from_bytes(plan.to_bytes())
    assert decoded.distribution is not None
    assert decoded.distribution.entries == plan.distribution.entries
    # The fused schedule is derived analysis: recomputed, not serialized.
    assert decoded.fused is not None
    assert decoded.fused.kernels == plan.fused.kernels


def test_distribution_entry_validation_fails_closed():
    good = SampledDistribution.from_entries([["00", 0.5], ["11", 0.5]])
    assert good.entries == (("00", 0.5), ("11", 0.5))
    for bad in [
        "nope",                         # not a list
        [["00", 0.5], ["11"]],          # not a pair
        [["0x", 0.5], ["11", 0.5]],     # non-binary bitstring
        [["00", "p"], ["11", 0.5]],     # non-numeric probability
        [["00", 0.5], ["11", -0.5]],    # non-positive probability
        [["00", float("nan")]],         # non-finite probability
        [["00", 0.9], ["11", 0.4]],     # does not sum to ~1
        [["0", 0.5], ["111", 0.25], ["", 0.25]],  # ragged widths
        [["0", 0.5], ["111", 0.5]],     # ragged widths, all nonempty
        [["", 1.0]],                    # zero-width bitstring
    ]:
        with pytest.raises(ValueError):
            SampledDistribution.from_entries(bad)


@pytest.mark.parametrize("version", [1, PLAN_WIRE_VERSION + 1])
def test_wrong_wire_versions_fail_closed(version):
    plan = compile_plan(ghz_qir(3, addressing="static"))
    payload = json.loads(plan.to_bytes())
    payload["wire_version"] = version
    with pytest.raises(PlanDecodeError, match="wire_version"):
        ExecutionPlan.from_bytes(json.dumps(payload).encode("utf-8"))


def test_corrupt_distribution_block_fails_closed():
    plan = _warmed_plan(ghz_qir(3, addressing="static"))
    payload = json.loads(plan.to_bytes())

    corrupted = dict(payload)
    corrupted["distribution"] = {"entries": [["00", 0.2], ["11", 0.2]]}
    with pytest.raises(PlanDecodeError, match="corrupt distribution"):
        ExecutionPlan.from_bytes(json.dumps(corrupted).encode("utf-8"))

    ragged = dict(payload)
    ragged["distribution"] = {"entries": [["0", 0.5], ["111", 0.25], ["", 0.25]]}
    with pytest.raises(PlanDecodeError, match="corrupt distribution"):
        ExecutionPlan.from_bytes(json.dumps(ragged).encode("utf-8"))

    not_an_object = dict(payload)
    not_an_object["distribution"] = [1, 2, 3]
    with pytest.raises(PlanDecodeError, match="distribution block"):
        ExecutionPlan.from_bytes(json.dumps(not_an_object).encode("utf-8"))


def test_plan_cache_verify_deletes_corrupt_distribution(tmp_path):
    observer = Observer()
    cache = PlanCache(str(tmp_path), observer=observer)
    plan = _warmed_plan(ghz_qir(3, addressing="static"))
    path = cache.put(plan.key, plan)
    assert path is not None

    payload = json.loads(open(path, "rb").read())
    payload["distribution"] = {"entries": [["00", 7.0]]}
    with open(path, "wb") as handle:
        handle.write(json.dumps(payload, sort_keys=True).encode("utf-8"))

    report = cache.verify(delete=True)
    assert report.corrupt == [path]
    assert cache.get(plan.key) is None  # deleted: clean miss, no crash
    assert observer.metrics.value("cache.plan_disk.corrupt", 0) >= 1


def test_warm_serve_is_bit_identical_to_cold_fastpath():
    text = ghz_qir(5, addressing="static")
    plan = QirSession(runtime=QirRuntime(seed=SEED)).compile(text)
    cold = QirRuntime(seed=SEED).run_shots(plan, shots=128, sampling="require")
    assert not cold.distribution_served
    assert plan.distribution is not None
    warm = QirRuntime(seed=SEED).run_shots(plan, shots=128, sampling="require")
    assert warm.distribution_served
    assert warm.used_fast_path
    assert warm.counts == cold.counts
    # Opting out re-runs the evolution, still bit-identically.
    opted_out = QirRuntime(seed=SEED, dist_cache=False).run_shots(
        plan, shots=128, sampling="require"
    )
    assert not opted_out.distribution_served
    assert opted_out.counts == cold.counts


def test_distribution_hit_miss_counters():
    observer = Observer()
    runtime = QirRuntime(seed=SEED, observer=observer)
    plan = QirSession(runtime=runtime).compile(ghz_qir(3, addressing="static"))
    runtime.run_shots(plan, shots=16, sampling="require")
    assert observer.metrics.value("cache.distribution.miss", 0) == 1
    runtime.run_shots(plan, shots=16, sampling="require")
    assert observer.metrics.value("cache.distribution.hit", 0) == 1


# -- the qir-bench specialization arms fail closed ---------------------------

def test_fusion_arms_reject_unspecializable_programs():
    # Dynamic control flow (a real loop) defeats trace extraction, so
    # there is no fused schedule to compare against.
    plan = compile_plan(counted_loop_qir(4), verify=False)
    with pytest.raises(ValueError, match="not specializable"):
        fusion_arms(plan, shots=4)


def test_dist_warm_arms_reject_plans_that_never_memoize():
    # A 13-qubit QFT of |0> is uniform over 2**13 outcomes, past the
    # cached-support cap, so the plan never becomes warm.
    plan = compile_plan(qft_qir(13, addressing="static"), verify=False)
    with pytest.raises(ValueError, match="did not memoize"):
        dist_warm_arms(plan, shots=4)
