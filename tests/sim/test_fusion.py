"""Fused gate kernels + plan specialization (fusion / prefix / distribution).

Covers the three specialization tiers end to end:

* fusion arithmetic: the fused executor's statevector matches per-gate
  application on hypothesis-generated random circuits, exactly;
* the unitary prefix: evolved once per schedule, with the counts the
  Clifford-preamble programs had when a stabilizer tableau served them;
* schedulers: fused counts equal the unfused serial reference in-thread
  and in worker processes for a fixed seed;
* the cached sampling distribution: wire round-trip, fail-closed decode
  of wrong versions and corrupt blocks, disk-cache verify deletion, and
  warm-serve bit-identity;
* the qir-bench fusion and warm-distribution arms fail closed on plans
  they cannot measure.
"""

import hashlib
import json
import shutil
from pathlib import Path

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
    encode_payload,
)
from repro.runtime.plancache import PlanCache
from repro.runtime.sampling_fastpath import SampledDistribution
from repro.sim import StatevectorSimulator
from repro.sim.fusion import MeasureOp, build_schedule, extract_trace, run_fused
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
RECORD_ORDER = str(Path(__file__).resolve().parents[2] / "examples" / "record_order.ll")


def _per_gate_state(trace, num_slots: int) -> np.ndarray:
    """Reference evolution: every trace gate applied individually."""
    simulator = StatevectorSimulator(num_slots)
    for op in trace.ops:
        simulator.apply_gate(op.name, list(op.slots), list(op.params))
    return simulator.state.copy()


def _fused_state(program) -> np.ndarray:
    simulator = StatevectorSimulator(program.num_slots)
    run_fused(program, simulator)
    return simulator.state.copy()


def _gate_only_trace(num_qubits: int, depth: int, seed: int):
    text = export_circuit_text(
        random_circuit(num_qubits, depth, seed=seed, measure=False),
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
    # With no measurement every kernel is in the prefix: the run loads the
    # prefix state, so this checks the kernel pre-multiplication math.
    program = build_schedule(trace)
    assert not program.ops
    assert len(program.prefix) == program.kernels
    np.testing.assert_allclose(
        _fused_state(program),
        _per_gate_state(trace, trace.num_slots),
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
    # Raw text runs unspecialized: the unfused per-gate reference.
    reference = QirRuntime(seed=SEED).run_shots(
        text, shots=shots, sampling="never"
    )
    plan = compile_plan(text)
    for jobs in (1, 2):
        result = QirRuntime(seed=SEED).run_shots(
            plan, shots=shots, sampling="never", jobs=jobs
        )
        assert result.counts == reference.counts, (
            f"jobs={jobs}: fused counts diverged from the serial "
            f"unfused reference"
        )


def _clifford_preamble_program(
    num_qubits: int = 3, layers: int = 6, reset: bool = False
) -> str:
    """A Clifford preamble of ``3 * layers`` gates, then T and measurement.

    With ``reset``, qubit 0 is measured and reset mid-circuit.
    """
    from repro.circuit.circuit import Circuit

    circuit = Circuit("prefix")
    circuit.qreg(num_qubits, "q")
    circuit.creg(num_qubits + 1, "c")
    for i in range(layers):
        circuit.h(i % num_qubits)
        circuit.s((i + 1) % num_qubits)
        circuit.cx(i % num_qubits, (i + 1) % num_qubits)
    circuit.t(0)  # the first non-Clifford gate
    if reset:
        circuit.measure(0, num_qubits)
        circuit.reset(0)
        circuit.h(0)
        circuit.cx(0, 1)
    for q in range(num_qubits):
        circuit.measure(q, q)
    return export_circuit_text(circuit, addressing="static")


#: Counts of the Clifford-preamble programs below at fixed seeds, recorded
#: when their preambles ran on the stabilizer tableau and were synthesized
#: back into amplitudes; the fused prefix must reproduce them bit for bit.
PREAMBLE_COUNTS_DIGEST = "42d49425d80d4540a1570ae5eec6fa565202c553e80108147739f22f668caae8"


def _preamble_records():
    records = []
    for seed in (3, 17):
        for name, text, shots in [
            ("preamble3", _clifford_preamble_program(), 200),
            ("preamble10", _clifford_preamble_program(10, 10), 64),
        ]:
            plan = compile_plan(text)
            for jobs in (1, 2):
                result = QirRuntime(seed=seed).run_shots(
                    plan, shots=shots, sampling="never", jobs=jobs
                )
                records.append([name, seed, jobs, sorted(result.counts.items())])
        plan = compile_plan(_clifford_preamble_program(reset=True))
        per_shot = QirRuntime(seed=seed).run_shots(plan, shots=200, sampling="never")
        records.append(["preamble3.reset", seed, sorted(per_shot.counts.items())])
    return records


def test_clifford_preamble_counts_match_recorded_digest():
    blob = json.dumps(_preamble_records(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PREAMBLE_COUNTS_DIGEST


def test_clifford_preamble_keeps_counts_bit_identical():
    text = _clifford_preamble_program()
    plan = compile_plan(text)
    # The preamble and the T gate fuse into the prefix; the terminal
    # measurements are all that is left to run.
    assert plan.fused is not None
    assert plan.fused.prefix and plan.fused.source_gates == 19
    assert all(isinstance(op, MeasureOp) for op in plan.fused.ops)
    fused = QirRuntime(seed=SEED).run_shots(plan, shots=64, sampling="never")
    unfused = QirRuntime(seed=SEED).run_shots(
        plan.module, shots=64, entry=plan.entry, sampling="never"
    )
    assert fused.counts == unfused.counts


def test_prefix_is_evolved_once_per_schedule(monkeypatch):
    text = rotation_ladder_qir(2, depth=48)
    reference = QirRuntime(seed=SEED).run_shots(text, shots=200, sampling="never")
    plan = compile_plan(text)
    calls = []
    apply_matrix = StatevectorSimulator.apply_matrix
    monkeypatch.setattr(
        StatevectorSimulator, "apply_matrix",
        lambda self, matrix, qubits: calls.append(1) or apply_matrix(self, matrix, qubits),
    )
    fused = QirRuntime(seed=SEED).run_shots(plan, shots=200, sampling="never")
    # Every kernel precedes the terminal measurements: each is applied
    # once for the schedule, never per shot.
    assert len(calls) == plan.fused.kernels == len(plan.fused.prefix)
    assert fused.counts == reference.counts


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


def test_warm_draws_equal_generator_choice_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(100):
        probs = rng.random(int(rng.integers(1, 300))) ** 3
        probs /= probs.sum()
        entries = tuple((format(i, "09b"), float(p)) for i, p in enumerate(probs))
        shots, seed = int(rng.integers(1, 3000)), int(rng.integers(2**30))
        drawn = np.random.default_rng(seed).choice(len(probs), size=shots, p=probs)
        expected = {}
        for index, count in zip(*np.unique(drawn, return_counts=True)):
            expected[entries[index][0]] = int(count)
        counts = SampledDistribution(entries).sample_counts(shots, seed)
        assert counts == expected
        assert list(counts) == list(expected)


def test_warm_draws_reject_a_table_choice_would_reject():
    # Past choice's sqrt(eps) tolerance, which from_entries shares.
    table = SampledDistribution((("0", 0.5), ("1", 0.5 + 1e-7)))
    with pytest.raises(ValueError):
        np.random.default_rng(1).choice(2, size=4, p=[0.5, 0.5 + 1e-7])
    for _ in range(2):
        with pytest.raises(ValueError, match="do not sum to 1"):
            table.sample_counts(4, 1)


def _edited_payload(plan) -> dict:
    """A plan's wire payload, unsealed for editing (see ``encode_payload``)."""
    payload = json.loads(plan.to_bytes())
    del payload["sha256"]
    return payload


@pytest.mark.parametrize("version", [1, 2, 3, PLAN_WIRE_VERSION + 1])
def test_wrong_wire_versions_fail_closed(version):
    assert PLAN_WIRE_VERSION == 4
    plan = compile_plan(ghz_qir(3, addressing="static"))
    payload = _edited_payload(plan)
    payload["wire_version"] = version
    with pytest.raises(PlanDecodeError, match="wire_version"):
        ExecutionPlan.from_bytes(encode_payload(payload))
    # Real v3 and older bytes are bare JSON, without the seal.
    with pytest.raises(PlanDecodeError, match="no SHA-256 seal"):
        ExecutionPlan.from_bytes(json.dumps(payload, sort_keys=True).encode())


def test_every_single_byte_flip_fails_closed():
    plan = _warmed_plan(ghz_qir(3, addressing="static"))
    wire = plan.to_bytes()
    ExecutionPlan.from_bytes(wire)
    for index in range(len(wire)):
        for mask in (0x01, 0x80):
            flipped = bytearray(wire)
            flipped[index] ^= mask
            with pytest.raises(PlanDecodeError):
                ExecutionPlan.from_bytes(bytes(flipped))


def test_corrupt_distribution_block_fails_closed():
    plan = _warmed_plan(ghz_qir(3, addressing="static"))
    payload = _edited_payload(plan)

    corrupted = dict(payload)
    corrupted["distribution"] = {"entries": [["00", 0.2], ["11", 0.2]]}
    with pytest.raises(PlanDecodeError, match="corrupt distribution"):
        ExecutionPlan.from_bytes(encode_payload(corrupted))

    ragged = dict(payload)
    ragged["distribution"] = {"entries": [["0", 0.5], ["111", 0.25], ["", 0.25]]}
    with pytest.raises(PlanDecodeError, match="corrupt distribution"):
        ExecutionPlan.from_bytes(encode_payload(ragged))

    not_an_object = dict(payload)
    not_an_object["distribution"] = [1, 2, 3]
    with pytest.raises(PlanDecodeError, match="distribution block"):
        ExecutionPlan.from_bytes(encode_payload(not_an_object))


def test_plan_cache_verify_deletes_corrupt_distribution(tmp_path):
    observer = Observer()
    cache = PlanCache(str(tmp_path), observer=observer)
    plan = _warmed_plan(ghz_qir(3, addressing="static"))
    path = cache.put(plan.key, plan)
    assert path is not None

    payload = json.loads(open(path, "rb").read())
    del payload["sha256"]
    payload["distribution"] = {"entries": [["00", 7.0]]}
    with open(path, "wb") as handle:
        handle.write(encode_payload(payload))

    report = cache.verify(delete=True)
    assert report.corrupt == [path]
    assert cache.get(plan.key) is None  # deleted: clean miss, no crash
    assert observer.metrics.value("cache.plan_disk.corrupt", 0) >= 1


def _off_by_1e7_payload(plan) -> dict:
    # 1e-7 off: a sum error the warm draw rejects (sqrt(eps) ~ 1.5e-8).
    payload = _edited_payload(plan)
    payload["distribution"] = {"entries": [["000", 0.5], ["111", 0.5 + 1e-7]]}
    return payload


def test_a_table_the_warm_draw_would_reject_fails_decode():
    payload = _off_by_1e7_payload(_warmed_plan(ghz_qir(3, addressing="static")))
    with pytest.raises(PlanDecodeError, match="do not sum to 1"):
        ExecutionPlan.from_bytes(encode_payload(payload))


def test_disk_cache_recompiles_a_table_the_warm_draw_would_reject(tmp_path):
    # A corrupt entry: the session recompiles and serves counts instead
    # of raising on every warm request.
    text = ghz_qir(3, addressing="static")
    plan = _warmed_plan(text)
    payload = _off_by_1e7_payload(plan)
    path = PlanCache(str(tmp_path)).put(plan.key, plan)
    with open(path, "wb") as handle:
        handle.write(encode_payload(payload))
    session = QirSession(runtime=QirRuntime(seed=SEED), plan_cache_dir=str(tmp_path))
    result = session.run_shots(text, shots=20)
    assert session.plan_cache.stats["corrupt"] == 1
    assert not result.distribution_served
    assert sum(result.counts.values()) == 20
    assert set(result.counts) <= {"000", "111"}


def test_plan_cache_treats_a_v2_entry_as_a_miss(tmp_path, monkeypatch):
    # A v2 distribution may hold the old static-table rendering of a
    # program with RESULT records, so it must be recompiled, not served.
    import repro.runtime.plan as plan_module
    import repro.runtime.plancache as plancache_module

    with open(RECORD_ORDER) as handle:
        text = handle.read()
    plan = _warmed_plan(text)
    with monkeypatch.context() as patch:
        patch.setattr(plan_module, "PLAN_WIRE_VERSION", 2)
        patch.setattr(plancache_module, "PLAN_WIRE_VERSION", 2)
        v2_path = PlanCache(str(tmp_path)).put(plan.key, plan)
    with open(v2_path, "rb") as handle:
        assert json.loads(handle.read())["wire_version"] == 2

    cache = PlanCache(str(tmp_path))
    assert cache.path_for(plan.key) != v2_path
    assert cache.get(plan.key) is None
    assert cache.stats["misses"] == 1

    # Even found at the v4 address, the v2 bytes are dropped and the
    # session recompiles; the cold run renders from the records.
    shutil.copy(v2_path, cache.path_for(plan.key))
    session = QirSession(runtime=QirRuntime(seed=SEED), plan_cache_dir=str(tmp_path))
    result = session.run_shots(text, shots=20)
    assert session.plan_cache.stats["corrupt"] == 1
    assert not result.distribution_served
    assert result.counts == {"100": 20}


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
    # The bare module carries no distribution: it re-runs the
    # evolution, still bit-identically.
    opted_out = QirRuntime(seed=SEED).run_shots(
        plan.module, shots=128, entry=plan.entry, sampling="require"
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
