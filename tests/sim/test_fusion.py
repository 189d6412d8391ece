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
from repro.sim.fusion import (
    RECORD_STEP_BUDGET,
    KernelOp,
    MeasureOp,
    build_schedule,
    record_trace,
    run_fused,
)
from repro.tools.qir_bench import dist_warm_arms, fusion_arms
from repro.workloads.circuits import random_circuit
from repro.workloads.qec import teleportation_qir
from repro.workloads.qir_programs import (
    bell_qir,
    counted_loop_qir,
    ghz_qir,
    ghz_qir_legacy,
    qft_qir,
    random_qir,
    reset_chain_qir,
    rotation_ladder_qir,
    vqe_ansatz_qir,
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
    return record_trace(parse_assembly(text))


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
    program = build_schedule(
        record_trace(parse_assembly(rotation_ladder_qir(2, depth=16)))
    )
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
    counted_loop_qir(16),
    reset_chain_qir(6, rounds=3),
], ids=["ghz4", "random3x4", "rotation_ladder", "rotation_ladder48",
        "reset_chain", "counted_loop16", "reset_chain6x3"])
def test_fused_counts_match_unfused_serial_across_schedulers(text):
    shots = 24
    # Raw text runs unspecialized: the unfused per-gate reference.
    reference = QirRuntime(seed=SEED).run_shots(
        text, shots=shots, sampling="never"
    )
    plan = compile_plan(text)
    assert plan.fused is not None
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


# -- the recording: what specializes, what declines ----------------------------

def _program(body: str, declares: str, qubits: int = 1) -> str:
    return f"""
define void @main() #0 {{
{body}
}}
{declares}
attributes #0 = {{ "entry_point" "required_num_qubits"="{qubits}" }}
"""


_H_MZ = """declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr writeonly)"""

#: One program per reason the recording declines; each keeps the
#: interpreter path, so the plan's counts (or error) are the raw text's.
DECLINES = {
    "feedback": teleportation_qir(0.7),
    "m_result": _program(
        """entry:
  call void @__quantum__qis__h__body(ptr null)
  %r = call ptr @__quantum__qis__m__body(ptr null)
  call void @__quantum__rt__result_record_output(ptr %r, ptr null)
  ret void""",
        """declare void @__quantum__qis__h__body(ptr)
declare ptr @__quantum__qis__m__body(ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)""",
    ),
    "release": ghz_qir(3, addressing="dynamic"),
    "repeated_qubit": _program(
        """entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void""",
        _H_MZ + "\ndeclare void @__quantum__qis__cnot__body(ptr, ptr)",
    ),
    # 3 steps per iteration: past the budget, and still a fast per-shot run.
    "step_budget": _program(
        f"""entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %next = add i64 %i, 1
  %done = icmp eq i64 %next, {RECORD_STEP_BUDGET // 3 + 1}
  br i1 %done, label %exit, label %loop
exit:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void""",
        _H_MZ,
    ),
    "trap": _program(
        """entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__fail(ptr null)
  ret void""",
        _H_MZ + "\ndeclare void @__quantum__rt__fail(ptr)",
    ),
}


def _outcome(program, **options):
    """A per-shot run's counts, or the name of the error it raised."""
    try:
        return QirRuntime(seed=SEED, **options).run_shots(
            program, shots=8, sampling="never"
        ).counts
    except Exception as error:
        return type(error).__name__


@pytest.mark.parametrize("name", sorted(DECLINES))
def test_declined_recordings_keep_the_interpreter_path(name):
    text = DECLINES[name]
    plan = compile_plan(text)
    assert plan.fused is None
    assert _outcome(plan) == _outcome(text)


def test_recording_declines_past_the_step_budget_only():
    # The same loop within the budget records like a straight line.
    text = DECLINES["step_budget"].replace(
        f"{RECORD_STEP_BUDGET // 3 + 1}", f"{RECORD_STEP_BUDGET // 3 - 10}"
    )
    plan = compile_plan(text)
    assert plan.fused is not None and plan.fused.source_gates == 1
    assert _outcome(plan) == _outcome(text)


#: Address 3 lies past the reserved pair, so it binds on the fly.
ON_THE_FLY = _program(
    """entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 3 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 3 to ptr), ptr inttoptr (i64 1 to ptr))
  ret void""",
    _H_MZ + "\ndeclare void @__quantum__qis__cnot__body(ptr, ptr)",
    qubits=2,
)


@pytest.mark.parametrize("text, options, error", [
    (ON_THE_FLY, {"allow_on_the_fly_qubits": False}, "QirRuntimeError"),
    (ghz_qir(4, addressing="static"), {"step_limit": 3}, "StepLimitExceeded"),
], ids=["no_on_the_fly", "step_limit"])
def test_a_stricter_runtime_declines_the_schedule(text, options, error):
    # The schedule was recorded under the default runtime; a runtime that
    # would raise on the program raises on the plan too.
    plan = compile_plan(text)
    assert plan.fused is not None
    assert _outcome(text, **options) == error
    assert _outcome(plan, **options) == error
    assert _outcome(plan) == _outcome(text)


def _schedule_summary(fused):
    if fused is None:
        return None
    ops = []
    for op in tuple(fused.prefix) + tuple(fused.ops):
        if isinstance(op, KernelOp):
            # Rounded, and -0.0 folded into 0.0, so the digest pins the
            # kernels, not the last bit of a BLAS build's arithmetic.
            matrix = np.round(op.matrix, 10) + 0.0
            digest = hashlib.sha256(matrix.tobytes()).hexdigest()[:16]
            ops.append(["kernel", list(op.qubits), op.gates, digest])
        else:
            ops.append([type(op).__name__, op.slot])
    return [fused.num_slots, list(fused.columns), fused.source_gates,
            len(fused.prefix), ops]


def _schedule_corpus():
    with open(RECORD_ORDER) as handle:
        record_order = handle.read()
    corpus = [("record_order", record_order, None)]
    for addressing in ("static", "dynamic"):
        corpus += [
            (f"bell-{addressing}", bell_qir(addressing), None),
            (f"ghz5-{addressing}", ghz_qir(5, addressing), None),
            (f"qft4-{addressing}", qft_qir(4, addressing), None),
        ]
        corpus += [
            (f"random4x5s{seed}-{addressing}",
             random_qir(4, 5, seed=seed, addressing=addressing), None)
            for seed in range(3)
        ]
    corpus += [
        ("loop4-unroll", counted_loop_qir(4), "unroll"),
        ("ladder3x16", rotation_ladder_qir(3, depth=16), None),
        ("reset_chain3x3", reset_chain_qir(3, rounds=3), None),
        ("vqe", vqe_ansatz_qir((0.4, 1.1, -0.7, 0.25), "xx"), None),
        ("legacy3", ghz_qir_legacy(3), None),
        ("preamble3.reset", _clifford_preamble_program(reset=True), None),
    ]
    return corpus


#: The schedules of :func:`_schedule_corpus`, as the static single-block
#: matcher built them before the recording replaced it: every program it
#: specialized records the same slots, columns and kernels.
SCHEDULE_CORPUS_DIGEST = "9c1add889b98eb4a4a870c2cc2128f4d9bbe6df8ac2da5c14c6adbb36f997ebe"


def test_recorded_schedules_match_the_static_matcher_digest():
    records = [
        [name, _schedule_summary(compile_plan(text, pipeline=pipeline).fused)]
        for name, text, pipeline in _schedule_corpus()
    ]
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == SCHEDULE_CORPUS_DIGEST


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
    # Feedback on a measured value declines the recording, so there is
    # no fused schedule to compare against.
    plan = compile_plan(teleportation_qir(0.7), verify=False)
    with pytest.raises(ValueError, match="not specializable"):
        fusion_arms(plan, shots=4)


def test_dist_warm_arms_reject_plans_that_never_memoize():
    # A 13-qubit QFT of |0> is uniform over 2**13 outcomes, past the
    # cached-support cap, so the plan never becomes warm.
    plan = compile_plan(qft_qir(13, addressing="static"), verify=False)
    with pytest.raises(ValueError, match="did not memoize"):
        dist_warm_arms(plan, shots=4)
