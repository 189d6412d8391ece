"""The compile phase: content hashing, plan keys, and compile_plan."""

import dataclasses

import pytest

from repro.llvmir import parse_assembly
from repro.obs.observer import Observer
from repro.runtime import ExecutionPlan, compile_plan, content_hash, plan_key
from repro.workloads.qir_programs import bell_qir, counted_loop_qir

T_GATE_PROGRAM = """
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__t__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__t__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="1" }
"""


def _instruction_count(module) -> int:
    return sum(
        len(block.instructions)
        for fn in module.defined_functions()
        for block in fn.blocks
    )


class TestContentHash:
    def test_stable_for_same_text(self):
        text = bell_qir("static")
        assert content_hash(text) == content_hash(text)

    def test_differs_for_different_text(self):
        assert content_hash(bell_qir("static")) != content_hash(T_GATE_PROGRAM)

    def test_module_hashes_its_printed_form(self):
        module = parse_assembly(T_GATE_PROGRAM)
        digest = content_hash(module)
        assert len(digest) == 64
        assert digest == content_hash(module)


class TestPlanKey:
    def test_key_shape(self):
        assert plan_key("abc", "o1", "statevector", "main") == "abc:o1:statevector:main"

    def test_missing_parts_become_dashes(self):
        assert plan_key("abc", None, "stabilizer", None) == "abc:-:stabilizer:-"


class TestCompilePlan:
    def test_basic_plan_analysis(self):
        plan = compile_plan(bell_qir("static"))
        assert plan.entry_point == "main"
        assert plan.required_qubits == 2
        assert plan.required_results == 2
        assert plan.is_clifford
        assert plan.verified
        assert plan.key == plan_key(plan.source_hash, None, "statevector", None)

    def test_non_clifford_program_is_flagged(self):
        plan = compile_plan(T_GATE_PROGRAM)
        assert not plan.is_clifford

    def test_plans_are_frozen(self):
        plan = compile_plan(bell_qir("static"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.backend = "stabilizer"

    def test_unknown_pipeline_raises(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            compile_plan(bell_qir("static"), pipeline="nope")

    def test_named_pipeline_runs_and_names_the_key(self):
        plan = compile_plan(counted_loop_qir(4), pipeline="unroll")
        assert plan.pipeline == "unroll"
        assert plan.key.split(":")[1] == "unroll"
        # The pipeline really ran: the unrolled module differs from the
        # pipeline-free parse of the same source.
        baseline = compile_plan(counted_loop_qir(4))
        assert _instruction_count(plan.module) != _instruction_count(baseline.module)

    def test_callable_pipeline_is_accepted(self):
        from repro.passes.pipeline import unroll_pipeline

        plan = compile_plan(counted_loop_qir(4), pipeline=unroll_pipeline)
        assert plan.pipeline == "unroll_pipeline"

    def test_verify_false_skips_the_verifier(self):
        # An undeclared intrinsic fails verification but parses fine.
        broken = """
define void @main() #0 {
entry:
  call void @__quantum__rt__bogus(ptr null)
  ret void
}
declare void @__quantum__rt__bogus(ptr)
attributes #0 = { "entry_point" }
"""
        plan = compile_plan(broken, verify=False)
        assert not plan.verified

    def test_observer_records_compile_metrics(self):
        observer = Observer()
        plan = compile_plan(bell_qir("static"), observer=observer)
        assert isinstance(plan, ExecutionPlan)
        snapshot = observer.snapshot()
        counters = snapshot["counters"]
        assert any(k.startswith("plan.compiled") for k in counters)
        assert "plan.compile_seconds" in snapshot["histograms"]
        span_names = [e["name"] for e in observer.tracer.events]
        assert "plan.compile" in span_names

    def test_describe_mentions_identity(self):
        plan = compile_plan(bell_qir("static"))
        text = plan.describe()
        assert plan.short_hash in text
        assert "backend=statevector" in text


class TestPlanWireFormat:
    """Tentpole: to_bytes/from_bytes round-trips for process workers and
    the disk cache."""

    def test_round_trip_preserves_identity_and_analysis(self):
        from repro.runtime import ExecutionPlan

        plan = compile_plan(bell_qir("static"), pipeline="o1")
        clone = ExecutionPlan.from_bytes(plan.to_bytes())
        assert clone.source_hash == plan.source_hash
        assert clone.key == plan.key
        assert clone.backend == plan.backend
        assert clone.pipeline == plan.pipeline
        assert clone.entry_point == plan.entry_point
        assert clone.profile == plan.profile
        assert clone.required_qubits == plan.required_qubits
        assert clone.required_results == plan.required_results
        assert clone.is_clifford == plan.is_clifford
        assert clone.verified == plan.verified

    def test_round_trip_module_prints_identically(self):
        from repro.llvmir.printer import print_module
        from repro.runtime import ExecutionPlan

        plan = compile_plan(counted_loop_qir(4), pipeline="unroll")
        clone = ExecutionPlan.from_bytes(plan.to_bytes())
        # The post-pipeline module survives byte-for-byte: the decoder
        # must never re-run (or need) the pass pipeline.
        assert print_module(clone.module) == print_module(plan.module)

    def test_round_trip_executes_identically(self):
        from repro.runtime import ExecutionPlan, QirRuntime

        plan = compile_plan(bell_qir("static"))
        clone = ExecutionPlan.from_bytes(plan.to_bytes())
        a = QirRuntime(seed=5).run_shots(plan, shots=30, sampling="never")
        b = QirRuntime(seed=5).run_shots(clone, shots=30, sampling="never")
        assert a.counts == b.counts

    def test_garbage_bytes_raise_decode_error(self):
        from repro.runtime import ExecutionPlan, PlanDecodeError

        with pytest.raises(PlanDecodeError, match="not a serialized plan"):
            ExecutionPlan.from_bytes(b"\x00\x01 not json")
        with pytest.raises(PlanDecodeError, match="no SHA-256 seal"):
            ExecutionPlan.from_bytes(b'["a", "list"]')

    def test_tampered_module_text_raises(self):
        import json as json_mod

        from repro.runtime import ExecutionPlan, PlanDecodeError

        plan = compile_plan(bell_qir("static"))
        payload = json_mod.loads(plan.to_bytes())
        payload["module_text"] += "\n; tampered"
        with pytest.raises(PlanDecodeError, match="hash"):
            ExecutionPlan.from_bytes(json_mod.dumps(payload).encode())

    def test_newer_wire_version_rejected(self):
        import json as json_mod

        from repro.runtime import ExecutionPlan, PlanDecodeError
        from repro.runtime.plan import PLAN_WIRE_VERSION, encode_payload

        plan = compile_plan(bell_qir("static"))
        payload = json_mod.loads(plan.to_bytes())
        del payload["sha256"]
        payload["wire_version"] = PLAN_WIRE_VERSION + 1
        with pytest.raises(PlanDecodeError, match="does not match supported"):
            ExecutionPlan.from_bytes(encode_payload(payload))
