"""Unit tests for loop unrolling (paper, Example 4)."""

import pytest

from repro.analysis.dataflow import count_opcodes, quantum_call_sites
from repro.llvmir import parse_assembly, verify_module
from repro.passes import (
    ConstantPropagationPass,
    LoopUnrollPass,
    Mem2RegPass,
    unroll_pipeline,
)
from repro.runtime.interpreter import Interpreter
from repro.sim.statevector import StatevectorSimulator
from repro.workloads.qir_programs import counted_loop_qir


def execute(m, fn_name="f", args=()):
    fn = m.get_function(fn_name)
    return Interpreter(m, StatevectorSimulator(0)).call_function(fn, list(args))


def ssa_loop(count, step=1, pred="slt", init=0):
    return f"""
    define i32 @f() {{
    entry:
      br label %h
    h:
      %i = phi i32 [ {init}, %entry ], [ %n, %b ]
      %acc = phi i32 [ 0, %entry ], [ %acc2, %b ]
      %c = icmp {pred} i32 %i, {count}
      br i1 %c, label %b, label %e
    b:
      %acc2 = add i32 %acc, %i
      %n = add i32 %i, {step}
      br label %h
    e:
      ret i32 %acc
    }}
    """


class TestTripCountAnalysis:
    def test_simple_count(self):
        m = parse_assembly(ssa_loop(5))
        assert LoopUnrollPass().run_on_module(m)
        verify_module(m)
        from repro.analysis.loops import find_natural_loops

        assert len(find_natural_loops(m.get_function("f"))) == 0
        assert execute(m) == 0 + 1 + 2 + 3 + 4

    def test_zero_trips(self):
        m = parse_assembly(ssa_loop(0))
        assert LoopUnrollPass().run_on_module(m)
        verify_module(m)
        assert execute(m) == 0

    def test_step_two(self):
        m = parse_assembly(ssa_loop(10, step=2))
        LoopUnrollPass().run_on_module(m)
        verify_module(m)
        assert execute(m) == 0 + 2 + 4 + 6 + 8

    def test_sle_predicate(self):
        m = parse_assembly(ssa_loop(3, pred="sle"))
        LoopUnrollPass().run_on_module(m)
        verify_module(m)
        assert execute(m) == 0 + 1 + 2 + 3

    def test_ne_predicate(self):
        m = parse_assembly(ssa_loop(4, pred="ne"))
        LoopUnrollPass().run_on_module(m)
        verify_module(m)
        assert execute(m) == 0 + 1 + 2 + 3

    def test_downward_loop(self):
        src = """
        define i32 @f() {
        entry:
          br label %h
        h:
          %i = phi i32 [ 5, %entry ], [ %n, %b ]
          %acc = phi i32 [ 0, %entry ], [ %acc2, %b ]
          %c = icmp sgt i32 %i, 0
          br i1 %c, label %b, label %e
        b:
          %acc2 = add i32 %acc, %i
          %n = sub i32 %i, 1
          br label %h
        e:
          ret i32 %acc
        }
        """
        m = parse_assembly(src)
        assert LoopUnrollPass().run_on_module(m)
        verify_module(m)
        assert execute(m) == 15

    def test_trip_count_cap_respected(self):
        m = parse_assembly(ssa_loop(100))
        assert not LoopUnrollPass(max_trip_count=50).run_on_module(m)

    def test_non_constant_bound_not_unrolled(self):
        src = """
        define i32 @f(i32 %n) {
        entry:
          br label %h
        h:
          %i = phi i32 [ 0, %entry ], [ %next, %b ]
          %c = icmp slt i32 %i, %n
          br i1 %c, label %b, label %e
        b:
          %next = add i32 %i, 1
          br label %h
        e:
          ret i32 %i
        }
        """
        m = parse_assembly(src)
        assert not LoopUnrollPass().run_on_module(m)
        assert execute(m, args=[7]) == 7

    def test_infinite_loop_not_unrolled(self):
        src = """
        define void @f() {
        entry:
          br label %h
        h:
          %i = phi i32 [ 0, %entry ], [ %n, %h2 ]
          %c = icmp sge i32 %i, 0
          br i1 %c, label %h2, label %e
        h2:
          %n = add i32 %i, 0
          br label %h
        e:
          ret void
        }
        """
        m = parse_assembly(src)
        assert not LoopUnrollPass(max_trip_count=64).run_on_module(m)


class TestPaperExample4:
    def test_loop_becomes_n_gates(self):
        m = parse_assembly(counted_loop_qir(10, measure=False))
        unroll_pipeline().run(m)
        verify_module(m)
        fn = m.get_function("main")
        assert len(fn.blocks) == 1
        assert len(quantum_call_sites(fn)) == 10
        counts = count_opcodes(fn)
        assert counts["br"] == 0 and counts["phi"] == 0 and counts["icmp"] == 0

    def test_each_qubit_addressed_once(self):
        from repro.llvmir.values import ConstantNull, ConstantPointerInt

        m = parse_assembly(counted_loop_qir(6, measure=False))
        unroll_pipeline().run(m)
        fn = m.get_function("main")
        addresses = []
        for call in quantum_call_sites(fn):
            arg = call.operands[0]
            if isinstance(arg, ConstantNull):
                addresses.append(0)
            elif isinstance(arg, ConstantPointerInt):
                addresses.append(arg.address)
        assert sorted(addresses) == list(range(6))

    def test_execution_equivalent_before_and_after(self):
        from repro.runtime import run_shots

        text = counted_loop_qir(4)
        before = run_shots(text, shots=400, seed=9).counts
        m = parse_assembly(text)
        unroll_pipeline().run(m)
        after = run_shots(m, shots=400, seed=9).counts
        assert before == after


class TestLoopCarriedValues:
    def test_accumulator_chain(self):
        m = parse_assembly(ssa_loop(8))
        LoopUnrollPass().run_on_module(m)
        ConstantPropagationPass().run_on_module(m)
        verify_module(m)
        assert execute(m) == sum(range(8))

    def test_nested_loops_unroll_inner_first(self):
        src = """
        define i32 @f() {
        entry:
          br label %oh
        oh:
          %i = phi i32 [ 0, %entry ], [ %i2, %ol ]
          %acc = phi i32 [ 0, %entry ], [ %acc_out, %ol ]
          %oc = icmp slt i32 %i, 3
          br i1 %oc, label %ih, label %exit
        ih:
          %j = phi i32 [ 0, %oh ], [ %j2, %ib ]
          %acc_in = phi i32 [ %acc, %oh ], [ %acc2, %ib ]
          %ic = icmp slt i32 %j, 2
          br i1 %ic, label %ib, label %ol
        ib:
          %acc2 = add i32 %acc_in, 1
          %j2 = add i32 %j, 1
          br label %ih
        ol:
          %acc_out = phi i32 [ %acc_in, %ih ]
          %i2 = add i32 %i, 1
          br label %oh
        exit:
          ret i32 %acc
        }
        """
        m = parse_assembly(src)
        changed = LoopUnrollPass().run_on_module(m)
        verify_module(m)
        assert changed
        assert execute(m) == 6  # 3 * 2


def test_unsigned_bound_keeps_counts():
    """`icmp ult i8 %i, 129` runs 129 iterations: the trip count reads the
    bound unsigned, as the interpreter does (129 is -127 signed)."""
    from repro.runtime import QirRuntime, compile_plan

    text = """
    define void @main() #0 {
    entry:
      br label %header
    header:
      %i = phi i8 [ 0, %entry ], [ %next, %body ]
      %more = icmp ult i8 %i, 129
      br i1 %more, label %body, label %exit
    body:
      call void @__quantum__qis__x__body(ptr null)
      %next = add i8 %i, 1
      br label %header
    exit:
      call void @__quantum__qis__mz__body(ptr null, ptr writeonly null)
      ret void
    }
    declare void @__quantum__qis__x__body(ptr)
    declare void @__quantum__qis__mz__body(ptr, ptr writeonly)
    attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="1" }
    """
    plan = compile_plan(text, pipeline="unroll")
    assert count_opcodes(plan.module.get_function("main")).get("phi", 0) == 0
    raw = QirRuntime(seed=1).run_shots(text, shots=20).counts
    assert raw == {"1": 20}
    assert QirRuntime(seed=1).run_shots(plan, shots=20).counts == raw
