"""PASS: Section II-C -- the classical pipeline QIR "inherits for free".

Shape claims (DESIGN.md):
* the pipeline (fold / propagate / DCE / simplify / mem2reg) shrinks
  adaptive and full QIR programs;
* it never changes simulated measurement distributions (checked exactly
  with matched seeds), also on programs whose counts hang on an exact
  scalar semantics (an unsigned loop bound, signed division past 2**53).
"""

import pytest

from repro.llvmir import parse_assembly
from repro.passes import (
    ConstantFoldPass,
    ConstantPropagationPass,
    DeadCodeEliminationPass,
    Mem2RegPass,
    SimplifyCFGPass,
    default_pipeline,
    o1_pipeline,
)
from repro.runtime import compile_plan, run_shots
from repro.workloads.qec import repetition_code_qir
from repro.workloads.qir_programs import counted_loop_qir

from conftest import report


def _bloated_program() -> str:
    """An unoptimised front-end-style program: spilled values, dead code,
    foldable arithmetic around a quantum core."""
    return """
    define void @main() #0 {
    entry:
      %slot = alloca i64, align 8
      store i64 4, ptr %slot, align 8
      %a = load i64, ptr %slot, align 8
      %b = add i64 %a, 0
      %c = mul i64 %b, 1
      %dead = mul i64 %c, 77
      %addr = sub i64 %c, 3
      %q = inttoptr i64 %addr to ptr
      call void @__quantum__qis__h__body(ptr %q)
      %cond = icmp slt i64 1, 2
      br i1 %cond, label %always, label %never
    always:
      call void @__quantum__qis__mz__body(ptr %q, ptr writeonly null)
      br label %done
    never:
      call void @__quantum__qis__x__body(ptr %q)
      br label %done
    done:
      ret void
    }
    declare void @__quantum__qis__h__body(ptr)
    declare void @__quantum__qis__x__body(ptr)
    declare void @__quantum__qis__mz__body(ptr, ptr writeonly)
    attributes #0 = { "entry_point" "qir_profiles"="full" "required_num_qubits"="2" "required_num_results"="1" }
    !llvm.module.flags = !{!0}
    !0 = !{i32 1, !"qir_major_version", i32 1}
    """


def _x_program(body: str) -> str:
    """``body`` (which must end by branching to %measure) followed by a
    measurement of qubit 0."""
    return f"""
    define void @main() #0 {{
    entry:
    {body}
    measure:
      call void @__quantum__qis__mz__body(ptr null, ptr writeonly null)
      ret void
    }}
    declare void @__quantum__qis__x__body(ptr)
    declare void @__quantum__qis__mz__body(ptr, ptr writeonly)
    attributes #0 = {{ "entry_point" "required_num_qubits"="1" "required_num_results"="1" }}
    """


#: Each flips qubit 0 only if the pipeline evaluates the arithmetic as the
#: interpreter does.
_SEMANTICS_PROGRAMS = {
    # 129 iterations: the bound is unsigned (it is -127 read signed).
    "unsigned loop bound": _x_program("""
      br label %header
    header:
      %i = phi i8 [ 0, %entry ], [ %next, %body ]
      %more = icmp ult i8 %i, 129
      br i1 %more, label %body, label %measure
    body:
      call void @__quantum__qis__x__body(ptr null)
      %next = add i8 %i, 1
      br label %header"""),
    # (2**53 + 1) is odd; a division through a double would round it even.
    "sdiv past 2**53": _x_program("""
      %q = sdiv i64 9007199254740993, 1
      %r = srem i64 %q, 2
      %odd = icmp eq i64 %r, 1
      br i1 %odd, label %flip, label %measure
    flip:
      call void @__quantum__qis__x__body(ptr null)
      br label %measure"""),
}


_PASSES = {
    "mem2reg": Mem2RegPass,
    "constant-fold": ConstantFoldPass,
    "constprop": ConstantPropagationPass,
    "dce": DeadCodeEliminationPass,
    "simplify-cfg": SimplifyCFGPass,
}


@pytest.mark.parametrize("pass_name", list(_PASSES))
def test_individual_pass_cost(benchmark, pass_name):
    text = counted_loop_qir(32)

    def run_pass():
        module = parse_assembly(text)
        _PASSES[pass_name]().run_on_module(module)
        return module

    benchmark(run_pass)


def test_o1_pipeline_cost(benchmark):
    text = _bloated_program()

    def run():
        module = parse_assembly(text)
        o1_pipeline().run(module)
        return module

    benchmark(run)


def test_pass_shape(benchmark):
    """Shrinkage table + exact distribution preservation."""
    text = _bloated_program()
    module = parse_assembly(text)
    before_size = len(module.get_function("main"))
    before_counts = run_shots(text, shots=600, seed=21).counts

    benchmark(lambda: default_pipeline().run(parse_assembly(text)))

    default_pipeline().run(module)
    after_size = len(module.get_function("main"))
    after_counts = run_shots(module, shots=600, seed=21).counts

    rep3 = parse_assembly(repetition_code_qir(3, classical_work=6))
    rep_before = rep3.instruction_count()
    rep_counts_before = run_shots(rep3, shots=200, seed=22).counts
    o1_pipeline().run(rep3)
    rep_after = rep3.instruction_count()
    rep_counts_after = run_shots(rep3, shots=200, seed=22).counts

    for name, program in _SEMANTICS_PROGRAMS.items():
        raw = run_shots(program, shots=50, seed=23).counts
        assert raw == {"1": 50}, name
        for pipeline in ("o1", "unroll"):
            optimized = compile_plan(program, pipeline=pipeline)
            assert run_shots(optimized, shots=50, seed=23).counts == raw, (name, pipeline)

    report(
        "PASS pipeline shrinkage (instructions)",
        [
            ("bloated hybrid program", before_size, after_size),
            ("repetition code d=3", rep_before, rep_after),
        ],
        header=("program", "before", "after"),
    )
    assert after_size < before_size / 2
    assert rep_after <= rep_before
    assert before_counts == after_counts
    assert rep_counts_before == rep_counts_after
