"""Interpreter tests over purely classical programs (the `lli` role)."""

import math

import pytest

from repro.llvmir import parse_assembly
from repro.runtime.errors import StepLimitExceeded, TrapError, UnboundFunctionError
from repro.runtime.interpreter import Interpreter
from repro.sim.statevector import StatevectorSimulator


def run(src, fn="f", args=(), step_limit=10_000_000):
    m = parse_assembly(src)
    interp = Interpreter(m, StatevectorSimulator(0), step_limit=step_limit)
    return interp.call_function(m.get_function(fn), list(args))


class TestArithmetic:
    def test_add_wraps(self):
        assert run(
            "define i8 @f() {\nentry:\n  %x = add i8 127, 1\n  ret i8 %x\n}"
        ) == -128

    def test_sdiv_truncates_toward_zero(self):
        assert run(
            "define i32 @f() {\nentry:\n  %x = sdiv i32 -7, 2\n  ret i32 %x\n}"
        ) == -3

    def test_division_by_zero_traps(self):
        with pytest.raises(TrapError):
            run("define i32 @f() {\nentry:\n  %x = sdiv i32 1, 0\n  ret i32 %x\n}")

    def test_unsigned_ops(self):
        assert run(
            "define i8 @f() {\nentry:\n  %x = udiv i8 -1, 16\n  ret i8 %x\n}"
        ) == 15

    def test_float_arithmetic(self):
        assert run(
            "define double @f() {\nentry:\n"
            "  %x = fmul double 1.5, 4.0\n  ret double %x\n}"
        ) == 6.0

    def test_shifts(self):
        assert run(
            "define i32 @f() {\nentry:\n  %x = shl i32 1, 10\n  ret i32 %x\n}"
        ) == 1024
        assert run(
            "define i32 @f() {\nentry:\n  %x = ashr i32 -16, 2\n  ret i32 %x\n}"
        ) == -4

    def test_casts(self):
        assert run(
            "define i64 @f() {\nentry:\n  %x = zext i8 -1 to i64\n  ret i64 %x\n}"
        ) == 255
        assert run(
            "define i32 @f() {\nentry:\n"
            "  %x = fptosi double 3.7 to i32\n  ret i32 %x\n}"
        ) == 3

    @pytest.mark.parametrize("op", ["fptosi", "fptoui"])
    @pytest.mark.parametrize(
        "value", ["0x7FF8000000000000", "0x7FF0000000000000", "0xFFF0000000000000"],
        ids=["nan", "inf", "-inf"],
    )
    def test_float_to_int_of_non_finite_traps(self, op, value):
        with pytest.raises(TrapError, match=op):
            run(
                "define i32 @f() {\nentry:\n"
                f"  %x = {op} double {value} to i32\n  ret i32 %x\n}}"
            )

    def test_frem_of_infinity_is_nan(self):
        assert math.isnan(
            run(
                "define double @f() {\nentry:\n"
                "  %x = frem double 0x7FF0000000000000, 1.0\n  ret double %x\n}"
            )
        )

    def test_icmp_unsigned_vs_signed(self):
        assert run(
            "define i1 @f() {\nentry:\n  %x = icmp ult i32 -1, 0\n  ret i1 %x\n}"
        ) == 0
        assert run(
            "define i1 @f() {\nentry:\n  %x = icmp slt i32 -1, 0\n  ret i1 %x\n}"
        ) == 1

    def test_fcmp_nan_semantics(self):
        src = (
            "define i1 @f() {\nentry:\n"
            "  %nan = fdiv double 0.0, 0.0\n"
            "  %x = fcmp %PRED double %nan, 1.0\n  ret i1 %x\n}"
        )
        assert run(src.replace("%PRED", "olt")) == 0  # ordered: false on NaN
        assert run(src.replace("%PRED", "ult")) == 1  # unordered: true on NaN

    def test_select(self):
        assert run(
            "define i32 @f(i1 %c) {\nentry:\n"
            "  %x = select i1 %c, i32 10, i32 20\n  ret i32 %x\n}",
            args=[1],
        ) == 10


class TestControlFlow:
    FIB = """
    define i64 @fib(i64 %n) {
    entry:
      %small = icmp sle i64 %n, 1
      br i1 %small, label %base, label %loop_pre
    base:
      ret i64 %n
    loop_pre:
      br label %loop
    loop:
      %i = phi i64 [ 2, %loop_pre ], [ %i_next, %loop ]
      %a = phi i64 [ 0, %loop_pre ], [ %b, %loop ]
      %b = phi i64 [ 1, %loop_pre ], [ %sum, %loop ]
      %sum = add i64 %a, %b
      %i_next = add i64 %i, 1
      %done = icmp sgt i64 %i_next, %n
      br i1 %done, label %out, label %loop
    out:
      ret i64 %sum
    }
    """

    def test_fibonacci_loop(self):
        assert run(self.FIB, fn="fib", args=[10]) == 55
        assert run(self.FIB, fn="fib", args=[1]) == 1
        assert run(self.FIB, fn="fib", args=[20]) == 6765

    def test_phi_simultaneous_semantics(self):
        # Swapping phis: a, b = b, a each iteration -- classic phi gotcha.
        src = """
        define i32 @f() {
        entry:
          br label %loop
        loop:
          %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
          %a = phi i32 [ 1, %entry ], [ %b, %loop ]
          %b = phi i32 [ 2, %entry ], [ %a, %loop ]
          %i2 = add i32 %i, 1
          %done = icmp sge i32 %i2, 3
          br i1 %done, label %out, label %loop
        out:
          ret i32 %a
        }
        """
        # Simultaneous phi reads: (a,b) swaps each iteration, so the loop
        # sees (1,2) -> (2,1) -> (1,2) and exits with a == 1.  A sequential
        # (wrong) implementation would compute a = b = 2.
        assert run(src) == 1

    def test_switch_dispatch(self):
        src = """
        define i32 @f(i32 %x) {
        entry:
          switch i32 %x, label %other [ i32 0, label %zero
                                        i32 1, label %one ]
        zero:
          ret i32 100
        one:
          ret i32 200
        other:
          ret i32 300
        }
        """
        assert run(src, args=[0]) == 100
        assert run(src, args=[1]) == 200
        assert run(src, args=[7]) == 300

    @pytest.mark.parametrize("true", [1, -1])
    def test_switch_on_i1_matches_either_representative(self, true):
        """`read_result` hands back 1 while the constant `i1 1` reads -1
        signed; a case matches as `icmp eq` does, modulo 2**N."""
        src = """
        define i32 @f(i1 %x) {
        entry:
          switch i1 %x, label %other [ i1 1, label %one ]
        one:
          ret i32 200
        other:
          ret i32 300
        }
        """
        assert run(src, args=[true]) == 200
        assert run(src, args=[0]) == 300

    def test_unreachable_traps(self):
        with pytest.raises(TrapError):
            run("define void @f() {\nentry:\n  unreachable\n}")

    def test_step_limit(self):
        src = """
        define void @f() {
        entry:
          br label %spin
        spin:
          %x = add i32 0, 0
          br label %spin
        }
        """
        with pytest.raises(StepLimitExceeded):
            run(src, step_limit=1000)


class TestMemory:
    def test_alloca_store_load(self):
        assert run(
            """
            define i32 @f() {
            entry:
              %p = alloca i32
              store i32 99, ptr %p
              %v = load i32, ptr %p
              ret i32 %v
            }
            """
        ) == 99

    def test_array_gep(self):
        assert run(
            """
            define i32 @f() {
            entry:
              %arr = alloca [4 x i32]
              %p2 = getelementptr [4 x i32], ptr %arr, i64 0, i64 2
              store i32 7, ptr %p2
              %p0 = getelementptr [4 x i32], ptr %arr, i64 0, i64 0
              store i32 1, ptr %p0
              %v = load i32, ptr %p2
              ret i32 %v
            }
            """
        ) == 7

    def test_uninitialised_load_rejected(self):
        from repro.runtime.errors import QirRuntimeError

        with pytest.raises(QirRuntimeError, match="uninitialised"):
            run(
                """
                define i32 @f() {
                entry:
                  %p = alloca i32
                  %v = load i32, ptr %p
                  ret i32 %v
                }
                """
            )

    def test_global_string_byte_load(self):
        assert run(
            """
            @msg = internal constant [3 x i8] c"AB\\00"
            define i8 @f() {
            entry:
              %p = getelementptr [3 x i8], ptr @msg, i64 0, i64 1
              %v = load i8, ptr %p
              ret i8 %v
            }
            """
        ) == ord("B")


class TestCalls:
    def test_user_function_call(self):
        src = """
        define i32 @double(i32 %x) {
        entry:
          %r = add i32 %x, %x
          ret i32 %r
        }
        define i32 @f() {
        entry:
          %v = call i32 @double(i32 21)
          ret i32 %v
        }
        """
        assert run(src) == 42

    def test_recursion(self):
        src = """
        define i64 @fact(i64 %n) {
        entry:
          %stop = icmp sle i64 %n, 1
          br i1 %stop, label %base, label %rec
        base:
          ret i64 1
        rec:
          %n1 = sub i64 %n, 1
          %sub = call i64 @fact(i64 %n1)
          %r = mul i64 %n, %sub
          ret i64 %r
        }
        """
        assert run(src, fn="fact", args=[10]) == 3628800

    def test_unbound_declaration_raises(self):
        with pytest.raises(UnboundFunctionError):
            run(
                """
                declare void @mystery()
                define void @f() {
                entry:
                  call void @mystery()
                  ret void
                }
                """
            )


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    op=st.sampled_from(["trunc", "zext", "sext"]),
    value=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    src_bits=st.sampled_from([8, 16, 32]),
    dst_bits=st.sampled_from([8, 16, 32, 64]),
)
@settings(max_examples=80, deadline=None)
def test_cast_folding_matches_interpreter(op, value, src_bits, dst_bits):
    """Property: the constant folder and the interpreter agree on casts."""
    if op == "trunc" and dst_bits >= src_bits:
        dst_bits = max(1, src_bits // 2)
    if op in ("zext", "sext") and dst_bits <= src_bits:
        dst_bits = src_bits * 2
    from repro.llvmir.types import IntType

    wrapped = IntType(src_bits).wrap(value)
    src = (
        f"define i{dst_bits} @f() {{\nentry:\n"
        f"  %x = {op} i{src_bits} {wrapped} to i{dst_bits}\n"
        f"  ret i{dst_bits} %x\n}}"
    )
    from repro.llvmir import parse_assembly
    from repro.passes import ConstantFoldPass

    m = parse_assembly(src)
    interpreted = run(src)
    ConstantFoldPass().run_on_module(m)
    folded = m.get_function("f").entry_block.terminator.return_value
    assert folded.value == interpreted


@given(
    pred=st.sampled_from(["eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"]),
    a=st.integers(min_value=-(2**15), max_value=2**15 - 1),
    b=st.integers(min_value=-(2**15), max_value=2**15 - 1),
)
@settings(max_examples=80, deadline=None)
def test_icmp_folding_matches_interpreter(pred, a, b):
    src = (
        f"define i1 @f() {{\nentry:\n"
        f"  %x = icmp {pred} i16 {a}, {b}\n  ret i1 %x\n}}"
    )
    from repro.llvmir import parse_assembly
    from repro.passes import ConstantFoldPass
    from repro.llvmir.types import i1 as i1_type

    interpreted = run(src)
    m = parse_assembly(src)
    ConstantFoldPass().run_on_module(m)
    folded = m.get_function("f").entry_block.terminator.return_value
    assert i1_type.to_unsigned(folded.value) == interpreted
