"""Unit tests for constant folding and simplification identities."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llvmir import parse_assembly, verify_module
from repro.llvmir.instructions import ReturnInst
from repro.llvmir.values import ConstantFloat, ConstantInt, ConstantNull
from repro.passes import ConstantFoldPass
from repro.runtime.errors import TrapError


def fold(src):
    m = parse_assembly(src)
    ConstantFoldPass().run_on_module(m)
    verify_module(m)
    return m


def returned_constant(m, name="f"):
    term = m.get_function(name).entry_block.terminator
    assert isinstance(term, ReturnInst)
    return term.return_value


class TestIntegerFolding:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("add i32 3, 4", 7),
            ("sub i32 3, 4", -1),
            ("mul i32 6, 7", 42),
            ("sdiv i32 -7, 2", -3),  # C-style truncation toward zero
            ("udiv i32 7, 2", 3),
            ("srem i32 -7, 2", -1),
            ("urem i32 7, 3", 1),
            ("and i32 12, 10", 8),
            ("or i32 12, 10", 14),
            ("xor i32 12, 10", 6),
            ("shl i32 1, 5", 32),
            ("lshr i32 -1, 28", 15),
            ("ashr i32 -8, 2", -2),
        ],
    )
    def test_binary_folds(self, expr, expected):
        m = fold(f"define i32 @f() {{\nentry:\n  %x = {expr}\n  ret i32 %x\n}}")
        assert returned_constant(m).value == expected

    def test_add_wraps(self):
        m = fold(
            "define i8 @f() {\nentry:\n  %x = add i8 127, 1\n  ret i8 %x\n}"
        )
        assert returned_constant(m).value == -128

    def test_div_by_zero_not_folded(self):
        m = fold(
            "define i32 @f() {\nentry:\n  %x = sdiv i32 1, 0\n  ret i32 %x\n}"
        )
        # stays an instruction: folding must not hide the trap
        assert not isinstance(returned_constant(m), ConstantInt)


class TestIcmpFolding:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("icmp eq i32 3, 3", 1),
            ("icmp ne i32 3, 3", 0),
            ("icmp slt i32 -1, 0", 1),
            ("icmp ult i32 -1, 0", 0),  # -1 is max unsigned
            ("icmp sge i32 5, 5", 1),
            ("icmp ugt i32 2, 3", 0),
        ],
    )
    def test_icmp(self, expr, expected):
        m = fold(f"define i1 @f() {{\nentry:\n  %x = {expr}\n  ret i1 %x\n}}")
        assert returned_constant(m).value in (expected, -expected)

    def test_pointer_icmp(self):
        m = fold(
            "define i1 @f() {\nentry:\n"
            "  %x = icmp eq ptr null, inttoptr (i64 1 to ptr)\n"
            "  ret i1 %x\n}"
        )
        assert returned_constant(m).value == 0


class TestFloatAndCasts:
    def test_fadd(self):
        m = fold(
            "define double @f() {\nentry:\n"
            "  %x = fadd double 1.5, 2.5\n  ret double %x\n}"
        )
        assert returned_constant(m).value == 4.0

    def test_sitofp(self):
        m = fold(
            "define double @f() {\nentry:\n"
            "  %x = sitofp i32 3 to double\n  ret double %x\n}"
        )
        assert returned_constant(m).value == 3.0

    def test_zext(self):
        m = fold(
            "define i64 @f() {\nentry:\n"
            "  %x = zext i8 -1 to i64\n  ret i64 %x\n}"
        )
        assert returned_constant(m).value == 255

    def test_sext(self):
        m = fold(
            "define i64 @f() {\nentry:\n"
            "  %x = sext i8 -1 to i64\n  ret i64 %x\n}"
        )
        assert returned_constant(m).value == -1

    def test_trunc(self):
        m = fold(
            "define i8 @f() {\nentry:\n"
            "  %x = trunc i32 257 to i8\n  ret i8 %x\n}"
        )
        assert returned_constant(m).value == 1

    def test_inttoptr_becomes_static_address(self):
        m = fold(
            "define ptr @f() {\nentry:\n"
            "  %x = inttoptr i64 3 to ptr\n  ret ptr %x\n}"
        )
        from repro.llvmir.values import ConstantPointerInt

        got = returned_constant(m)
        assert isinstance(got, ConstantPointerInt) and got.address == 3

    def test_inttoptr_zero_becomes_null(self):
        m = fold(
            "define ptr @f() {\nentry:\n"
            "  %x = inttoptr i64 0 to ptr\n  ret ptr %x\n}"
        )
        assert isinstance(returned_constant(m), ConstantNull)


class TestIdentities:
    @pytest.mark.parametrize(
        "expr",
        ["add i32 %a, 0", "add i32 0, %a", "mul i32 %a, 1", "sub i32 %a, 0",
         "or i32 %a, 0", "xor i32 %a, 0", "shl i32 %a, 0", "sdiv i32 %a, 1"],
    )
    def test_identity_returns_operand(self, expr):
        m = fold(
            f"define i32 @f(i32 %a) {{\nentry:\n  %x = {expr}\n  ret i32 %x\n}}"
        )
        fn = m.get_function("f")
        assert fn.entry_block.terminator.return_value is fn.arguments[0]

    def test_mul_by_zero(self):
        m = fold(
            "define i32 @f(i32 %a) {\nentry:\n  %x = mul i32 %a, 0\n  ret i32 %x\n}"
        )
        assert returned_constant(m).value == 0

    def test_sub_self_is_zero(self):
        m = fold(
            "define i32 @f(i32 %a) {\nentry:\n  %x = sub i32 %a, %a\n  ret i32 %x\n}"
        )
        assert returned_constant(m).value == 0

    def test_chain_folds_transitively(self):
        m = fold(
            """
            define i32 @f() {
            entry:
              %a = add i32 1, 2
              %b = mul i32 %a, %a
              %c = sub i32 %b, 4
              ret i32 %c
            }
            """
        )
        assert returned_constant(m).value == 5


def test_wide_signed_division_is_exact_raw_and_under_o1():
    """(2**53 + 1) sdiv 1, then srem 2, is 1: signed division is integer
    truncation, not a round trip through a double."""
    from repro.runtime import QirRuntime, compile_plan

    text = """
    define void @main() #0 {
    entry:
      %q = sdiv i64 9007199254740993, 1
      %r = srem i64 %q, 2
      %odd = icmp eq i64 %r, 1
      br i1 %odd, label %flip, label %done
    flip:
      call void @__quantum__qis__x__body(ptr null)
      br label %done
    done:
      call void @__quantum__qis__mz__body(ptr null, ptr writeonly null)
      ret void
    }
    declare void @__quantum__qis__x__body(ptr)
    declare void @__quantum__qis__mz__body(ptr, ptr writeonly)
    attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="1" }
    """
    raw = QirRuntime(seed=1).run_shots(text, shots=20).counts
    assert raw == {"1": 20}
    plan = compile_plan(text, pipeline="o1")
    assert QirRuntime(seed=1).run_shots(plan, shots=20).counts == raw


# -- folder and interpreter against an independent reference ---------------------
#
# The reference is written from the LangRef with exact tools: integers as
# Python ints masked to the width, signed division through ``Fraction``,
# float arithmetic through numpy's IEEE binary64.  ``UNDEFINED`` marks the
# cases where the interpreter must trap and the folder must leave the
# instruction alone.

UNDEFINED = object()
WIDTHS = (1, 8, 32, 64)
INT_OPS = ("add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
           "and", "or", "xor", "shl", "lshr", "ashr")
FLOAT_OPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
ICMP_PREDS = ("eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle")
FCMP_PREDS = ("false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord",
              "ueq", "ugt", "uge", "ult", "ule", "une", "uno", "true")
EDGE_FLOATS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0**53 + 2, -(2.0**63), 1e308,
               math.nan, math.inf, -math.inf)


def _signed(bits, v):
    v &= (1 << bits) - 1
    return v - (1 << bits) if v >> (bits - 1) else v


def _unsigned(bits, v):
    return v & ((1 << bits) - 1)


def _ints(bits):
    edges = [0, 1, -1, -(1 << (bits - 1)), (1 << (bits - 1)) - 1, 2**53 + 1]
    return st.one_of(
        st.sampled_from(edges), st.integers(-(2**64), 2**64)
    ).map(lambda v: _signed(bits, v))


_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))


def _double(x):
    return f"0x{struct.unpack('<Q', struct.pack('<d', x))[0]:016X}"


def _reference_int(op, bits, a, b):
    ua, ub = _unsigned(bits, a), _unsigned(bits, b)
    sa, sb = _signed(bits, a), _signed(bits, b)
    if op in ("sdiv", "udiv", "srem", "urem") and ub == 0:
        return UNDEFINED
    shift = ub % bits
    exact = {
        "add": ua + ub, "sub": ua - ub, "mul": ua * ub,
        "sdiv": lambda: math.trunc(Fraction(sa, sb)),
        "srem": lambda: sa - sb * math.trunc(Fraction(sa, sb)),
        "udiv": lambda: ua // ub, "urem": lambda: ua % ub,
        "and": ua & ub, "or": ua | ub, "xor": ua ^ ub,
        "shl": ua << shift, "lshr": ua >> shift, "ashr": sa >> shift,
    }[op]
    return _signed(bits, exact() if callable(exact) else exact)


def _reference_float(op, a, b):
    x, y = np.float64(a), np.float64(b)
    with np.errstate(all="ignore"):
        result = {"fadd": np.add, "fsub": np.subtract, "fmul": np.multiply,
                  "fdiv": np.divide, "frem": np.fmod}[op](x, y)
    return float(result)


def _reference_fcmp(pred, x, y):
    unordered = math.isnan(x) or math.isnan(y)
    if pred in ("true", "false"):
        return pred == "true"
    if pred in ("ord", "uno"):
        return unordered == (pred == "uno")
    base = {"eq": x == y, "ne": x != y, "gt": x > y, "ge": x >= y,
            "lt": x < y, "le": x <= y}[pred[1:]]
    return (not unordered and base) if pred[0] == "o" else (unordered or base)


def _same_float(x, y):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return struct.pack("<d", x) == struct.pack("<d", y)


def _check_against_reference(ret_type, inst, expected, same):
    """The interpreter and the folder both give ``expected``; on
    ``UNDEFINED`` the interpreter traps and the folder keeps ``%x``."""
    from repro.runtime.interpreter import Interpreter
    from repro.sim.statevector import StatevectorSimulator

    src = f"define {ret_type} @f() {{\nentry:\n  %x = {inst}\n  ret {ret_type} %x\n}}"
    m = parse_assembly(src)
    folded = returned_constant(fold(src))
    if expected is UNDEFINED:
        with pytest.raises(TrapError):
            Interpreter(m, StatevectorSimulator(0)).call_function(m.get_function("f"), [])
        assert not isinstance(folded, (ConstantInt, ConstantFloat))
        return
    interpreted = Interpreter(m, StatevectorSimulator(0)).call_function(
        m.get_function("f"), []
    )
    assert same(interpreted, expected), (inst, interpreted, expected)
    assert same(folded.value, expected), (inst, folded.value, expected)


@st.composite
def _binary_cases(draw):
    op = draw(st.sampled_from(INT_OPS + FLOAT_OPS))
    if op in FLOAT_OPS:
        a, b = draw(_floats), draw(_floats)
        return "double", f"{op} double {_double(a)}, {_double(b)}", _reference_float(op, a, b), _same_float
    bits = draw(st.sampled_from(WIDTHS))
    a, b = draw(_ints(bits)), draw(_ints(bits))
    same = lambda got, want: _signed(bits, got) == want  # noqa: E731
    return f"i{bits}", f"{op} i{bits} {a}, {b}", _reference_int(op, bits, a, b), same


@given(case=_binary_cases())
@settings(max_examples=400, deadline=None)
def test_fold_matches_interpreter(case):
    """Folding and the runtime interpreter agree with the reference on every
    binary opcode, at every width, on edge operands."""
    _check_against_reference(*case)


@st.composite
def _compare_cases(draw):
    as_bool = lambda got, want: _unsigned(1, got) == int(want)  # noqa: E731
    if draw(st.booleans()):
        pred = draw(st.sampled_from(FCMP_PREDS))
        x, y = draw(_floats), draw(_floats)
        return "i1", f"fcmp {pred} double {_double(x)}, {_double(y)}", _reference_fcmp(pred, x, y), as_bool
    pred = draw(st.sampled_from(ICMP_PREDS))
    bits = draw(st.sampled_from(WIDTHS))
    a, b = draw(_ints(bits)), draw(_ints(bits))
    read = _unsigned if pred[0] == "u" else _signed
    compare = {"eq": "__eq__", "ne": "__ne__", "gt": "__gt__", "ge": "__ge__",
               "lt": "__lt__", "le": "__le__"}[pred.lstrip("us")]
    expected = getattr(read(bits, a), compare)(read(bits, b))
    return "i1", f"icmp {pred} i{bits} {a}, {b}", expected, as_bool


@given(case=_compare_cases())
@settings(max_examples=300, deadline=None)
def test_compare_fold_matches_interpreter(case):
    _check_against_reference(*case)


@st.composite
def _cast_cases(draw):
    op = draw(st.sampled_from(("trunc", "zext", "sext", "sitofp", "uitofp", "fptosi", "fptoui")))
    if op in ("fptosi", "fptoui"):
        bits = draw(st.sampled_from(WIDTHS))
        x = draw(_floats)
        expected = _signed(bits, math.trunc(x)) if math.isfinite(x) else UNDEFINED
        same = lambda got, want: _signed(bits, got) == want  # noqa: E731
        return f"i{bits}", f"{op} double {_double(x)} to i{bits}", expected, same
    src = draw(st.sampled_from(WIDTHS))
    a = draw(_ints(src))
    if op in ("sitofp", "uitofp"):
        read = _signed if op == "sitofp" else _unsigned
        return "double", f"{op} i{src} {a} to double", float(read(src, a)), _same_float
    narrower = [w for w in WIDTHS if w < src]
    wider = [w for w in WIDTHS if w > src]
    if not (narrower if op == "trunc" else wider):
        op = "zext" if op == "trunc" else "trunc"
    dst = draw(st.sampled_from(narrower if op == "trunc" else wider))
    value = _unsigned(src, a) if op == "zext" else _signed(src, a)
    same = lambda got, want: _signed(dst, got) == want  # noqa: E731
    return f"i{dst}", f"{op} i{src} {a} to i{dst}", _signed(dst, value), same


@given(case=_cast_cases())
@settings(max_examples=300, deadline=None)
def test_cast_fold_matches_interpreter(case):
    _check_against_reference(*case)
