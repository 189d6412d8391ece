"""Shared constant-evaluation helpers used by folding and propagation."""

from __future__ import annotations

import math
from typing import Optional

from repro.llvmir.instructions import (
    BinaryInst,
    CastInst,
    FCmpInst,
    ICmpInst,
    Instruction,
    SelectInst,
)
from repro.llvmir.types import IntType
from repro.llvmir.values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantPointerInt,
    Value,
)


def fold_instruction(inst: Instruction) -> Optional[Constant]:
    """Evaluate an instruction with constant operands; None if not foldable."""
    if isinstance(inst, BinaryInst):
        return _fold_binary(inst)
    if isinstance(inst, ICmpInst):
        return _fold_icmp(inst)
    if isinstance(inst, FCmpInst):
        return _fold_fcmp(inst)
    if isinstance(inst, CastInst):
        return _fold_cast(inst)
    if isinstance(inst, SelectInst):
        cond = inst.condition
        if isinstance(cond, ConstantInt):
            chosen = inst.true_value if cond.value else inst.false_value
            return chosen if isinstance(chosen, Constant) else None
    return None


def _fold_binary(inst: BinaryInst) -> Optional[Constant]:
    a, b = inst.lhs, inst.rhs
    op = inst.opcode
    if op.startswith("f"):
        if not (isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat)):
            return None
        x, y = a.value, b.value
        try:
            if op == "fadd":
                return ConstantFloat(inst.type, x + y)  # type: ignore[arg-type]
            if op == "fsub":
                return ConstantFloat(inst.type, x - y)  # type: ignore[arg-type]
            if op == "fmul":
                return ConstantFloat(inst.type, x * y)  # type: ignore[arg-type]
            if op == "fdiv" and y != 0.0:
                return ConstantFloat(inst.type, x / y)  # type: ignore[arg-type]
            if op == "frem" and y != 0.0:
                return ConstantFloat(inst.type, math.fmod(x, y))  # type: ignore[arg-type]
        except (OverflowError, ValueError):
            return None
        return None

    if not (isinstance(a, ConstantInt) and isinstance(b, ConstantInt)):
        return _fold_binary_identities(inst)
    itype = inst.type
    assert isinstance(itype, IntType)
    x, y = a.value, b.value
    if op == "add":
        return ConstantInt(itype, x + y)
    if op == "sub":
        return ConstantInt(itype, x - y)
    if op == "mul":
        return ConstantInt(itype, x * y)
    if op == "sdiv":
        return ConstantInt(itype, int(x / y)) if y != 0 else None
    if op == "udiv":
        return (
            ConstantInt(itype, itype.to_unsigned(x) // itype.to_unsigned(y))
            if y != 0
            else None
        )
    if op == "srem":
        return ConstantInt(itype, x - int(x / y) * y) if y != 0 else None
    if op == "urem":
        return (
            ConstantInt(itype, itype.to_unsigned(x) % itype.to_unsigned(y))
            if y != 0
            else None
        )
    if op == "and":
        return ConstantInt(itype, x & y)
    if op == "or":
        return ConstantInt(itype, x | y)
    if op == "xor":
        return ConstantInt(itype, x ^ y)
    if op == "shl":
        return ConstantInt(itype, x << (y % itype.bits))
    if op == "lshr":
        return ConstantInt(itype, itype.to_unsigned(x) >> (y % itype.bits))
    if op == "ashr":
        return ConstantInt(itype, x >> (y % itype.bits))
    return None


def _fold_binary_identities(inst: BinaryInst) -> Optional[Constant]:
    """x+0, x*1, x*0, x&0, x|0, x^x style identities that return an
    operand or zero.  Only the constant-result cases are handled here (the
    operand-returning cases are done by propagation to keep folding pure)."""
    a, b = inst.lhs, inst.rhs
    itype = inst.type
    if not isinstance(itype, IntType):
        return None
    zero_a = isinstance(a, ConstantInt) and a.value == 0
    zero_b = isinstance(b, ConstantInt) and b.value == 0
    if inst.opcode == "mul" and (zero_a or zero_b):
        return ConstantInt(itype, 0)
    if inst.opcode == "and" and (zero_a or zero_b):
        return ConstantInt(itype, 0)
    if inst.opcode in ("sub", "xor") and a is b:
        return ConstantInt(itype, 0)
    return None


def simplify_to_operand(inst: Instruction) -> Optional[Value]:
    """Identities that reduce the instruction to one of its operands."""
    if not isinstance(inst, BinaryInst):
        return None
    a, b = inst.lhs, inst.rhs
    if not isinstance(inst.type, IntType):
        return None
    zero_a = isinstance(a, ConstantInt) and a.value == 0
    zero_b = isinstance(b, ConstantInt) and b.value == 0
    one_a = isinstance(a, ConstantInt) and a.value == 1
    one_b = isinstance(b, ConstantInt) and b.value == 1
    op = inst.opcode
    if op == "add":
        if zero_a:
            return b
        if zero_b:
            return a
    if op == "sub" and zero_b:
        return a
    if op == "mul":
        if one_a:
            return b
        if one_b:
            return a
    if op in ("sdiv", "udiv") and one_b:
        return a
    if op == "or":
        if zero_a:
            return b
        if zero_b:
            return a
    if op == "xor":
        if zero_a:
            return b
        if zero_b:
            return a
    if op in ("shl", "lshr", "ashr") and zero_b:
        return a
    return None


def _fold_icmp(inst: ICmpInst) -> Optional[Constant]:
    a, b = inst.lhs, inst.rhs
    i1 = IntType(1)
    if isinstance(a, (ConstantNull, ConstantPointerInt)) and isinstance(
        b, (ConstantNull, ConstantPointerInt)
    ):
        addr_a = a.address if isinstance(a, ConstantPointerInt) else 0
        addr_b = b.address if isinstance(b, ConstantPointerInt) else 0
        if inst.predicate == "eq":
            return ConstantInt(i1, int(addr_a == addr_b))
        if inst.predicate == "ne":
            return ConstantInt(i1, int(addr_a != addr_b))
        return None
    if not (isinstance(a, ConstantInt) and isinstance(b, ConstantInt)):
        return None
    x, y = a.value, b.value
    atype = a.type
    assert isinstance(atype, IntType)
    if inst.predicate.startswith("u"):
        x, y = atype.to_unsigned(x), atype.to_unsigned(y)
    table = {
        "eq": x == y,
        "ne": x != y,
        "sgt": x > y,
        "sge": x >= y,
        "slt": x < y,
        "sle": x <= y,
        "ugt": x > y,
        "uge": x >= y,
        "ult": x < y,
        "ule": x <= y,
    }
    return ConstantInt(i1, int(table[inst.predicate]))


def _fold_fcmp(inst: FCmpInst) -> Optional[Constant]:
    a, b = inst.lhs, inst.rhs
    if not (isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat)):
        return None
    x, y = a.value, b.value
    unordered = math.isnan(x) or math.isnan(y)
    i1 = IntType(1)
    pred = inst.predicate
    if pred == "true":
        return ConstantInt(i1, 1)
    if pred == "false":
        return ConstantInt(i1, 0)
    if pred == "ord":
        return ConstantInt(i1, int(not unordered))
    if pred == "uno":
        return ConstantInt(i1, int(unordered))
    base = {
        "eq": x == y,
        "gt": x > y,
        "ge": x >= y,
        "lt": x < y,
        "le": x <= y,
        "ne": x != y,
    }[pred[1:]]
    if pred.startswith("o"):
        return ConstantInt(i1, int(not unordered and base))
    return ConstantInt(i1, int(unordered or base))


def _fold_cast(inst: CastInst) -> Optional[Constant]:
    value = inst.value
    op = inst.opcode
    if op == "inttoptr" and isinstance(value, ConstantInt):
        if value.value == 0:
            return ConstantNull()
        src = value.type
        assert isinstance(src, IntType)
        return ConstantPointerInt(src.to_unsigned(value.value), src)
    if op == "ptrtoint":
        assert isinstance(inst.type, IntType)
        if isinstance(value, ConstantNull):
            return ConstantInt(inst.type, 0)
        if isinstance(value, ConstantPointerInt):
            return ConstantInt(inst.type, value.address)
        return None
    if not isinstance(value, (ConstantInt, ConstantFloat)):
        return None
    if op == "trunc" and isinstance(value, ConstantInt):
        assert isinstance(inst.type, IntType)
        return ConstantInt(inst.type, value.value)
    if op == "zext" and isinstance(value, ConstantInt):
        src = value.type
        assert isinstance(src, IntType) and isinstance(inst.type, IntType)
        return ConstantInt(inst.type, src.to_unsigned(value.value))
    if op == "sext" and isinstance(value, ConstantInt):
        assert isinstance(inst.type, IntType)
        return ConstantInt(inst.type, value.value)
    if op == "sitofp" and isinstance(value, ConstantInt):
        return ConstantFloat(inst.type, float(value.value))  # type: ignore[arg-type]
    if op == "uitofp" and isinstance(value, ConstantInt):
        src = value.type
        assert isinstance(src, IntType)
        return ConstantFloat(inst.type, float(src.to_unsigned(value.value)))  # type: ignore[arg-type]
    if op in ("fptosi", "fptoui") and isinstance(value, ConstantFloat):
        assert isinstance(inst.type, IntType)
        if math.isnan(value.value) or math.isinf(value.value):
            return None
        return ConstantInt(inst.type, int(value.value))
    return None
