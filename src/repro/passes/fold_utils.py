"""Constant evaluation for folding and propagation: the ``opt`` side.

Instructions with constant operands are evaluated by
:mod:`repro.llvmir.semantics`, the definition the interpreter shares, so
folding never changes what a program computes.  Where an evaluation is
undefined (division by zero, ``fptosi`` of NaN) the instruction stays, and
the interpreter traps when it runs.  Null and integer pointer constants are
opaque addresses: ``eq``/``ne`` fold, ordered compares do not.  The
algebraic identities below (``x*0``, ``x+0``) need only one constant.
"""

from __future__ import annotations

from typing import Optional

from repro.llvmir import semantics
from repro.llvmir.instructions import (
    BinaryInst,
    CastInst,
    FCmpInst,
    ICmpInst,
    Instruction,
    SelectInst,
)
from repro.llvmir.types import IntType, IRType
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
    if isinstance(inst, SelectInst):
        cond = inst.condition
        if isinstance(cond, ConstantInt):
            chosen = inst.true_value if cond.value else inst.false_value
            return chosen if isinstance(chosen, Constant) else None
        return None
    if isinstance(inst, CastInst):
        return _fold_cast(inst)
    if not isinstance(inst, (BinaryInst, ICmpInst, FCmpInst)):
        return None
    x, y = _operand(inst.operands[0]), _operand(inst.operands[1])
    if x is None or y is None:
        return _fold_binary_identities(inst) if isinstance(inst, BinaryInst) else None
    try:
        if isinstance(inst, BinaryInst):
            return _constant(inst.type, semantics.binary(inst.opcode, inst.type, x, y))
        if isinstance(inst, ICmpInst):
            value = semantics.icmp(inst.predicate, inst.lhs.type, x, y)
        else:
            value = semantics.fcmp(inst.predicate, x, y)
    except (semantics.Undefined, TypeError):
        return None
    return ConstantInt(IntType(1), value)


def _operand(value: Value):
    """The plain value of a constant operand (an address for a pointer
    constant); None for anything else."""
    if isinstance(value, (ConstantInt, ConstantFloat)):
        return value.value
    if isinstance(value, ConstantNull):
        return 0
    if isinstance(value, ConstantPointerInt):
        return value.address
    return None


def _constant(type_: IRType, value) -> Constant:
    if isinstance(type_, IntType):
        return ConstantInt(type_, value)
    return ConstantFloat(type_, value)  # type: ignore[arg-type]


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


def _fold_cast(inst: CastInst) -> Optional[Constant]:
    value = inst.value
    op = inst.opcode
    if op == "ptrtoint":
        address = _operand(value)
        return None if address is None else ConstantInt(inst.type, address)  # type: ignore[arg-type]
    if op == "inttoptr" and isinstance(value, ConstantInt):
        address = value.type.to_unsigned(value.value)  # type: ignore[union-attr]
        return ConstantPointerInt(address, value.type) if address else ConstantNull()
    if op in ("inttoptr", "bitcast") or not isinstance(value, (ConstantInt, ConstantFloat)):
        return None
    try:
        return _constant(inst.type, semantics.cast(op, value.type, inst.type, value.value))
    except semantics.Undefined:
        return None
