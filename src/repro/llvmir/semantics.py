"""LLVM's scalar semantics over plain Python values: the one definition.

The interpreter (``lli``), the constant folder (``opt``) and the loop
unroller's trip count all evaluate instructions here, so an optimised
program computes what the unoptimised one does (paper, Sec. II-C).

An ``iN`` value is an ``int`` read modulo ``2**N`` (any representative);
integer results are wrapped to the signed range.  A ``double`` is a
``float`` with IEEE-754 arithmetic.  Comparisons return 0 or 1.  Division
by zero and ``fptosi``/``fptoui`` of NaN or an infinity raise
:class:`Undefined`; overflow wraps and shift amounts are taken modulo the
width, refining LLVM's poison.  Pointer casts stay with each caller, which
knows how it represents pointers.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, Optional, Tuple

from repro.llvmir.types import IntType, IRType


class Undefined(ArithmeticError):
    """The operation is undefined behaviour or its result is poison."""


# -- binary operators -----------------------------------------------------------


def _divide(op: str) -> Callable:
    """``sdiv``/``udiv``/``srem``/``urem``: exact integer division that
    truncates toward zero; a remainder takes the dividend's sign."""
    signed, remainder = op[0] == "s", op.endswith("rem")

    def evaluate(t: IntType, x: int, y: int) -> int:
        x, y = (t.wrap(x), t.wrap(y)) if signed else (t.to_unsigned(x), t.to_unsigned(y))
        if y == 0:
            raise Undefined(f"{op} by zero")
        quotient, rest = divmod(abs(x), abs(y))
        if remainder:
            return t.wrap(-rest if x < 0 else rest)
        return t.wrap(quotient if (x < 0) == (y < 0) else -quotient)

    return evaluate


def _fdiv(t: IRType, x: float, y: float) -> float:
    x, y = float(x), float(y)
    if y:
        return x / y
    if x == 0.0 or x != x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _frem(t: IRType, x: float, y: float) -> float:
    x, y = float(x), float(y)
    if y == 0.0 or math.isinf(x):
        return math.nan
    return math.fmod(x, y)


_BINARY: Dict[str, Callable] = {
    "add": lambda t, x, y: t.wrap(x + y),
    "sub": lambda t, x, y: t.wrap(x - y),
    "mul": lambda t, x, y: t.wrap(x * y),
    "sdiv": _divide("sdiv"),
    "udiv": _divide("udiv"),
    "srem": _divide("srem"),
    "urem": _divide("urem"),
    "and": lambda t, x, y: t.wrap(x & y),
    "or": lambda t, x, y: t.wrap(x | y),
    "xor": lambda t, x, y: t.wrap(x ^ y),
    "shl": lambda t, x, y: t.wrap(x << (y % t.bits)),
    "lshr": lambda t, x, y: t.wrap(t.to_unsigned(x) >> (y % t.bits)),
    "ashr": lambda t, x, y: t.wrap(t.wrap(x) >> (y % t.bits)),
    "fadd": lambda t, x, y: float(x) + float(y),
    "fsub": lambda t, x, y: float(x) - float(y),
    "fmul": lambda t, x, y: float(x) * float(y),
    "fdiv": _fdiv,
    "frem": _frem,
}


def binary(op: str, type_: IRType, x, y):
    """``op`` (a binary opcode) applied to ``x`` and ``y`` of ``type_``."""
    return _BINARY[op](type_, x, y)


# -- comparisons ------------------------------------------------------------------

#: Predicate -> (comparison, how an ``iN`` operand is read).
_ICMP: Dict[str, Tuple[Callable, Optional[Callable]]] = {
    "eq": (operator.eq, None),
    "ne": (operator.ne, None),
    "sgt": (operator.gt, IntType.wrap),
    "sge": (operator.ge, IntType.wrap),
    "slt": (operator.lt, IntType.wrap),
    "sle": (operator.le, IntType.wrap),
    "ugt": (operator.gt, IntType.to_unsigned),
    "uge": (operator.ge, IntType.to_unsigned),
    "ult": (operator.lt, IntType.to_unsigned),
    "ule": (operator.le, IntType.to_unsigned),
}


def icmp(pred: str, type_: IRType, x, y) -> int:
    """``icmp pred`` of two operands of ``type_``.  ``eq``/``ne`` compare
    any two values; the ordered predicates need an integer type."""
    compare, read = _ICMP[pred]
    if isinstance(type_, IntType):
        read = read or IntType.wrap
        x, y = read(type_, x), read(type_, y)
    elif read is not None:
        raise TypeError(f"ordered icmp {pred} on {type_} operands")
    return int(compare(x, y))


# Python's float comparisons are IEEE-754's ordered ones (false on NaN, and
# ``!=`` true); each unordered predicate is the negated ordered inverse.
_FCMP: Dict[str, Callable] = {
    "false": lambda x, y: False,
    "oeq": operator.eq,
    "ogt": operator.gt,
    "oge": operator.ge,
    "olt": operator.lt,
    "ole": operator.le,
    "one": lambda x, y: x < y or x > y,
    "ord": lambda x, y: x == x and y == y,
    "ueq": lambda x, y: not (x < y or x > y),
    "ugt": lambda x, y: not x <= y,
    "uge": lambda x, y: not x < y,
    "ult": lambda x, y: not x >= y,
    "ule": lambda x, y: not x > y,
    "une": operator.ne,
    "uno": lambda x, y: x != x or y != y,
    "true": lambda x, y: True,
}


def fcmp(pred: str, x: float, y: float) -> int:
    """``fcmp pred`` of two doubles."""
    return int(_FCMP[pred](x, y))


# -- value casts --------------------------------------------------------------------


_CASTS: Dict[str, Callable] = {
    "trunc": lambda src, dst, v: dst.wrap(v),
    "zext": lambda src, dst, v: dst.wrap(src.to_unsigned(v)),
    "sext": lambda src, dst, v: dst.wrap(src.wrap(v)),
    "sitofp": lambda src, dst, v: float(src.wrap(v)),
    "uitofp": lambda src, dst, v: float(src.to_unsigned(v)),
    "fptosi": lambda src, dst, v: dst.wrap(int(v)),
    "fptoui": lambda src, dst, v: dst.wrap(int(v)),
}


def cast(op: str, src_type: IRType, dst_type: IRType, value):
    """The value cast ``op`` of ``value`` from ``src_type`` to ``dst_type``."""
    if op[:2] == "fp" and not math.isfinite(value):
        raise Undefined(f"{op} of {value}")
    return _CASTS[op](src_type, dst_type, value)
