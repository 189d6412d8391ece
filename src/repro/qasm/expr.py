"""Parameter-expression evaluation shared by both OpenQASM parsers.

OpenQASM angle expressions: ``pi``, literals, identifiers (bound gate
parameters), ``+ - * / ^``, unary minus, parentheses, and the standard
functions.  Evaluated eagerly to floats (the circuit IR stores concrete
angles).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional

_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
}


#: Parenthesis (and function-call) nesting accepted in one expression;
#: deeper input is rejected before it can exhaust the Python stack.
MAX_NESTING = 64


class ExprError(ValueError):
    pass


class ExprParser:
    """Pratt-style parser over a token list (tokens from the QASM lexer)."""

    def __init__(self, tokens: List[str], bindings: Optional[Dict[str, float]] = None):
        self.tokens = tokens
        self.pos = 0
        self.bindings = bindings or {}
        self.depth = 0

    def _peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> float:
        value = self._additive()
        if self._peek() is not None:
            raise ExprError(f"trailing tokens in expression: {self.tokens[self.pos:]}")
        return value

    def _additive(self) -> float:
        value = self._multiplicative()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._multiplicative()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _multiplicative(self) -> float:
        value = self._power()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._power()
            if op == "/":
                if rhs == 0:
                    raise ExprError("division by zero in expression")
                value = value / rhs
            else:
                value = value * rhs
        return value

    def _power(self) -> float:
        operands = [self._unary()]
        while self._peek() == "^":
            self._next()
            operands.append(self._unary())
        value = operands.pop()
        while operands:  # right associative
            value = operands.pop() ** value
            if isinstance(value, complex):
                raise ExprError("power of a negative base is not real")
        return value

    def _unary(self) -> float:
        negative = False
        while self._peek() in ("-", "+"):
            negative ^= self._next() == "-"
        value = self._primary()
        return -value if negative else value

    def _group(self) -> float:
        """The rest of ``( expr )`` -- the only place parsing recurses."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(f"expression nests deeper than {MAX_NESTING} parentheses")
        value = self._additive()
        if self._next() != ")":
            raise ExprError("missing ')'")
        self.depth -= 1
        return value

    def _primary(self) -> float:
        tok = self._next()
        if tok == "(":
            return self._group()
        if tok == "pi":
            return math.pi
        if tok in _FUNCTIONS:
            if self._next() != "(":
                raise ExprError(f"expected '(' after {tok}")
            return _FUNCTIONS[tok](self._group())
        if tok in self.bindings:
            return self.bindings[tok]
        try:
            return float(tok)
        except ValueError:
            raise ExprError(f"unknown symbol {tok!r} in expression") from None


def evaluate_arguments(
    texts: Iterator[str], bindings: Optional[Dict[str, float]] = None
) -> List[float]:
    """Evaluate comma-separated expressions from ``texts`` up to the ``)``
    closing an already consumed ``(``; the rest of ``texts`` is left."""
    args: List[float] = []
    current: List[str] = []
    depth = 0
    for text in texts:
        if depth == 0 and text in (")", ","):
            if current or text == ",":
                args.append(evaluate_expression(current, bindings))
            if text == ")":
                return args
            current = []
            continue
        depth += (text == "(") - (text == ")")
        current.append(text)
    raise ExprError("missing ')'")


def evaluate_expression(
    tokens: List[str], bindings: Optional[Dict[str, float]] = None
) -> float:
    return ExprParser(tokens, bindings).parse()
