"""Tokenizer and token cursor shared by the OpenQASM 2 and 3 parsers."""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple, Optional, Type

#: Statements one program may unroll to: QASM3 loop iterations over all
#: (nested) loops, QASM2 gate-body statements over all expansions.
MAX_UNROLL = 100_000

#: Qubits plus classical bits one program may declare over all registers;
#: a declaration's size is otherwise unbounded work for every later stage.
MAX_DECLARED_BITS = 16_384


class QasmToken(NamedTuple):
    kind: str  # ID NUMBER STRING PUNCT ARROW EQEQ
    text: str
    line: int


class QasmLexError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<string>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<eqeq>==)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}()\[\];,+\-*/^=:<>])
  | (?P<ws>\s+)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> List[QasmToken]:
    tokens: List[QasmToken] = []
    pos = 0
    line = 1
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise QasmLexError(
                f"line {line}: unexpected character {source[pos]!r}"
            )
        text = match.group(0)
        kind = match.lastgroup
        if kind == "comment" or kind == "ws":
            line += text.count("\n")
            pos = match.end()
            continue
        mapped = {
            "string": "STRING",
            "arrow": "ARROW",
            "eqeq": "EQEQ",
            "number": "NUMBER",
            "id": "ID",
            "punct": "PUNCT",
        }[kind]
        if mapped == "STRING":
            text = text[1:-1]
        tokens.append(QasmToken(mapped, text, line))
        pos = match.end()
    return tokens


class QasmError(ValueError):
    """A parse error, located by line when the line is known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TokenCursor:
    """A parser's position in its token list; errors raise :attr:`error`.
    Parsers define ``_statement``, which :meth:`_statements` repeats."""

    error: Type[QasmError] = QasmError

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.declared_bits = 0

    def _peek(self, offset: int = 0) -> Optional[QasmToken]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _next(self) -> QasmToken:
        tok = self._peek()
        if tok is None:
            raise self.error("unexpected end of input", self.tokens[-1].line if self.tokens else 1)
        self.pos += 1
        return tok

    def _expect(self, kind: str, text: Optional[str] = None) -> QasmToken:
        tok = self._next()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.error(f"expected {text or kind}, got {tok.text!r}", tok.line)
        return tok

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[QasmToken]:
        tok = self._peek()
        if tok is not None and tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def _declare_bits(self, size: int, line: int) -> None:
        """Count one register declaration against :data:`MAX_DECLARED_BITS`."""
        self.declared_bits += size
        if self.declared_bits > MAX_DECLARED_BITS:
            raise self.error(
                f"declares {self.declared_bits} bits in total (at most "
                f"{MAX_DECLARED_BITS} qubits and bits are supported)",
                line,
            )

    def _texts(self) -> Iterator[str]:
        """The remaining token texts (end of input raises)."""
        while True:
            yield self._next().text

    def _statements(self) -> None:
        """Parse statements to the end of input.  The expression evaluator
        and the circuit layer validate too (math domain, duplicate
        registers or operands); what they raise is pinned to the line of
        the statement being parsed."""
        while self._peek() is not None:
            line = self._peek().line
            try:
                self._statement()
            except (ValueError, IndexError, ArithmeticError) as error:
                if getattr(error, "line", None) is not None:
                    raise
                raise self.error(str(error), line) from error
