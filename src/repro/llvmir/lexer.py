"""Tokenizer for the ``.ll`` assembly subset.

LLVM assembly is whitespace-insensitive apart from comments; the lexer
therefore produces a flat token stream and the parser never needs to see
line boundaries.  One compiled regex scans the whole source, as in
:mod:`repro.qasm.lexer`; only newlines (and newlines inside quoted text)
touch the line count.
"""

from __future__ import annotations

import re
import string
from functools import partial
from typing import List, NamedTuple


class Token(NamedTuple):
    kind: str  # LOCAL GLOBAL METADATA ATTRGROUP WORD INT FLOAT STRING CSTRING MDSTRING PUNCT EOF
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @{self.line}:{self.column})"


class LexError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_IDENT = r"[-A-Za-z0-9_.$]+"
# A double-quoted string with LLVM's ``\\`` and ``\XX`` escapes, in Friedl's
# unrolled form so that a long or unterminated string scans in linear time.
_QUOTED_BODY = r'"[^"\\]*(?:\\(?:\\|[0-9A-Fa-f]{2})[^"\\]*)*'
_QUOTED = _QUOTED_BODY + '"'

# Each alternative is one token kind, named after it; the lower-case groups
# are trivia and errors.  Sigil groups start one past the sigil, which is the
# column sigil tokens report.  Blanks after a token are part of its match.
_TOKEN_RE = re.compile(
    rf"""
  (?:
    (?P<nl>\n)
  | (?P<skip>[ \t\r]+|;[^\n]*)
  | %(?P<LOCAL>{_IDENT}|{_QUOTED})
  | @(?P<GLOBAL>{_IDENT}|{_QUOTED})
  | (?P<PUNCT>[=,(){{}}\[\]<>*:]|!\{{)
  | (?P<CSTRING>c{_QUOTED})
  | (?P<WORD>[A-Za-z_.$][-A-Za-z0-9_.$]*)
  | (?P<FLOAT>-?(?:0[xX][0-9A-Fa-f]+|[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)))
  | (?P<barehex>-?0[xX])
  | (?P<INT>-?[0-9]+)
  | (?P<STRING>{_QUOTED})
  | (?P<MDSTRING>!{_QUOTED})
  | !(?P<METADATA>{_IDENT})
  | \#(?P<ATTRGROUP>{_IDENT}|{_QUOTED})
  | (?P<error>.)
  )[ \t\r]*
    """,
    re.VERBOSE | re.DOTALL,
)
_QUOTED_PREFIX_RE = re.compile(_QUOTED_BODY)
_ESCAPE_RE = re.compile(r"\\(\\|[0-9A-Fa-f]{2})")
_ESCAPES = {"\\": "\\"}
_ESCAPES.update(
    (a + b, chr(int(a + b, 16))) for a in string.hexdigits for b in string.hexdigits
)
_NOT_TOKENS = frozenset(("nl", "skip", "barehex", "error"))
_SIGILS = {"%": "LOCAL", "@": "GLOBAL", "!": "METADATA", "#": "ATTRGROUP"}

# ``Token(...)`` runs a Python-level ``__new__``; building the tuple
# directly makes the whole lexer about a third faster.
_new_token = partial(tuple.__new__, Token)


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    parts = _ESCAPE_RE.split(body)  # text, escape, text, escape, ..., text
    parts[1::2] = map(_ESCAPES.__getitem__, parts[1::2])
    return "".join(parts)


def _error(source: str, pos: int, group: str) -> LexError:
    """Diagnose the text at ``pos`` that no token pattern accepted."""
    ch = source[pos]
    message = f"unexpected character {ch!r}"
    if group == "barehex":
        message = "expected hex digits after '0x'"
    elif ch in _SIGILS:
        pos += 1
        if source[pos : pos + 1] != '"':
            message = f"empty identifier after sigil for {_SIGILS[ch]}"
    if source[pos : pos + 1] == '"':
        pos = _QUOTED_PREFIX_RE.match(source, pos).end()
        message = "unterminated string" if pos == len(source) else "bad escape in string"
    line = source.count("\n", 0, pos) + 1
    return LexError(message, line, pos - source.rfind("\n", 0, pos))


class Lexer:
    def __init__(self, source: str):
        self.source = source

    def tokenize(self) -> List[Token]:
        source = self.source
        tokens: List[Token] = []
        append = tokens.append
        line = 1
        line_start = 0  # offset of the current line's first character
        for match in _TOKEN_RE.finditer(source):
            kind = match.lastgroup
            if kind in _NOT_TOKENS:
                if kind == "nl":
                    line += 1
                    line_start = match.start() + 1
                elif kind != "skip":
                    raise _error(source, match.start(), kind)
                continue
            text = match[kind]
            column = match.start(kind) - line_start + 1
            if text[-1] != '"':
                append(_new_token((kind, text, line, column)))
                continue
            # Quoted text: drop any c/! prefix and the quotes, decode the
            # escapes, and count the newlines the string spans.
            body = _unescape(text[text.index('"') + 1 : -1])
            append(_new_token((kind, body, line, column)))
            if "\n" in text:
                line += text.count("\n")
                line_start = source.rfind("\n", 0, match.end()) + 1
        append(_new_token(("EOF", "", line, len(source) - line_start + 1)))
        return tokens
