"""An OpenQASM 3 *subset* parser (paper, Section II-B).

OpenQASM 3 folded classical logic into the language; supporting it means
the parser itself must implement what a classical compiler would provide.
This subset demonstrates exactly that burden:

* ``qubit[n] name;`` / ``bit[n] name;`` declarations,
* gate calls (same vocabulary as OpenQASM 2),
* assignment measurement ``c[0] = measure q[0];``,
* ``if (c[0] == 1) { ... }`` blocks (single-bit conditions),
* ``for <type> i in [lo:hi] { ... }`` -- which this parser must **unroll
  itself**, re-doing by hand the loop handling LLVM gives QIR for free
  (contrast with :class:`repro.passes.unroll.LoopUnrollPass`).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.circuit.circuit import Circuit
from repro.circuit.operations import ConditionalOperation, GateOperation, Reset
from repro.circuit.registers import ClassicalRegister, QuantumRegister, Qubit
from repro.qasm.expr import evaluate_arguments, evaluate_expression
from repro.qasm.lexer import MAX_UNROLL, QasmError, TokenCursor
from repro.qasm.parser2 import _QELIB_GATES


class Qasm3ParseError(QasmError):
    """An OpenQASM 3 program could not be parsed."""


#: Loops may nest this deep; replaying a body recurses once per level.
_MAX_LOOP_NESTING = 16


class _Parser3(TokenCursor):
    error = Qasm3ParseError

    def __init__(self, source: str):
        super().__init__(source)
        self.circuit = Circuit("qasm3")
        self.qregs: Dict[str, QuantumRegister] = {}
        self.cregs: Dict[str, ClassicalRegister] = {}
        self.loop_vars: Dict[str, int] = {}
        #: Trip counts of the loops being unrolled, outermost first.
        self.trips: List[int] = []

    # -- top level ---------------------------------------------------------------
    def parse(self) -> Circuit:
        self._expect("ID", "OPENQASM")
        version = self._expect("NUMBER")
        if version.text not in ("3", "3.0"):
            raise Qasm3ParseError(
                f"OPENQASM {version.text} is not version 3", version.line
            )
        self._expect("PUNCT", ";")
        self._statements()
        return self.circuit

    def _statement(self) -> None:
        tok = self._peek()
        assert tok is not None
        if tok.text == "include":
            self._next()
            self._expect("STRING")
            self._expect("PUNCT", ";")
            return
        if tok.text in ("qubit", "bit"):
            self._declaration(tok.text)
            return
        if tok.text == "for":
            self._for_loop()
            return
        if tok.text == "if":
            self._if_block()
            return
        if tok.text == "reset":
            self._next()
            qubit = self._qubit_ref()
            self._expect("PUNCT", ";")
            self.circuit.reset(qubit)
            return
        if tok.text == "barrier":
            self._next()
            while self._peek() is not None and self._peek().text != ";":
                self._next()
            self._expect("PUNCT", ";")
            self.circuit.barrier()
            return
        # `c[i] = measure q[j];` assignment form?
        if (
            tok.kind == "ID"
            and tok.text in self.cregs
        ):
            self._measure_assignment()
            return
        self._gate_call()

    def _declaration(self, kind: str) -> None:
        self._next()
        size = 1
        if self._accept("PUNCT", "["):
            size_tok = self._expect("NUMBER")
            self._expect("PUNCT", "]")
            size = int(size_tok.text)
            self._declare_bits(size, size_tok.line)
        name = self._expect("ID")
        self._expect("PUNCT", ";")
        if kind == "qubit":
            register = QuantumRegister(name.text, size)
            self.circuit.add_qreg(register)
            self.qregs[name.text] = register
        else:
            register = ClassicalRegister(name.text, size)
            self.circuit.add_creg(register)
            self.cregs[name.text] = register

    # -- references -----------------------------------------------------------
    def _index_expr(self) -> int:
        """An integer index: literal, loop variable, or simple arithmetic."""
        expr: List[str] = []
        depth = 0
        while True:
            tok = self._peek()
            if tok is None:
                raise Qasm3ParseError("unterminated index expression")
            if tok.text == "[":
                depth += 1
            elif tok.text == "]":
                if depth == 0:
                    break
                depth -= 1
            expr.append(self._next().text)
        bindings = {k: float(v) for k, v in self.loop_vars.items()}
        value = evaluate_expression(expr, bindings)
        if abs(value - round(value)) > 1e-9:
            raise Qasm3ParseError(f"non-integer index {value}")
        return int(round(value))

    def _qubit_ref(self) -> Qubit:
        name = self._expect("ID")
        register = self.qregs.get(name.text)
        if register is None:
            raise Qasm3ParseError(f"unknown qubit register {name.text!r}", name.line)
        self._expect("PUNCT", "[")
        index = self._index_expr()
        self._expect("PUNCT", "]")
        if not 0 <= index < register.size:
            raise Qasm3ParseError(
                f"index {index} out of range for {name.text}[{register.size}]",
                name.line,
            )
        return register[index]

    # -- statements -----------------------------------------------------------
    def _measure_assignment(self) -> None:
        creg_name = self._expect("ID")
        register = self.cregs[creg_name.text]
        self._expect("PUNCT", "[")
        clbit_index = self._index_expr()
        self._expect("PUNCT", "]")
        self._expect("PUNCT", "=")
        self._expect("ID", "measure")
        qubit = self._qubit_ref()
        self._expect("PUNCT", ";")
        self.circuit.measure(qubit, register[clbit_index])

    def _gate_call(self, condition=None) -> None:
        name_tok = self._expect("ID")
        params: List[float] = []
        if self._accept("PUNCT", "("):
            bindings = {k: float(v) for k, v in self.loop_vars.items()}
            params = evaluate_arguments(self._texts(), bindings)
        qubits: List[Qubit] = []
        while True:
            qubits.append(self._qubit_ref())
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ";")

        entry = _QELIB_GATES.get(name_tok.text)
        if entry is None:
            raise Qasm3ParseError(f"unknown gate {name_tok.text!r}", name_tok.line)
        canonical, num_params, num_qubits = entry
        if len(params) != num_params or len(qubits) != num_qubits:
            raise Qasm3ParseError(
                f"{name_tok.text} takes {num_params} params and {num_qubits} qubits",
                name_tok.line,
            )
        if name_tok.text == "u2":
            phi, lam = params
            canonical, params = "u3", [math.pi / 2, phi, lam]
        if canonical is None:
            raise Qasm3ParseError(f"unsupported gate {name_tok.text!r}", name_tok.line)
        op = GateOperation(canonical, qubits, params)
        if condition is not None:
            register, value = condition
            self.circuit.append(ConditionalOperation(register, value, op))
        else:
            self.circuit.append(op)

    def _if_block(self) -> None:
        self._expect("ID", "if")
        self._expect("PUNCT", "(")
        creg_name = self._expect("ID")
        register = self.cregs.get(creg_name.text)
        if register is None:
            raise Qasm3ParseError(
                f"unknown bit register {creg_name.text!r}", creg_name.line
            )
        value_mask: int
        if self._accept("PUNCT", "["):
            bit_index = self._index_expr()
            self._expect("PUNCT", "]")
            self._expect("EQEQ")
            bit_value = int(self._expect("NUMBER").text)
            self._expect("PUNCT", ")")
            if register.size == 1:
                condition = (register, bit_value)
            elif bit_value == 1:
                condition = (register, 1 << bit_index)
            else:
                raise Qasm3ParseError(
                    "only '== 1' single-bit conditions are supported on "
                    "multi-bit registers",
                    creg_name.line,
                )
        else:
            self._expect("EQEQ")
            value_mask = int(self._expect("NUMBER").text)
            self._expect("PUNCT", ")")
            condition = (register, value_mask)
        self._expect("PUNCT", "{")
        while self._peek() is not None and self._peek().text != "}":
            tok = self._peek()
            if tok.text in ("if", "for"):
                raise Qasm3ParseError("nested control flow is not supported", tok.line)
            if tok.text == "reset":
                self._next()
                qubit = self._qubit_ref()
                self._expect("PUNCT", ";")
                self.circuit.append(
                    ConditionalOperation(condition[0], condition[1], Reset(qubit))
                )
                continue
            self._gate_call(condition=condition)
        self._expect("PUNCT", "}")

    def _for_loop(self) -> None:
        self._expect("ID", "for")
        type_tok = self._expect("ID")  # uint / int
        if type_tok.text not in ("uint", "int"):
            raise Qasm3ParseError(
                f"unsupported loop variable type {type_tok.text!r}", type_tok.line
            )
        var = self._expect("ID").text
        self._expect("ID", "in")
        self._expect("PUNCT", "[")
        lo = int(self._expect("NUMBER").text)
        self._expect("PUNCT", ":")
        hi = int(self._expect("NUMBER").text)
        self._expect("PUNCT", "]")
        self._expect("PUNCT", "{")
        body_start = self.pos
        # find matching close brace
        depth = 1
        while depth:
            tok = self._next()
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
        body_end = self.pos - 1

        trips = max(0, hi - lo + 1)
        if len(self.trips) >= _MAX_LOOP_NESTING:
            raise Qasm3ParseError(
                f"loops nest deeper than {_MAX_LOOP_NESTING}", type_tok.line
            )
        if math.prod(self.trips) * trips > MAX_UNROLL:
            raise Qasm3ParseError(
                f"loop range [{lo}:{hi}] too large to unroll", type_tok.line
            )
        outer = self.loop_vars.get(var)
        # The parser itself performs the unrolling (the very machinery QIR
        # inherits from LLVM): replay the body token range per iteration.
        self.trips.append(trips)
        for i in range(lo, hi + 1):
            self.loop_vars[var] = i
            self.pos = body_start
            while self.pos < body_end:
                self._statement()
        self.trips.pop()
        self.pos = body_end + 1
        if outer is None:
            self.loop_vars.pop(var, None)
        else:
            self.loop_vars[var] = outer


def parse_qasm3(source: str) -> Circuit:
    """Parse the OpenQASM 3 subset into a :class:`Circuit`."""
    return _Parser3(source).parse()
