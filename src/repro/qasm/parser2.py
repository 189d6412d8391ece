"""OpenQASM 2.0 parser -> :class:`repro.circuit.Circuit`.

Covers the language as used in practice (and in the paper's Figure 1):
register declarations, the qelib1 gate vocabulary, user ``gate``
definitions (macro-expanded at the call site -- OpenQASM 2 subroutines are
pure substitution), register broadcasting, ``measure``/``reset``/
``barrier``, and ``if (creg == n) <op>;``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.circuit.circuit import Circuit
from repro.circuit.operations import GateOperation, Operation, Reset
from repro.circuit.registers import ClassicalRegister, QuantumRegister, Qubit
from repro.qasm.expr import evaluate_arguments
from repro.qasm.lexer import MAX_UNROLL, QasmError, QasmToken, TokenCursor

# Gates provided by qelib1.inc (plus the builtins U and CX), mapped to the
# canonical vocabulary.  u0/u1/u2/u3 are expressed through p/u3.
_QELIB_GATES = {
    "u3": ("u3", 3, 1),
    "u2": (None, 2, 1),  # expanded specially below
    "u1": ("p", 1, 1),
    "u": ("u3", 3, 1),
    "p": ("p", 1, 1),
    "cx": ("cnot", 0, 2),
    "id": ("i", 0, 1),
    "x": ("x", 0, 1),
    "y": ("y", 0, 1),
    "z": ("z", 0, 1),
    "h": ("h", 0, 1),
    "s": ("s", 0, 1),
    "sdg": ("s_adj", 0, 1),
    "t": ("t", 0, 1),
    "tdg": ("t_adj", 0, 1),
    "sx": ("sx", 0, 1),
    "rx": ("rx", 1, 1),
    "ry": ("ry", 1, 1),
    "rz": ("rz", 1, 1),
    "cz": ("cz", 0, 2),
    "cy": ("cy", 0, 2),
    "swap": ("swap", 0, 2),
    "ccx": ("ccx", 0, 3),
    "crz": ("crz", 1, 2),
    "cp": ("cp", 1, 2),
    "cu1": ("cp", 1, 2),
    "rzz": ("rzz", 1, 2),
    "rxx": ("rxx", 1, 2),
}


class QasmParseError(QasmError):
    """An OpenQASM 2 program could not be parsed."""


#: Gate definitions may call earlier definitions this many levels deep;
#: expansion recurses once per level.
_MAX_GATE_NESTING = 64

#: Names a gate body may call without a definition of its own.
_BODY_BUILTINS = frozenset({"U", "CX", "barrier"}) | frozenset(_QELIB_GATES)


@dataclass
class _GateDef:
    name: str
    params: List[str]
    qubits: List[str]
    body: List[List[QasmToken]]  # statements as token lists
    nesting: int  # 1 + the deepest definition the body calls


class _Parser2(TokenCursor):
    error = QasmParseError

    def __init__(self, source: str):
        super().__init__(source)
        self.circuit = Circuit("qasm2")
        self.qregs: Dict[str, QuantumRegister] = {}
        self.cregs: Dict[str, ClassicalRegister] = {}
        self.gate_defs: Dict[str, _GateDef] = {}
        self.included_qelib = False
        #: Gate-body statements expanded so far, against MAX_UNROLL.
        self.expanded = 0

    # -- top level ---------------------------------------------------------------
    def parse(self) -> Circuit:
        self._expect("ID", "OPENQASM")
        version = self._expect("NUMBER")
        if version.text.startswith("3"):
            raise QasmParseError(
                f"OPENQASM {version.text} is not version 2; use parse_qasm3",
                version.line,
            )
        if version.text not in ("2", "2.0"):
            raise QasmParseError(
                f"unsupported OPENQASM version {version.text} (expected 2.0)",
                version.line,
            )
        self._expect("PUNCT", ";")
        self._statements()
        return self.circuit

    def _statement(self) -> None:
        tok = self._peek()
        assert tok is not None
        if tok.kind != "ID":
            raise QasmParseError(f"unexpected token {tok.text!r}", tok.line)
        keyword = tok.text
        if keyword == "include":
            self._next()
            path = self._expect("STRING")
            self._expect("PUNCT", ";")
            if path.text != "qelib1.inc":
                raise QasmParseError(
                    f"cannot resolve include {path.text!r} (only qelib1.inc "
                    "is built in)",
                    path.line,
                )
            self.included_qelib = True
            return
        if keyword == "qreg":
            self._next()
            name, size = self._reg_decl()
            register = QuantumRegister(name, size)
            self.circuit.add_qreg(register)
            self.qregs[name] = register
            return
        if keyword == "creg":
            self._next()
            name, size = self._reg_decl()
            register = ClassicalRegister(name, size)
            self.circuit.add_creg(register)
            self.cregs[name] = register
            return
        if keyword == "gate":
            self._parse_gate_def()
            return
        if keyword == "opaque":
            # declaration only; skip to ';'
            while self._next().text != ";":
                pass
            return
        if keyword == "measure":
            self._next()
            self._parse_measure()
            return
        if keyword == "reset":
            self._next()
            targets = self._qubit_args(1, broadcast=True)
            self._expect("PUNCT", ";")
            for (qubit,) in targets:
                self.circuit.reset(qubit)
            return
        if keyword == "barrier":
            self._next()
            qubits: List[Qubit] = []
            while True:
                qubits.extend(self._qubit_operand())
                if not self._accept("PUNCT", ","):
                    break
            self._expect("PUNCT", ";")
            self.circuit.barrier(*qubits)
            return
        if keyword == "if":
            self._next()
            self._parse_if()
            return
        # otherwise: a gate application
        self._parse_gate_application(conditional=None)

    def _reg_decl(self) -> Tuple[str, int]:
        name = self._expect("ID")
        self._expect("PUNCT", "[")
        size = self._expect("NUMBER")
        self._expect("PUNCT", "]")
        self._expect("PUNCT", ";")
        if "." in size.text:
            raise QasmParseError("register size must be an integer", size.line)
        self._declare_bits(int(size.text), size.line)
        return name.text, int(size.text)

    # -- gate definitions -----------------------------------------------------------
    def _parse_gate_def(self) -> None:
        self._expect("ID", "gate")
        name_tok = self._expect("ID")
        name = name_tok.text
        if name in self.gate_defs:
            raise QasmParseError(f"gate {name!r} is already defined", name_tok.line)
        params: List[str] = []
        if self._accept("PUNCT", "("):
            if not self._accept("PUNCT", ")"):
                while True:
                    params.append(self._expect("ID").text)
                    if not self._accept("PUNCT", ","):
                        break
                self._expect("PUNCT", ")")
        qubits: List[str] = []
        while True:
            qubits.append(self._expect("ID").text)
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", "{")
        body: List[List[QasmToken]] = []
        statement: List[QasmToken] = []
        depth = 1
        while True:
            tok = self._next()
            if tok.kind == "PUNCT" and tok.text == "{":
                depth += 1
            elif tok.kind == "PUNCT" and tok.text == "}":
                depth -= 1
                if depth == 0:
                    break
            elif tok.kind == "PUNCT" and tok.text == ";":
                if statement:
                    body.append(statement)
                statement = []
                continue
            statement.append(tok)
        # A body calls only builtins and earlier definitions, so expansion
        # cannot recurse into the gate being defined.
        nesting = 0
        for head, *_ in body:
            if head.text in _BODY_BUILTINS:
                continue
            called = self.gate_defs.get(head.text)
            if called is None:
                raise QasmParseError(
                    f"gate {name!r} calls {head.text!r} before it is defined",
                    head.line,
                )
            nesting = max(nesting, called.nesting)
        if nesting >= _MAX_GATE_NESTING:
            raise QasmParseError(
                f"gate {name!r} nests definitions deeper than {_MAX_GATE_NESTING}",
                name_tok.line,
            )
        self.gate_defs[name] = _GateDef(name, params, qubits, body, nesting + 1)

    # -- applications -----------------------------------------------------------
    def _parse_gate_application(self, conditional) -> None:
        name_tok = self._expect("ID")
        name = name_tok.text
        params: List[float] = []
        if self._accept("PUNCT", "("):
            params = evaluate_arguments(self._texts())
        operands: List[List[Qubit]] = []
        while True:
            operands.append(self._qubit_operand())
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ";")
        self._apply_gate(name, params, operands, conditional, name_tok.line)

    def _qubit_operand(self) -> List[Qubit]:
        """A register name (whole register) or an indexed qubit."""
        name = self._expect("ID")
        register = self.qregs.get(name.text)
        if register is None:
            raise QasmParseError(f"unknown quantum register {name.text!r}", name.line)
        if self._accept("PUNCT", "["):
            index = self._expect("NUMBER")
            self._expect("PUNCT", "]")
            i = int(index.text)
            if i >= register.size:
                raise QasmParseError(
                    f"index {i} out of range for {name.text}[{register.size}]",
                    index.line,
                )
            return [register[i]]
        return list(register)

    def _qubit_args(
        self, arity: int, broadcast: bool = False
    ) -> List[Tuple[Qubit, ...]]:
        operands: List[List[Qubit]] = []
        for i in range(arity):
            operands.append(self._qubit_operand())
            if i + 1 < arity:
                self._expect("PUNCT", ",")
        return _broadcast(operands)

    def _apply_gate(
        self,
        name: str,
        params: List[float],
        operands: List[List[Qubit]],
        conditional,
        line: int,
    ) -> None:
        rows = _broadcast(operands)
        for row in rows:
            for op in self._build_ops(name, params, list(row), line):
                if conditional is not None:
                    register, value = conditional
                    from repro.circuit.operations import ConditionalOperation

                    self.circuit.append(
                        ConditionalOperation(register, value, op)
                    )
                else:
                    self.circuit.append(op)

    def _build_ops(
        self, name: str, params: List[float], qubits: List[Qubit], line: int
    ) -> List[Operation]:
        if name in ("U",):
            if len(params) != 3 or len(qubits) != 1:
                raise QasmParseError("U takes 3 params and 1 qubit", line)
            return [GateOperation("u3", qubits, params)]
        if name == "CX":
            return [GateOperation("cnot", qubits)]
        entry = _QELIB_GATES.get(name)
        if entry is not None:
            canonical, num_params, num_qubits = entry
            if len(params) != num_params or len(qubits) != num_qubits:
                raise QasmParseError(
                    f"{name} takes {num_params} params and {num_qubits} qubits",
                    line,
                )
            if name == "u2":
                phi, lam = params
                import math

                return [GateOperation("u3", qubits, [math.pi / 2, phi, lam])]
            assert canonical is not None
            return [GateOperation(canonical, qubits, params)]
        gate_def = self.gate_defs.get(name)
        if gate_def is not None:
            return self._expand_gate_def(gate_def, params, qubits, line)
        raise QasmParseError(f"unknown gate {name!r}", line)

    def _expand_gate_def(
        self, gate_def: _GateDef, params: List[float], qubits: List[Qubit], line: int
    ) -> List[Operation]:
        if len(params) != len(gate_def.params) or len(qubits) != len(gate_def.qubits):
            raise QasmParseError(
                f"{gate_def.name} takes {len(gate_def.params)} params and "
                f"{len(gate_def.qubits)} qubits",
                line,
            )
        bindings = dict(zip(gate_def.params, params))
        qubit_map = dict(zip(gate_def.qubits, qubits))
        ops: List[Operation] = []
        for statement in gate_def.body:
            ops.extend(self._expand_statement(statement, bindings, qubit_map, line))
        return ops

    def _expand_statement(
        self,
        statement: List[QasmToken],
        bindings: Dict[str, float],
        qubit_map: Dict[str, Qubit],
        line: int,
    ) -> List[Operation]:
        if not statement:
            return []
        self.expanded += 1
        if self.expanded > MAX_UNROLL:
            raise QasmParseError(
                f"gate expansion exceeds {MAX_UNROLL} statements", line
            )
        head = statement[0]
        if head.text == "barrier":
            return []
        rest = iter(statement[1:])
        inner_params: List[float] = []
        if len(statement) > 1 and statement[1].text == "(":
            next(rest)
            inner_params = evaluate_arguments((tok.text for tok in rest), bindings)
        inner_qubits: List[Qubit] = []
        for tok in rest:
            if tok.kind == "ID":
                mapped = qubit_map.get(tok.text)
                if mapped is None:
                    raise QasmParseError(
                        f"unbound qubit {tok.text!r} in gate body", tok.line
                    )
                inner_qubits.append(mapped)
        return self._build_ops(head.text, inner_params, inner_qubits, line)

    # -- measure / if -----------------------------------------------------------
    def _parse_measure(self) -> None:
        sources = self._qubit_operand()
        self._expect("ARROW")
        name = self._expect("ID")
        register = self.cregs.get(name.text)
        if register is None:
            raise QasmParseError(f"unknown classical register {name.text!r}", name.line)
        if self._accept("PUNCT", "["):
            index = self._expect("NUMBER")
            self._expect("PUNCT", "]")
            targets = [register[int(index.text)]]
        else:
            targets = list(register)
        self._expect("PUNCT", ";")
        if len(sources) != len(targets):
            raise QasmParseError(
                f"measure width mismatch: {len(sources)} qubits -> "
                f"{len(targets)} bits",
                name.line,
            )
        for qubit, clbit in zip(sources, targets):
            self.circuit.measure(qubit, clbit)

    def _parse_if(self) -> None:
        self._expect("PUNCT", "(")
        name = self._expect("ID")
        register = self.cregs.get(name.text)
        if register is None:
            raise QasmParseError(f"unknown classical register {name.text!r}", name.line)
        self._expect("EQEQ")
        value = self._expect("NUMBER")
        self._expect("PUNCT", ")")
        head = self._peek()
        if head is None:
            head = self._next()  # raises: nothing follows the condition
        if head.text == "measure":
            raise QasmParseError("conditional measure is not supported", head.line)
        if head.text == "reset":
            self._next()
            targets = self._qubit_operand()
            self._expect("PUNCT", ";")
            from repro.circuit.operations import ConditionalOperation

            for qubit in targets:
                self.circuit.append(
                    ConditionalOperation(register, int(value.text), Reset(qubit))
                )
            return
        self._parse_gate_application(conditional=(register, int(value.text)))


def _broadcast(operands: List[List[Qubit]]) -> List[Tuple[Qubit, ...]]:
    """OpenQASM register broadcasting: ``cx q, r`` on size-n registers means
    n pairwise applications; scalars broadcast against registers."""
    width = max(len(o) for o in operands)
    for operand in operands:
        if len(operand) not in (1, width):
            raise QasmParseError(
                f"cannot broadcast operands of sizes {[len(o) for o in operands]}"
            )
    rows: List[Tuple[Qubit, ...]] = []
    for i in range(width):
        rows.append(tuple(o[i] if len(o) == width else o[0] for o in operands))
    return rows


def parse_qasm2(source: str) -> Circuit:
    """Parse OpenQASM 2.0 source into a :class:`Circuit`."""
    return _Parser2(source).parse()
