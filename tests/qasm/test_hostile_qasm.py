"""Hostile OpenQASM input: every malformed program fails with the parser's
own error type and the line it went wrong on, never a bare Python
exception (``RecursionError``, ``IndexError``, ``OverflowError``, ...)."""

import pytest

from repro.qasm.parser2 import QasmParseError, parse_qasm2
from repro.qasm.parser3 import Qasm3ParseError, parse_qasm3

H2 = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
H3 = "OPENQASM 3;\n"
DEEP = "(" * 2000 + "1" + ")" * 2000
#: g17 expands to 2**17 leaf statements from 540 bytes of source.
DOUBLING = "gate g0 a { h a; }\n" + "".join(
    f"gate g{i} a {{ g{i - 1} a; g{i - 1} a; }}\n" for i in range(1, 18)
)

#: id -> (source, line of the error, message pattern)
QASM2_HOSTILE = {
    "empty": ("", 1, "unexpected end of input"),
    "missing_header": ("qreg q[1];", 1, "expected OPENQASM"),
    "header_in_comment": ("// OPENQASM 2.0;\nqreg q[1];", 2, "expected OPENQASM"),
    "unsupported_minor_version": ("OPENQASM 2.1;\nqreg q[1];", 1, "unsupported OPENQASM version 2.1"),
    "version_3": ("OPENQASM 3.0;", 1, "not version 2"),
    "header_without_semicolon": ("OPENQASM 2.0\nqreg q[1];", 2, "expected ;"),
    "declaration_in_block_comment": (H2 + "/* qreg q[1]; */\nh q[0];", 4, "unknown quantum register 'q'"),
    "unterminated_block_comment": (H2 + "qreg q[1];\n/* h q[0];", 4, "unexpected token '/'"),
    "self_recursive_gate": (H2 + "gate g a { g a; }\nqreg q[1];\ng q[0];", 3, "calls 'g' before it is defined"),
    "recursion_by_redefinition": (H2 + "gate g a { h a; }\ngate g a { g a; }", 4, "'g' is already defined"),
    "gate_nesting": (
        H2 + "gate g0 a { h a; }\n" + "".join(f"gate g{i} a {{ g{i - 1} a; }}\n" for i in range(1, 100)),
        67,
        "nests definitions deeper than 64",
    ),
    "deep_parameter": (H2 + f"qreg q[1];\nrx({DEEP}) q[0];", 4, "nests deeper than 64 parentheses"),
    "duplicate_qreg": (H2 + "qreg q[1];\nqreg q[2];", 4, "duplicate quantum register 'q'"),
    "duplicate_creg": (H2 + "creg c[1];\ncreg c[1];", 4, "duplicate classical register 'c'"),
    "duplicate_operands": (H2 + "qreg q[2];\ncx q[0], q[0];", 4, "duplicate qubits"),
    "duplicate_operands_broadcast": (H2 + "qreg q[2];\ncx q, q;", 4, "duplicate qubits"),
    "too_few_qubits": (H2 + "qreg q[2];\ncx q[0];", 4, "cx takes 0 params and 2 qubits"),
    "too_many_qubits": (H2 + "qreg q[2];\nh q[0], q[1];", 4, "h takes 0 params and 1 qubits"),
    "missing_parameter": (H2 + "qreg q[1];\nrx q[0];", 4, "rx takes 1 params"),
    "extra_parameter": (H2 + "qreg q[1];\nh(0.1) q[0];", 4, "h takes 0 params"),
    "u2_parameters": (H2 + "qreg q[1];\nu2(1) q[0];", 4, "u2 takes 2 params"),
    "defined_gate_arity": (H2 + "gate g a, b { cx a, b; }\nqreg q[2];\ng q[0];", 5, "g takes 0 params and 2 qubits"),
    "clbit_out_of_range": (H2 + "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[5];", 5, "bit index 5 out of range"),
    "math_range": (H2 + "qreg q[1];\nrx(exp(1000)) q[0];", 4, "math range error"),
    "complex_power": (H2 + "qreg q[1];\nrx((-8)^(1/3)) q[0];", 4, "not real"),
    "truncated_if": (H2 + "qreg q[1];\ncreg c[1];\nif (c == 1)", 5, "unexpected end of input"),
    "truncated_expression": (H2 + "qreg q[1];\nrx(1 +) q[0];", 4, "unexpected end of expression"),
    "doubling_gate_chain": (H2 + DOUBLING + "qreg q[1];\ng17 q[0];", 22, "gate expansion exceeds 100000 statements"),
    "expansion_budget_is_per_program": (
        H2 + DOUBLING + "qreg q[1];\ng15 q[0];\ng15 q[0];", 23, "gate expansion exceeds 100000",
    ),
    "huge_registers": (H2 + "qreg q[1000000];\ncreg c[1000000];\nh q[0];", 3, "declares 1000000 bits in total"),
    "total_declared_bits": (H2 + "qreg q[16384];\ncreg c[1];", 4, "declares 16385 bits in total"),
}

QASM3_HOSTILE = {
    "empty": ("", 1, "unexpected end of input"),
    "missing_header": ("qubit[1] q;", 1, "expected OPENQASM"),
    "header_in_comment": ("/* OPENQASM 3; */\nqubit[1] q;", 2, "expected OPENQASM"),
    "version_2": ("OPENQASM 2.0;\nqubit[1] q;", 1, "not version 3"),
    "unsupported_minor_version": ("OPENQASM 3.5;", 1, "not version 3"),
    "declaration_in_line_comment": (H3 + "// qubit[1] q;\nh q[0];", 3, "unknown qubit register 'q'"),
    "deep_parameter": (H3 + f"qubit[1] q;\nrx({DEEP}) q[0];", 3, "nests deeper than 64 parentheses"),
    "deep_index": (H3 + "qubit[1] q;\nh q[" + "(" * 2000 + "0" + ")" * 2000 + "];", 3, "nests deeper"),
    "loop_nesting": (
        H3 + "qubit[1] q;\n" + "for uint i in [0:0] { " * 600 + "h q[0];" + " }" * 600,
        3,
        "loops nest deeper than 16",
    ),
    "nested_unroll_budget": (
        H3 + "qubit[1] q;\nfor uint i in [0:999] { for uint j in [0:999] { h q[0]; } }",
        3,
        "too large to unroll",
    ),
    "duplicate_qubit_register": (H3 + "qubit[1] q;\nqubit[2] q;", 3, "duplicate quantum register 'q'"),
    "duplicate_bit_register": (H3 + "bit[1] c;\nbit[1] c;", 3, "duplicate classical register 'c'"),
    "duplicate_operands": (H3 + "qubit[2] q;\ncx q[0], q[0];", 3, "duplicate qubits"),
    "too_few_qubits": (H3 + "qubit[2] q;\ncx q[0];", 3, "cx takes 0 params and 2 qubits"),
    "too_many_qubits": (H3 + "qubit[2] q;\nh q[0], q[1];", 3, "h takes 0 params and 1 qubits"),
    "missing_parameter": (H3 + "qubit[1] q;\nrx q[0];", 3, "rx takes 1 params"),
    "extra_parameter": (H3 + "qubit[1] q;\nh(0.1) q[0];", 3, "h takes 0 params"),
    "u2_parameters": (H3 + "qubit[1] q;\nu2(1) q[0];", 3, "u2 takes 2 params"),
    "clbit_out_of_range": (H3 + "qubit[1] q;\nbit[1] c;\nc[4] = measure q[0];", 4, "bit index 4 out of range"),
    "math_range": (H3 + "qubit[1] q;\nrx(exp(1000)) q[0];", 3, "math range error"),
    "truncated_loop": (H3 + "qubit[1] q;\nfor uint i in [0:1] { h q[0];", 3, "unexpected end of input"),
    "huge_register": (H3 + "qubit[100000] q;", 2, "declares 100000 bits in total"),
    "total_declared_bits": (H3 + "qubit[16000] q;\nbit[385] c;", 3, "declares 16385 bits in total"),
}


@pytest.mark.parametrize("name", sorted(QASM2_HOSTILE))
def test_qasm2_hostile_input_fails_with_a_line(name):
    source, line, pattern = QASM2_HOSTILE[name]
    with pytest.raises(QasmParseError, match=f"^line {line}: .*({pattern})"):
        parse_qasm2(source)


@pytest.mark.parametrize("name", sorted(QASM3_HOSTILE))
def test_qasm3_hostile_input_fails_with_a_line(name):
    source, line, pattern = QASM3_HOSTILE[name]
    with pytest.raises(Qasm3ParseError, match=f"^line {line}: .*({pattern})"):
        parse_qasm3(source)


def test_comments_around_the_header_are_accepted():
    circuit = parse_qasm2("// lead\nOPENQASM 2.0; /* after */\nqreg q[1]; // tail\nh q[0];\n// end")
    assert len(circuit.operations) == 1
    circuit = parse_qasm3("/* lead */\nOPENQASM 3.0; // after\nqubit[1] q;\nh q[0]; /* end */")
    assert len(circuit.operations) == 1


def test_unary_and_power_chains_do_not_recurse():
    circuit = parse_qasm2(H2 + "qreg q[1];\nrx(" + "-" * 3000 + "1) q[0];\nrx(" + "1^" * 3000 + "2) q[0];")
    assert [op.params for op in circuit.operations] == [(1.0,), (1.0,)]


def test_declared_bit_budget_is_inclusive():
    circuit = parse_qasm2(H2 + "qreg q[16383];\ncreg c[1];")
    assert circuit.num_qubits == 16383
    circuit = parse_qasm3(H3 + "qubit[16384] q;")
    assert circuit.num_qubits == 16384
