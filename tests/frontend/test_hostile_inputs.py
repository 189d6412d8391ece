"""Hostile-input hardening: malformed QIR/LLVM text must fail with
*structured* errors (``ValueError`` subclasses with a useful message),
never a crash, an unstructured exception, or a hang.

This is the frontend's half of the robustness contract: the runtime can
only supervise what it was handed, so everything upstream of the execute
phase -- lexer, parser, verifier, profile validator -- must turn garbage
into a diagnosis.  Each case here is a distinct way real-world input
goes wrong (truncation, corruption, type confusion, dangling
references, profile abuse); the driver asserts the error is one of the
frontend's declared types and carries a non-empty message.
"""

import pytest

from repro.llvmir import ParseError, VerificationError, parse_assembly
from repro.llvmir.lexer import LexError
from repro.qir import BaseProfile
from repro.qir.validate import ProfileError, check_profile
from repro.runtime.session import QirSession

#: Every frontend diagnosis is a ValueError subclass, so CLI layers can
#: catch one type and map it to the parse exit code.
FRONTEND_ERRORS = (LexError, ParseError, VerificationError, ProfileError)


HOSTILE_SOURCES = {
    "top_level_garbage": "this is not LLVM assembly at all",
    "binary_noise": "\x01\x02\x7f\x00 define @\x00",
    "truncated_function": "define void @main() #0 {\nentry:\n  ret void\n",
    "truncated_mid_call": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  call void @__quantum__qis__h__body(ptr"
    ),
    "unknown_opcode": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  frobnicate i64 1, 2\n"
        "  ret void\n"
        "}\n"
    ),
    "branch_to_undefined_label": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  br label %nowhere\n"
        "}\n"
    ),
    "use_of_undefined_local": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  %a = add i64 %ghost, 1\n"
        "  ret void\n"
        "}\n"
    ),
    "duplicate_block_label": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  br label %next\n"
        "next:\n"
        "  ret void\n"
        "next:\n"
        "  ret void\n"
        "}\n"
    ),
    "ssa_redefinition": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  %a = add i64 1, 1\n"
        "  %a = add i64 2, 2\n"
        "  ret void\n"
        "}\n"
    ),
    "named_void_instruction": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  %x = call void @__quantum__qis__h__body(ptr null)\n"
        "  ret void\n"
        "}\n"
        "declare void @__quantum__qis__h__body(ptr)\n"
    ),
    "integer_literal_with_float_type": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  %a = fadd double 1.5, true\n"
        "  ret void\n"
        "}\n"
    ),
    "local_in_constant_context": (
        "@g = constant i64 %local\n"
    ),
    "unclosed_string_attribute": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  ret void\n"
        "}\n"
        'attributes #0 = { "entry_point\n'
    ),
    "block_without_terminator": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  %a = add i64 1, 1\n"
        "}\n"
    ),
    "missing_function_body_brace": "define void @main() #0 {",
    "bad_string_escape": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  ret void\n"
        "}\n"
        'attributes #0 = { "a\\zz" }\n'
    ),
    "non_ascii_digit": (
        "define i32 @main() #0 {\n"
        "entry:\n"
        "  ret i32 ²\n"
        "}\n"
        'attributes #0 = { "entry_point" }\n'
    ),
    "bare_hex_prefix": (
        "define double @main() #0 {\n"
        "entry:\n"
        "  ret double 0x\n"
        "}\n"
        'attributes #0 = { "entry_point" }\n'
    ),
    "store_to_non_pointer": (
        "define void @main() #0 {\n"
        "entry:\n"
        "  store i64 1, i64 5\n"
        "  ret void\n"
        "}\n"
    ),
}


class TestHostileInputs:
    @pytest.mark.parametrize("name", sorted(HOSTILE_SOURCES))
    def test_malformed_source_fails_structurally(self, name):
        source = HOSTILE_SOURCES[name]
        with pytest.raises(FRONTEND_ERRORS) as excinfo:
            QirSession().compile(source)
        message = str(excinfo.value)
        assert message, f"{name}: empty diagnostic"
        # Structured means catchable as ValueError at the CLI boundary.
        assert isinstance(excinfo.value, ValueError)

    def test_conflicting_redeclaration_is_a_value_error(self):
        source = (
            "define void @main() #0 {\n"
            "entry:\n"
            "  call void @__quantum__qis__h__body()\n"
            "  ret void\n"
            "}\n"
            "declare void @__quantum__qis__h__body(ptr)\n"
            'attributes #0 = { "entry_point" }\n'
        )
        with pytest.raises(ValueError, match="conflicting declaration"):
            QirSession().compile(source)

    def test_base_profile_rejects_dynamic_allocation(self):
        source = (
            "define void @main() #0 {\n"
            "entry:\n"
            "  %q = call ptr @__quantum__rt__qubit_allocate()\n"
            "  call void @__quantum__rt__qubit_release(ptr %q)\n"
            "  ret void\n"
            "}\n"
            "declare ptr @__quantum__rt__qubit_allocate()\n"
            "declare void @__quantum__rt__qubit_release(ptr)\n"
            'attributes #0 = { "entry_point" }\n'
        )
        module = parse_assembly(source)
        with pytest.raises(ProfileError) as excinfo:
            check_profile(module, BaseProfile)
        assert excinfo.value.violations

    def test_pathologically_nested_expression_terminates(self):
        # A lexer/parser bomb: deep nesting must diagnose (or parse) in
        # bounded time, never recurse into a crash.
        depth = 200
        nested = "inttoptr (i64 1 to ptr)"
        source = (
            "define void @main() #0 {\n"
            "entry:\n"
            f"  call void @f({'ptr ' + nested})\n"
            "  ret void\n"
            "}\n"
            "declare void @f(ptr)\n" + "; filler\n" * depth
        )
        QirSession().compile(source)

    def test_very_long_single_line_terminates(self):
        source = "define void @main() #0 { entry: ret void } " + "@" * 100_000
        with pytest.raises(FRONTEND_ERRORS):
            QirSession().compile(source)

    def test_every_case_also_fails_without_verifier(self):
        # Skipping verify must not turn a parse-level diagnosis into a
        # crash deeper in the stack.
        for name, source in sorted(HOSTILE_SOURCES.items()):
            try:
                QirSession().compile(source, verify=False)
            except FRONTEND_ERRORS:
                continue
            except Exception as error:  # pragma: no cover - the assertion
                pytest.fail(f"{name}: unstructured {type(error).__name__}: {error}")
