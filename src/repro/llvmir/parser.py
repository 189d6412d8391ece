"""Recursive-descent parser for the ``.ll`` subset QIR programs use.

Supports both modern opaque-pointer syntax (``ptr``) and the legacy typed
pointer syntax used in the original QIR specification (``%Qubit*``,
``%Array*``); legacy pointers are normalised to opaque ``ptr`` as the paper's
footnote 1 does.

Forward references (phi nodes or branches to later definitions) are handled
with placeholder values patched at end-of-function.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.llvmir.block import BasicBlock
from repro.llvmir.function import Function
from repro.llvmir.instructions import (
    AllocaInst,
    BINARY_OPCODES,
    BinaryInst,
    BranchInst,
    CallInst,
    CAST_OPCODES,
    CastInst,
    CondBranchInst,
    FCMP_PREDICATES,
    FCmpInst,
    GetElementPtrInst,
    ICMP_PREDICATES,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
    WRAP_FLAGS,
)
from repro.llvmir.lexer import Lexer, Token
from repro.llvmir.module import AttributeGroup, Module
from repro.llvmir.types import (
    ArrayType,
    DoubleType,
    FunctionType,
    IntType,
    IRType,
    LabelType,
    PointerType,
    StructType,
    VoidType,
    double,
    label,
    ptr,
    void,
)
from repro.llvmir.values import (
    ConstantArray,
    ConstantExpr,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantPointerInt,
    ConstantString,
    ConstantUndef,
    GlobalVariable,
    MetadataNode,
    MetadataString,
    Value,
)


class ParseError(ValueError):
    def __init__(self, message: str, token: Optional[Token] = None):
        if token is not None:
            message = f"{message} at line {token.line}, column {token.column} (near {token.text!r})"
        super().__init__(message)


# Parameter/return attributes that may decorate call arguments; QIR emits
# ``writeonly`` on result pointers (paper, Example 6).
_PARAM_ATTRS = {
    "writeonly", "readonly", "readnone", "nocapture", "noalias", "nonnull",
    "signext", "zeroext", "inreg", "returned", "noundef", "immarg", "captures",
}

_FAST_MATH_FLAGS = {"fast", "nnan", "ninf", "nsz", "arcp", "contract", "afn", "reassoc"}

_LINKAGES = {
    "private", "internal", "external", "linkonce", "linkonce_odr", "weak",
    "weak_odr", "common", "appending", "extern_weak", "available_externally",
}


class _Forward(Value):
    """Placeholder for a not-yet-defined local value."""

    __slots__ = ("ref_name",)

    def __init__(self, type_: IRType, ref_name: str):
        super().__init__(type_, ref_name)
        self.ref_name = ref_name


class Parser:
    def __init__(
        self,
        source: str,
        module_name: str = "module",
        tokens: Optional[List[Token]] = None,
    ):
        # A caller that already lexed (e.g. to time lexing separately, see
        # parse_assembly's observer path) can hand the token stream in.
        self.tokens = tokens if tokens is not None else Lexer(source).tokenize()
        self.index = 0
        self.module = Module(module_name)
        # Metadata bookkeeping: numbered nodes may be referenced before they
        # are defined, so collect raw element lists first.
        self._md_nodes: Dict[str, MetadataNode] = {}
        self._md_named: Dict[str, List[str]] = {}
        self._pending_fn_groups: List[Tuple[Function, int]] = []

    # -- token helpers ---------------------------------------------------------
    def _peek(self) -> Token:
        # The EOF sentinel is never consumed, so the cursor stays in range.
        return self.tokens[self.index]

    def _peek_next(self) -> Token:
        """The token after the current one; EOF once the stream ends."""
        return self.tokens[min(self.index + 1, len(self.tokens) - 1)]

    def _next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.tokens[self.index]
        if tok.kind == kind and (text is None or tok.text == text):
            return self._next()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = f"{kind} {text!r}" if text else kind
            raise ParseError(f"expected {want}", tok)
        return self._next()

    def _accept_word(self, *words: str) -> Optional[str]:
        tok = self.tokens[self.index]
        if tok.kind == "WORD" and tok.text in words:
            self._next()
            return tok.text
        return None

    # -- types ---------------------------------------------------------------
    def parse_type(self) -> IRType:
        tok = self._next()
        base: IRType
        if tok.kind == "WORD":
            text = tok.text
            if text == "void":
                base = void
            elif text == "double" or text == "float":
                base = double
            elif text == "ptr":
                base = ptr
            elif text == "label":
                base = label
            elif text.startswith("i") and text[1:].isdigit():
                base = IntType(int(text[1:]))
            else:
                raise ParseError(f"unknown type {text!r}", tok)
        elif tok.kind == "PUNCT" and tok.text == "[":
            count_tok = self._expect("INT")
            self._expect("WORD", "x")
            element = self.parse_type()
            self._expect("PUNCT", "]")
            base = ArrayType(int(count_tok.text), element)
        elif tok.kind == "LOCAL":
            struct = self.module.struct_types.get(tok.text)
            if struct is None:
                struct = StructType(tok.text, opaque=True)
                self.module.declare_struct(struct)
            base = struct
        else:
            raise ParseError("expected a type", tok)

        # Legacy typed pointers: any number of '*' suffixes collapse to ptr.
        stars = 0
        while self._accept("PUNCT", "*"):
            stars += 1
        if stars:
            hint = base.name if isinstance(base, StructType) else None
            return PointerType(hint)
        return base

    # -- values ---------------------------------------------------------------
    def _parse_int_constant(self, type_: IRType, tok: Token) -> ConstantInt:
        if not isinstance(type_, IntType):
            raise ParseError(f"integer literal with non-integer type {type_}", tok)
        return ConstantInt(type_, int(tok.text))

    def _parse_float_constant(self, type_: IRType, tok: Token) -> ConstantFloat:
        if not isinstance(type_, DoubleType):
            raise ParseError(f"float literal with non-float type {type_}", tok)
        text = tok.text
        if text.lower().startswith("0x") or (
            text.startswith("-0x") or text.startswith("-0X")
        ):
            bits = int(text, 16)
            value = struct.unpack("<d", struct.pack("<Q", bits))[0]
        else:
            value = float(text)
        return ConstantFloat(double, value)

    def parse_value(
        self, type_: IRType, locals_: Optional[Dict[str, Value]] = None
    ) -> Value:
        """Parse an operand of known type."""
        tok = self._peek()
        if tok.kind == "LOCAL":
            self._next()
            if locals_ is None:
                raise ParseError("local value in constant context", tok)
            value = locals_.get(tok.text)
            if value is None:
                value = _Forward(type_, tok.text)
                locals_[tok.text] = value
            return value
        if tok.kind == "GLOBAL":
            self._next()
            fn = self.module.get_function(tok.text)
            if fn is not None:
                return fn
            gv = self.module.get_global(tok.text)
            if gv is not None:
                return gv
            # forward global reference: create a placeholder global
            gv = GlobalVariable(tok.text, None)
            self.module.add_global(gv)
            return gv
        if tok.kind == "INT":
            self._next()
            if isinstance(type_, DoubleType):
                return ConstantFloat(double, float(tok.text))
            return self._parse_int_constant(type_, tok)
        if tok.kind == "FLOAT":
            self._next()
            return self._parse_float_constant(type_, tok)
        if tok.kind == "CSTRING":
            self._next()
            return ConstantString(tok.text.encode("latin-1"))
        if tok.kind == "WORD":
            if tok.text == "true":
                self._next()
                return ConstantInt(IntType(1), 1)
            if tok.text == "false":
                self._next()
                return ConstantInt(IntType(1), 0)
            if tok.text == "null":
                self._next()
                return ConstantNull(type_ if isinstance(type_, PointerType) else ptr)
            if tok.text == "undef" or tok.text == "poison":
                self._next()
                return ConstantUndef(type_)
            if tok.text == "zeroinitializer":
                self._next()
                return self._zero_constant(type_, tok)
            if tok.text == "inttoptr":
                return self._parse_inttoptr_expr()
            if tok.text == "ptrtoint":
                return self._parse_cast_expr("ptrtoint")
            if tok.text == "bitcast":
                return self._parse_cast_expr("bitcast")
            if tok.text == "getelementptr":
                return self._parse_gep_expr()
        if tok.kind == "PUNCT" and tok.text == "[":
            return self._parse_array_constant(type_, tok)
        raise ParseError(f"cannot parse value of type {type_}", tok)

    def _zero_constant(self, type_: IRType, tok: Token) -> Value:
        if isinstance(type_, IntType):
            return ConstantInt(type_, 0)
        if isinstance(type_, DoubleType):
            return ConstantFloat(double, 0.0)
        if isinstance(type_, PointerType):
            return ConstantNull(type_)
        if isinstance(type_, ArrayType) and type_.element == IntType(8):
            return ConstantString(b"\x00" * type_.count)
        raise ParseError(f"zeroinitializer unsupported for {type_}", tok)

    def _parse_array_constant(self, type_: IRType, tok: Token) -> ConstantArray:
        if not isinstance(type_, ArrayType):
            raise ParseError(f"array constant with non-array type {type_}", tok)
        self._expect("PUNCT", "[")
        elements = []
        if not self._accept("PUNCT", "]"):
            while True:
                el_type = self.parse_type()
                elements.append(self.parse_value(el_type))
                if not self._accept("PUNCT", ","):
                    break
            self._expect("PUNCT", "]")
        return ConstantArray(type_.element, elements)

    def _parse_inttoptr_expr(self) -> ConstantPointerInt:
        self._expect("WORD", "inttoptr")
        self._expect("PUNCT", "(")
        src_type = self.parse_type()
        if not isinstance(src_type, IntType):
            raise ParseError("inttoptr source must be integer", self._peek())
        value_tok = self._expect("INT")
        self._expect("WORD", "to")
        self.parse_type()  # destination pointer type
        self._expect("PUNCT", ")")
        return ConstantPointerInt(int(value_tok.text), src_type)

    def _parse_cast_expr(self, opcode: str) -> ConstantExpr:
        self._expect("WORD", opcode)
        self._expect("PUNCT", "(")
        src_type = self.parse_type()
        operand = self.parse_value(src_type)
        self._expect("WORD", "to")
        dest_type = self.parse_type()
        self._expect("PUNCT", ")")
        return ConstantExpr(opcode, dest_type, [operand])

    def _parse_gep_expr(self) -> ConstantExpr:
        self._expect("WORD", "getelementptr")
        self._accept_word("inbounds")
        self._expect("PUNCT", "(")
        source_type = self.parse_type()
        self._expect("PUNCT", ",")
        operands: List[Value] = []
        while True:
            op_type = self.parse_type()
            operands.append(self.parse_value(op_type))
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ")")
        return ConstantExpr("getelementptr", ptr, operands, extra=(source_type,))

    # -- top level ---------------------------------------------------------------
    def parse_module(self) -> Module:
        while True:
            tok = self._peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "WORD":
                if tok.text == "define":
                    self._parse_define()
                    continue
                if tok.text == "declare":
                    self._parse_declare()
                    continue
                if tok.text == "attributes":
                    self._parse_attribute_group()
                    continue
                if tok.text == "source_filename":
                    self._next()
                    self._expect("PUNCT", "=")
                    self.module.source_filename = self._expect("STRING").text
                    continue
                if tok.text == "target":
                    self._next()
                    self._next()  # datalayout | triple
                    self._expect("PUNCT", "=")
                    self._expect("STRING")
                    continue
            if tok.kind == "LOCAL":
                self._parse_struct_decl()
                continue
            if tok.kind == "GLOBAL":
                self._parse_global()
                continue
            if tok.kind == "METADATA":
                self._parse_metadata_def()
                continue
            raise ParseError("unexpected top-level construct", tok)

        self._finalize_metadata()
        self._resolve_attribute_groups()
        return self.module

    def _parse_struct_decl(self) -> None:
        name_tok = self._expect("LOCAL")
        self._expect("PUNCT", "=")
        self._expect("WORD", "type")
        if self._accept_word("opaque"):
            self.module.declare_struct(StructType(name_tok.text, opaque=True))
            return
        self._expect("PUNCT", "{")
        fields: List[IRType] = []
        if not self._accept("PUNCT", "}"):
            while True:
                fields.append(self.parse_type())
                if not self._accept("PUNCT", ","):
                    break
            self._expect("PUNCT", "}")
        self.module.declare_struct(StructType(name_tok.text, fields))

    def _parse_global(self) -> None:
        name_tok = self._expect("GLOBAL")
        self._expect("PUNCT", "=")
        linkage = ""
        while True:
            word = self._peek()
            if word.kind == "WORD" and word.text in _LINKAGES:
                linkage = word.text
                self._next()
            elif word.kind == "WORD" and word.text in (
                "unnamed_addr", "local_unnamed_addr", "dso_local",
            ):
                self._next()
            else:
                break
        kind = self._accept_word("constant", "global")
        if kind is None:
            raise ParseError("expected 'constant' or 'global'", self._peek())
        value_type = self.parse_type()
        initializer = None
        tok = self._peek()
        if not (tok.kind == "PUNCT" and tok.text == ",") and tok.kind != "EOF":
            if self._could_start_value():
                initializer = self.parse_value(value_type)
        while self._accept("PUNCT", ","):
            self._accept_word("align")
            self._accept("INT")

        existing = self.module.get_global(name_tok.text)
        if existing is not None:
            # was forward-referenced; fill in
            existing.initializer = initializer  # type: ignore[assignment]
            existing.is_constant = kind == "constant"
            existing.linkage = linkage
        else:
            self.module.add_global(
                GlobalVariable(name_tok.text, initializer, kind == "constant", linkage)
            )

    def _could_start_value(self) -> bool:
        tok = self._peek()
        if tok.kind in ("INT", "FLOAT", "CSTRING", "GLOBAL", "LOCAL"):
            return True
        if tok.kind == "PUNCT" and tok.text == "[":
            return True
        return tok.kind == "WORD" and tok.text in (
            "true", "false", "null", "undef", "poison", "zeroinitializer",
            "inttoptr", "ptrtoint", "bitcast", "getelementptr",
        )

    def _parse_fn_attrs(self, fn: Function) -> None:
        while True:
            tok = self._peek()
            if tok.kind == "ATTRGROUP":
                self._next()
                self._pending_fn_groups.append((fn, int(tok.text)))
            elif tok.kind == "STRING":
                self._next()
                key = tok.text
                value = None
                if self._accept("PUNCT", "="):
                    value = self._expect("STRING").text
                fn.attributes[key] = value
            elif tok.kind == "WORD" and tok.text in (
                "nounwind", "readnone", "readonly", "willreturn", "norecurse",
                "alwaysinline", "noinline", "mustprogress", "local_unnamed_addr",
            ):
                self._next()
                fn.attributes[tok.text] = None
            else:
                break

    def _parse_declare(self) -> None:
        self._expect("WORD", "declare")
        return_type = self.parse_type()
        name_tok = self._expect("GLOBAL")
        self._expect("PUNCT", "(")
        param_types: List[IRType] = []
        vararg = False
        if not self._accept("PUNCT", ")"):
            while True:
                if self._accept_word("..."):
                    vararg = True
                else:
                    param_types.append(self.parse_type())
                    while self._accept_word(*_PARAM_ATTRS):
                        pass
                    self._accept("LOCAL")  # optional dummy arg name
                if not self._accept("PUNCT", ","):
                    break
            self._expect("PUNCT", ")")
        fn = self.module.declare_function(
            name_tok.text, FunctionType(return_type, param_types, vararg)
        )
        self._parse_fn_attrs(fn)

    def _parse_define(self) -> None:
        self._expect("WORD", "define")
        while self._accept_word("internal", "external", "dso_local", "private", "weak"):
            pass
        return_type = self.parse_type()
        name_tok = self._expect("GLOBAL")
        self._expect("PUNCT", "(")
        param_types: List[IRType] = []
        arg_names: List[Optional[str]] = []
        if not self._accept("PUNCT", ")"):
            while True:
                param_types.append(self.parse_type())
                while self._accept_word(*_PARAM_ATTRS):
                    pass
                name = self._accept("LOCAL")
                arg_names.append(name.text if name else None)
                if not self._accept("PUNCT", ","):
                    break
            self._expect("PUNCT", ")")
        fn = self.module.define_function(
            name_tok.text, FunctionType(return_type, param_types), arg_names
        )
        self._parse_fn_attrs(fn)
        self._expect("PUNCT", "{")
        self._parse_function_body(fn)
        self._expect("PUNCT", "}")

    # -- function bodies ---------------------------------------------------------
    def _parse_function_body(self, fn: Function) -> None:
        locals_: Dict[str, Value] = {}
        blocks: Dict[str, BasicBlock] = {}
        for arg in fn.arguments:
            if arg.name is not None:
                locals_[arg.name] = arg

        def get_block(name: str) -> BasicBlock:
            block = blocks.get(name)
            if block is None:
                block = BasicBlock(name)
                blocks[name] = block
            return block

        current: Optional[BasicBlock] = None
        order: List[BasicBlock] = []

        while True:
            tok = self._peek()
            if tok.kind == "PUNCT" and tok.text == "}":
                break
            # Label line: WORD/INT followed by ':'
            if tok.kind in ("WORD", "INT") and self._peek_next()[:2] == ("PUNCT", ":"):
                self._next()
                self._next()
                current = get_block(tok.text)
                if current in order:
                    raise ParseError(f"duplicate block label {tok.text}", tok)
                order.append(current)
                continue
            if current is None:
                current = BasicBlock(None)
                order.append(current)
            inst = self._parse_instruction(locals_, get_block)
            current.append(inst)

        for block in order:
            fn.append_block(block)
        # blocks referenced but never defined
        for name, block in blocks.items():
            if block.parent is None:
                raise ParseError(f"branch to undefined label %{name}")

        # Patch forward references.
        for name, value in list(locals_.items()):
            if isinstance(value, _Forward):
                if not value.is_used():
                    continue
                raise ParseError(f"use of undefined local %{name}")

    def _parse_instruction(self, locals_, get_block) -> Instruction:
        tok = self._peek()
        result_name: Optional[str] = None
        if tok.kind == "LOCAL":
            result_name = tok.text
            self._next()
            self._expect("PUNCT", "=")
            tok = self._peek()

        if tok.kind != "WORD":
            raise ParseError("expected instruction opcode", tok)
        opcode = tok.text

        inst: Instruction
        try:
            inst = self._dispatch_instruction(opcode, tok, locals_, get_block)
        except TypeError as error:
            # Instruction constructors type-check their operands (operand
            # mismatch, wrong arity) with TypeError; at parse time that is
            # a *source* problem and must surface as a structured
            # diagnostic, not an internal exception.
            raise ParseError(f"invalid {opcode!r} instruction: {error}", tok)

        if result_name is not None:
            if inst.type.is_void:
                raise ParseError(f"void instruction cannot be named %{result_name}", tok)
            inst.name = result_name
            placeholder = locals_.get(result_name)
            if isinstance(placeholder, _Forward):
                placeholder.replace_all_uses_with(inst)
            elif placeholder is not None:
                raise ParseError(f"redefinition of %{result_name}", tok)
            locals_[result_name] = inst
        return inst

    def _dispatch_instruction(
        self, opcode: str, tok, locals_, get_block
    ) -> Instruction:
        inst: Instruction
        if opcode in BINARY_OPCODES:
            inst = self._parse_binary(opcode, locals_)
        elif opcode == "icmp":
            inst = self._parse_icmp(locals_)
        elif opcode == "fcmp":
            inst = self._parse_fcmp(locals_)
        elif opcode in CAST_OPCODES:
            inst = self._parse_cast(opcode, locals_)
        elif opcode == "select":
            inst = self._parse_select(locals_)
        elif opcode == "alloca":
            inst = self._parse_alloca()
        elif opcode == "load":
            inst = self._parse_load(locals_)
        elif opcode == "store":
            inst = self._parse_store(locals_)
        elif opcode == "getelementptr":
            inst = self._parse_gep(locals_)
        elif opcode in ("call", "tail"):
            inst = self._parse_call(locals_)
        elif opcode == "phi":
            inst = self._parse_phi(locals_, get_block)
        elif opcode == "ret":
            inst = self._parse_ret(locals_)
        elif opcode == "br":
            inst = self._parse_br(locals_, get_block)
        elif opcode == "switch":
            inst = self._parse_switch(locals_, get_block)
        elif opcode == "unreachable":
            self._next()
            inst = UnreachableInst()
        else:
            raise ParseError(f"unsupported instruction {opcode!r}", tok)
        return inst

    def _parse_binary(self, opcode: str, locals_) -> BinaryInst:
        self._next()
        flags = []
        if opcode in ("add", "sub", "mul", "shl"):
            while True:
                flag = self._accept_word(*WRAP_FLAGS)
                if flag is None:
                    break
                flags.append(flag)
        elif opcode in ("sdiv", "udiv", "lshr", "ashr"):
            if self._accept_word("exact"):
                flags.append("exact")
        elif opcode.startswith("f"):
            while self._accept_word(*_FAST_MATH_FLAGS):
                pass
        type_ = self.parse_type()
        lhs = self.parse_value(type_, locals_)
        self._expect("PUNCT", ",")
        rhs = self.parse_value(type_, locals_)
        return BinaryInst(opcode, lhs, rhs, flags)

    def _parse_icmp(self, locals_) -> ICmpInst:
        self._next()
        pred = self._accept_word(*ICMP_PREDICATES)
        if pred is None:
            raise ParseError("expected icmp predicate", self._peek())
        type_ = self.parse_type()
        lhs = self.parse_value(type_, locals_)
        self._expect("PUNCT", ",")
        rhs = self.parse_value(type_, locals_)
        return ICmpInst(pred, lhs, rhs)

    def _parse_fcmp(self, locals_) -> FCmpInst:
        self._next()
        while self._accept_word(*_FAST_MATH_FLAGS):
            pass
        pred = self._accept_word(*FCMP_PREDICATES)
        if pred is None:
            raise ParseError("expected fcmp predicate", self._peek())
        type_ = self.parse_type()
        lhs = self.parse_value(type_, locals_)
        self._expect("PUNCT", ",")
        rhs = self.parse_value(type_, locals_)
        return FCmpInst(pred, lhs, rhs)

    def _parse_cast(self, opcode: str, locals_) -> CastInst:
        self._next()
        src_type = self.parse_type()
        value = self.parse_value(src_type, locals_)
        self._expect("WORD", "to")
        dest_type = self.parse_type()
        return CastInst(opcode, value, dest_type)

    def _parse_select(self, locals_) -> SelectInst:
        self._next()
        cond_type = self.parse_type()
        cond = self.parse_value(cond_type, locals_)
        self._expect("PUNCT", ",")
        true_type = self.parse_type()
        iftrue = self.parse_value(true_type, locals_)
        self._expect("PUNCT", ",")
        false_type = self.parse_type()
        iffalse = self.parse_value(false_type, locals_)
        return SelectInst(cond, iftrue, iffalse)

    def _parse_alloca(self) -> AllocaInst:
        self._next()
        allocated = self.parse_type()
        align = None
        while self._accept("PUNCT", ","):
            if self._accept_word("align"):
                align = int(self._expect("INT").text)
            else:
                raise ParseError("unsupported alloca suffix", self._peek())
        return AllocaInst(allocated, align)

    def _parse_load(self, locals_) -> LoadInst:
        self._next()
        loaded = self.parse_type()
        self._expect("PUNCT", ",")
        ptr_type = self.parse_type()
        pointer = self.parse_value(ptr_type, locals_)
        align = None
        while self._accept("PUNCT", ","):
            if self._accept_word("align"):
                align = int(self._expect("INT").text)
            else:
                raise ParseError("unsupported load suffix", self._peek())
        return LoadInst(loaded, pointer, align)

    def _parse_store(self, locals_) -> StoreInst:
        self._next()
        value_type = self.parse_type()
        value = self.parse_value(value_type, locals_)
        self._expect("PUNCT", ",")
        ptr_type = self.parse_type()
        pointer = self.parse_value(ptr_type, locals_)
        align = None
        while self._accept("PUNCT", ","):
            if self._accept_word("align"):
                align = int(self._expect("INT").text)
            else:
                raise ParseError("unsupported store suffix", self._peek())
        return StoreInst(value, pointer, align)

    def _parse_gep(self, locals_) -> GetElementPtrInst:
        self._next()
        inbounds = bool(self._accept_word("inbounds"))
        source_type = self.parse_type()
        self._expect("PUNCT", ",")
        ptr_type = self.parse_type()
        pointer = self.parse_value(ptr_type, locals_)
        indices: List[Value] = []
        while self._accept("PUNCT", ","):
            idx_type = self.parse_type()
            indices.append(self.parse_value(idx_type, locals_))
        return GetElementPtrInst(source_type, pointer, indices, inbounds)

    def _parse_call(self, locals_) -> CallInst:
        tail = bool(self._accept_word("tail", "musttail", "notail"))
        self._expect("WORD", "call")
        return_type = self.parse_type()
        # A full function type may appear for vararg callees: `call void (...)`
        callee_param_types: Optional[List[IRType]] = None
        if self._peek().kind == "PUNCT" and self._peek().text == "(" and self._peek_next().kind != "PUNCT":
            # lookahead: '(' immediately followed by a type word = function type
            save = self.index
            try:
                self._expect("PUNCT", "(")
                callee_param_types = []
                if not self._accept("PUNCT", ")"):
                    while True:
                        if self._accept_word("..."):
                            pass
                        else:
                            callee_param_types.append(self.parse_type())
                        if not self._accept("PUNCT", ","):
                            break
                    self._expect("PUNCT", ")")
                if self._peek().kind != "GLOBAL":
                    raise ParseError("not a function type", self._peek())
            except ParseError:
                self.index = save
                callee_param_types = None
        name_tok = self._expect("GLOBAL")
        callee = self.module.get_function(name_tok.text)
        self._expect("PUNCT", "(")
        args: List[Value] = []
        arg_types: List[IRType] = []
        arg_attrs: List[Tuple[str, ...]] = []
        if not self._accept("PUNCT", ")"):
            while True:
                arg_type = self.parse_type()
                attrs = []
                while True:
                    attr = self._accept_word(*_PARAM_ATTRS)
                    if attr is None:
                        break
                    attrs.append(attr)
                args.append(self.parse_value(arg_type, locals_))
                arg_types.append(arg_type)
                arg_attrs.append(tuple(attrs))
                if not self._accept("PUNCT", ","):
                    break
            self._expect("PUNCT", ")")
        while self._accept("ATTRGROUP"):
            pass
        if callee is None:
            # Implicit declaration from the call site (QIR files routinely
            # place declares after uses; also tolerates missing declares).
            callee = self.module.declare_function(
                name_tok.text, FunctionType(return_type, arg_types)
            )
        return CallInst(callee, args, arg_attrs, tail)

    def _parse_phi(self, locals_, get_block) -> PhiInst:
        self._next()
        type_ = self.parse_type()
        phi = PhiInst(type_)
        while True:
            self._expect("PUNCT", "[")
            value = self.parse_value(type_, locals_)
            self._expect("PUNCT", ",")
            block_tok = self._expect("LOCAL")
            self._expect("PUNCT", "]")
            phi.add_incoming(value, get_block(block_tok.text))
            if not self._accept("PUNCT", ","):
                break
        return phi

    def _parse_ret(self, locals_) -> ReturnInst:
        self._next()
        type_ = self.parse_type()
        if type_.is_void:
            return ReturnInst(None)
        return ReturnInst(self.parse_value(type_, locals_))

    def _parse_br(self, locals_, get_block) -> Instruction:
        self._next()
        if self._accept_word("label"):
            target = self._expect("LOCAL")
            return BranchInst(get_block(target.text))
        cond_type = self.parse_type()
        cond = self.parse_value(cond_type, locals_)
        self._expect("PUNCT", ",")
        self._expect("WORD", "label")
        true_tok = self._expect("LOCAL")
        self._expect("PUNCT", ",")
        self._expect("WORD", "label")
        false_tok = self._expect("LOCAL")
        return CondBranchInst(cond, get_block(true_tok.text), get_block(false_tok.text))

    def _parse_switch(self, locals_, get_block) -> SwitchInst:
        self._next()
        value_type = self.parse_type()
        value = self.parse_value(value_type, locals_)
        self._expect("PUNCT", ",")
        self._expect("WORD", "label")
        default_tok = self._expect("LOCAL")
        inst = SwitchInst(value, get_block(default_tok.text))
        self._expect("PUNCT", "[")
        while not self._accept("PUNCT", "]"):
            case_type = self.parse_type()
            const = self.parse_value(case_type, locals_)
            self._expect("PUNCT", ",")
            self._expect("WORD", "label")
            case_tok = self._expect("LOCAL")
            inst.add_case(const, get_block(case_tok.text))
        return inst

    # -- attribute groups & metadata -----------------------------------------
    def _parse_attribute_group(self) -> None:
        self._expect("WORD", "attributes")
        group_tok = self._expect("ATTRGROUP")
        self._expect("PUNCT", "=")
        self._expect("PUNCT", "{")
        attrs: Dict[str, Optional[str]] = {}
        while not self._accept("PUNCT", "}"):
            tok = self._next()
            if tok.kind == "STRING":
                key = tok.text
                value = None
                if self._accept("PUNCT", "="):
                    value = self._expect("STRING").text
                attrs[key] = value
            elif tok.kind == "WORD":
                attrs[tok.text] = None
            else:
                raise ParseError("bad attribute", tok)
        group_id = int(group_tok.text)
        self.module.attribute_groups[group_id] = AttributeGroup(group_id, attrs)

    def _resolve_attribute_groups(self) -> None:
        for fn, group_id in self._pending_fn_groups:
            group = self.module.attribute_groups.get(group_id)
            if group is None:
                group = AttributeGroup(group_id)
                self.module.attribute_groups[group_id] = group
            fn.attribute_group = group

    def _parse_metadata_def(self) -> None:
        name_tok = self._expect("METADATA")
        self._expect("PUNCT", "=")
        distinct = bool(self._accept_word("distinct"))
        self._expect("PUNCT", "!{")
        elements: List[object] = []
        refs: List[str] = []
        if not self._accept("PUNCT", "}"):
            while True:
                tok = self._peek()
                if tok.kind == "METADATA":
                    self._next()
                    refs.append(tok.text)
                    elements.append(("ref", tok.text))
                elif tok.kind == "MDSTRING":
                    self._next()
                    elements.append(MetadataString(tok.text))
                else:
                    el_type = self.parse_type()
                    elements.append(self.parse_value(el_type))
                if not self._accept("PUNCT", ","):
                    break
            self._expect("PUNCT", "}")

        if name_tok.text.isdigit():
            node = MetadataNode([])
            node.elements = tuple(elements)  # refs resolved later
            self._md_nodes[name_tok.text] = node
        else:
            self._md_named[name_tok.text] = [
                el[1] for el in elements if isinstance(el, tuple) and el[0] == "ref"
            ]

    def _finalize_metadata(self) -> None:
        # Resolve ("ref", n) placeholders inside numbered nodes.
        for node in self._md_nodes.values():
            resolved = []
            for el in node.elements:
                if isinstance(el, tuple) and el[0] == "ref":
                    target = self._md_nodes.get(el[1])
                    if target is None:
                        raise ParseError(f"undefined metadata !{el[1]}")
                    resolved.append(target)
                else:
                    resolved.append(el)
            node.elements = tuple(resolved)

        for name, ref_list in self._md_named.items():
            nodes = []
            for ref in ref_list:
                target = self._md_nodes.get(ref)
                if target is None:
                    raise ParseError(f"undefined metadata !{ref}")
                nodes.append(target)
            if name == "llvm.module.flags":
                for node in nodes:
                    if len(node.elements) != 3:
                        raise ParseError("malformed module flag")
                    behavior, key, value = node.elements
                    if not isinstance(behavior, ConstantInt) or not isinstance(
                        key, MetadataString
                    ):
                        raise ParseError("malformed module flag")
                    if not isinstance(value, Value):
                        raise ParseError("module flag values must be constants")
                    self.module.add_module_flag(behavior.value, key.text, value)  # type: ignore[arg-type]
            else:
                self.module.named_metadata[name] = nodes


def parse_assembly(
    source: str, module_name: str = "module", observer=None
) -> Module:
    """Parse ``.ll`` text into a :class:`Module`.

    ``observer`` (a :class:`repro.obs.Observer`) records Example-3 profile
    data -- lex/parse spans plus bytes, token counts and throughput.  The
    default ``None`` takes the uninstrumented path.
    """
    if observer is None or not observer.enabled:
        return Parser(source, module_name).parse_module()

    from time import perf_counter

    with observer.span("parse_assembly", module=module_name, bytes=len(source)):
        t0 = perf_counter()
        with observer.span("lex"):
            tokens = Lexer(source).tokenize()
        t1 = perf_counter()
        with observer.span("parse", tokens=len(tokens)):
            module = Parser(source, module_name, tokens=tokens).parse_module()
        t2 = perf_counter()
    observer.inc("parse.modules")
    observer.inc("parse.bytes", len(source))
    observer.inc("parse.tokens", len(tokens))
    observer.inc("parse.lex_seconds", t1 - t0)
    observer.inc("parse.parse_seconds", t2 - t1)
    total = t2 - t0
    if total > 0:
        observer.set_gauge("parse.bytes_per_second", len(source) / total)
        observer.set_gauge("parse.tokens_per_second", len(tokens) / total)
    return module
