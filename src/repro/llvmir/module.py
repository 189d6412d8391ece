"""Modules: the top-level IR container (functions, globals, metadata)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.llvmir.function import Function
from repro.llvmir.types import FunctionType, StructType
from repro.llvmir.values import (
    Constant,
    ConstantInt,
    GlobalVariable,
    MetadataNode,
    MetadataString,
)
from repro.llvmir.types import i1, i32


class AttributeGroup:
    """``attributes #N = { ... }`` -- QIR entry points hang their profile
    metadata (``entry_point``, ``required_num_qubits`` ...) off these."""

    __slots__ = ("group_id", "attributes")

    def __init__(self, group_id: int, attributes: Optional[Dict[str, Optional[str]]] = None):
        self.group_id = group_id
        self.attributes: Dict[str, Optional[str]] = dict(attributes or {})

    def format(self) -> str:
        parts = []
        for key, value in self.attributes.items():
            if value is None:
                parts.append(f'"{key}"')
            else:
                parts.append(f'"{key}"="{value}"')
        return f"attributes #{self.group_id} = {{ {' '.join(parts)} }}"

    def __repr__(self) -> str:
        return f"<AttributeGroup #{self.group_id} {self.attributes}>"


# A module flag is (behavior, key, value); the value is an IR constant.
ModuleFlag = Tuple[int, str, Constant]


class EntryPointError(LookupError):
    """:meth:`Module.entry_function` found no single function to run."""


class Module:
    __slots__ = (
        "name",
        "source_filename",
        "functions",
        "globals",
        "struct_types",
        "attribute_groups",
        "module_flags",
        "named_metadata",
    )

    def __init__(self, name: str = "module"):
        self.name = name
        self.source_filename: Optional[str] = None
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.struct_types: Dict[str, StructType] = {}
        self.attribute_groups: Dict[int, AttributeGroup] = {}
        self.module_flags: List[ModuleFlag] = []
        self.named_metadata: Dict[str, List[MetadataNode]] = {}

    # -- functions ---------------------------------------------------------------
    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function @{fn.name}")
        fn.parent = self
        self.functions[fn.name] = fn
        return fn

    def get_function(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    def declare_function(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: Optional[Sequence[Optional[str]]] = None,
    ) -> Function:
        """Get-or-create a declaration; verifies type agreement on reuse."""
        existing = self.functions.get(name)
        if existing is not None:
            if existing.function_type != function_type:
                raise ValueError(
                    f"conflicting declaration for @{name}: "
                    f"{existing.function_type} vs {function_type}"
                )
            return existing
        return self.add_function(Function(name, function_type, self, arg_names))

    def define_function(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: Optional[Sequence[Optional[str]]] = None,
    ) -> Function:
        fn = self.add_function(Function(name, function_type, self, arg_names))
        return fn

    def remove_function(self, fn: Function) -> None:
        if fn.callers:
            raise ValueError(f"cannot remove @{fn.name}: it still has callers")
        del self.functions[fn.name]
        fn.parent = None

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def entry_points(self) -> List[Function]:
        return [f for f in self.functions.values() if f.is_entry_point]

    def entry_function(self, entry: Optional[str] = None) -> Function:
        """The function a run starts at -- the one entry-point rule.

        ``entry`` names a defined function; without it, the one function
        marked ``entry_point``, or (with none marked) the one defined
        function.  Anything else raises :class:`EntryPointError`.
        """
        if entry is not None:
            fn = self.get_function(entry)
            if fn is None or fn.is_declaration:
                raise EntryPointError(f"no defined function @{entry}")
            return fn
        entry_points = self.entry_points()
        if len(entry_points) == 1:
            return entry_points[0]
        if entry_points:
            raise EntryPointError(
                f"module has {len(entry_points)} entry points; pass entry= explicitly"
            )
        defined = self.defined_functions()
        if len(defined) == 1:
            return defined[0]
        raise EntryPointError(
            "module has no entry_point attribute and multiple definitions; "
            "pass entry= explicitly"
        )

    # -- globals ---------------------------------------------------------------
    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self.globals:
            raise ValueError(f"duplicate global @{gv.name}")
        self.globals[gv.name] = gv
        return gv

    def get_global(self, name: str) -> Optional[GlobalVariable]:
        return self.globals.get(name)

    # -- struct types ---------------------------------------------------------------
    def declare_struct(self, struct: StructType) -> StructType:
        assert struct.name is not None
        existing = self.struct_types.get(struct.name)
        if existing is not None:
            return existing
        self.struct_types[struct.name] = struct
        return struct

    # -- attribute groups ---------------------------------------------------------
    def create_attribute_group(
        self, attributes: Optional[Dict[str, Optional[str]]] = None
    ) -> AttributeGroup:
        group_id = max(self.attribute_groups, default=-1) + 1
        group = AttributeGroup(group_id, attributes)
        self.attribute_groups[group_id] = group
        return group

    # -- module flags (QIR profile identification) -----------------------------
    def add_module_flag(self, behavior: int, key: str, value: Constant) -> None:
        self.module_flags.append((behavior, key, value))

    def get_module_flag(self, key: str) -> Optional[Constant]:
        for _, k, value in self.module_flags:
            if k == key:
                return value
        return None

    def set_qir_profile_flags(
        self,
        major: int = 1,
        minor: int = 0,
        dynamic_qubit_management: bool = False,
        dynamic_result_management: bool = False,
    ) -> None:
        """Emit the four module flags the QIR base/adaptive profiles require."""
        self.add_module_flag(1, "qir_major_version", ConstantInt(i32, major))
        self.add_module_flag(7, "qir_minor_version", ConstantInt(i32, minor))
        self.add_module_flag(
            1, "dynamic_qubit_management", ConstantInt(i1, int(dynamic_qubit_management))
        )
        self.add_module_flag(
            1,
            "dynamic_result_management",
            ConstantInt(i1, int(dynamic_result_management)),
        )

    # -- misc ---------------------------------------------------------------
    def instruction_count(self) -> int:
        return sum(len(f) for f in self.functions.values())

    def __repr__(self) -> str:
        return (
            f"<Module {self.name!r}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
