"""The custom base-profile line parser (paper, Example 3).

"For the base profile, it suffices to iterate over the lines to construct
an in-memory representation of the resulting quantum circuit.  [...] the
parser would need to track the assignment of variables (i.e. %9, %0, %1,
...) to their values to infer the respective qubit that is passed to a
quantum instruction.  The instructions themselves can be matched with a
simple pattern."

This parser does exactly that -- regular expressions over lines plus a
variable environment -- and deliberately knows nothing about LLVM: that is
its selling point (no heavyweight dependency) *and* its limitation (any
adaptive-profile construct raises :class:`BaseProfileParseError`).  The
EX3 benchmark compares its throughput against the full-AST route.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.circuit.circuit import Circuit
from repro.qir.catalog import parse_qis_name


class BaseProfileParseError(ValueError):
    def __init__(self, message: str, line_number: Optional[int] = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


# -- symbolic values the environment can hold ---------------------------------
class _Slot:
    """An alloca'd pointer cell."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: object = None


class _QubitArray:
    __slots__ = ("base", "size")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size


class _Qubit:
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class _Result:
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class _ByteArray:
    """A plain rt array (the classical-bit container in Fig. 1)."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        self.size = size


# -- line patterns -----------------------------------------------------------
_RE_COMMENT = re.compile(r";.*$")
_RE_ALLOCA = re.compile(r"^%(?P<var>[\w.\-$]+) = alloca ptr(?:, align \d+)?$")
_RE_ALLOC_ARRAY = re.compile(
    r"^%(?P<var>[\w.\-$]+) = call ptr @__quantum__rt__qubit_allocate_array\(i64 (?P<n>\d+)\)$"
)
_RE_CREATE_ARRAY = re.compile(
    r"^%(?P<var>[\w.\-$]+) = call ptr @__quantum__rt__array_create_1d\(i32 \d+, i64 (?P<n>\d+)\)$"
)
_RE_STORE = re.compile(r"^store ptr (?P<src>%[\w.\-$]+|null), ptr %(?P<dst>[\w.\-$]+)(?:, align \d+)?$")
_RE_LOAD = re.compile(r"^%(?P<var>[\w.\-$]+) = load ptr, ptr %(?P<src>[\w.\-$]+)(?:, align \d+)?$")
_RE_ELEMENT_PTR = re.compile(
    r"^%(?P<var>[\w.\-$]+) = call ptr @__quantum__rt__array_get_element_ptr_1d"
    r"\(ptr %(?P<array>[\w.\-$]+), i64 (?P<idx>\d+)\)$"
)
_RE_QIS_CALL = re.compile(
    r"^call (?:void|ptr|i1) @(?P<fn>__quantum__qis__[\w]+)\((?P<args>.*)\)$"
)
_RE_RT_RELEASE = re.compile(
    r"^call void @__quantum__rt__qubit_release_array\(ptr %(?P<array>[\w.\-$]+)\)$"
)
_RE_RECORD = re.compile(
    r"^call void @__quantum__rt__(?P<kind>array|result|tuple|bool|int|double)_record_output\("
)
_RE_LABEL = re.compile(r"^[\w.\-$]+:$")
_RE_BR_UNCOND = re.compile(r"^br label %[\w.\-$]+$")
_RE_INITIALIZE = re.compile(r"^call void @__quantum__rt__initialize\(ptr (?:null|%[\w.\-$]+)\)$")

_RE_ARG_NULL = re.compile(r"^ptr(?: writeonly| readonly| nocapture)* null$")
_RE_ARG_INTTOPTR = re.compile(
    r"^ptr(?: writeonly| readonly| nocapture)* inttoptr \(i64 (?P<addr>\d+) to ptr\)$"
)
_RE_ARG_VAR = re.compile(r"^ptr(?: writeonly| readonly| nocapture)* %(?P<var>[\w.\-$]+)$")
_RE_ARG_DOUBLE = re.compile(
    r"^double (?P<val>-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|0x[0-9a-fA-F]+))$"
)

_SKIP_PREFIXES = (
    "source_filename",
    "target ",
    "declare ",
    "attributes ",
    "!",
    "@",
    "%Qubit = type",
    "%Result = type",
    "%Array = type",
    "define ",
    "}",
    "ret void",
)

# Disallowed-opcode detection keeps the error messages precise.
_ADAPTIVE_MARKERS = (
    " = icmp ",
    " = phi ",
    " = select ",
    "br i1 ",
    "switch ",
    " = add ",
    " = sub ",
    " = mul ",
    "__quantum__qis__read_result__body",
    "__quantum__rt__result_equal",
)


def _split_args(args: str) -> List[str]:
    """Split a call argument list on top-level commas (inttoptr contains
    parentheses, so a plain split would break)."""
    out: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in args:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        out.append(tail)
    return out


def parse_base_profile(text: str, name: str = "imported") -> Circuit:
    """Parse base-profile QIR text directly into a :class:`Circuit`."""
    env: Dict[str, object] = {}
    next_qubit_base = 0
    # Circuit method calls in program order, replayed once the register
    # sizes are known.
    ops: List[Tuple[str, tuple]] = []
    max_qubit = -1
    max_result = -1
    in_body = False

    def resolve_qubit(token: str, line_number: int) -> int:
        nonlocal max_qubit
        index = _resolve_pointer(token, env, line_number, kind="qubit")
        max_qubit = max(max_qubit, index)
        return index

    def resolve_result(token: str, line_number: int) -> int:
        nonlocal max_result
        index = _resolve_pointer(token, env, line_number, kind="result")
        max_result = max(max_result, index)
        return index

    lines = text.splitlines()
    for line_number, raw in enumerate(lines, start=1):
        line = _RE_COMMENT.sub("", raw).strip()
        if not line:
            continue
        if line.startswith("define "):
            in_body = True
            continue
        if not in_body:
            continue
        if line == "}":
            in_body = False
            continue
        if line == "ret void" or _RE_LABEL.match(line) or _RE_BR_UNCOND.match(line):
            continue
        if _RE_INITIALIZE.match(line):
            continue

        for marker in _ADAPTIVE_MARKERS:
            if marker in line:
                raise BaseProfileParseError(
                    f"adaptive-profile construct {marker.strip()!r}; "
                    "the base-profile line parser cannot handle it",
                    line_number,
                )

        m = _RE_ALLOCA.match(line)
        if m:
            env[m.group("var")] = _Slot()
            continue
        m = _RE_ALLOC_ARRAY.match(line)
        if m:
            size = int(m.group("n"))
            env[m.group("var")] = _QubitArray(next_qubit_base, size)
            next_qubit_base += size
            continue
        m = _RE_CREATE_ARRAY.match(line)
        if m:
            env[m.group("var")] = _ByteArray(int(m.group("n")))
            continue
        m = _RE_STORE.match(line)
        if m:
            dst = env.get(m.group("dst"))
            if not isinstance(dst, _Slot):
                raise BaseProfileParseError(
                    f"store into non-slot %{m.group('dst')}", line_number
                )
            src_token = m.group("src")
            dst.value = (
                None if src_token == "null" else env.get(src_token[1:])
            )
            continue
        m = _RE_LOAD.match(line)
        if m:
            src = env.get(m.group("src"))
            if not isinstance(src, _Slot):
                raise BaseProfileParseError(
                    f"load from non-slot %{m.group('src')}", line_number
                )
            env[m.group("var")] = src.value
            continue
        m = _RE_ELEMENT_PTR.match(line)
        if m:
            array = env.get(m.group("array"))
            index = int(m.group("idx"))
            if isinstance(array, _QubitArray):
                if index >= array.size:
                    raise BaseProfileParseError(
                        f"qubit index {index} out of bounds", line_number
                    )
                env[m.group("var")] = _Qubit(array.base + index)
            elif isinstance(array, _ByteArray):
                env[m.group("var")] = _Result(index)
            else:
                raise BaseProfileParseError(
                    f"element_ptr into unknown array %{m.group('array')}",
                    line_number,
                )
            continue
        m = _RE_RT_RELEASE.match(line)
        if m:
            continue
        if _RE_RECORD.match(line):
            continue
        m = _RE_QIS_CALL.match(line)
        if m:
            fname = m.group("fn")
            entry = parse_qis_name(fname)
            if entry is None:
                raise BaseProfileParseError(f"unknown QIS function @{fname}", line_number)
            tokens = _split_args(m.group("args"))
            expected = entry.num_params + entry.num_qubits + (1 if entry.takes_result else 0)
            if len(tokens) != expected:
                raise BaseProfileParseError(
                    f"@{fname} expects {expected} args, got {len(tokens)}", line_number
                )
            params: List[float] = []
            for token in tokens[: entry.num_params]:
                dm = _RE_ARG_DOUBLE.match(token)
                if not dm:
                    raise BaseProfileParseError(
                        f"non-constant rotation angle {token!r}", line_number
                    )
                val = dm.group("val")
                if val.lower().startswith("0x"):
                    import struct as _struct

                    params.append(
                        _struct.unpack("<d", _struct.pack("<Q", int(val, 16)))[0]
                    )
                else:
                    params.append(float(val))
            qubit_tokens = tokens[entry.num_params : entry.num_params + entry.num_qubits]
            qubits = [resolve_qubit(t, line_number) for t in qubit_tokens]
            if entry.gate == "mz":
                ops.append(("measure", (qubits[0], resolve_result(tokens[-1], line_number))))
            elif entry.gate == "reset":
                ops.append(("reset", (qubits[0],)))
            elif entry.returns_result:
                raise BaseProfileParseError(
                    "dynamic measurement (m__body) is not base profile", line_number
                )
            else:
                ops.append(("gate", (entry.gate, qubits, params)))
            continue

        raise BaseProfileParseError(f"unrecognised line {line!r}", line_number)

    num_qubits = max(max_qubit + 1, next_qubit_base)
    num_results = max_result + 1
    circuit = Circuit(name)
    if num_qubits:
        circuit.qreg(num_qubits, "q")
    if num_results:
        circuit.creg(num_results, "c")

    for method, args in ops:
        getattr(circuit, method)(*args)
    return circuit


def _resolve_pointer(token: str, env: Dict[str, object], line_number: int, kind: str) -> int:
    if _RE_ARG_NULL.match(token):
        return 0
    m = _RE_ARG_INTTOPTR.match(token)
    if m:
        return int(m.group("addr"))
    m = _RE_ARG_VAR.match(token)
    if m:
        value = env.get(m.group("var"))
        if kind == "qubit" and isinstance(value, _Qubit):
            return value.index
        if kind == "result" and isinstance(value, _Result):
            return value.index
        raise BaseProfileParseError(
            f"%{m.group('var')} does not hold a {kind} pointer", line_number
        )
    raise BaseProfileParseError(f"cannot resolve {kind} argument {token!r}", line_number)
