"""Unit tests for output recording and runtime value types."""

import pytest

from repro.runtime.output import OutputRecord, OutputRecorder, output_columns
from repro.runtime.results import RESULT_ONE, RESULT_ZERO, ResultStore
from repro.runtime.errors import QirRuntimeError
from repro.runtime.values import (
    ArrayHandle,
    GlobalPtr,
    IntPtr,
    Memory,
    QubitPtr,
    ResultPtr,
    StackPtr,
)


class TestOutputRecorder:
    def test_render_format(self):
        rec = OutputRecorder()
        rec.record("ARRAY", 2, "results")
        rec.record("RESULT", 1, "r0")
        rec.record("RESULT", 0, None)
        text = rec.render()
        assert text.splitlines() == [
            "OUTPUT\tARRAY\t2\tresults",
            "OUTPUT\tRESULT\t1\tr0",
            "OUTPUT\tRESULT\t0",
        ]

    def test_result_bits_and_bitstring(self):
        rec = OutputRecorder()
        rec.record("ARRAY", 3, None)
        rec.record("RESULT", 1, None)
        rec.record("RESULT", 0, None)
        rec.record("RESULT", 0, None)
        assert rec.result_bits() == [1, 0, 0]
        # The last record is the leftmost bit; the table is not consulted.
        assert output_columns(rec.result_bits(), {5: 1}, 0) == [0, 0, 1]

    def test_clear(self):
        rec = OutputRecorder()
        rec.record("BOOL", 1, None)
        rec.clear()
        assert len(rec) == 0

    def test_record_types(self):
        record = OutputRecord("DOUBLE", 1.5, "x")
        assert record.render() == "OUTPUT\tDOUBLE\t1.5\tx"


class TestResultStore:
    def test_static_write_read(self):
        store = ResultStore()
        store.write(IntPtr(3), 1)
        assert store.read(IntPtr(3)) == 1
        assert store.max_static_index == 3

    def test_read_unwritten_raises(self):
        store = ResultStore()
        with pytest.raises(QirRuntimeError, match="unmeasured"):
            store.read(IntPtr(0))
        assert store.read_default(IntPtr(0), 0) == 0

    def test_dynamic_results(self):
        store = ResultStore()
        handle = store.new_dynamic(1)
        assert store.read(handle) == 1
        other = store.new_dynamic(0)
        assert handle != other

    def test_constant_results(self):
        store = ResultStore()
        assert store.read(RESULT_ZERO) == 0
        assert store.read(RESULT_ONE) == 1
        with pytest.raises(QirRuntimeError):
            store.write(RESULT_ONE, 0)

    def test_static_bits_table(self):
        store = ResultStore()
        store.write(IntPtr(0), 1)
        store.write(IntPtr(2), 0)
        assert store.static_bits() == {0: 1, 2: 0}
        # With no RESULT record the table renders max..0, gaps reading 0.
        assert output_columns([], store.static_bits(), 0) == [0, 0, 1]

    def test_non_result_pointer_rejected(self):
        store = ResultStore()
        with pytest.raises(QirRuntimeError):
            store.write(QubitPtr(0), 1)
        with pytest.raises(QirRuntimeError):
            store.read("not a pointer")


class TestRuntimeValues:
    def test_intptr_equality(self):
        assert IntPtr(3) == IntPtr(3)
        assert IntPtr(3) != IntPtr(4)
        assert IntPtr(0) != QubitPtr(0)
        assert hash(IntPtr(3)) == hash(IntPtr(3))

    def test_stack_ptr_bounds(self):
        memory = Memory(2)
        ptr = StackPtr(memory, 0)
        ptr.store(5)
        assert ptr.load() == 5
        with pytest.raises(IndexError):
            ptr.offset_by(5).load()
        with pytest.raises(IndexError):
            ptr.offset_by(-1).store(1)

    def test_stack_ptr_identity_equality(self):
        a, b = Memory(1), Memory(1)
        assert StackPtr(a, 0) == StackPtr(a, 0)
        assert StackPtr(a, 0) != StackPtr(b, 0)

    def test_global_ptr_text(self):
        g = GlobalPtr(b"hello\x00world\x00")
        assert g.as_text() == "hello"
        assert g.offset_by(6).as_text() == "world"
        assert g.load_byte() == ord("h")

    def test_global_ptr_no_terminator(self):
        assert GlobalPtr(b"ab").as_text() == "ab"

    def test_array_handle(self):
        arr = ArrayHandle(3, is_qubit_array=True)
        assert len(arr) == 3
        assert "qubits" in repr(arr)
