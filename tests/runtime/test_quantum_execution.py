"""Runtime tests for quantum programs: QIS dispatch, qubit management,
results, and output recording (paper, Sections III-C and IV-A)."""

import pytest

from repro.llvmir import parse_assembly
from repro.qir import AdaptiveProfile, SimpleModule
from repro.runtime import QirRuntime, execute, run_shots
from repro.runtime.errors import QirRuntimeError, TrapError
from repro.runtime.qubit_manager import QubitManager
from repro.runtime.values import IntPtr, QubitPtr
from repro.sim.statevector import StatevectorSimulator
from repro.workloads.qir_programs import ghz_qir


def bell_text(addressing="static"):
    sm = SimpleModule("bell", 2, 2, addressing=addressing)
    sm.qis.h(0)
    sm.qis.cnot(0, 1)
    sm.qis.mz(0, 0)
    sm.qis.mz(1, 1)
    sm.record_output()
    return sm.ir()


class TestExecution:
    def test_bell_correlations_static(self):
        counts = run_shots(bell_text("static"), shots=500, seed=1).counts
        assert set(counts) == {"00", "11"}

    def test_bell_correlations_dynamic(self):
        counts = run_shots(bell_text("dynamic"), shots=500, seed=1).counts
        assert set(counts) == {"00", "11"}

    def test_static_and_dynamic_agree(self):
        a = run_shots(bell_text("static"), shots=400, seed=3).counts
        b = run_shots(bell_text("dynamic"), shots=400, seed=3).counts
        assert a == b  # same seed stream, same physical program

    def test_output_records(self):
        result = execute(bell_text(), seed=0)
        kinds = [r.kind for r in result.output_records]
        assert kinds == ["ARRAY", "RESULT", "RESULT"]
        rendered = result.render_output()
        assert rendered.startswith("OUTPUT\tARRAY\t2")

    def test_bitstring_without_record_output(self):
        sm = SimpleModule("t", 1, 1)
        sm.qis.x(0)
        sm.qis.mz(0, 0)
        result = execute(sm.ir(), seed=0)
        assert result.bitstring == "1"

    def test_stats_collected(self):
        result = execute(bell_text(), seed=0)
        assert result.stats.gates == 2
        assert result.stats.measurements == 2
        assert result.stats.quantum_calls >= 4

    def test_rotation_parameters_reach_simulator(self):
        import math

        sm = SimpleModule("t", 1, 1)
        sm.qis.rx(math.pi, 0)  # equals X up to phase
        sm.qis.mz(0, 0)
        counts = run_shots(sm.ir(), shots=50, seed=2).counts
        assert counts == {"1": 50}

    def test_reset_between_uses(self):
        sm = SimpleModule("t", 1, 2)
        sm.qis.x(0)
        sm.qis.mz(0, 0)
        sm.qis.reset(0)
        sm.qis.mz(0, 1)
        result = execute(sm.ir(), seed=0)
        assert result.result_bits == [1, 0]

    def test_stabilizer_backend_runs_wide(self):
        sm = SimpleModule("ghz", 200, 200)
        sm.qis.h(0)
        for i in range(199):
            sm.qis.cnot(i, i + 1)
        for i in range(200):
            sm.qis.mz(i, i)
        counts = run_shots(sm.ir(), shots=10, seed=4, backend="stabilizer").counts
        assert set(counts) <= {"0" * 200, "1" * 200}

    def test_adaptive_feedback(self):
        sm = SimpleModule("t", 2, 2, profile=AdaptiveProfile)
        sm.qis.h(0)
        sm.qis.mz(0, 0)
        sm.qis.if_result(0, one=lambda: sm.qis.x(1))
        sm.qis.mz(1, 1)
        counts = run_shots(sm.ir(), shots=400, seed=5).counts
        assert set(counts) == {"00", "11"}

    def test_rt_fail_traps(self):
        src = """
        @msg = internal constant [5 x i8] c"boom\\00"
        define void @main() #0 {
        entry:
          call void @__quantum__rt__fail(ptr @msg)
          ret void
        }
        declare void @__quantum__rt__fail(ptr)
        attributes #0 = { "entry_point" }
        """
        with pytest.raises(TrapError, match="boom"):
            execute(src)

    def test_rt_message_collected(self):
        src = """
        @msg = internal constant [3 x i8] c"hi\\00"
        define void @main() #0 {
        entry:
          call void @__quantum__rt__message(ptr @msg)
          ret void
        }
        declare void @__quantum__rt__message(ptr)
        attributes #0 = { "entry_point" }
        """
        assert execute(src).messages == ["hi"]

    def test_entry_point_selection(self):
        src = """
        define void @a() {
        entry:
          ret void
        }
        define void @b() {
        entry:
          ret void
        }
        """
        with pytest.raises(QirRuntimeError, match="entry"):
            execute(src)
        execute(src, entry="a")

    def test_result_equal_and_constants(self):
        src = """
        define void @main() #0 {
        entry:
          call void @__quantum__qis__x__body(ptr null)
          call void @__quantum__qis__mz__body(ptr null, ptr writeonly null)
          %one = call ptr @__quantum__rt__result_get_one()
          %eq = call i1 @__quantum__rt__result_equal(ptr null, ptr %one)
          call void @__quantum__rt__bool_record_output(i1 %eq, ptr null)
          ret void
        }
        declare void @__quantum__qis__x__body(ptr)
        declare void @__quantum__qis__mz__body(ptr, ptr writeonly)
        declare ptr @__quantum__rt__result_get_one()
        declare i1 @__quantum__rt__result_equal(ptr, ptr)
        declare void @__quantum__rt__bool_record_output(i1, ptr)
        attributes #0 = { "entry_point" "required_num_qubits"="1" }
        """
        result = execute(src, seed=0)
        assert result.output_records[0].kind == "BOOL"
        assert result.output_records[0].value == 1


class TestQubitManager:
    def test_dynamic_allocation_and_release(self):
        manager = QubitManager(StatevectorSimulator(0))
        q0 = manager.allocate()
        q1 = manager.allocate()
        assert manager.slot_for(q0) != manager.slot_for(q1)
        manager.release(q0)
        with pytest.raises(QirRuntimeError):
            manager.slot_for(q0)

    def test_double_release_rejected(self):
        manager = QubitManager(StatevectorSimulator(0))
        q = manager.allocate()
        manager.release(q)
        with pytest.raises(QirRuntimeError):
            manager.release(q)

    def test_static_on_the_fly(self):
        manager = QubitManager(StatevectorSimulator(0))
        slot = manager.slot_for(IntPtr(5))
        assert manager.on_the_fly_allocations == 1
        assert manager.slot_for(IntPtr(5)) == slot  # stable mapping

    def test_static_on_the_fly_disabled(self):
        manager = QubitManager(StatevectorSimulator(0), allow_on_the_fly=False)
        with pytest.raises(QirRuntimeError, match="on-the-fly"):
            manager.slot_for(IntPtr(0))

    def test_reserve_static(self):
        manager = QubitManager(StatevectorSimulator(0), allow_on_the_fly=False)
        manager.reserve_static(3)
        assert manager.slot_for(IntPtr(2)) == 2
        assert manager.on_the_fly_allocations == 0

    def test_reserved_block_binds_on_first_static_use(self):
        sim = StatevectorSimulator(0)
        manager = QubitManager(sim)
        manager.reserve_static(3)
        assert sim.num_qubits == 0  # nothing bound until an address is used
        dynamic = manager.allocate()
        assert manager.slot_for(dynamic) == 0  # allocated first: first slot
        assert manager.slot_for(IntPtr(1)) == 2  # block 0..2 -> slots 1..3
        assert manager.slot_for(IntPtr(0)) == 1
        assert sim.num_qubits == 4
        assert manager.on_the_fly_allocations == 0

    @pytest.mark.parametrize("sampling", ["never", "auto"])
    def test_dynamic_program_simulates_only_its_own_width(self, sampling):
        # required_num_qubits describes the static address space; a
        # program that allocates dynamically must not also pay for it.
        result = QirRuntime(max_qubits=10, seed=1).run_shots(
            ghz_qir(10, addressing="dynamic"), shots=4, sampling=sampling
        )
        assert sum(result.counts.values()) == 4
        assert set(result.counts) <= {"0" * 10, "1" * 10}

    def test_peak_width_tracks_reuse(self):
        sim = StatevectorSimulator(0)
        manager = QubitManager(sim)
        a = manager.allocate()
        manager.release(a)
        b = manager.allocate()
        manager.release(b)
        assert manager.total_allocations == 2
        assert manager.peak_width == 1

    def test_program_without_attribute_runs_via_on_the_fly(self):
        # Strip the required_num_qubits attribute: Sec. IV-A's hard case.
        src = """
        define void @main() #0 {
        entry:
          call void @__quantum__qis__h__body(ptr inttoptr (i64 3 to ptr))
          call void @__quantum__qis__mz__body(ptr inttoptr (i64 3 to ptr), ptr writeonly null)
          ret void
        }
        declare void @__quantum__qis__h__body(ptr)
        declare void @__quantum__qis__mz__body(ptr, ptr writeonly)
        attributes #0 = { "entry_point" }
        """
        result = execute(src, seed=0)
        assert result.result_bits in ([0], [1])

    def test_program_without_attribute_fails_when_disabled(self):
        src = """
        define void @main() #0 {
        entry:
          call void @__quantum__qis__h__body(ptr null)
          ret void
        }
        declare void @__quantum__qis__h__body(ptr)
        attributes #0 = { "entry_point" }
        """
        rt = QirRuntime(seed=0, allow_on_the_fly_qubits=False)
        with pytest.raises(QirRuntimeError):
            rt.execute(src)


class TestShots:
    def test_shot_count(self):
        result = run_shots(bell_text(), shots=37, seed=1)
        assert result.shots == 37
        assert sum(result.counts.values()) == 37

    def test_probabilities(self):
        result = run_shots(bell_text(), shots=100, seed=2)
        probs = result.probabilities()
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_seeded_reproducibility(self):
        a = run_shots(bell_text(), shots=100, seed=42).counts
        b = run_shots(bell_text(), shots=100, seed=42).counts
        assert a == b

    def test_module_reuse_across_shots(self):
        module = parse_assembly(bell_text())
        result = run_shots(module, shots=50, seed=1)
        assert sum(result.counts.values()) == 50
        # running again from the same Module object must still work
        again = run_shots(module, shots=50, seed=1)
        assert again.counts == result.counts


REPEATED_QUBIT = """
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr writeonly)
attributes #0 = { "entry_point" "required_num_qubits"="1" }
"""


@pytest.mark.parametrize("form", ["text", "plan"])
@pytest.mark.parametrize(
    "backend,options",
    [
        ("statevector", {"sampling": "never"}),
        ("statevector", {"sampling": "auto"}),
        ("statevector", {"sampling": "never", "jobs": 2}),
        ("stabilizer", {}),
    ],
    ids=["never", "auto", "jobs2", "stabilizer"],
)
def test_gate_on_a_repeated_qubit_fails_closed(form, backend, options):
    """One qubit passed twice to a gate is a structured QIR004 on every
    path, never a simulator's bare ValueError or a silent histogram."""
    from repro.runtime import compile_plan
    from repro.runtime.errors import InvalidPointerError

    program = REPEATED_QUBIT if form == "text" else compile_plan(REPEATED_QUBIT)
    with pytest.raises(InvalidPointerError, match="cnot") as caught:
        QirRuntime(backend=backend, seed=1).run_shots(program, shots=4, **options)
    assert caught.value.describe().startswith("[QIR004]")
