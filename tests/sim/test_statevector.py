"""Unit + property tests for the statevector simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.gates import gate_matrix
from repro.sim.statevector import StatevectorSimulator


class TestBasics:
    def test_initial_state(self):
        sim = StatevectorSimulator(2)
        assert sim.amplitude(0) == 1
        assert sim.norm() == pytest.approx(1.0)

    def test_x_flips(self):
        sim = StatevectorSimulator(1)
        sim.apply_gate("x", [0])
        assert abs(sim.amplitude(1)) == pytest.approx(1.0)

    def test_h_superposition(self):
        sim = StatevectorSimulator(1)
        sim.apply_gate("h", [0])
        assert sim.probability_of_one(0) == pytest.approx(0.5)

    def test_bell_state(self):
        sim = StatevectorSimulator(2)
        sim.apply_gate("h", [0])
        sim.apply_gate("cnot", [0, 1])
        probs = sim.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5)
        assert probs[1] == probs[2] == pytest.approx(0.0)

    def test_little_endian_convention(self):
        # X on qubit 2 of three sets basis index 4.
        sim = StatevectorSimulator(3)
        sim.apply_gate("x", [2])
        assert abs(sim.amplitude(4)) == pytest.approx(1.0)

    def test_cnot_control_order(self):
        sim = StatevectorSimulator(2)
        sim.apply_gate("x", [1])
        sim.apply_gate("cnot", [1, 0])  # control=1, target=0
        assert abs(sim.amplitude(3)) == pytest.approx(1.0)

    def test_ccx(self):
        sim = StatevectorSimulator(3)
        sim.apply_gate("x", [0])
        sim.apply_gate("x", [1])
        sim.apply_gate("ccx", [0, 1, 2])
        assert abs(sim.amplitude(7)) == pytest.approx(1.0)

    def test_duplicate_targets_rejected(self):
        sim = StatevectorSimulator(2)
        with pytest.raises(ValueError):
            sim.apply_gate("cnot", [0, 0])

    def test_out_of_range_qubit(self):
        sim = StatevectorSimulator(1)
        with pytest.raises(IndexError):
            sim.apply_gate("x", [3])

    def test_matrix_shape_checked(self):
        sim = StatevectorSimulator(2)
        with pytest.raises(ValueError):
            sim.apply_matrix(np.eye(2), [0, 1])

    def test_max_qubits_guard(self):
        with pytest.raises(ValueError):
            StatevectorSimulator(30, max_qubits=26)


class TestMeasurement:
    def test_deterministic_outcomes(self):
        sim = StatevectorSimulator(1, seed=0)
        assert sim.measure(0) == 0
        sim.apply_gate("x", [0])
        assert sim.measure(0) == 1

    def test_collapse(self):
        sim = StatevectorSimulator(1, seed=3)
        sim.apply_gate("h", [0])
        outcome = sim.measure(0)
        # post-measurement state is the observed basis state
        assert sim.probability_of_one(0) == pytest.approx(float(outcome))

    def test_entangled_collapse(self):
        sim = StatevectorSimulator(2, seed=5)
        sim.apply_gate("h", [0])
        sim.apply_gate("cnot", [0, 1])
        a = sim.measure(0)
        b = sim.measure(1)
        assert a == b

    def test_postselect(self):
        sim = StatevectorSimulator(1)
        sim.apply_gate("h", [0])
        p = sim.postselect(0, 1)
        assert p == pytest.approx(0.5)
        assert sim.probability_of_one(0) == pytest.approx(1.0)

    def test_postselect_impossible(self):
        sim = StatevectorSimulator(1)
        with pytest.raises(FloatingPointError):
            sim.postselect(0, 1)

    def test_reset(self):
        sim = StatevectorSimulator(1, seed=1)
        sim.apply_gate("x", [0])
        sim.reset(0)
        assert sim.probability_of_one(0) == pytest.approx(0.0)

    def test_measurement_statistics(self):
        sim = StatevectorSimulator(1, seed=11)
        ones = 0
        for _ in range(400):
            s = StatevectorSimulator(1, seed=None)
            s.apply_gate("h", [0])
            ones += s.measure(0)
        assert 130 < ones < 270

    def test_sample_histogram(self):
        sim = StatevectorSimulator(2, seed=2)
        sim.apply_gate("h", [0])
        sim.apply_gate("cnot", [0, 1])
        counts = sim.sample(1000)
        assert set(counts) == {"00", "11"}
        assert 400 < counts["00"] < 600


class TestAllocation:
    def test_grow_on_allocate(self):
        sim = StatevectorSimulator(0)
        a = sim.allocate_qubit()
        b = sim.allocate_qubit()
        assert (a, b) == (0, 1)
        assert sim.num_qubits == 2
        assert abs(sim.amplitude(0)) == pytest.approx(1.0)

    def test_allocation_preserves_state(self):
        sim = StatevectorSimulator(0)
        q0 = sim.allocate_qubit()
        sim.apply_gate("x", [q0])
        sim.allocate_qubit()
        # |01> in 2-qubit space (qubit0 = 1)
        assert abs(sim.amplitude(1)) == pytest.approx(1.0)

    def test_release_and_reuse(self):
        sim = StatevectorSimulator(0)
        a = sim.allocate_qubit()
        sim.apply_gate("x", [a])
        sim.release_qubit(a)
        b = sim.allocate_qubit()
        assert b == a  # slot reused
        assert sim.probability_of_one(b) == pytest.approx(0.0)

    def test_double_release_rejected(self):
        sim = StatevectorSimulator(1)
        sim.release_qubit(0)
        with pytest.raises(ValueError):
            sim.release_qubit(0)

    def test_memory_guard_on_growth(self):
        sim = StatevectorSimulator(0, max_qubits=3)
        for _ in range(3):
            sim.allocate_qubit()
        with pytest.raises(MemoryError):
            sim.allocate_qubit()


@st.composite
def random_ops(draw, num_qubits=3, max_len=10):
    ops = []
    n = draw(st.integers(min_value=1, max_value=max_len))
    for _ in range(n):
        kind = draw(st.sampled_from(["h", "x", "s", "t", "rz", "cnot", "cz"]))
        if kind in ("cnot", "cz"):
            a = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            b = draw(
                st.integers(min_value=0, max_value=num_qubits - 1).filter(
                    lambda x: x != a
                )
            )
            ops.append((kind, [a, b], []))
        elif kind == "rz":
            q = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            theta = draw(st.floats(min_value=-3, max_value=3, allow_nan=False))
            ops.append((kind, [q], [theta]))
        else:
            q = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            ops.append((kind, [q], []))
    return ops


@given(random_ops())
@settings(max_examples=60, deadline=None)
def test_norm_preserved_property(ops):
    sim = StatevectorSimulator(3)
    for name, qubits, params in ops:
        sim.apply_gate(name, qubits, params)
    assert sim.norm() == pytest.approx(1.0, abs=1e-9)


@given(random_ops())
@settings(max_examples=40, deadline=None)
def test_matches_dense_matrix_reference(ops):
    """Tensor-contraction kernels agree with explicit kron-product math."""
    n = 3
    sim = StatevectorSimulator(n)
    reference = np.zeros(2**n, dtype=complex)
    reference[0] = 1.0
    for name, qubits, params in ops:
        sim.apply_gate(name, qubits, params)
        reference = _dense_apply(reference, gate_matrix(name, params), qubits, n)
    assert np.allclose(sim.state, reference, atol=1e-10)


def _dense_apply(state, matrix, qubits, n):
    """Reference implementation: build the full 2^n matrix by index algebra."""
    full = np.zeros((2**n, 2**n), dtype=complex)
    k = len(qubits)
    for col in range(2**n):
        # extract the sub-index for the targeted qubits (qubits[0] = MSB)
        sub = 0
        for qubit in qubits:
            sub = (sub << 1) | ((col >> qubit) & 1)
        for sub_out in range(2**k):
            row = col
            for bit_pos, qubit in enumerate(qubits):
                bit = (sub_out >> (k - 1 - bit_pos)) & 1
                row = (row & ~(1 << qubit)) | (bit << qubit)
            full[row, col] += matrix[sub_out, sub]
    return full @ state


# -- the kernel table ------------------------------------------------------------

from repro.sim import statevector  # noqa: E402
from repro.sim.gates import DENSE, DIAGONAL, GATE_SET, PERMUTATION  # noqa: E402

CAP = statevector.KERNEL_INDEX_MAX_QUBITS


def _random_state(rng, n):
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return state / np.linalg.norm(state)


def _reference_reset(sim, qubit):
    """Reset through the dense path: the draw rule of ``reset``, and X as
    a matrix product."""
    p1 = sim.probability_of_one(qubit)
    if 1e-12 < p1 < 1.0 - 1e-12:
        outcome = sim.measure(qubit)
    else:
        outcome = int(p1 >= 0.5)
    if outcome:
        sim.apply_matrix(gate_matrix("x"), [qubit])


@pytest.mark.parametrize("n", range(1, CAP + 2))
def test_gate_kernels_match_the_dense_path_bit_for_bit(n):
    """Every gate, random parameters and qubits, measure/reset in
    between: amplitudes equal the matrix path's (``array_equal`` lets only
    the sign of a zero differ) and every outcome is the same."""
    rng = np.random.default_rng(1000 + n)
    start = _random_state(rng, n)
    kernels = StatevectorSimulator(n, seed=n)
    dense = StatevectorSimulator(n, seed=n)
    kernels.load_state(start)
    dense.load_state(start)
    gates = [spec for spec in GATE_SET.values() if spec.num_qubits <= n]
    for step in range(3 * len(gates)):
        spec = gates[step % len(gates)]
        qubits = [int(q) for q in rng.permutation(n)[: spec.num_qubits]]
        params = [float(p) for p in rng.uniform(-7.0, 7.0, spec.num_params)]
        kernels.apply_gate(spec.name, qubits, params)
        dense.apply_matrix(gate_matrix(spec.name, params), qubits)
        assert np.array_equal(kernels.state, dense.state), (spec.name, qubits)
        if step % 5 == 4:
            qubit = int(rng.integers(n))
            assert kernels.measure(qubit) == dense.measure(qubit)
        elif step % 7 == 6:
            qubit = int(rng.integers(n))
            kernels.reset(qubit)
            _reference_reset(dense, qubit)
        assert np.array_equal(kernels.state, dense.state)
    for qubit in range(n):
        assert kernels.measure(qubit) == dense.measure(qubit)


def test_wide_registers_keep_the_slice_kernels():
    sim = StatevectorSimulator(CAP + 1)
    sim.apply_gate("cnot", [0, CAP])
    assert statevector._KERNELS[(CAP + 1, "cnot", (0, CAP))].index is None
    sim = StatevectorSimulator(CAP)
    sim.apply_gate("cnot", [0, CAP - 1])
    assert statevector._KERNELS[(CAP, "cnot", (0, CAP - 1))].index is not None


def _is_permutation(matrix):
    ones = matrix == 1
    return bool(
        np.all(ones | (matrix == 0))
        and np.all(ones.sum(axis=0) == 1)
        and np.all(ones.sum(axis=1) == 1)
    )


def _is_diagonal(matrix):
    return bool(np.all(matrix[~np.eye(len(matrix), dtype=bool)] == 0))


@pytest.mark.parametrize("name", sorted(GATE_SET))
def test_kernel_class_matches_the_matrix_for_any_parameters(name):
    spec = GATE_SET[name]
    assert spec.kind in (PERMUTATION, DIAGONAL, DENSE)
    rng = np.random.default_rng(7)
    for _ in range(20):
        matrix = gate_matrix(name, rng.uniform(-7.0, 7.0, spec.num_params))
        if spec.kind == PERMUTATION:
            assert _is_permutation(matrix)
        elif spec.kind == DIAGONAL:
            assert _is_diagonal(matrix)
    if spec.kind == DENSE and spec.num_params:
        # The class is the family's: a dense family may have diagonal
        # members (ry(0)), but not for generic angles.
        assert not _is_diagonal(matrix) and not _is_permutation(matrix)


@pytest.mark.parametrize("name", ["rz", "t", "p", "cp", "crz", "rzz"])
def test_phases_multiply_the_state_from_the_left(name):
    """numpy's complex product is not bit-symmetric in its operands on
    every build; the dense kernels put the matrix entry first, so the
    phase multiply must too."""
    spec = GATE_SET[name]
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(spec.num_qubits, 6))
        qubits = [int(q) for q in rng.permutation(n)[: spec.num_qubits]]
        params = [float(p) for p in rng.uniform(-7.0, 7.0, spec.num_params)]
        start = _random_state(rng, n)
        kernels = StatevectorSimulator(n)
        dense = StatevectorSimulator(n)
        kernels.load_state(start)
        dense.load_state(start)
        kernels.apply_gate(name, qubits, params)
        dense.apply_matrix(gate_matrix(name, params), qubits)
        assert np.array_equal(kernels.state, dense.state)


@pytest.mark.parametrize(
    "name, qubits, params, error",
    [
        ("x", [3], (), IndexError),
        ("cnot", [0, 2], (), IndexError),
        ("cnot", [1, 1], (), ValueError),
        ("ccx", [0, 1, 0], (), ValueError),
        ("cnot", [0], (), ValueError),
        ("h", [0, 1], (), ValueError),
        ("rz", [0], (), ValueError),
        ("x", [0], (0.5,), ValueError),
        ("nope", [0], (), KeyError),
    ],
)
def test_bad_calls_raise_the_same_error_every_time(name, qubits, params, error):
    sim = StatevectorSimulator(2)
    # Good calls on the same keys first, so a cached key is in the way.
    sim.apply_gate("x", [0])
    sim.apply_gate("rz", [0], [0.1])
    before = sim.state.copy()
    messages = []
    for _ in range(3):
        with pytest.raises(error) as raised:
            sim.apply_gate(name, qubits, params)
        messages.append(str(raised.value))
    assert len(set(messages)) == 1
    assert np.array_equal(sim.state, before)


def test_growing_the_register_builds_a_new_key():
    sim = StatevectorSimulator(1)
    sim.apply_gate("x", [0])
    assert (1, "x", (0,)) in statevector._KERNELS
    sim.allocate_qubit()
    statevector._KERNELS.pop((2, "x", (0,)), None)
    sim.apply_gate("x", [0])
    assert (2, "x", (0,)) in statevector._KERNELS
    assert abs(sim.amplitude(0)) == pytest.approx(1.0)
    with pytest.raises(IndexError):
        StatevectorSimulator(1).apply_gate("cnot", [0, 1])


def test_kernel_table_stays_within_its_bound():
    sim = StatevectorSimulator(9)
    keys = 0
    for a in range(9):
        for b in range(9):
            if a != b:
                for name in ("cnot", "cz", "swap", "rzz"):
                    sim.apply_gate(name, [a, b], [0.25] * GATE_SET[name].num_params)
                    keys += 1
                    assert len(statevector._KERNELS) <= statevector.KERNEL_TABLE_SIZE
    assert keys > statevector.KERNEL_TABLE_SIZE
    # The newest key survives; the oldest went first.
    assert (9, "rzz", (8, 7)) in statevector._KERNELS
    assert (9, "cnot", (0, 1)) not in statevector._KERNELS


def test_kernel_table_bound_holds_under_concurrent_builds(monkeypatch):
    import sys
    import threading

    monkeypatch.setattr(statevector, "KERNEL_TABLE_SIZE", 8)
    monkeypatch.setattr(statevector, "_KERNELS", {})

    def build(offset):
        sim = StatevectorSimulator(8)
        for a in range(8):
            for b in range(8):
                if a != b:
                    sim.apply_gate("rzz", [a, b], [0.1 * offset])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(statevector._KERNELS) <= 8


def test_measure_and_reset_check_the_qubit_once(monkeypatch):
    checks = []
    check = StatevectorSimulator._check_qubit
    monkeypatch.setattr(
        StatevectorSimulator, "_check_qubit",
        lambda self, qubit: checks.append(qubit) or check(self, qubit),
    )
    sim = StatevectorSimulator(2, seed=4)
    sim.apply_gate("h", [0])
    sim.apply_gate("x", [1])
    sim.measure(0)
    assert checks == [0]
    sim.reset(1)
    assert checks == [0, 1]
    assert sim.probability_of_one(1) == 0.0
    with pytest.raises(IndexError):
        sim.measure(2)
    with pytest.raises(IndexError):
        sim.reset(-1)


def test_double_release_raises_before_touching_the_state():
    sim = StatevectorSimulator(1)
    sim.release_qubit(0)
    sim.apply_gate("x", [0])
    with pytest.raises(ValueError, match="double release"):
        sim.release_qubit(0)
    assert abs(sim.amplitude(1)) == pytest.approx(1.0)
