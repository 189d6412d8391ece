"""BatchedStatevectorSimulator: vectorised multi-shot evolution.

The determinism contract under test: member ``i`` seeded with seed ``s``
must draw the exact uniform sequence -- and apply bit-identical gate
arithmetic -- that a scalar :class:`StatevectorSimulator` seeded with
``s`` would, so batched counts reproduce serial per-shot counts exactly.
"""

import numpy as np
import pytest

from repro.sim.gates import gate_matrix
from repro.sim.statevector import BatchedStatevectorSimulator, StatevectorSimulator


def scalar_twin(seed, num_qubits):
    return StatevectorSimulator(num_qubits, seed=seed)


def apply(sim, name, qubits, params=()):
    """One gate, as a fused kernel schedule applies it to either simulator."""
    sim.apply_matrix(gate_matrix(name, params), qubits)


class TestConstruction:
    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BatchedStatevectorSimulator(0)

    def test_rejects_seed_count_mismatch(self):
        with pytest.raises(ValueError):
            BatchedStatevectorSimulator(3, seeds=[1, 2])

    def test_rejects_width_over_max(self):
        with pytest.raises(ValueError):
            BatchedStatevectorSimulator(2, num_qubits=5, max_qubits=4)

    def test_initial_state_is_all_zero(self):
        sim = BatchedStatevectorSimulator(4, num_qubits=2)
        for member in range(4):
            state = sim.member_state(member)
            assert state[0] == 1.0
            assert np.allclose(state[1:], 0.0)


class TestGateEquivalence:
    def test_single_qubit_gates_match_scalar(self):
        batched = BatchedStatevectorSimulator(3, num_qubits=2, seeds=[1, 2, 3])
        scalar = scalar_twin(1, 2)
        for sim in (batched, scalar):
            apply(sim, "h", [0])
            apply(sim, "ry", [1], [0.37])
        for member in range(3):
            assert np.array_equal(batched.member_state(member), scalar.state)

    def test_two_qubit_gates_match_scalar(self):
        batched = BatchedStatevectorSimulator(2, num_qubits=3, seeds=[5, 6])
        scalar = scalar_twin(5, 3)
        for sim in (batched, scalar):
            apply(sim, "h", [0])
            apply(sim, "cnot", [0, 2])
            apply(sim, "cnot", [2, 1])
        for member in range(2):
            assert np.array_equal(batched.member_state(member), scalar.state)

    def test_three_qubit_dense_gate_matches_scalar(self):
        batched = BatchedStatevectorSimulator(2, num_qubits=3, seeds=[5, 6])
        scalar = scalar_twin(5, 3)
        for sim in (batched, scalar):
            apply(sim, "x", [0])
            apply(sim, "x", [1])
            apply(sim, "ccx", [0, 1, 2])
        for member in range(2):
            assert np.array_equal(batched.member_state(member), scalar.state)

    def test_gate_validation_matches_scalar(self):
        sim = BatchedStatevectorSimulator(2, num_qubits=2)
        with pytest.raises(ValueError):
            apply(sim, "cnot", [0, 0])
        with pytest.raises(ValueError):
            sim.apply_matrix(np.eye(2), [0, 1])


class TestMeasurementEquivalence:
    def test_members_collapse_like_seeded_scalars(self):
        seeds = [11, 12, 13, 14]
        batched = BatchedStatevectorSimulator(4, num_qubits=1, seeds=seeds)
        apply(batched, "h", [0])
        outcomes = batched.measure(0)
        for member, seed in enumerate(seeds):
            scalar = scalar_twin(seed, 1)
            apply(scalar, "h", [0])
            assert outcomes[member] == scalar.measure(0)
            assert np.array_equal(batched.member_state(member), scalar.state)

    def test_reset_reuses_member_rng_like_scalar(self):
        # reset() on a superposed qubit draws from the member RNG exactly
        # as the scalar simulator would, keeping streams aligned after.
        seeds = [7, 8]
        batched = BatchedStatevectorSimulator(2, num_qubits=1, seeds=seeds)
        apply(batched, "ry", [0], [1.1])
        batched.reset(0)
        apply(batched, "h", [0])
        post_reset = batched.measure(0)
        for member, seed in enumerate(seeds):
            scalar = scalar_twin(seed, 1)
            apply(scalar, "ry", [0], [1.1])
            scalar.reset(0)
            apply(scalar, "h", [0])
            assert post_reset[member] == scalar.measure(0)

    def test_mid_circuit_remeasurement_chain_matches_scalar(self):
        seeds = [21, 22, 23]
        batched = BatchedStatevectorSimulator(3, num_qubits=2, seeds=seeds)
        scalars = [scalar_twin(seed, 2) for seed in seeds]

        def chain(sim, measure_all):
            results = []
            for theta in (0.4, 0.9):
                apply(sim, "ry", [0], [theta])
                apply(sim, "cnot", [0, 1])
                results.append(measure_all())
                sim.reset(0)
            return results

        batched_rounds = chain(
            batched, lambda: [batched.measure(0).tolist(), batched.measure(1).tolist()]
        )
        for member, scalar in enumerate(scalars):
            scalar_rounds = chain(
                scalar, lambda: [scalar.measure(0), scalar.measure(1)]
            )
            for r, (b0, b1) in enumerate(batched_rounds):
                assert b0[member] == scalar_rounds[r][0]
                assert b1[member] == scalar_rounds[r][1]
